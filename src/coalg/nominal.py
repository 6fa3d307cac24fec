"""Register-style transition systems over an infinite atom alphabet.

States are a control label plus a tuple of pairwise-distinct atoms
(natural numbers).  Transition rules are given per (source label, input
case) where the input either equals a specific register or is fresh;
successor templates assign each target register from a source register,
the input atom, or a fresh placeholder.  Renaming atoms by any finite
permutation maps transitions to transitions, so one label stands for one
orbit of states and the finite *orbit graph* on labels decides
well-foundedness of the whole (infinite) system: an infinite concrete run
exists iff the orbit graph has a cycle reachable from the start label.
:func:`path_witness` lifts an orbit cycle to a verified concrete run; the
other direction (every concrete run projects to an orbit path) is checked
by random simulation in the tests.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import InputError, NotWellFoundedError, UnknownLabelError, check_fields, check_header
from .fixpoint import least_fixpoint, reach
from .records import record

FRESH_CASE = ("fresh",)

# assignment slots
INPUT_SLOT = ("input",)


def reg(i: int) -> tuple:
    return ("reg", i)


def fresh_var(m: int) -> tuple:
    return ("fresh", m)


@record
class NState:
    label: str
    registers: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.registers)) != len(self.registers):
            raise InputError(f"registers must be pairwise distinct: {self.registers}")

    def __str__(self):
        return f"{self.label}[{','.join(str(a) for a in self.registers)}]"


@record
class Template:
    """One successor: a target label and one slot per target register."""

    label: str
    assign: tuple[tuple, ...]


@record
class Rule:
    source: str
    case: tuple  # FRESH_CASE or ("reg", i)
    templates: tuple[Template, ...]


class NLTSSpec:
    """Finite symbolic presentation of a register transition system."""

    def __init__(self, labels: Mapping[str, int], rules: Iterable[Rule]):
        self.labels = dict(labels)
        for lbl, ar in self.labels.items():
            if not lbl or ar < 0:
                raise InputError(f"bad label declaration: {lbl!r}/{ar}")
        self.rules = tuple(rules)
        for rule in self.rules:
            self._check_rule(rule)
        # the orbit graph, numbered as a NumberedGraph numbers its states:
        # the labels in sorted order, and each one's targets as indices
        self._names = names = tuple(sorted(self.labels))
        at = dict(zip(names, range(len(names))))
        out: list[set[int]] = [set() for _ in names]
        for rule in self.rules:
            out[at[rule.source]].update(at[tpl.label] for tpl in rule.templates)
        self._out = tuple(tuple(sorted(targets)) for targets in out)

    def _check_rule(self, rule: Rule):
        if rule.source not in self.labels:
            raise UnknownLabelError(f"rule source {rule.source!r} not declared")
        src_arity = self.labels[rule.source]
        if rule.case != FRESH_CASE:
            tag, i = rule.case
            if tag != "reg" or not (0 <= i < src_arity):
                raise InputError(f"bad input case {rule.case!r} for {rule.source!r}")
        for tpl in rule.templates:
            if tpl.label not in self.labels:
                raise UnknownLabelError(f"template target {tpl.label!r} not declared")
            if len(tpl.assign) != self.labels[tpl.label]:
                raise InputError(
                    f"template for {tpl.label!r} needs {self.labels[tpl.label]} slots"
                )
            if len(set(tpl.assign)) != len(tpl.assign):
                raise InputError(f"template slots must be distinct: {tpl.assign}")
            for slot in tpl.assign:
                if slot == INPUT_SLOT:
                    continue
                tag = slot[0]
                if tag == "reg":
                    if not (0 <= slot[1] < src_arity):
                        raise InputError(f"slot {slot!r} out of source range")
                elif tag != "fresh":
                    raise InputError(f"unknown slot {slot!r}")
            if rule.case != FRESH_CASE and rule.case in tpl.assign and INPUT_SLOT in tpl.assign:
                # under case reg(i) the input coincides with register i, so a
                # template using both would repeat an atom
                raise InputError(
                    f"template mixes {rule.case!r} and the input slot under case {rule.case!r}"
                )

    def templates_for(self, label: str, case: tuple) -> list[Template]:
        out: list[Template] = []
        for rule in self.rules:
            if rule.source == label and rule.case == case:
                out.extend(rule.templates)
        return out

    def check_state(self, state: NState):
        if state.label not in self.labels:
            raise UnknownLabelError(f"unknown label {state.label!r}")
        if len(state.registers) != self.labels[state.label]:
            raise InputError(
                f"state {state} has {len(state.registers)} registers, "
                f"label {state.label!r} declares {self.labels[state.label]}"
            )


def _fresh_atoms(count: int, used: set[int]) -> list[int]:
    out = []
    candidate = 0
    while len(out) < count:
        if candidate not in used:
            out.append(candidate)
        candidate += 1
    return out


def nominal_step(spec: NLTSSpec, state: NState, a: int) -> frozenset[NState]:
    """All successors of ``state`` on input atom ``a``.

    The input case is determined by whether ``a`` equals a register; every
    matching template is instantiated.  Fresh placeholders take the
    smallest atoms outside registers + input, assigned in placeholder
    order, which makes every step deterministic.
    """
    spec.check_state(state)
    if a in state.registers:
        case = reg(state.registers.index(a))
    else:
        case = FRESH_CASE
    used = set(state.registers) | {a}
    out = set()
    for tpl in spec.templates_for(state.label, case):
        placeholders = sorted({s[1] for s in tpl.assign if s[0] == "fresh"})
        fresh_pool = dict(zip(placeholders, _fresh_atoms(len(placeholders), used)))
        registers = []
        for slot in tpl.assign:
            if slot == INPUT_SLOT:
                registers.append(a)
            elif slot[0] == "reg":
                registers.append(state.registers[slot[1]])
            else:
                registers.append(fresh_pool[slot[1]])
        out.add(NState(tpl.label, tuple(registers)))
    return frozenset(out)


def orbit_graph(spec: NLTSSpec) -> dict[str, frozenset[str]]:
    """The finite graph on labels: an edge per template target.  A view,
    by name, of the spec's numbered graph."""
    names = spec._names
    return {x: frozenset(map(names.__getitem__, out)) for x, out in zip(names, spec._out)}


def nominal_is_well_founded(spec: NLTSSpec) -> bool:
    """True iff the orbit graph is acyclic.

    Acyclicity of the finite orbit graph is equivalent to the concrete
    (infinite) system having no infinite runs: concrete runs project to
    orbit paths, and any orbit cycle lifts to a concrete run because fresh
    atoms never run out.  Equivalently, the well-founded part of the orbit
    graph covers every label.
    """
    return len(nominal_wf_labels(spec)) == len(spec.labels)


def nominal_wf_labels(spec: NLTSSpec) -> frozenset[str]:
    """Labels from which no infinite concrete run exists: the well-founded
    part of the orbit graph, computed in time linear in its size."""
    return frozenset(map(spec._names.__getitem__, least_fixpoint(spec._out)[1]))


def path_witness(spec: NLTSSpec, state: NState, length: int) -> list[tuple[int, NState]]:
    """A concrete run of ``length`` steps from ``state``, fully verified.

    Requires that the orbit graph has a cycle reachable from the state's
    label.  Each step is chosen deterministically (first applicable rule
    toward the smallest live successor label, smallest admissible atom) and
    is checked to be a genuine successor via :func:`nominal_step`.
    """
    spec.check_state(state)
    names, out = spec._names, spec._out
    rank = least_fixpoint(out)[0]  # 0 marks a live label, one with an infinite run
    i = names.index(state.label)
    if rank[i]:
        raise InputError(f"no infinite run exists from label {state.label!r}")
    steps: list[tuple[int, NState]] = []
    current = state
    for _ in range(length):
        # a live label has a live target, and the orbit edge a rule toward it
        i = min(j for j in out[i] if not rank[j])
        target = names[i]
        case = next(
            r.case for r in spec.rules if r.source == current.label and any(t.label == target for t in r.templates)
        )
        if case == FRESH_CASE:
            a = _fresh_atoms(1, set(current.registers))[0]
        else:
            a = current.registers[case[1]]
        matching = [s for s in nominal_step(spec, current, a) if s.label == target]
        if not matching:
            raise InputError(f"template toward {target!r} did not instantiate")
        current = min(matching, key=lambda s: s.registers)
        steps.append((a, current))
    return steps


def nominal_koenig_extract(spec: NLTSSpec, state: NState) -> frozenset[str]:
    """The labels reachable from the state's label in the orbit graph.

    On a well-founded spec this describes an orbit-finite, successor-closed
    subsystem containing the state: all states whose label is in the
    returned set.  The state is checked against the spec first, so a bad
    state is an input error whatever the verdict.
    """
    spec.check_state(state)
    names, out = spec._names, spec._out
    if len(least_fixpoint(out)[1]) < len(out):
        raise NotWellFoundedError("system is not well-founded")
    return frozenset(map(names.__getitem__, reach(out.__getitem__, [names.index(state.label)])[0]))


# ---------------------------------------------------------------------------
# JSON


def _case_from_json(doc, where: str) -> tuple:
    if doc == "fresh":
        return FRESH_CASE
    if isinstance(doc, dict) and set(doc) == {"reg"} and type(doc["reg"]) is int:
        return reg(doc["reg"])
    raise InputError(f"{where}: expected 'fresh' or {{'reg': i}}")


def _slot_from_json(doc, where: str) -> tuple:
    if doc == "input":
        return INPUT_SLOT
    if isinstance(doc, dict) and len(doc) == 1:
        tag, value = next(iter(doc.items()))
        if tag in ("reg", "fresh") and type(value) is int:
            return (tag, value)
    raise InputError(f"{where}: expected 'input', {{'reg': j}} or {{'fresh': m}}")


def nlts_from_json(doc) -> NLTSSpec:
    check_header(doc, "nlts", ("labels", "rules"))
    labels = doc.get("labels")
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and k and type(v) is int and v >= 0 for k, v in labels.items()
    ):
        raise InputError("$.labels: expected an object of label -> arity")
    rules_doc = doc.get("rules", [])
    if not isinstance(rules_doc, list):
        raise InputError("$.rules: expected a list")
    rules = []
    for i, rd in enumerate(rules_doc):
        where = f"$.rules[{i}]"
        if not isinstance(rd, dict) or not isinstance(rd.get("from"), str) or "case" not in rd:
            raise InputError(f"{where}: expected {{from, case, to}}")
        check_fields(rd, ("from", "case", "to"), where)
        to = rd.get("to", [])
        if not isinstance(to, list):
            raise InputError(f"{where}.to: expected a list")
        templates = []
        for j, td in enumerate(to):
            if not isinstance(td, dict) or not isinstance(td.get("label"), str):
                raise InputError(f"{where}.to[{j}]: expected {{label, assign}}")
            check_fields(td, ("label", "assign"), f"{where}.to[{j}]")
            if not isinstance(td.get("assign"), list):
                raise InputError(f"{where}.to[{j}].assign: expected a list")
            templates.append(
                Template(
                    td["label"],
                    tuple(
                        _slot_from_json(s, f"{where}.to[{j}].assign[{k}]")
                        for k, s in enumerate(td["assign"])
                    ),
                )
            )
        rules.append(
            Rule(rd["from"], _case_from_json(rd["case"], f"{where}.case"), tuple(templates))
        )
    try:
        return NLTSSpec(labels, rules)
    except InputError as exc:
        raise InputError(f"$.rules: {exc}") from None


def state_from_text(text: str) -> NState:
    """Parse ``label[a0,a1,...]`` (or a bare label for arity 0), with no
    whitespace around it."""
    if text != text.strip():
        raise InputError(f"bad state syntax: {text!r}")
    if "[" not in text:
        return NState(text, ())
    if not text.endswith("]"):
        raise InputError(f"bad state syntax: {text!r}")
    label, _, rest = text.partition("[")
    body = rest[:-1]
    if not body:
        return NState(label, ())
    parts = body.split(",")
    try:
        atoms = tuple(map(int, parts))
    except ValueError:  # not an integer, or more than 4300 digits
        atoms = ()
    # an atom is a natural number a, written as str(a): one text per state
    if "-" in body or parts != list(map(str, atoms)):
        raise InputError(f"bad register list in {text!r}: registers are natural numbers, written as str(a)")
    return NState(label, atoms)
