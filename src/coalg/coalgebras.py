"""State systems over the container grammar.

A coalgebra pairs a carrier of named states with a transition structure
assigning each state a container value.  Finite systems are tables and
get validated eagerly; lazy systems expose a structure rule (and perhaps a
successor rule) and are meant for infinite carriers, so any global
analysis on them must be budget-guarded by the caller.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .containers import (
    Container,
    HStructure,
    container_from_json,
    container_to_json,
    has_pairneq,
    hmap,
    structure_decoder,
    structure_to_json,
    support,
)
from .errors import (
    AnalysisError,
    ContainerMismatchError,
    DanglingRefError,
    InputError,
    NameClashError,
    UnknownStateError,
    check_header,
)
from .fixpoint import reach
from .records import record


class NumberedGraph:
    """The canonical graph of a finite system, x -> supp(c(x)), on numbered
    states: all that the system's well-foundedness and its finite
    well-founded subsystems depend on, for a set functor.

    ``container`` is the system's functor, ``states`` the carrier in the
    order given, ``_names`` the states in sorted order, and ``_out`` each
    one's successors as a tuple of indices into ``_names``.  Index order is
    name order, so a least index, a sorted list of indices and a sorted
    frontier of :func:`coalg.fixpoint.reach` name the states that the names
    themselves would.  ``successor_map``,
    the view by name, is built on its first read and kept in ``_succ``.
    The constructor trusts its parts: ``names`` sorted, ``out`` indexing
    into it.
    """

    def __init__(self, container: Container, states: tuple, names, out):
        self.container = container
        self.states = states
        self._names = tuple(names)
        self._out = tuple(out)
        self._succ = None

    @property
    def successor_map(self) -> dict[str, frozenset[str]]:
        if self._succ is None:
            names = self._names
            out = dict(zip(names, self._out))
            self._succ = {x: frozenset([names[i] for i in out[x]]) for x in self.states}
        return self._succ

    def successors(self, state: str) -> frozenset[str]:
        names = self._names
        return frozenset([names[i] for i in self._out[self._index(state)]])

    def _index(self, state: str) -> int:
        """The index of ``state`` in ``_names``."""
        names = self._names
        i = bisect_left(names, state) if isinstance(state, str) else len(names)
        if i == len(names) or names[i] != state:
            raise UnknownStateError(f"unknown state {state!r}")
        return i

    def __repr__(self):
        return f"NumberedGraph({len(self.states)} states over {self.container!r})"


class FiniteCoalgebra(NumberedGraph):
    """A finite state system: every state has an explicit structure entry.

    Next to its functor, its carrier ``states`` and their ``structure``, a
    system keeps its canonical graph, the view the kernels read (see
    :class:`NumberedGraph`).
    """

    def __init__(self, container: Container, states: Iterable[str], structure: Mapping[str, HStructure]):
        states = tuple(states)
        structure = dict(structure)
        carrier = _check_carrier(states, structure)
        succ = {x: _successor_set(container, h, carrier.keys(), "structure of state", x) for x, h in structure.items()}
        super().__init__(container, states, carrier, [tuple(map(carrier.__getitem__, succ[x])) for x in carrier])
        self.structure = structure

    @classmethod
    def _trusted(cls, container, states: tuple, structure: dict, names, out):
        # internal constructor for systems whose parts are already checked
        # and not shared, with ``names`` sorted and ``out`` indexing into it
        obj = cls.__new__(cls)
        NumberedGraph.__init__(obj, container, states, names, out)
        obj.structure = structure
        return obj

    def structure_of(self, state: str) -> HStructure:
        try:
            return self.structure[state]
        except KeyError:
            raise UnknownStateError(f"unknown state {state!r}") from None

    def restrict(self, subset: Iterable[str]) -> "FiniteCoalgebra":
        """Restriction to a successor-closed subset, keeping carrier order."""
        subset = set(subset)
        if not subset <= set(self.states):
            raise UnknownStateError(f"not a subset of the carrier: {sorted(subset - set(self.states))}")
        keep = sorted(map(self._index, subset))
        at = dict(zip(keep, range(len(keep))))  # old index -> new index
        for i in keep:
            if not all(j in at for j in self._out[i]):
                raise InputError(f"subset is not successor-closed at {self._names[i]!r}")
        states = tuple(x for x in self.states if x in subset)
        return FiniteCoalgebra._trusted(
            self.container,
            states,
            {x: self.structure[x] for x in states},
            [self._names[i] for i in keep],
            [tuple(map(at.__getitem__, self._out[i])) for i in keep],
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteCoalgebra)
            and self.container == other.container
            and self.states == other.states
            and self.structure == other.structure
        )

    def __repr__(self):
        return f"FiniteCoalgebra({len(self.states)} states over {self.container!r})"


def _check_carrier(states: Sequence[str], structure: Mapping, states_at: str = "", structure_at: str = "") -> dict:
    """The carrier of a system, or the new states of an extension: its
    state ids, checked distinct (by :func:`_numbered`) and with
    ``structure`` total on them.  An error begins with ``states_at`` or
    ``structure_at``, the place that the caller names."""
    carrier = _numbered(states, states_at)
    if structure.keys() != carrier.keys():
        missing = sorted(carrier.keys() - structure.keys())
        extra = sorted(structure.keys() - carrier.keys())
        raise InputError(
            f"{structure_at}structure must be total on the carrier (missing {missing}, extra {extra})"
        )
    return carrier


def _numbered(states: Sequence[str], states_at: str = "") -> dict:
    """Each of the distinct state ids ``states`` mapped to its sorted index."""
    carrier = dict(zip(sorted(states), range(len(states))))
    if len(carrier) != len(states):
        raise InputError(f"{states_at}duplicate state ids in carrier")
    return carrier


def _successor_set(container: Container, h: HStructure, allowed, subject: str, x: str) -> frozenset[str]:
    """The states of ``h``, checked to be a value of ``container`` whose
    states lie in ``allowed`` (a set or a dict's keys).  An error names
    ``h`` as the ``subject`` of state ``x``."""
    try:
        refs = support(container, h)
    except InputError:
        raise InputError(f"{subject} {x!r} is not a value of the container") from None
    if not refs <= allowed:
        raise DanglingRefError(
            f"{subject} {x!r} references states outside the allowed set {sorted(refs.difference(allowed))}"
        )
    return refs


class LazyCoalgebra:
    """A state system given by a structure rule, for infinite carriers.

    The rule must be pure and deterministic.  Operations over lazy systems
    take explicit budgets.

    ``successors``, if given, names a state's successors without building
    its structure, and the closure reads it in place of the rule: the set
    of names it returns must be ``support(container, rule(x))``.
    """

    def __init__(
        self,
        container: Container,
        rule: Callable[[str], HStructure],
        name: Optional[str] = None,
        successors: Optional[Callable[[str], Iterable[str]]] = None,
    ):
        self.container = container
        self.rule = rule
        self.name = name
        self.successor_rule = successors

    def structure_of(self, state: str) -> HStructure:
        return self._checked(state)[0]

    def successors(self, state: str) -> frozenset[str]:
        if self.successor_rule is None:
            return self._checked(state)[1]
        return frozenset(self.successor_rule(state))

    def _checked(self, state: str) -> tuple[HStructure, frozenset[str]]:
        h = self.rule(state)
        try:
            return h, support(self.container, h)
        except InputError:
            raise InputError(f"lazy rule produced an invalid structure at state {state!r}") from None

    def __repr__(self):
        tag = self.name or "anonymous"
        return f"LazyCoalgebra({tag!r} over {self.container!r})"


@record
class BudgetExhausted:
    """Closure search gave up: the closure was not confirmed finite in budget.

    A signal, not a failure; ``visited`` holds the states seen so far.
    """

    visited: frozenset[str]
    budget: int


# ---------------------------------------------------------------------------
# morphisms and subobjects


def verify_coalgebra_morphism(
    h: Mapping[str, str], source: FiniteCoalgebra, target: FiniteCoalgebra
) -> bool:
    """Check the structure-preservation square of a state map, syntactically.

    ``h`` must be total on the source carrier with values in the target
    carrier; the check is that renaming the source structure of every state
    through ``h`` gives exactly the target structure of its image.
    """
    if source.container != target.container:
        raise ContainerMismatchError(
            f"source container {source.container!r} != target container {target.container!r}"
        )
    target_carrier = set(target.states)
    for x in source.states:
        if x not in h:
            raise UnknownStateError(f"morphism undefined on source state {x!r}")
        if h[x] not in target_carrier:
            raise UnknownStateError(f"morphism maps {x!r} outside the target carrier")
    return all(
        hmap(source.container, h, source.structure_of(x)) == target.structure_of(h[x])
        for x in source.states
    )


def is_subcoalgebra(subset: Iterable[str], coalg: FiniteCoalgebra) -> bool:
    """True iff the subset is closed under successors."""
    members = set(map(coalg._index, set(subset)))
    return all(members.issuperset(coalg._out[i]) for i in members)


def is_cartesian_subcoalgebra(subset: Iterable[str], coalg: FiniteCoalgebra) -> bool:
    """True iff membership is *equivalent* to all successors being members.

    Both directions of the biconditional are required: every member's
    successors are members (closure), and every state all of whose
    successors are members is itself a member.
    """
    subset = set(subset)
    members = {i for i, x in enumerate(coalg._names) if x in subset}
    return all((i in members) == members.issuperset(out) for i, out in enumerate(coalg._out))


def least_subcoalgebra(coalg, seed: Iterable[str], budget: int):
    """Breadth-first successor closure of ``seed``.

    Returns the closure as a frozenset, or :class:`BudgetExhausted` if more
    than ``budget`` states are visited before the closure stabilizes.
    """
    visited, closed = _closure(coalg, seed, budget)
    if isinstance(coalg, NumberedGraph):
        visited = frozenset(map(coalg._names.__getitem__, visited))
    return visited if closed else BudgetExhausted(visited, budget)


def _closure(coalg, seed: Iterable[str], budget: int) -> tuple[frozenset, bool]:
    """:func:`coalg.fixpoint.reach` from ``seed``, over the indices of a
    finite system (or its graph) or the names of a lazy one."""
    seed = set(seed)
    if budget < len(seed):
        raise InputError(f"budget {budget} is below the seed size {len(seed)}")
    if isinstance(coalg, NumberedGraph):
        return reach(coalg._out.__getitem__, map(coalg._index, sorted(seed)), budget)
    return reach(coalg.successor_rule or coalg.successors, seed, budget)


def coproduct_extension(
    coalg: FiniteCoalgebra,
    new_states: Iterable[str],
    p: Mapping[str, HStructure],
) -> FiniteCoalgebra:
    """Add new states that transition only into the old carrier.

    Old states keep their structure verbatim, so the inclusion of the old
    system is a morphism of systems.  New states may not reference each
    other or themselves.
    """
    new_states = tuple(new_states)
    old = set(coalg.states)
    clash = old & set(new_states)
    if clash:
        raise NameClashError(f"new states already in carrier: {sorted(clash)}")
    p = dict(p)
    _check_carrier(new_states, p, "new states: ", "extension map: ")
    refs = {x: _successor_set(coalg.container, p[x], old, "extension structure of", x) for x in new_states}
    # the new states join the old ones in sorted order: renumber the old successors
    names = sorted(coalg._names + new_states)
    at = dict(zip(names, range(len(names))))
    moved = [at[x] for x in coalg._names]  # old index -> new index
    out = [()] * len(names)
    for i, succ in enumerate(coalg._out):
        out[moved[i]] = tuple(map(moved.__getitem__, succ))
    for x, succ in refs.items():
        out[at[x]] = tuple(map(at.__getitem__, succ))
    return FiniteCoalgebra._trusted(
        coalg.container, coalg.states + new_states, {**coalg.structure, **{x: p[x] for x in new_states}}, names, out
    )


# ---------------------------------------------------------------------------
# algebras


class Algebra:
    """An evaluation target: a container plus a total, deterministic eval.

    ``eval_fn`` consumes plain shapes as produced by
    :func:`coalg.containers.interpret` (identity slots already replaced by
    carrier values) and returns a carrier value.  Carrier values are opaque;
    equality is Python ``==``.

    ``eval_successors``, if given, is the same eval as a function of the
    list of a state's successors' values, one per successor, so that
    :func:`coalg.wellfounded.solve_recursion` can run on the canonical
    graph alone.  It is sound only where eval reads nothing of a shape but
    the set of values in its state slots, and the container has no
    ``PairNeq`` node: then those values are exactly the values of the
    successors, supp(c(x)).  Under ``PairNeq`` they are not, as a pair of
    distinct successors whose values are equal collapses to ``*``, which
    has no slot: the support map is natural only for functors that
    preserve preimages, and the distinct-pair functor does not.
    """

    def __init__(
        self,
        container: Container,
        eval_fn: Callable,
        name: Optional[str] = None,
        eval_successors: Optional[Callable[[list], object]] = None,
    ):
        self.container = container
        self.eval_fn = eval_fn
        self.name = name
        self.eval_successors = eval_successors

    def eval(self, shape):
        return self.eval_fn(shape)

    def __repr__(self):
        return f"Algebra({self.name or 'anonymous'!r} over {self.container!r})"


def _int_values(shape) -> list[int]:
    """The state values of a shape interpreted over int values.

    :func:`coalg.containers.interpret` puts no other int into a shape
    (tags are strings, ``Const`` and ``Exp`` refuse labels that are not,
    and ``*`` is a record), so one scan that descends into tuples and
    frozensets finds exactly the state slots.
    """
    out = []
    todo = [shape]
    while todo:
        v = todo.pop()
        if type(v) is int:
            out.append(v)
        elif isinstance(v, (tuple, frozenset)):
            todo.extend(v)
    return out


def _slot_algebra(container: Container, of_values: Callable[[list], int], name: str) -> Algebra:
    """The algebra that evaluates a shape to ``of_values`` of its state
    values; it evaluates on successors' values too unless the container
    has a ``PairNeq`` node (see :class:`Algebra`)."""
    return Algebra(
        container,
        lambda shape: of_values(_int_values(shape)),
        name,
        None if has_pairneq(container) else of_values,
    )


def induction_algebra(container: Container) -> Algebra:
    """The 0/1 algebra of the induction principle.

    A shape evaluates to 1 exactly when every state value occurring in it
    is 1; in particular the empty set and the collapsed point evaluate
    to 1, and any occurrence of 0 forces 0.
    """
    return _slot_algebra(container, lambda values: 1 if all(v == 1 for v in values) else 0, "induction")


def count_algebra(container: Container) -> Algebra:
    """Height algebra: 1 + max over state values, with leaves at 0."""
    return _slot_algebra(container, lambda values: 1 + max(values, default=-1), "count")


def unfold_algebra(container: Container) -> Algebra:
    """The free algebra on shapes: eval is the identity.

    Solving recursion into this algebra yields, per state, its full
    transition unfolding as a nested plain shape.
    """
    return Algebra(container, lambda shape: shape, name="term")


# ---------------------------------------------------------------------------
# JSON files


def coalgebra_to_json(coalg: FiniteCoalgebra) -> dict:
    return {
        "version": 1,
        "kind": "set-coalgebra",
        "functor": container_to_json(coalg.container),
        "states": list(coalg.states),
        "structure": {x: structure_to_json(h) for x, h in coalg.structure.items()},
    }


def _system_header(doc) -> tuple[Container, list]:
    """The functor and states of a ``set-coalgebra`` document: the checks
    that come before its structure is read, the same for every reader."""
    check_header(doc, "set-coalgebra", ("functor", "states", "structure"))
    for field in ("functor", "states", "structure"):
        if field not in doc:
            raise InputError(f"$.{field}: missing")
    container = container_from_json(doc["functor"], "$.functor")
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputError("$.states: expected a list of state ids")
    return container, states


def _decoded(container: Container, states: list, carrier: dict, values: bool, entries) -> NumberedGraph:
    """The system of the structure ``entries``, with its values if
    ``values`` holds; a state that no entry came for has successors None."""
    structure, out = structure_decoder(container, carrier, values)(entries, "$.structure.")
    if values:
        return FiniteCoalgebra._trusted(container, tuple(states), structure, carrier, out)
    return NumberedGraph(container, tuple(states), carrier, out)


def coalgebra_from_json(doc, full: Callable[[Container], bool] = lambda container: True) -> NumberedGraph:
    """Decode and check a ``set-coalgebra`` document.

    Each state's structure is checked against the functor, canonicalized and
    its successors collected in one walk (see
    :func:`coalg.containers.structure_decoder`).  Errors name the JSON path.
    The entries of ``doc["structure"]`` are popped one at a time as they
    are decoded, so the JSON of a decoded state is freed at once; on
    success ``doc["structure"]`` is left empty and the rest of ``doc``
    unchanged.  (A file is read without its whole tree where its layout
    allows: see :func:`system_from_text`.)

    The result is a :class:`FiniteCoalgebra` if ``full`` holds of the
    functor, which is read before any structure is, and otherwise the
    system's canonical graph alone, decoded through the graph walk: the
    same checks in the same order, with the same errors, and no structure
    value built.
    """
    container, states = _system_header(doc)
    raw = doc["structure"]
    if not isinstance(raw, dict):
        raise InputError("$.structure: expected an object")
    carrier = _check_carrier(states, raw, "$.states: ", "$.structure: ")
    return _decoded(container, states, carrier, full(container), ((key, raw.pop(key)) for key in list(raw)))


# the streaming reader: its patterns read JSON's whitespace as json.decoder
# does, and json's own scanner reads each value, as json.loads reads it
_WS = json.decoder.WHITESPACE.pattern
_OPEN = re.compile(_WS + r"\{").match
_KEY = re.compile(_WS + r'"([^"\\\x00-\x1f]*)"' + _WS + ":" + _WS).match  # a key with no escape
_QUOTE, _COLON = re.compile(_WS + '"').match, re.compile(_WS + ":" + _WS).match
_COMMA = re.compile(_WS + ",").match
_CLOSE = re.compile(_WS + r"\}" + _WS + r"\}" + _WS).fullmatch  # the structure, then the document, ends
_SCAN = json.JSONDecoder().scan_once  # the JSON value at an index, and its end
# how far below the recursion limit the reader runs: json.loads meets an
# entry a few frames deeper, so the reader must refuse a little sooner;
# the limit is the process's, so one thread at a time may read
_DEPTH_MARGIN = 50


def system_from_text(text: str, full: Callable[[Container], bool]) -> Optional[NumberedGraph]:
    """What :func:`coalgebra_from_json` makes of ``json.loads(text)``, read
    one structure entry at a time, each entry's JSON dropped once it is
    walked: the memory is the text and the system, not the document's tree.
    None where this reader cannot tell that result: unless ``structure``
    comes after the other fields and ends the document, on any JSON error
    or failed check, and within ``_DEPTH_MARGIN`` frames of the recursion
    limit.  The document read whole then gives its result or its error."""
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit - _DEPTH_MARGIN)
        doc, i = {}, _past(_OPEN, text, 0)
        key, i = _member(text, i)
        while key != "structure":  # a repeated field keeps its last value, as in json.loads
            doc[key], i = _SCAN(text, i)
            key, i = _member(text, _past(_COMMA, text, i))
        container, states = _system_header({**doc, "structure": {}})
        system = _decoded(container, states, _numbered(states), full(container), _entries(text, i))
        return None if None in system._out else system
    except (AnalysisError, KeyError, RuntimeError, StopIteration, ValueError):
        # KeyError: a key outside the carrier; StopIteration: no JSON value
        # where one must be, which comes out of _entries as a RuntimeError,
        # the class of RecursionError
        return None
    finally:
        sys.setrecursionlimit(limit)


def _member(text: str, i: int) -> tuple[str, int]:
    """The key of the object member at ``text[i]`` and the index of its value."""
    m = _KEY(text, i)
    if m is not None:
        return m[1], m.end()
    key, i = json.decoder.scanstring(text, _past(_QUOTE, text, i))
    return key, _past(_COLON, text, i)


def _past(pattern, text: str, i: int) -> int:
    """The end of ``pattern``, which must match at ``text[i]``."""
    m = pattern(text, i)
    if m is None:
        raise ValueError("not JSON that the reader takes")
    return m.end()


def _entries(text: str, i: int):
    """The members of the JSON object at ``text[i]`` as (key, value) pairs,
    each value scanned when it is reached; the object must end the
    document, or a ValueError follows the last pair."""
    i = _past(_OPEN, text, i)
    if _CLOSE(text, i) is not None:  # an empty object
        return
    while True:
        key, i = _member(text, i)
        value, i = _SCAN(text, i)
        yield key, value
        m = _COMMA(text, i)
        if m is None:
            break
        i = m.end()
    if _CLOSE(text, i) is None:
        raise ValueError("the structure does not end the document")
