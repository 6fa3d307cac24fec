"""Built-in example systems, addressable as ``gallery:<name>`` inputs.

Each entry builds its object fresh on every access (everything is cheap)
and carries a default analysis used by the ``gallery`` command, together
with the exit code that analysis is expected to produce.  The fixtures
double as the test bed for the acceptance suite.
"""

from __future__ import annotations

from typing import Callable

from .coalgebras import BudgetExhausted, FiniteCoalgebra, count_algebra
from .containers import (
    Const,
    ConstVal,
    FinPow,
    Identity,
    InL,
    InR,
    Product,
    StateRef,
    Sum,
    TupleOf,
    set_of,
)
from .convex import CPolytope, ConvexSpec, convex_path_witness, convex_wf_fixpoint, point
from .errors import InputError
from .initial_algebra import Signature, signature_container, encode_structure
from .nominal import (
    FRESH_CASE,
    NLTSSpec,
    NState,
    Rule,
    Template,
    fresh_var,
    nominal_koenig_extract,
    nominal_wf_labels,
    path_witness,
)
from .records import record
from .wellfounded import (
    integer_ladder,
    integer_ladder_recursion,
    integer_ladder_window,
    koenig_extract,
    well_founded_part,
)


def _graph(edges: dict[str, list[str]]) -> FiniteCoalgebra:
    states = sorted(edges)
    structure = {x: set_of(StateRef(s) for s in succ) for x, succ in edges.items()}
    return FiniteCoalgebra(FinPow(Identity()), states, structure)


def build_chain() -> FiniteCoalgebra:
    return _graph({"a": ["b"], "b": ["c"], "c": []})


def build_cycle_tail() -> FiniteCoalgebra:
    # a <-> b cycle plus d -> c with c a deadlock
    return _graph({"a": ["b"], "b": ["a"], "c": [], "d": ["c"]})


def build_self_loop() -> FiniteCoalgebra:
    return _graph({"s": ["s"]})


def build_binary_trees() -> FiniteCoalgebra:
    """A system for the functor X*X + (X + 1): a small ordered tree."""
    container = Sum(Product((Identity(), Identity())), Sum(Identity(), Const(("end",))))
    end = InR(InR(ConstVal("end")))
    return FiniteCoalgebra(
        container,
        ["root", "l", "r", "u"],
        {
            "root": InL(TupleOf((StateRef("l"), StateRef("r")))),
            "l": InR(InL(StateRef("u"))),
            "u": end,
            "r": end,
        },
    )


TERM_CHAIN_SIGNATURE = Signature((("z", 0), ("s", 1)))


def build_term_chain() -> FiniteCoalgebra:
    """A 4-state chain over the {z/0, s/1} signature functor."""
    sig = TERM_CHAIN_SIGNATURE
    container = signature_container(sig)
    return FiniteCoalgebra(
        container,
        ["n0", "n1", "n2", "n3"],
        {
            "n0": encode_structure(sig, "s", [StateRef("n1")]),
            "n1": encode_structure(sig, "s", [StateRef("n2")]),
            "n2": encode_structure(sig, "s", [StateRef("n3")]),
            "n3": encode_structure(sig, "z", []),
        },
    )


def build_nominal_fresh_loop() -> NLTSSpec:
    """One label looping to itself with a freshly generated register."""
    return NLTSSpec(
        {"l0": 1},
        [Rule("l0", FRESH_CASE, (Template("l0", (fresh_var(0),)),))],
    )


def build_nominal_two_label() -> NLTSSpec:
    """l0 steps to l1 storing the input; l1 is a deadlock."""
    return NLTSSpec(
        {"l0": 1, "l1": 1},
        [Rule("l0", FRESH_CASE, (Template("l1", (("input",),)),))],
    )


def build_convex_self_loop() -> ConvexSpec:
    return ConvexSpec([CPolytope([point([1])])])


def build_convex_rank2() -> ConvexSpec:
    return ConvexSpec([CPolytope([point(["0", "1"])]), CPolytope()])


# ---------------------------------------------------------------------------
# default analyses, one per fixture kind

# closure budgets tried on the integer ladder, and the length of a
# non-well-foundedness witness path
LADDER_BUDGETS = (10, 100, 1000, 10000)
WITNESS_LENGTH = 50


def _wf_verdict(coalg: FiniteCoalgebra):
    report = well_founded_part(coalg)
    doc = report.to_json()
    doc["states"] = len(coalg.states)
    return doc, 0 if report.is_well_founded else 1


def _ladder_demo(ladder):
    outcomes = {}
    for b in LADDER_BUDGETS:
        result = koenig_extract(ladder, "1", b)
        outcomes[str(b)] = (
            "budget-exhausted" if isinstance(result, BudgetExhausted) else sorted(result)
        )
    recursion = integer_ladder_recursion(
        count_algebra(ladder.container), range(-10, 0)
    )
    doc = {
        "closureFromState1": outcomes,
        "note": "every nonempty successor closure is infinite; the empty subsystem is the only finite one",
        "constantRecursionValue": recursion["-1"],
    }
    exhausted = any(v == "budget-exhausted" for v in outcomes.values())
    return doc, 2 if exhausted else 0


def _nlts_verdict(spec: NLTSSpec):
    wf_labels = nominal_wf_labels(spec)
    wf = len(wf_labels) == len(spec.labels)
    doc = {"wellFounded": wf}
    if wf:
        lbl = min(spec.labels)
        start = NState(lbl, tuple(range(spec.labels[lbl])))
        doc["reachableLabels"] = sorted(nominal_koenig_extract(spec, start))
        return doc, 0
    lbl = min(set(spec.labels) - wf_labels)
    start = NState(lbl, tuple(range(spec.labels[lbl])))
    steps = path_witness(spec, start, WITNESS_LENGTH)
    doc["witness"] = {
        "start": str(start),
        "length": len(steps),
        "prefix": [[a, str(s)] for a, s in steps[:5]],
    }
    return doc, 1


def _convex_verdict(spec: ConvexSpec):
    report = convex_wf_fixpoint(spec)
    doc = report.to_json()
    if not report.is_well_founded:
        g = min(report.non_wf)
        witness = convex_path_witness(spec, g, WITNESS_LENGTH)
        doc["witness"] = {
            "generator": g,
            "length": len(witness.steps),
            "verified": witness.verify(),
        }
        return doc, 1
    return doc, 0


_VERDICTS = {
    "set-coalgebra": _wf_verdict,
    "lazy-coalgebra": _ladder_demo,
    "nlts": _nlts_verdict,
    "convex": _convex_verdict,
}


@record(frozen=False)
class GalleryEntry:
    name: str
    kind: str
    description: str
    build: Callable
    demo: Callable  # () -> (report dict, exit code)
    expected_exit: int


GALLERY: dict[str, GalleryEntry] = {}


def _register(name: str, kind: str, description: str, build: Callable, expected_exit: int):
    verdict = _VERDICTS[kind]
    GALLERY[name] = GalleryEntry(
        name, kind, description, build, lambda: verdict(build()), expected_exit
    )


_register(
    "chain",
    "set-coalgebra",
    "three-state graph chain a -> b -> c; well-founded with ranks 3/2/1",
    build_chain,
    0,
)
_register(
    "self-loop",
    "set-coalgebra",
    "one looping state; the smallest non-well-founded graph",
    build_self_loop,
    1,
)
_register(
    "cycle-tail",
    "set-coalgebra",
    "a two-cycle beside a chain into a deadlock; well-founded part is the chain",
    build_cycle_tail,
    1,
)
_register(
    "binary-trees",
    "set-coalgebra",
    "an ordered-tree system for the functor X*X + X + 1; well-founded",
    build_binary_trees,
    0,
)
_register(
    "term-chain",
    "set-coalgebra",
    "a chain over the {z/0, s/1} signature functor; unfolds to s(s(s(z)))",
    build_term_chain,
    0,
)
_register(
    "example-3.11",
    "lazy-coalgebra",
    "the integer ladder: every closure search exhausts its budget, yet "
    "constant recursion solutions exist for every algebra",
    integer_ladder,
    2,
)
_register(
    "example-3.11-window",
    "set-coalgebra",
    "a 20-state window of the integer ladder with rim states clamped "
    "into a cycle; not well-founded",
    lambda: integer_ladder_window(10),
    1,
)
_register(
    "nominal-fresh-loop",
    "nlts",
    "a single label looping with a fresh register; infinite runs exist",
    build_nominal_fresh_loop,
    1,
)
_register(
    "nominal-two-label",
    "nlts",
    "two labels, one step, then deadlock; well-founded",
    build_nominal_two_label,
    0,
)
_register(
    "convex-self-loop",
    "convex",
    "one generator whose successor polytope is itself; not well-founded",
    build_convex_self_loop,
    1,
)
_register(
    "convex-rank2",
    "convex",
    "generator 0 steps to generator 1, which deadlocks; well-founded "
    "with ranks 2 and 1",
    build_convex_rank2,
    0,
)


def gallery_names() -> list[str]:
    return sorted(GALLERY)


def get_entry(name: str) -> GalleryEntry:
    if name not in GALLERY:
        raise InputError(f"unknown gallery entry {name!r}; try one of {', '.join(gallery_names())}")
    return GALLERY[name]
