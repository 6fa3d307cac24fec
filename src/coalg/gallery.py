"""Built-in example systems, addressable as ``gallery:<name>`` inputs.

Each entry builds its object fresh on every access (everything is cheap)
and carries a default analysis used by the ``gallery`` command, together
with the exit code that analysis is expected to produce.  The fixtures
double as the test bed for the acceptance suite.
"""

from __future__ import annotations

from typing import Callable

# each back-end is called through its module, so that an entry runs only its
# own back-end when the command line has bound these modules lazily
from . import coalgebras, containers, convex, initial_algebra, nominal, wellfounded
from .errors import InputError
from .records import record


def _graph(edges: dict[str, list[str]]) -> coalgebras.FiniteCoalgebra:
    states = sorted(edges)
    structure = {x: containers.set_of(containers.StateRef(s) for s in succ) for x, succ in edges.items()}
    return coalgebras.FiniteCoalgebra(containers.FinPow(containers.Identity()), states, structure)


def build_chain() -> coalgebras.FiniteCoalgebra:
    return _graph({"a": ["b"], "b": ["c"], "c": []})


def build_cycle_tail() -> coalgebras.FiniteCoalgebra:
    # a <-> b cycle plus d -> c with c a deadlock
    return _graph({"a": ["b"], "b": ["a"], "c": [], "d": ["c"]})


def build_self_loop() -> coalgebras.FiniteCoalgebra:
    return _graph({"s": ["s"]})


def build_binary_trees() -> coalgebras.FiniteCoalgebra:
    """A system for the functor X*X + (X + 1): a small ordered tree."""
    c = containers
    container = c.Sum(c.Product((c.Identity(), c.Identity())), c.Sum(c.Identity(), c.Const(("end",))))
    end = c.InR(c.InR(c.ConstVal("end")))
    return coalgebras.FiniteCoalgebra(
        container,
        ["root", "l", "r", "u"],
        {
            "root": c.InL(c.TupleOf((c.StateRef("l"), c.StateRef("r")))),
            "l": c.InR(c.InL(c.StateRef("u"))),
            "u": end,
            "r": end,
        },
    )


TERM_CHAIN_SYMBOLS = (("z", 0), ("s", 1))


def build_term_chain() -> coalgebras.FiniteCoalgebra:
    """A 4-state chain over the {z/0, s/1} signature functor."""
    sig = initial_algebra.Signature(TERM_CHAIN_SYMBOLS)
    container = initial_algebra.signature_container(sig)
    return coalgebras.FiniteCoalgebra(
        container,
        ["n0", "n1", "n2", "n3"],
        {
            "n0": initial_algebra.encode_structure(sig, "s", [containers.StateRef("n1")]),
            "n1": initial_algebra.encode_structure(sig, "s", [containers.StateRef("n2")]),
            "n2": initial_algebra.encode_structure(sig, "s", [containers.StateRef("n3")]),
            "n3": initial_algebra.encode_structure(sig, "z", []),
        },
    )


def build_nominal_fresh_loop() -> nominal.NLTSSpec:
    """One label looping to itself with a freshly generated register."""
    return nominal.NLTSSpec(
        {"l0": 1},
        [nominal.Rule("l0", nominal.FRESH_CASE, (nominal.Template("l0", (nominal.fresh_var(0),)),))],
    )


def build_nominal_two_label() -> nominal.NLTSSpec:
    """l0 steps to l1 storing the input; l1 is a deadlock."""
    return nominal.NLTSSpec(
        {"l0": 1, "l1": 1},
        [nominal.Rule("l0", nominal.FRESH_CASE, (nominal.Template("l1", (("input",),)),))],
    )


def build_convex_self_loop() -> convex.ConvexSpec:
    return convex.ConvexSpec([convex.CPolytope([convex.point([1])])])


def build_convex_rank2() -> convex.ConvexSpec:
    return convex.ConvexSpec([convex.CPolytope([convex.point(["0", "1"])]), convex.CPolytope()])


# ---------------------------------------------------------------------------
# default analyses, one per fixture kind

# closure budgets tried on the integer ladder, and the length of a
# non-well-foundedness witness path
LADDER_BUDGETS = (10, 100, 1000, 10000)
WITNESS_LENGTH = 50


def _wf_verdict(coalg: coalgebras.FiniteCoalgebra):
    report = wellfounded.well_founded_part(coalg)
    doc = report.to_json()
    doc["states"] = len(coalg.states)
    return doc, 0 if report.is_well_founded else 1


def _ladder_demo(ladder):
    outcomes = {}
    for b in LADDER_BUDGETS:
        result = wellfounded.koenig_extract(ladder, "1", b)
        outcomes[str(b)] = (
            "budget-exhausted" if isinstance(result, coalgebras.BudgetExhausted) else sorted(result)
        )
    recursion = wellfounded.integer_ladder_recursion(
        coalgebras.count_algebra(ladder.container), range(-10, 0)
    )
    doc = {
        "closureFromState1": outcomes,
        "note": "every nonempty successor closure is infinite; the empty subsystem is the only finite one",
        "constantRecursionValue": recursion["-1"],
    }
    exhausted = any(v == "budget-exhausted" for v in outcomes.values())
    return doc, 2 if exhausted else 0


def _nlts_verdict(spec: nominal.NLTSSpec):
    wf_labels = nominal.nominal_wf_labels(spec)
    wf = len(wf_labels) == len(spec.labels)
    doc = {"wellFounded": wf}
    if wf:
        lbl = min(spec.labels)
        start = nominal.NState(lbl, tuple(range(spec.labels[lbl])))
        doc["reachableLabels"] = sorted(nominal.nominal_koenig_extract(spec, start))
        return doc, 0
    lbl = min(set(spec.labels) - wf_labels)
    start = nominal.NState(lbl, tuple(range(spec.labels[lbl])))
    steps = nominal.path_witness(spec, start, WITNESS_LENGTH)
    doc["witness"] = {
        "start": str(start),
        "length": len(steps),
        "prefix": [[a, str(s)] for a, s in steps[:5]],
    }
    return doc, 1


def _convex_verdict(spec: convex.ConvexSpec):
    report = convex.convex_wf_fixpoint(spec)
    doc = report.to_json()
    if not report.is_well_founded:
        g = min(report.non_wf)
        witness = convex.convex_path_witness(spec, g, WITNESS_LENGTH)
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
    lambda: wellfounded.integer_ladder(),
    2,
)
_register(
    "example-3.11-window",
    "set-coalgebra",
    "a 20-state window of the integer ladder with rim states clamped "
    "into a cycle; not well-founded",
    lambda: wellfounded.integer_ladder_window(10),
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
