"""Well-foundedness analysis, closure extraction, and recursion solving.

The central computation is the least fixpoint of

    S  |->  { x | all successors of x lie in S }

on a finite system: its value (the *well-founded part*) is exactly the set
of states with no infinite outgoing transition path, and the system is
well-founded iff the fixpoint covers the whole carrier.  Every state of a
well-founded system lies in a finite successor-closed, well-founded
subsystem; ``koenig_extract`` computes that subsystem, budget-guarded so it
can also probe lazy systems with infinite carriers.

Recursion solving assigns each state a value in an algebra, satisfying

    h(x) = eval( structure of x, with successors replaced by their values )

which has a unique solution on well-founded systems.  The converse fails:
``integer_ladder`` is a system where the solver's structural recursion
cannot bottom out at any state, yet every algebra admits a (constant)
solution, exhibited by ``integer_ladder_recursion``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .coalgebras import (
    Algebra,
    BudgetExhausted,
    FiniteCoalgebra,
    LazyCoalgebra,
    NumberedGraph,
    _closure,
    _successor_set,
)
from .containers import (
    STAR,
    PairNeq,
    StateRef,
    interpret,
    make_pair,
    support,
)
from .errors import (
    ContainerMismatchError,
    CycleError,
    FoundInfinitePathEvidence,
    InputError,
    NameClashError,
    NotWellFoundedError,
    VerificationFailedError,
    ZeroStateError,
)
from .fixpoint import least_fixpoint, reach
from .records import record


@record
class WfReport:
    """Result of the well-founded-part fixpoint.

    ``rank`` maps each state of the well-founded part to the iteration
    round at which it entered the fixpoint (deadlocks have rank 1, and in
    general rank is 1 + the maximum rank of the successors).
    """

    wf_part: frozenset[str]
    is_well_founded: bool
    rank: dict[str, int]

    def to_json(self) -> dict:
        # every printer sorts the ranks' keys, as this sorts the states that
        # have one: in linear time when they come sorted, as from the kernel
        return {
            "wellFounded": self.is_well_founded,
            "wfPart": sorted(self.rank),
            "ranks": self.rank,
        }


def well_founded_part(coalg: NumberedGraph) -> WfReport:
    """Least fixpoint of "all my successors are already in".

    A state's rank is one more than the maximum rank of its successors.
    The complement of the result is exactly the set of states lying on an
    infinite outgoing path.
    """
    rank, order = least_fixpoint(coalg._out)
    ranks = _named_ranks(coalg._names, rank)
    return WfReport(frozenset(ranks), len(order) == len(rank), ranks)


def _named_ranks(names, rank) -> dict[str, int]:
    # the kernel's ranks by state name, in name order
    return {x: r for x, r in zip(names, rank) if r}


def is_well_founded(coalg: FiniteCoalgebra) -> bool:
    return well_founded_part(coalg).is_well_founded


@record(frozen=False)
class KoenigFamily:
    """The finite well-founded subsystems covering a well-founded system.

    ``members`` are the successor closures of the single states, ordered by
    size; the family is directed: the union of any two members is again a
    successor-closed, well-founded subset (take ``join``).
    """

    carrier: frozenset[str]
    members: tuple[frozenset[str], ...]

    def join(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a | b

    @property
    def union(self) -> frozenset[str]:
        out: set[str] = set()
        for m in self.members:
            out |= m
        return frozenset(out)


def koenig_family(coalg: FiniteCoalgebra) -> KoenigFamily:
    """Per-state successor closures of a well-founded finite system.

    The input must be well-founded, which guarantees that every member and
    every finite union of members is a well-founded subsystem covering the
    carrier.
    """
    if not is_well_founded(coalg):
        raise NotWellFoundedError("system is not well-founded")
    # on indices, which sort as the names do
    closures = {reach(coalg._out.__getitem__, [i])[0] for i in range(len(coalg._names))}
    members = sorted(closures, key=lambda m: (len(m), sorted(m)))
    names = coalg._names.__getitem__
    return KoenigFamily(frozenset(coalg.states), tuple(frozenset(map(names, m)) for m in members))


def koenig_extract(coalg, state: str, budget: int):
    """Finite well-founded subsystem around one state, within a budget.

    Takes the successor closure of ``state``, as
    :func:`coalg.coalgebras.least_subcoalgebra` does; on success the
    fixpoint kernel re-checks the closure for well-foundedness before it is
    returned.  A finite system runs both on its state indices, the kernel
    limited to the closure.  Outcomes:

    * the closure as a frozenset (successor-closed and well-founded);
    * :class:`BudgetExhausted` if the closure was not confirmed finite;
    * :class:`FoundInfinitePathEvidence` (raised) if the closure has a
      cycle reachable from ``state``, proving the input not well-founded.
    """
    visited, closed = _closure(coalg, [state], budget)
    finite = isinstance(coalg, NumberedGraph)
    closure = frozenset(map(coalg._names.__getitem__, visited)) if finite else visited
    if not closed:
        return BudgetExhausted(closure, budget)
    if finite:
        names, out, nodes = coalg._names, coalg._out, visited
    else:
        # the closure walk does not keep its successor sets (a probe that
        # runs out of budget would hold them all for nothing, about 16 MB
        # on 1e5 ladder states), so the finite closure is numbered here
        names = sorted(visited)
        at = dict(zip(names, range(len(names))))
        out = [tuple(map(at.__getitem__, coalg.successors(x))) for x in names]
        nodes = None
    rank, order = least_fixpoint(out, nodes=nodes)
    if len(order) < len(visited):
        ranks = _named_ranks(names, rank)
        raise FoundInfinitePathEvidence(state, WfReport(frozenset(ranks), False, ranks))
    return closure


# ---------------------------------------------------------------------------
# recursion


def solve_recursion(coalg: NumberedGraph, alg: Algebra) -> dict[str, object]:
    """Structural recursion h(x) = eval(structure(x)[successors := h]).

    Built by induction along the rank: each state is evaluated once, in
    the order of the least fixpoint.  If the fixpoint misses a state,
    raises :class:`CycleError` naming a state on a transition cycle, and
    evaluates nothing; this does *not* prove the system has no solution
    (see :func:`integer_ladder_recursion`).

    An algebra with ``eval_successors``, which the built-in ``count`` and
    ``induction`` have over a container with no ``PairNeq`` node, is
    evaluated on the canonical graph alone: each state on the list of its
    successors' values, with no shape built.  Any other algebra reads the
    ``structure`` of a :class:`FiniteCoalgebra` through
    :func:`coalg.containers.interpret`: under ``PairNeq`` a pair of
    distinct successors with equal values collapses to ``*``, so the
    values in a shape's slots are not those of the successors.
    """
    if alg.container != coalg.container:
        raise ContainerMismatchError(
            f"algebra container {alg.container!r} != system container {coalg.container!r}"
        )
    names, out = coalg._names, coalg._out
    rank, order = least_fixpoint(out)
    if len(order) < len(out):
        raise CycleError(names[_cycle_state(out, rank)])
    of_successors = alg.eval_successors
    if of_successors is not None:
        value = [None] * len(out)
        for i in order:
            value[i] = of_successors([value[j] for j in out[i]])
        return {names[i]: value[i] for i in order}
    values: dict[str, object] = {}
    container, structure = coalg.container, coalg.structure
    for x in map(names.__getitem__, order):
        values[x] = alg.eval(interpret(container, structure[x], values))
    return values


def _cycle_state(out, rank) -> int:
    """A node on a cycle outside the fixpoint of ``least_fixpoint``, whose
    ranks are ``rank``: from the least node outside it, step to the least
    successor outside it (each such node has one) until a node repeats.
    """
    x = rank.index(0)
    seen = set()
    while x not in seen:
        seen.add(x)
        x = min(s for s in out[x] if not rank[s])
    return x


def verify_solution(coalg: FiniteCoalgebra, alg: Algebra, values: Mapping[str, object]) -> bool:
    """Check the recursion equation at every carrier state."""
    return all(
        values[x]
        == alg.eval(interpret(coalg.container, coalg.structure_of(x), values))
        for x in coalg.states
    )


def extend_recursion_solution(
    values: Mapping[str, object],
    p: Mapping[str, object],
    alg: Algebra,
) -> dict[str, object]:
    """Extend a recursion solution along new states transitioning into old ones.

    Each new state ``x`` receives eval of ``p[x]`` with old states replaced
    by their solved values; old states keep their values.  New state names
    must be fresh and their structures may only reference old states.
    """
    clash = p.keys() & values.keys()
    if clash:
        raise NameClashError(f"new states already solved: {sorted(clash)}")
    out = dict(values)
    for x in sorted(p):
        _successor_set(alg.container, p[x], values.keys(), "extension structure of", x)
        out[x] = alg.eval(interpret(alg.container, p[x], values))
    return out


# ---------------------------------------------------------------------------
# the integer ladder: recursive but with no nonempty finite closed subsystem


def _ladder_state(state: str) -> int:
    """The integer k named by ``state``, which must be ``str(k)``: one name
    per state, so that a closure never holds two names of one integer."""
    try:
        k = int(state)
    except ValueError:
        raise InputError(f"integer-ladder states are integers, got {state!r}") from None
    if str(k) != state:
        raise InputError(f"integer-ladder state names are canonical integers, got {state!r}")
    if k == 0:
        raise ZeroStateError("0 is not a state of the integer ladder")
    return k


def integer_ladder() -> LazyCoalgebra:
    """The two-rail ladder over the nonzero integers.

    Every state k transitions to the distinct pair (-|k|-1, |k|+1), so each
    step strictly increases |k|: every state lies on an infinite path and
    the only finite successor-closed subset is empty.
    """

    def successors(state: str) -> tuple[str, str]:
        up = str(abs(_ladder_state(state)) + 1)
        return "-" + up, up

    return LazyCoalgebra(PairNeq(), lambda x: make_pair(*map(StateRef, successors(x))), "integer-ladder", successors)


def integer_ladder_window(radius: int) -> FiniteCoalgebra:
    """A finite window of the ladder with successors clamped at the rim.

    States are k with 1 <= |k| <= radius; successors -|k|-1 and |k|+1 are
    clamped back to +-radius, so the rim states form a cycle.  The result
    is a valid finite system that is *not* well-founded, standing in for
    the ladder in analyses that need a finite carrier.
    """
    if radius < 1:
        raise InputError("window radius must be positive")

    def clamp(m: int) -> int:
        return m if abs(m) <= radius else (radius if m > 0 else -radius)

    states = [str(k) for k in range(-radius, radius + 1) if k != 0]
    structure = {}
    for s in states:
        k = int(s)
        structure[s] = make_pair(
            StateRef(str(clamp(-abs(k) - 1))), StateRef(str(clamp(abs(k) + 1)))
        )
    return FiniteCoalgebra(PairNeq(), states, structure)


def integer_ladder_recursion(alg: Algebra, states: Iterable) -> dict[str, object]:
    """The constant recursion solution on the ladder, verified per state.

    Every state is assigned eval(*) (the value of the collapsed point).
    For each listed state k the recursion square is re-checked: since the
    solution is constant, the pair structure of k collapses to * under it,
    so eval must reproduce the same value; a failing check raises
    :class:`VerificationFailedError` and indicates a bug.
    """
    if not isinstance(alg.container, PairNeq):
        raise InputError("the integer ladder needs an algebra over the distinct-pair container")
    star_value = alg.eval(STAR)
    ladder = integer_ladder()
    out: dict[str, object] = {}
    for state in states:
        s = str(state)
        h = ladder.structure_of(s)
        env = dict.fromkeys(support(alg.container, h), star_value)
        lhs = alg.eval(interpret(alg.container, h, env))
        if lhs != star_value:
            raise VerificationFailedError(
                f"recursion square failed at state {s!r}: {lhs!r} != {star_value!r}"
            )
        out[s] = star_value
    return out
