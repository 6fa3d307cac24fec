import itertools
import re
from collections import Counter
from collections.abc import Mapping

import pytest

from coalg.coalgebras import (
    Algebra,
    BudgetExhausted,
    FiniteCoalgebra,
    LazyCoalgebra,
    coalgebra_from_json,
    coalgebra_to_json,
    coproduct_extension,
    count_algebra,
    induction_algebra,
    is_cartesian_subcoalgebra,
    is_subcoalgebra,
)
from coalg.containers import (
    FinPow,
    Identity,
    PairNeq,
    has_pairneq,
    STAR,
    StateRef,
    make_pair,
    set_of,
    support,
)
from coalg.errors import (
    CycleError,
    FoundInfinitePathEvidence,
    InputError,
    NotWellFoundedError,
    VerificationFailedError,
    ZeroStateError,
)
from coalg.fixpoint import reach
from coalg.wellfounded import (
    integer_ladder,
    integer_ladder_recursion,
    integer_ladder_window,
    is_well_founded,
    koenig_extract,
    koenig_family,
    solve_recursion,
    verify_solution,
    well_founded_part,
)

from genutil import (
    cycle_state_by_name,
    identity_values,
    random_coalgebra,
    random_extension,
    random_graph,
    random_wf_coalgebra,
    rng_for,
    round_ranks,
    shuffled_graph,
)

GRAPH = FinPow(Identity())


def counted(alg):
    """``alg`` with a list that records every shape it evaluates."""
    calls = []
    return Algebra(alg.container, lambda shape: calls.append(shape) or alg.eval(shape)), calls


def graph(edges):
    return FiniteCoalgebra(
        GRAPH,
        sorted(edges),
        {x: set_of(StateRef(s) for s in succ) for x, succ in edges.items()},
    )


def cycle_reach_oracle(coalg):
    """DFS oracle: states from which some cycle is reachable."""
    succ = coalg.successor_map
    on_cycle = set()
    for start in coalg.states:
        # a cycle is reachable from start iff some node is revisitable
        stack = [(start, iter(succ[start]))]
        path = {start}
        visited = {start}
        found = False
        while stack and not found:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt in path:
                    found = True
                    break
                if nxt not in visited:
                    visited.add(nxt)
                    path.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced and not found:
                stack.pop()
                path.discard(node)
        if found:
            on_cycle.add(start)
    return on_cycle


class TestWellFoundedPart:
    def test_self_loop(self):
        report = well_founded_part(graph({"s": ["s"]}))
        assert report.wf_part == frozenset()
        assert not report.is_well_founded

    def test_chain_ranks(self):
        report = well_founded_part(graph({"a": ["b"], "b": ["c"], "c": []}))
        assert report.is_well_founded
        assert report.rank == {"c": 1, "b": 2, "a": 3}

    def test_cycle_plus_tail(self):
        g = graph({"a": ["b"], "b": ["a"], "c": [], "d": ["c"]})
        report = well_founded_part(g)
        assert report.wf_part == {"c", "d"}

    def test_complement_is_cycle_reachability(self):
        rng = rng_for(51)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10), density=rng.uniform(0.1, 0.5))
            report = well_founded_part(g)
            bad = cycle_reach_oracle(g)
            assert report.wf_part == set(g.states) - bad

    def test_wf_part_is_cartesian(self):
        rng = rng_for(53)
        for _ in range(60):
            coalg = random_coalgebra(rng, 8)
            report = well_founded_part(coalg)
            assert is_cartesian_subcoalgebra(report.wf_part, coalg)

    def test_wf_part_is_least_cartesian_subset(self):
        rng = rng_for(59)
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 12), density=0.25)
            report = well_founded_part(g)
            states = list(g.states)
            for r in range(len(states) + 1):
                for combo in itertools.combinations(states, r):
                    if is_cartesian_subcoalgebra(set(combo), g):
                        assert report.wf_part <= set(combo)


class TestIsWellFounded:
    def test_empty(self):
        assert is_well_founded(graph({}))

    def test_self_loop(self):
        assert not is_well_founded(graph({"s": ["s"]}))

    def test_dag_oracle(self):
        # topological sort succeeds exactly on well-founded graphs
        rng = rng_for(61)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), density=0.3)
            succ = g.successor_map
            order = []
            pending = {x: len(succ[x]) for x in g.states}
            preds = {x: [] for x in g.states}
            for x in g.states:
                for s in succ[x]:
                    preds[s].append(x)
            queue = [x for x in g.states if pending[x] == 0]
            while queue:
                y = queue.pop()
                order.append(y)
                for x in preds[y]:
                    pending[x] -= 1
                    if pending[x] == 0:
                        queue.append(x)
            assert is_well_founded(g) == (len(order) == len(g.states))

    def test_no_proper_cartesian_subset_iff_wf(self):
        rng = rng_for(67)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 8), density=0.3)
            proper_cartesian = [
                set(combo)
                for r in range(len(g.states))
                for combo in itertools.combinations(g.states, r)
                if is_cartesian_subcoalgebra(set(combo), g)
            ]
            assert is_well_founded(g) == (not proper_cartesian)


class TestKoenigFamily:
    def test_chain_members(self):
        family = koenig_family(graph({"a": ["b"], "b": ["c"], "c": []}))
        assert list(family.members) == [
            frozenset({"c"}),
            frozenset({"b", "c"}),
            frozenset({"a", "b", "c"}),
        ]
        assert family.union == family.carrier

    def test_empty_coalgebra(self):
        family = koenig_family(graph({}))
        assert family.members == ()
        assert family.union == frozenset() == family.carrier

    def test_window_is_rejected(self):
        with pytest.raises(NotWellFoundedError):
            koenig_family(integer_ladder_window(10))

    def test_members_are_wf_subcoalgebras_and_union_closed(self):
        rng = rng_for(71)
        for _ in range(30):
            coalg = random_wf_coalgebra(rng, 10)
            family = koenig_family(coalg)
            assert family.union == frozenset(coalg.states)
            for m in family.members:
                assert is_subcoalgebra(m, coalg)
                assert is_well_founded(coalg.restrict(m))
            for a in family.members[:4]:
                for b in family.members[:4]:
                    joined = family.join(a, b)
                    assert is_subcoalgebra(joined, coalg)
                    assert is_well_founded(coalg.restrict(joined))


class TestKoenigExtract:
    def test_lazy_dag_matches_finite_result(self):
        fin = graph({"a": ["b", "c"], "b": ["c"], "c": []})
        from coalg.coalgebras import LazyCoalgebra

        lazy = LazyCoalgebra(GRAPH, fin.structure_of)
        assert koenig_extract(lazy, "a", 1000) == koenig_extract(fin, "a", 1000)

    def test_ladder_budgets(self):
        ladder = integer_ladder()
        for budget in (10, 100, 1000):
            assert isinstance(koenig_extract(ladder, "1", budget), BudgetExhausted)

    def test_deadlock_only(self):
        g = graph({"d": []})
        assert koenig_extract(g, "d", 5) == {"d"}

    def test_cycle_evidence(self):
        g = graph({"a": ["b"], "b": ["a"]})
        with pytest.raises(FoundInfinitePathEvidence):
            koenig_extract(g, "a", 100)

    def test_lazy_closure_walks_each_structure_once_per_pass(self, monkeypatch):
        import coalg.coalgebras as coalgebras
        from coalg.coalgebras import LazyCoalgebra

        supports, rules = [], []
        real = coalgebras.support
        monkeypatch.setattr(coalgebras, "support", lambda c, h: supports.append(h) or real(c, h))

        def rule(x):
            rules.append(x)
            k = int(x)
            return set_of([StateRef(str(k - 1))] if k else [])

        closure = koenig_extract(LazyCoalgebra(GRAPH, rule), "99", 1000)
        assert closure == {str(k) for k in range(100)}
        # once in the closure walk and once for the restriction
        assert len(rules) == len(supports) == 200

    def test_lazy_cycle_evidence(self):
        from coalg.coalgebras import LazyCoalgebra

        fin = graph({"a": ["b"], "b": ["c"], "c": ["b"]})
        with pytest.raises(FoundInfinitePathEvidence) as info:
            koenig_extract(LazyCoalgebra(GRAPH, fin.structure_of), "a", 100)
        assert info.value.report.wf_part == frozenset()


class TestIndexOrderIsNameOrder:
    """The kernels run on state indices; on carriers listed out of name
    order, every choice they make is still the one made on names."""

    def test_cycle_error_names_the_state_the_name_oracle_names(self):
        rng = rng_for(251)
        cyclic = 0
        for _ in range(200):
            g = shuffled_graph(rng, rng.randint(2, 24), rng.choice([0.05, 0.1, 0.2]))
            succ = g.successor_map
            wf = round_ranks(succ)
            if len(wf) == len(succ):
                assert well_founded_part(g).rank == wf
                continue
            cyclic += 1
            with pytest.raises(CycleError) as info:
                solve_recursion(g, count_algebra(GRAPH))
            assert info.value.state == cycle_state_by_name(succ, wf)
            assert well_founded_part(g).rank == wf
        assert cyclic > 100

    def test_budget_prefix_is_the_sorted_name_frontier(self):
        rng = rng_for(257)
        short = 0
        for _ in range(200):
            g = shuffled_graph(rng, rng.randint(11, 30), rng.choice([0.05, 0.1, 0.2]))
            state = rng.choice(g.states)
            succ = g.successor_map.__getitem__
            closure, _ = reach(succ, [state])
            if len(closure) < 3:
                continue
            budget = rng.randrange(1, len(closure))
            visited, closed = reach(succ, [state], budget)
            assert not closed
            assert koenig_extract(g, state, budget) == BudgetExhausted(visited, budget)
            short += 1
        assert short > 100

    def test_koenig_family_matches_the_closures_by_name(self):
        rng = rng_for(263)
        for _ in range(60):
            g = shuffled_graph(rng, rng.randint(1, 14), 0.1)
            if not is_well_founded(g):
                continue
            succ = g.successor_map.__getitem__
            closures = {reach(succ, [x])[0] for x in g.states}
            members = tuple(sorted(closures, key=lambda m: (len(m), sorted(m))))
            assert koenig_family(g).members == members


INDUCTION_TABLE = [
    (frozenset(), 1),
    (frozenset({1}), 1),
    (frozenset({0}), 0),
    (frozenset({0, 1}), 0),
]


class TestSolveRecursion:
    def test_induction_algebra_table(self):
        alg = induction_algebra(GRAPH)
        for shape, expected in INDUCTION_TABLE:
            assert alg.eval(shape) == expected

    def test_induction_is_constant_one_on_wf(self):
        rng = rng_for(73)
        for _ in range(40):
            coalg = random_wf_coalgebra(rng, 10)
            values = solve_recursion(coalg, induction_algebra(coalg.container))
            assert set(values.values()) == {1} or not values
            assert verify_solution(coalg, induction_algebra(coalg.container), values)

    def test_term_chain_unfolds(self):
        from coalg.initial_algebra import Signature, term_algebra, signature_container, encode_structure

        sig = Signature((("z", 0), ("s", 1)))
        container = signature_container(sig)
        coalg = FiniteCoalgebra(
            container,
            ["n0", "n1", "n2"],
            {
                "n0": encode_structure(sig, "s", [StateRef("n1")]),
                "n1": encode_structure(sig, "s", [StateRef("n2")]),
                "n2": encode_structure(sig, "z", []),
            },
        )
        values = solve_recursion(coalg, term_algebra(sig))
        assert str(values["n0"]) == "s(s(z))"

    def test_built_in_algebras_match_the_container_walk(self):
        # depths 1-3 reach every constructor, pairneq included
        rng = rng_for(97)
        for k in range(200):
            coalg = random_wf_coalgebra(rng, 8, depth=1 + k % 3)
            c = coalg.container
            count = Algebra(c, lambda s: 1 + max(identity_values(c, s), default=-1))
            induction = Algebra(c, lambda s: int(all(v == 1 for v in identity_values(c, s))))
            assert solve_recursion(coalg, count_algebra(c)) == solve_recursion(coalg, count)
            assert solve_recursion(coalg, induction_algebra(c)) == solve_recursion(coalg, induction)

    def test_count_is_rank_minus_one_on_graphs(self):
        # on finpow(id) the height algebra and the fixpoint rank count the
        # same longest path, from 0 and from 1
        rng = rng_for(101)
        for _ in range(50):
            names = [f"s{i:02d}" for i in range(rng.randint(1, 30))]
            edges = {x: rng.sample(names[i + 1:], rng.randint(0, min(4, len(names) - i - 1)))
                     for i, x in enumerate(names)}
            coalg = graph(edges)
            values = solve_recursion(coalg, count_algebra(GRAPH))
            rank = well_founded_part(coalg).rank
            assert values == {x: rank[x] - 1 for x in names}

    def test_self_loop_cycles(self):
        with pytest.raises(CycleError):
            solve_recursion(graph({"s": ["s"]}), count_algebra(GRAPH))

    def test_no_cycle_error_on_wf_and_square_holds(self):
        rng = rng_for(79)
        for _ in range(40):
            coalg = random_wf_coalgebra(rng, 10)
            alg = count_algebra(coalg.container)
            values = solve_recursion(coalg, alg)
            assert verify_solution(coalg, alg, values)

    def test_eval_runs_once_per_state(self):
        rng = rng_for(83)
        for _ in range(40):
            coalg = random_wf_coalgebra(rng, 10)
            alg, calls = counted(count_algebra(coalg.container))
            values = solve_recursion(coalg, alg)
            assert len(calls) == len(coalg.states) == len(values)

    def test_cycle_error_evaluates_nothing(self):
        alg, calls = counted(count_algebra(GRAPH))
        with pytest.raises(CycleError) as info:
            solve_recursion(graph({"a": [], "loop": ["loop"]}), alg)
        assert info.value.state == "loop"
        assert calls == []

    def test_named_state_lies_on_a_cycle(self):
        # the least non-well-founded state "a" lies on the tail
        g = graph({"a": ["b"], "b": ["c"], "c": ["b"]})
        with pytest.raises(CycleError) as info:
            solve_recursion(g, count_algebra(GRAPH))
        assert info.value.state == "b"
        rng = rng_for(89)
        systems = [random_graph(rng, rng.randint(1, 8)) for _ in range(60)]
        systems += [random_coalgebra(rng, 8) for _ in range(60)]
        cyclic = [c for c in systems if not is_well_founded(c)]
        assert len(cyclic) > 30
        for coalg in cyclic:
            with pytest.raises(CycleError) as info:
                solve_recursion(coalg, count_algebra(coalg.container))
            x = info.value.state
            succ = coalg.successor_map.__getitem__
            assert x in reach(succ, succ(x))[0]


def solved(coalg, alg):
    """solve_recursion's values, or the state its CycleError names."""
    try:
        return solve_recursion(coalg, alg)
    except CycleError as exc:
        return exc.state


class TestFoldOnTheGraph:
    """count and induction over a functor with no pairneq node evaluate on
    the canonical graph, each state on its successors' values; that gives
    the values that interpreting every shape with the same eval gives."""

    def systems(self):
        import coalg.gallery as gallery

        rng = rng_for(307)
        for k in range(240):
            coalg = (random_coalgebra if k % 2 else random_wf_coalgebra)(rng, 8, depth=1 + k % 3)
            if not has_pairneq(coalg.container):
                yield coalg
        for _ in range(40):
            yield random_graph(rng, rng.randint(1, 10), density=rng.choice([0.05, 0.15, 0.3]))
        for name in gallery.gallery_names():
            system = gallery.GALLERY[name].build()
            if isinstance(system, FiniteCoalgebra):
                yield system

    def test_the_graph_gives_the_interpreted_values(self):
        seen = Counter()
        for system in self.systems():
            graph = coalgebra_from_json(coalgebra_to_json(system), lambda container: False)
            for make in (count_algebra, induction_algebra):
                alg = make(system.container)
                if has_pairneq(system.container):  # the ladder window
                    assert alg.eval_successors is None
                    continue
                expected = solved(system, Algebra(system.container, alg.eval_fn))
                assert solved(system, alg) == solved(graph, alg) == expected
                seen[type(expected)] += 1
        assert seen[dict] > 200 and seen[str] > 60, seen

    def test_count_is_rank_minus_one_and_induction_is_one(self):
        for system in self.systems():
            report = well_founded_part(system)
            if has_pairneq(system.container) or not report.is_well_founded:
                continue
            graph = coalgebra_from_json(coalgebra_to_json(system), lambda container: False)
            assert solve_recursion(graph, count_algebra(graph.container)) == {x: r - 1 for x, r in report.rank.items()}
            assert set(solve_recursion(graph, induction_algebra(graph.container)).values()) == {1}


class TestExtendRecursion:
    def test_empty_extension(self):
        from coalg.wellfounded import extend_recursion_solution

        alg = induction_algebra(GRAPH)
        assert extend_recursion_solution({"s": 1}, {}, alg) == {"s": 1}

    def test_single_new_state(self):
        from coalg.wellfounded import extend_recursion_solution

        alg = induction_algebra(GRAPH)
        out = extend_recursion_solution(
            {"s": 1}, {"x": set_of([StateRef("s")])}, alg
        )
        assert out["x"] == alg.eval(frozenset({1})) == 1

    def test_agrees_with_full_solve(self):
        from coalg.wellfounded import extend_recursion_solution

        rng = rng_for(83)
        for _ in range(40):
            coalg = random_wf_coalgebra(rng, 8)
            alg = count_algebra(coalg.container)
            base = solve_recursion(coalg, alg)
            new_states, p = random_extension(rng, coalg)
            extended = extend_recursion_solution(base, p, alg)
            ext_coalg = coproduct_extension(coalg, new_states, p)
            assert extended == solve_recursion(ext_coalg, alg)
            assert verify_solution(ext_coalg, alg, extended)


    def test_checks_each_new_state_against_the_solved_keys(self):
        # each new state's successors are checked against the solution's
        # keys: the solution is scanned as often for 2 000 new states as for
        # 20, not once per new state (a set of the 100 000 solved states
        # rebuilt per new state made 2 000 new states take some 8 s)
        from coalg.wellfounded import extend_recursion_solution

        class Solved(Mapping):
            def __init__(self, values):
                self.values, self.scans = values, 0

            def __getitem__(self, x):
                return self.values[x]

            def __len__(self):
                return len(self.values)

            def __iter__(self):
                self.scans += 1
                return iter(self.values)

        rng = rng_for(97)
        alg = count_algebra(GRAPH)
        solved = {f"s{i}": i % 7 for i in range(100_000)}
        p = {f"n{j}": set_of([StateRef(f"s{rng.randrange(100_000)}") for _ in range(3)]) for j in range(2000)}
        few, values = Solved(solved), Solved(solved)
        extend_recursion_solution(few, dict(itertools.islice(p.items(), 20)), alg)
        out = extend_recursion_solution(values, p, alg)
        assert values.scans == few.scans
        assert len(out) == 102_000
        assert all(out[x] == 1 + max(values[r.state] for r in h.items) for x, h in p.items())


class TestExtensionPreservesWf:
    def test_randomized_preservation_and_ranks(self):
        rng = rng_for(89)
        for _ in range(100):
            coalg = random_wf_coalgebra(rng, 10)
            before = well_founded_part(coalg)
            new_states, p = random_extension(rng, coalg)
            ext = coproduct_extension(coalg, new_states, p)
            after = well_founded_part(ext)
            assert after.is_well_founded
            for x in coalg.states:
                assert after.rank[x] == before.rank[x]


class TestIntegerLadder:
    def test_structure_values(self):
        ladder = integer_ladder()
        assert ladder.structure_of("1") == make_pair(StateRef("-2"), StateRef("2"))
        assert ladder.structure_of("-3") == make_pair(StateRef("-4"), StateRef("4"))

    def test_components_always_distinct(self):
        ladder = integer_ladder()
        for k in list(range(-30, 0)) + list(range(1, 31)):
            h = ladder.structure_of(str(k))
            assert h != STAR

    def test_zero_state(self):
        with pytest.raises(ZeroStateError):
            integer_ladder().structure_of("0")
        with pytest.raises(ZeroStateError):
            integer_ladder().successors("0")

    @pytest.mark.parametrize("state", ["01", "+3", "1_0", " 2", "\u0663", "-0", "00"])
    def test_a_state_has_one_name(self, state):
        # int() takes each of these, but only str(k) names the state k
        ladder = integer_ladder()
        for read in (ladder.structure_of, ladder.successors):
            with pytest.raises(InputError, match=re.escape(f"canonical integers, got {state!r}")):
                read(state)

    def test_successor_rule_agrees_with_the_structure(self):
        # on the first 10 000 states of the closure from 1
        ladder = integer_ladder()
        visited, closed = reach(ladder.successors, ["1"], 10_000)
        assert not closed and len(visited) == 10_000
        for x in visited:
            assert ladder.successors(x) == support(ladder.container, ladder.rule(x))

    @pytest.mark.parametrize("seed", ["1", "-1", "7"])
    def test_a_budget_takes_the_states_the_structure_gives(self, seed):
        # a budget takes a sorted prefix of a frontier of names, with or
        # without the successor rule
        ladder = integer_ladder()
        by_structure = LazyCoalgebra(PairNeq(), ladder.rule)
        for budget in (1, 2, 3, 10, 1000, 100_000):
            named = koenig_extract(ladder, seed, budget)
            assert isinstance(named, BudgetExhausted) and len(named.visited) == budget
            assert named == koenig_extract(by_structure, seed, budget)

    def test_window_is_not_wf_but_valid(self):
        window = integer_ladder_window(10)
        assert len(window.states) == 20
        assert not is_well_founded(window)

    def test_window_radius_is_advisory_only(self):
        # traversal follows the successor rule, so budgets still run out
        ladder = integer_ladder()
        assert isinstance(koenig_extract(ladder, "1", 500), BudgetExhausted)

    def test_recursion_constant_and_square(self):
        alg = count_algebra(PairNeq())
        states = [k for k in range(-50, 51) if k != 0]
        values = integer_ladder_recursion(alg, states)
        assert set(values.values()) == {0}

    def test_recursion_values_track_star_eval(self):
        a1 = Algebra(PairNeq(), lambda s: "left" if s == STAR else "node")
        a2 = Algebra(PairNeq(), lambda s: 42 if s == STAR else -1)
        v1 = integer_ladder_recursion(a1, [1, 2, 3])
        v2 = integer_ladder_recursion(a2, [1, 2, 3])
        assert set(v1.values()) == {"left"}
        assert set(v2.values()) == {42}

    def test_verification_failure_detected(self):
        # an eval that is not constant on the collapsed point breaks the square
        flaky = {"n": 0}

        def ev(shape):
            flaky["n"] += 1
            return flaky["n"]

        with pytest.raises(VerificationFailedError):
            integer_ladder_recursion(Algebra(PairNeq(), ev), [1])
