"""The linear fixpoint kernel and the closure routine, against the direct
round-by-round iteration they replace, plus scale bounds."""

import time

from coalg.convex import CPolytope, ConvexSpec, convex_wf_fixpoint, unit
from coalg.fixpoint import least_fixpoint, reach
from coalg.nominal import FRESH_CASE, NLTSSpec, Rule, Template, nominal_wf_labels
from coalg.wellfounded import integer_ladder

from genutil import all_graphs, random_assignment, random_graph, rng_for, round_ranks


class TestLeastFixpoint:
    def test_empty_map(self):
        assert least_fixpoint({}) == {}

    def test_chain_ranks_and_cycle(self):
        succ = {"a": ["b"], "b": ["c"], "c": [], "x": ["y"], "y": ["x", "c"]}
        assert least_fixpoint(succ) == {"a": 3, "b": 2, "c": 1}

    def test_any_of_takes_least_member_rank(self):
        succ = {"g": ["v"], "v": ["a", "c"], "a": ["b"], "b": ["c"], "c": []}
        rank = least_fixpoint(succ, any_of={"v"})
        assert rank["v"] == 1 and rank["g"] == 2

    def test_any_of_without_successors_never_holds(self):
        rank = least_fixpoint({"g": ["v"], "v": []}, any_of={"v"})
        assert rank == {}

    def test_any_of_with_one_live_member_holds(self):
        succ = {"v": ["loop", "d"], "loop": ["loop"], "d": []}
        assert least_fixpoint(succ, any_of={"v"}) == {"d": 1, "v": 1}

    def test_every_three_state_graph_matches_rounds(self):
        for g in all_graphs(3):
            succ = g.successor_map
            assert least_fixpoint(succ) == round_ranks(succ)

    def test_random_graphs_match_rounds(self):
        rng = rng_for(211)
        for _ in range(150):
            succ = random_graph(rng, rng.randint(1, 12), density=rng.choice([0.05, 0.15, 0.3])).successor_map
            assert least_fixpoint(succ) == round_ranks(succ)

    def test_random_any_of_graphs_match_rounds(self):
        rng = rng_for(223)
        for _ in range(500):
            n = rng.randint(1, 12)
            density = rng.choice([0.1, 0.2, 0.35])
            succ = {i: [j for j in range(n) if rng.random() < density] for i in range(n)}
            any_of = {i for i in range(n) if rng.random() < 0.4}
            assert least_fixpoint(succ, any_of) == round_ranks(succ, any_of)


class TestReach:
    def test_closure_of_a_chain(self):
        succ = {"a": ["b"], "b": ["c"], "c": [], "d": ["a"]}
        assert reach(succ.__getitem__, ["b"]) == (frozenset("bc"), True)

    def test_empty_seed(self):
        assert reach({}.__getitem__, []) == (frozenset(), True)

    def test_budget_takes_sorted_frontier_prefix(self):
        # the ladder from 1: frontiers [1], [-2, 2], [-3, 3], ...; a budget
        # of 4 takes the first member of the third sorted frontier
        ladder = integer_ladder()
        visited, closed = reach(ladder.successors, ["1"], 4)
        assert not closed
        assert visited == {"1", "-2", "2", "-3"}

    def test_budget_equal_to_closure_size_suffices(self):
        succ = {"a": ["b"], "b": ["c"], "c": []}
        assert reach(succ.__getitem__, ["a"], 3) == (frozenset("abc"), True)
        assert reach(succ.__getitem__, ["a"], 2) == (frozenset("ab"), False)


def unit_convex_chain(n):
    """Generator g steps to e_{g+1}; the last one is a deadlock."""
    polys = [CPolytope([unit(g + 1, n)]) for g in range(n - 1)] + [CPolytope()]
    return ConvexSpec(polys)


def nominal_chain(n, seed):
    """Labels c0000 -> c0001 -> ... on fresh inputs, with seeded arities."""
    rng = rng_for(seed)
    names = [f"c{i:04d}" for i in range(n)]
    labels = {x: rng.randint(0, 2) for x in names}
    rules = [
        Rule(src, FRESH_CASE, (Template(tgt, random_assignment(rng, labels[src], labels[tgt], FRESH_CASE)),))
        for src, tgt in zip(names, names[1:])
    ]
    return NLTSSpec(labels, rules)


class TestScale:
    def test_convex_unit_chain_of_300(self):
        n = 300
        spec = unit_convex_chain(n)
        start = time.perf_counter()
        report = convex_wf_fixpoint(spec)
        elapsed = time.perf_counter() - start
        assert report.rank == {g: n - g for g in range(n)}
        assert elapsed < 2.0, f"convex_wf_fixpoint took {elapsed:.2f}s on {n} generators"

    def test_nominal_chain_of_5000(self):
        spec = nominal_chain(5000, 1)
        start = time.perf_counter()
        wf = nominal_wf_labels(spec)
        elapsed = time.perf_counter() - start
        assert wf == frozenset(spec.labels)
        assert elapsed < 1.0, f"nominal_wf_labels took {elapsed:.2f}s on 5000 labels"
