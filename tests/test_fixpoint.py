"""The linear fixpoint kernel and the closure routine, against the direct
round-by-round iteration they replace, plus scale bounds."""

import inspect
import sys
import time
from collections import Counter
from collections.abc import Sequence

from coalg.convex import CPolytope, ConvexSpec, convex_wf_fixpoint, unit
from coalg.fixpoint import least_fixpoint, reach
from coalg.nominal import FRESH_CASE, NLTSSpec, Rule, Template, nominal_wf_labels
from coalg.wellfounded import integer_ladder

from genutil import all_graphs, numbered, random_assignment, random_graph, rng_for, round_ranks


def fixpoint_by_name(succ, any_of=frozenset()):
    """``least_fixpoint`` on a map keyed by names, numbered as the nominal
    back-end numbers its labels, with its ranks read back by name."""
    names, out = numbered(succ)
    rank, order = least_fixpoint(out, {i for i, x in enumerate(names) if x in any_of})
    return {names[i]: rank[i] for i in order}


class TestLeastFixpoint:
    def test_empty_map(self):
        assert fixpoint_by_name({}) == {}
        assert least_fixpoint([]) == ([], [])

    def test_chain_ranks_and_cycle(self):
        succ = {"a": ["b"], "b": ["c"], "c": [], "x": ["y"], "y": ["x", "c"]}
        assert fixpoint_by_name(succ) == {"a": 3, "b": 2, "c": 1}

    def test_any_of_takes_least_member_rank(self):
        succ = {"g": ["v"], "v": ["a", "c"], "a": ["b"], "b": ["c"], "c": []}
        rank = fixpoint_by_name(succ, any_of={"v"})
        assert rank["v"] == 1 and rank["g"] == 2

    def test_any_of_without_successors_never_holds(self):
        rank = fixpoint_by_name({"g": ["v"], "v": []}, any_of={"v"})
        assert rank == {}

    def test_any_of_with_one_live_member_holds(self):
        succ = {"v": ["loop", "d"], "loop": ["loop"], "d": []}
        assert fixpoint_by_name(succ, any_of={"v"}) == {"d": 1, "v": 1}

    def test_every_three_state_graph_matches_rounds(self):
        for g in all_graphs(3):
            succ = g.successor_map
            assert fixpoint_by_name(succ) == round_ranks(succ)

    def test_random_graphs_match_rounds(self):
        rng = rng_for(211)
        for _ in range(150):
            succ = random_graph(rng, rng.randint(1, 12), density=rng.choice([0.05, 0.15, 0.3])).successor_map
            assert fixpoint_by_name(succ) == round_ranks(succ)

    def test_random_any_of_graphs_match_rounds(self):
        rng = rng_for(223)
        for _ in range(500):
            n, succ, any_of = random_int_graph(rng)
            rank, order = least_fixpoint(succ, any_of)
            expected = round_ranks(dict(enumerate(succ)), any_of)
            assert {i: rank[i] for i in order} == expected
            assert [i for i in range(n) if rank[i]] == sorted(expected)

    def test_order_lists_each_ordinary_node_after_its_successors(self):
        rng = rng_for(227)
        for _ in range(300):
            n, succ, any_of = random_int_graph(rng)
            rank, order = least_fixpoint(succ, any_of)
            assert len(set(order)) == len(order)
            done = set()
            for x in order:
                assert x in any_of or done.issuperset(succ[x])
                done.add(x)

    def test_nodes_limits_the_run_to_a_closed_subset(self):
        # on the closure of a node the kernel gives the ranks it gives on
        # the whole graph, and rank 0 outside the closure
        rng = rng_for(229)
        for _ in range(300):
            n, succ, any_of = random_int_graph(rng)
            whole, _ = least_fixpoint(succ, any_of)
            closure, _ = reach(succ.__getitem__, [rng.randrange(n)])
            rank, order = least_fixpoint(succ, any_of, nodes=closure)
            assert set(order) <= closure
            assert rank == [whole[i] if i in closure else 0 for i in range(n)]


def random_int_graph(rng):
    n = rng.randint(1, 12)
    density = rng.choice([0.1, 0.2, 0.35])
    succ = [tuple(j for j in range(n) if rng.random() < density) for _ in range(n)]
    any_of = {i for i in range(n) if rng.random() < 0.4}
    return n, succ, any_of


class CountingSequence(Sequence):
    """A list that counts the reads of each of its items."""

    def __init__(self, items):
        self.items = list(items)
        self.reads = Counter()

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads[i] += 1
        return self.items[i]


def line_hits(fn, marker, *args, **kwargs):
    """``fn(*args, **kwargs)``, and how often it ran its one source line
    that contains ``marker``, counted by a line tracer on its frames."""
    code = fn.__code__
    source, first = inspect.getsourcelines(fn)
    [line] = [first + k for k, text in enumerate(source) if marker in text]
    hits = 0

    def local(frame, event, arg):
        nonlocal hits
        hits += event == "line" and frame.f_lineno == line
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return result, hits


class TestOperationCounts:
    """Deterministic linearity gates: counts of reads and relaxations, not
    wall time."""

    def test_each_successor_tuple_is_read_once(self):
        rng = rng_for(233)
        for _ in range(200):
            n, succ, any_of = random_int_graph(rng)
            counted = CountingSequence(succ)
            assert least_fixpoint(counted, any_of) == least_fixpoint(succ, any_of)
            assert counted.reads == Counter(range(n))
            closure, _ = reach(succ.__getitem__, [rng.randrange(n)])
            counted = CountingSequence(succ)
            least_fixpoint(counted, any_of, nodes=closure)
            assert counted.reads == Counter(closure)

    def test_relaxations_are_at_most_edges_plus_any_of_members(self):
        rng = rng_for(239)
        for _ in range(100):
            n, succ, any_of = random_int_graph(rng)
            result, relaxed = line_hits(least_fixpoint, "pending[x] -= 1", succ, any_of)
            assert result == least_fixpoint(succ, any_of)
            assert relaxed <= sum(map(len, succ)) + len(any_of)
        # a chain of 1000 relaxes each of its 999 edges once
        chain = [(i + 1,) for i in range(999)] + [()]
        (rank, _), relaxed = line_hits(least_fixpoint, "pending[x] -= 1", chain)
        assert rank[0] == 1000 and relaxed == 999

    def test_reach_reads_at_most_budget_nodes(self):
        rng = rng_for(241)
        for _ in range(200):
            n, succ, _ = random_int_graph(rng)
            seed = [rng.randrange(n)]
            budget = rng.randint(1, n)
            counted = CountingSequence(succ)
            visited, closed = reach(counted.__getitem__, seed, budget)
            assert (visited, closed) == reach(succ.__getitem__, seed, budget)
            assert sum(counted.reads.values()) <= budget
            assert set(counted.reads) <= visited and max(counted.reads.values(), default=1) == 1


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
