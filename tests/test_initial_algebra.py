import copy
import itertools
import json
import pickle
import time

import pytest

from coalg import initial_algebra
from coalg.coalgebras import Algebra, FiniteCoalgebra, count_algebra, induction_algebra, unfold_algebra
from coalg.containers import (
    Const,
    FinPow,
    Identity,
    Product,
    StateRef,
    Sum,
    set_of,
)
from coalg.errors import CycleError, InputError
from coalg.initial_algebra import (
    TERM_LIMIT,
    DiagramSpec,
    Signature,
    Term,
    diagram_colimit,
    encode_structure,
    enumerate_terms,
    parse_term,
    realize_hstructure,
    signature_container,
    subterms,
    term_algebra,
    term_realization_report,
    unfold_to_term,
)
from coalg.wellfounded import (
    extend_recursion_solution,
    solve_recursion,
    verify_solution,
    well_founded_part,
)

from genutil import decode_structure, random_wf_coalgebra, random_extension, rng_for

PEANO = Signature((("z", 0), ("s", 1)))
TREES = Signature((("leaf", 0), ("node", 2)))


def random_signature_coalgebra(rng, sig, n):
    """A random well-founded system over a signature functor: each state
    applies a random symbol to strictly later states (constants at the end)."""
    states = [f"n{i}" for i in range(n)]
    constants = [name for name, arity in sig.ops if arity == 0]
    structure = {}
    for i, x in enumerate(states):
        later = states[i + 1 :]
        candidates = [(name, a) for name, a in sig.ops if a == 0 or later]
        name, arity = rng.choice(candidates)
        children = [StateRef(rng.choice(later)) for _ in range(arity)]
        structure[x] = encode_structure(sig, name, children)
    assert constants, "signature needs a constant for deadlocks"
    return FiniteCoalgebra(signature_container(sig), states, structure)


class TestTerms:
    def test_str_and_parse_round_trip(self):
        t = Term("node", (Term("leaf"), Term("node", (Term("leaf"), Term("leaf")))))
        assert str(t) == "node(leaf,node(leaf,leaf))"
        assert parse_term(str(t)) == t

    def test_parse_rejects_trailing(self):
        with pytest.raises(InputError):
            parse_term("s(z))")

    def test_height(self):
        assert Term("z").height == 0
        assert parse_term("s(s(z))").height == 2

    def test_subterms_dependency_order(self):
        t = parse_term("node(leaf,node(leaf,leaf))")
        order = subterms(t)
        assert order.index(Term("leaf")) < order.index(t)
        assert len(order) == 3

    def test_subterms_of_a_deep_chain(self):
        order = subterms(chain(10_000))
        assert order[0] == Term("z")
        assert all(t.args == (below,) for below, t in zip(order, order[1:]))
        assert order[-1] == chain(10_000)


def chain(n):
    """The unary term s(...s(z)...) of height n, built bottom-up."""
    t = Term("z")
    for _ in range(n):
        t = Term("s", (t,))
    return t


class TestInternedTerms:
    def test_equal_terms_are_one_object(self):
        a = Term("node", (Term("leaf"), parse_term("node(leaf,leaf)")))
        b = parse_term("node(leaf,node(leaf,leaf))")
        assert a is b and a == b and hash(a) == hash(b)
        assert Term("s", [Term("z")]) is Term("s", (Term("z"),))
        assert Term("s", (Term("z"),)) != Term("s", (Term("s", (Term("z"),)),))

    def test_deep_chains_without_recursion(self):
        a, b = chain(9999), chain(9999)
        assert a == b
        assert a is b
        assert a.height == 9999
        assert a in {b} and b in {a: 1}
        assert len(str(a)) == 3 * 9999 + 1
        assert chain(9999) is not chain(9998)

    def test_fields_str_and_repr(self):
        t = parse_term("s(z)")
        assert (t.op, t.args, t.height) == ("s", (Term("z"),), 1)
        assert str(t) == str(t) == "s(z)"
        assert repr(t) == "Term(op='s', args=(Term(op='z', args=()),))"

    def test_repr_of_a_small_term(self):
        t = parse_term("node(leaf,s(leaf),node(leaf,leaf))")
        assert repr(t) == (
            "Term(op='node', args=(Term(op='leaf', args=()), "
            "Term(op='s', args=(Term(op='leaf', args=()),)), "
            "Term(op='node', args=(Term(op='leaf', args=()), Term(op='leaf', args=())))))"
        )
        assert repr(t) == f"Term(op={t.op!r}, args={t.args!r})"

    def test_repr_of_a_deep_chain(self):
        text = repr(chain(10_000))
        assert text.count("Term(op='s', args=(") == 10_000
        assert text.endswith("Term(op='z', args=())" + ",))" * 10_000)

    def test_immutable(self):
        t = Term("z")
        with pytest.raises(AttributeError):
            t.op = "s"
        with pytest.raises(AttributeError):
            del t.height

    def test_copies_are_the_shared_instance(self):
        t = parse_term("node(leaf,node(leaf,leaf))")
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t


class TestSignatureLookup:
    def test_index_and_arity(self):
        sig = Signature((("a", 0), ("b", 1), ("c", 2)))
        assert [(sig.index(n), sig.arity(n)) for n, _ in sig.ops] == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("op", ["d", "", ["a"], 0])
    def test_unknown_symbol(self, op):
        sig = Signature((("a", 0), ("b", 1)))
        message = f"unknown operation symbol {op!r}"
        for lookup in (sig.index, sig.arity, lambda o: encode_structure(sig, o, [])):
            with pytest.raises(InputError) as info:
                lookup(op)
            assert str(info.value) == message


class TestSignatureContainer:
    def test_peano_shape(self):
        assert signature_container(PEANO) == Sum(Const(("z",)), Identity())

    def test_tree_shape(self):
        assert signature_container(TREES) == Sum(
            Const(("leaf",)), Product((Identity(), Identity()))
        )

    def test_ordered_tree_functor_expressible(self):
        # X*X + X + 1 as a three-symbol signature
        sig = Signature((("both", 2), ("one", 1), ("end", 0)))
        assert signature_container(sig) == Sum(
            Product((Identity(), Identity())), Sum(Identity(), Const(("end",)))
        )

    def test_built_once_with_the_signature(self):
        sig = Signature((("a", 0), ("b", 1), ("c", 2)))
        assert signature_container(sig) is signature_container(sig)
        assert term_algebra(sig).container is signature_container(sig)

    def test_encode_decode_round_trip(self):
        sig = Signature((("a", 0), ("b", 1), ("c", 2), ("d", 0)))
        for name, arity in sig.ops:
            children = [StateRef(f"s{i}") for i in range(arity)]
            h = encode_structure(sig, name, children)
            assert decode_structure(sig, h) == (name, children)


class TestTermAlgebra:
    def test_constant(self):
        alg = term_algebra(PEANO)
        assert alg.eval(("inl", "z")) == Term("z")

    def test_unary_over_term(self):
        alg = term_algebra(PEANO)
        assert alg.eval(("inr", Term("z"))) == parse_term("s(z)")

    def test_binary_over_terms(self):
        alg = term_algebra(TREES)
        t = parse_term("s_free")  # any term value is allowed in the slots
        out = alg.eval(("inr", (Term("leaf"), t)))
        assert out == Term("node", (Term("leaf"), t))


class TestUnfold:
    def chain(self, k):
        states = [f"n{i}" for i in range(k + 1)]
        structure = {}
        for i in range(k):
            structure[f"n{i}"] = encode_structure(PEANO, "s", [StateRef(f"n{i+1}")])
        structure[f"n{k}"] = encode_structure(PEANO, "z", [])
        return FiniteCoalgebra(signature_container(PEANO), states, structure)

    def test_single_constant_state(self):
        assert unfold_to_term(PEANO, self.chain(0), "n0") == Term("z")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chain_unfolds_by_hand(self, k):
        expected = "z"
        for _ in range(k):
            expected = f"s({expected})"
        assert str(unfold_to_term(PEANO, self.chain(k), "n0")) == expected

    def test_cycle_raises(self):
        container = signature_container(PEANO)
        coalg = FiniteCoalgebra(
            container, ["a"], {"a": encode_structure(PEANO, "s", [StateRef("a")])}
        )
        with pytest.raises(CycleError):
            unfold_to_term(PEANO, coalg, "a")


class TestRealize:
    def test_constant_structure(self):
        system, state = realize_hstructure(PEANO, "z", [])
        assert len(system.states) == 1
        assert unfold_to_term(PEANO, system, state) == Term("z")

    def test_unary_over_sz(self):
        system, state = realize_hstructure(PEANO, "s", [parse_term("s(z)")])
        assert len(system.states) == 3  # z, s(z), and the fresh state
        assert str(unfold_to_term(PEANO, system, state)) == "s(s(z))"

    def test_binary_example(self):
        args = [Term("leaf"), parse_term("node(leaf,leaf)")]
        system, state = realize_hstructure(TREES, "node", args)
        assert str(unfold_to_term(TREES, system, state)) == "node(leaf,node(leaf,leaf))"

    def test_always_wf_with_rank_one_above_prefix(self):
        rng = rng_for(97)
        for _ in range(30):
            depth = rng.randint(0, 3)
            pool = enumerate_terms(TREES, depth)
            name, arity = TREES.ops[rng.randrange(len(TREES.ops))]
            args = [rng.choice(pool) for _ in range(arity)]
            system, state = realize_hstructure(TREES, name, args)
            report = well_founded_part(system)
            assert report.is_well_founded
            prefix_ranks = [report.rank[str(a)] for a in args]
            assert report.rank[state] == 1 + max(prefix_ranks, default=0)

    def test_one_state_per_subterm_named_by_its_text(self):
        # the top state comes last, the argument subterms before it in
        # name order, and every state unfolds to its own term
        for t in enumerate_terms(TREES, 3):
            system, state = realize_hstructure(TREES, t.op, list(t.args))
            names = [str(u) for u in subterms(t)]
            assert state == str(t)
            assert system.states == (*sorted(names[:-1]), state)
            values = solve_recursion(system, term_algebra(TREES))
            assert {x: str(v) for x, v in values.items()} == {x: x for x in names}

    def test_deep_argument(self):
        system, state = realize_hstructure(PEANO, "s", [chain(2000)])
        assert len(system.states) == 2002
        assert unfold_to_term(PEANO, system, state) == chain(2001)

    def test_round_trip_from_random_systems(self):
        # unfold any state of a random signature system, realize the term's
        # top structure, and unfold again: identical term
        rng = rng_for(101)
        for _ in range(25):
            coalg = random_signature_coalgebra(rng, TREES, rng.randint(1, 8))
            alg = term_algebra(TREES)
            values = solve_recursion(coalg, alg)
            assert verify_solution(coalg, alg, values)
            for x in coalg.states:
                t = values[x]
                assert t == unfold_to_term(TREES, coalg, x)
                system2, state2 = realize_hstructure(TREES, t.op, list(t.args))
                assert unfold_to_term(TREES, system2, state2) == t


class TestEnumerateTerms:
    def test_unary_counts(self):
        # one term per height for the unary signature
        for depth in range(5):
            assert len(enumerate_terms(PEANO, depth)) == depth + 1

    def test_binary_counts_match_recurrence(self):
        # N(0) = 1, N(h+1) = 1 + N(h)^2
        expected = 1
        for depth in range(4):
            assert len(enumerate_terms(TREES, depth)) == expected
            expected = 1 + expected * expected

    def test_constant_free_signature_is_vacuous(self):
        sig = Signature((("s", 1),))
        assert enumerate_terms(sig, 4) == []

    def test_a_height_of_one_term_is_not_printed(self, monkeypatch):
        # a term keeps its printed text once printed: sorting every term of
        # a deep unary enumeration by its text held hundreds of MB
        calls = []
        real = Term.__str__

        def counted(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(Term, "__str__", counted)
        # fresh symbols: the intern table may still hold terms printed earlier
        terms = enumerate_terms(Signature((("unprinted-z", 0), ("unprinted-s", 1))), 500)
        assert (len(terms), len(calls)) == (501, 0)


class TestRealizationReport:
    def test_unary_depth_4(self):
        report = term_realization_report(PEANO, 4)
        assert report.term_count == 5
        assert report.passed

    def test_binary_depth_2(self):
        report = term_realization_report(TREES, 2)
        assert report.term_count == 5
        assert report.structure_count == 5
        assert report.injective
        assert report.passed

    def test_vacuous_signature(self):
        report = term_realization_report(Signature((("s", 1),)), 3)
        assert report.term_count == 0
        assert report.passed


def enumerate_terms_oracle(sig, depth):
    """Reference enumeration: each round applies every symbol to every term so far."""
    terms = {Term(n) for n, a in sig.ops if a == 0}
    for _ in range(depth):
        prev = list(terms)
        for name, arity in sig.ops:
            if arity:
                terms.update(Term(name, c) for c in itertools.product(prev, repeat=arity))
    return sorted(terms, key=lambda t: (t.height, str(t)))


MIXED = (("f", 3), ("a", 0), ("g", 1), ("b", 0), ("h", 2))


class TestEnumerateMatchesRounds:
    @pytest.mark.parametrize(
        "ops,depth",
        [(MIXED, d) for d in range(3)] + [(MIXED[1:], 3), (PEANO.ops, 7), (TREES.ops, 4)],
    )
    def test_same_terms_in_the_same_order(self, ops, depth):
        sig = Signature(ops)
        assert enumerate_terms(sig, depth) == enumerate_terms_oracle(sig, depth)

    def test_limit(self):
        with pytest.raises(InputError, match="exceeded 600 terms at depth 4"):
            enumerate_terms(TREES, 4, limit=600)
        assert len(enumerate_terms(TREES, 4, limit=677)) == 677

    def test_arities_above_the_limit_are_refused(self):
        assert Signature((("z", 0), ("w", TERM_LIMIT))).arity("w") == TERM_LIMIT
        for ops in [(("w", TERM_LIMIT + 1),), (("v", TERM_LIMIT), ("w", 1))]:
            with pytest.raises(InputError, match=f"add up to {TERM_LIMIT + 1}, above the limit of 200000"):
                Signature((("z", 0), *ops))

    def test_widest_op_is_enumerated_in_linear_time(self):
        start = time.perf_counter()
        # no constants: no closed terms at any height
        assert enumerate_terms(Signature((("w", TERM_LIMIT),)), 4) == []
        terms = enumerate_terms(Signature((("z", 0), ("w", TERM_LIMIT))), 1)
        assert [t.height for t in terms] == [0, 1]
        assert terms[1].args == (terms[0],) * TERM_LIMIT
        with pytest.raises(InputError, match="exceeded 200000 terms at depth 2"):
            enumerate_terms(Signature((("z", 0), ("w", TERM_LIMIT))), 2)
        assert time.perf_counter() - start < 2


# to_json() of the reports, recorded from the per-term realization (one
# system per term) that the shared realization must agree with
GOLDEN_REPORTS = [
    (PEANO, 6, '{"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}], "depth": 6, "terms": 7, "realized": 7, "structures": 7, "distinctTerms": 7, "injective": true, "passed": true, "counterexamples": []}'),
    (PEANO, 100, '{"ops": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}], "depth": 100, "terms": 101, "realized": 101, "structures": 101, "distinctTerms": 101, "injective": true, "passed": true, "counterexamples": []}'),
    (TREES, 3, '{"ops": [{"name": "leaf", "arity": 0}, {"name": "node", "arity": 2}], "depth": 3, "terms": 26, "realized": 26, "structures": 26, "distinctTerms": 26, "injective": true, "passed": true, "counterexamples": []}'),
]


class TestSharedRealization:
    @pytest.mark.parametrize("sig,depth,expected", GOLDEN_REPORTS, ids=["unary-6", "unary-100", "binary-3"])
    def test_golden_reports(self, sig, depth, expected):
        assert json.dumps(term_realization_report(sig, depth).to_json()) == expected

    def test_deep_unary_fragment_is_fast(self):
        start = time.perf_counter()
        report = term_realization_report(PEANO, 1000)
        elapsed = time.perf_counter() - start
        assert report.passed and report.term_count == report.realized_ok == 1001
        assert elapsed < 2.0, f"depth 1000 took {elapsed:.2f}s"

    def test_wrong_unfolding_is_reported(self, monkeypatch):
        real = initial_algebra.term_algebra
        target = chain(4)

        def faulty(sig):
            alg = real(sig)

            def ev(shape):
                t = alg.eval(shape)
                return chain(1) if t == target else t

            return Algebra(alg.container, ev, name="term")

        monkeypatch.setattr(initial_algebra, "term_algebra", faulty)
        report = term_realization_report(PEANO, 5)
        assert not report.passed
        assert report.realized_ok == 4
        assert report.mismatches == [
            "s(s(s(s(z)))) unfolded to s(z)",
            "s(s(s(s(s(z))))) unfolded to s(s(z))",
        ]

    def test_collapsing_algebra_is_not_injective(self, monkeypatch):
        # injectivity is read from the term algebra's values: an algebra
        # that sends s(z) to z sends every s(...) term to z
        real = initial_algebra.term_algebra

        def collapsing(sig):
            alg = real(sig)

            def ev(shape):
                t = alg.eval(shape)
                return chain(0) if t == chain(1) else t

            return Algebra(alg.container, ev, name="term")

        monkeypatch.setattr(initial_algebra, "term_algebra", collapsing)
        report = term_realization_report(PEANO, 3)
        assert (report.structure_count, report.distinct_terms) == (4, 1)
        assert not report.injective
        assert not report.passed

    @pytest.mark.parametrize("sig,depth", [(PEANO, 30), (TREES, 3)])
    def test_one_support_walk_per_term(self, monkeypatch, sig, depth):
        import coalg.coalgebras as coalgebras
        import coalg.containers as containers
        import coalg.wellfounded as wellfounded

        calls = []
        real = containers.support

        def counted(c, h):
            calls.append(h)
            return real(c, h)

        for module in (containers, coalgebras, wellfounded, initial_algebra):
            if getattr(module, "support", None) is real:
                monkeypatch.setattr(module, "support", counted)
        report = term_realization_report(sig, depth)
        assert report.passed
        assert len(calls) == len(enumerate_terms(sig, depth)) == report.term_count


def graph(edges):
    return FiniteCoalgebra(
        FinPow(Identity()),
        sorted(edges),
        {x: set_of(StateRef(s) for s in succ) for x, succ in edges.items()},
    )


def colimit_classes_oracle(diagram):
    """Connected components of the identification graph, via plain BFS."""
    nodes = [
        (i, x) for i, c in enumerate(diagram.coalgebras) for x in c.states
    ]
    adjacency = {n: set() for n in nodes}
    for i, j, f in diagram.morphisms:
        for x in diagram.coalgebras[i].states:
            a, b = (i, x), (j, f[x])
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    classes = []
    for n in nodes:
        if n in seen:
            continue
        comp = {n}
        frontier = [n]
        while frontier:
            nxt = set()
            for m in frontier:
                nxt |= adjacency[m]
            frontier = list(nxt - comp)
            comp |= nxt
        seen |= comp
        classes.append(frozenset(comp))
    return set(classes)


class TestDiagramColimit:
    def test_single_system_identity_quotient(self):
        d = DiagramSpec([graph({"a": ["b"], "b": []})], [])
        result = diagram_colimit(d)
        assert len(result.class_members) == 2
        assert result.total
        assert result.coalgebra is not None

    def test_arrow_collapses_source(self):
        small = graph({"a": ["b"], "b": []})
        big = graph({"a": ["b"], "b": [], "c": ["a"]})
        d = DiagramSpec([small, big], [(0, 1, {"a": "a", "b": "b"})])
        result = diagram_colimit(d)
        assert len(result.class_members) == len(big.states)
        assert result.total

    def test_shared_deadlock(self):
        left = graph({"l": ["end"], "end": []})
        right = graph({"r": ["end"], "end": []})
        both = graph({"l": ["end"], "r": ["end"], "end": []})
        d = DiagramSpec(
            [left, right, both],
            [
                (0, 2, {"l": "l", "end": "end"}),
                (1, 2, {"r": "r", "end": "end"}),
            ],
        )
        result = diagram_colimit(d)
        assert len(result.class_members) == 3
        assert result.total

    def test_parallel_pair_merges_images(self):
        src = graph({"a": []})
        tgt = graph({"u": [], "v": []})
        d = DiagramSpec([src, tgt], [(0, 1, {"a": "u"}), (0, 1, {"a": "v"})])
        result = diagram_colimit(d)
        assert len(result.class_members) == 1
        assert result.total

    def test_injections_commute_and_match_oracle(self):
        rng = rng_for(103)
        for _ in range(25):
            base = random_wf_coalgebra(rng, 5)
            new_states, p = random_extension(rng, base)
            from coalg.coalgebras import coproduct_extension

            ext = coproduct_extension(base, new_states, p)
            inclusion = {x: x for x in base.states}
            d = DiagramSpec([base, ext, base], [(0, 1, inclusion), (2, 1, inclusion)])
            result = diagram_colimit(d)
            for i, j, f in d.morphisms:
                for x, target in f.items():
                    assert result.injections[j][target] == result.injections[i][x]
            oracle = colimit_classes_oracle(d)
            assert {frozenset(c) for c in result.class_members} == oracle
            assert result.total

    def test_rejects_non_morphism(self):
        small = graph({"a": ["b"], "b": []})
        with pytest.raises(InputError):
            diagram_colimit(
                DiagramSpec([small, small], [(0, 1, {"a": "b", "b": "a"})])
            )


class TestRecursivePreservation:
    """Realization's extension step keeps recursion solvable: extending a
    solution matches re-solving, for several algebras per instance."""

    def test_three_algebras_per_instance(self):
        rng = rng_for(107)
        for _ in range(20):
            coalg = random_wf_coalgebra(rng, 7)
            new_states, p = random_extension(rng, coalg)
            from coalg.coalgebras import coproduct_extension

            ext = coproduct_extension(coalg, new_states, p)
            algs = [
                count_algebra(coalg.container),
                induction_algebra(coalg.container),
                unfold_algebra(coalg.container),
            ]
            for alg in algs:
                base_values = solve_recursion(coalg, alg)
                extended = extend_recursion_solution(base_values, p, alg)
                assert verify_solution(ext, alg, extended)
                assert extended == solve_recursion(ext, alg)
