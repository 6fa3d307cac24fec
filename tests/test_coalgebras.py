import itertools
import json

import pytest

from coalg.coalgebras import (
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
    least_subcoalgebra,
    verify_coalgebra_morphism,
)
from coalg.containers import (
    FinPow,
    Identity,
    PairNeq,
    STAR,
    SetOf,
    StateRef,
    make_pair,
    set_of,
    structure_from_json,
    support,
)
from coalg.errors import (
    AnalysisError,
    ContainerMismatchError,
    DanglingRefError,
    InputError,
    NameClashError,
    NotWellFoundedError,
)
from coalg.wellfounded import (
    extend_recursion_solution,
    integer_ladder,
    koenig_extract,
    solve_recursion,
    well_founded_part,
)

from genutil import (
    all_graphs,
    enumerate_structures,
    random_coalgebra,
    random_extension,
    random_graph,
    random_wf_coalgebra,
    rng_for,
    shuffled_graph,
)

GRAPH = FinPow(Identity())


def graph(edges):
    return FiniteCoalgebra(
        GRAPH,
        sorted(edges),
        {x: set_of(StateRef(s) for s in succ) for x, succ in edges.items()},
    )


CHAIN = graph({"a": ["b"], "b": []})
SELF_LOOP = graph({"s": ["s"]})


class TestConstruction:
    def test_successor_map_is_kept_from_the_checks(self, monkeypatch):
        import coalg.coalgebras as coalgebras

        calls = []
        real = coalgebras.support
        monkeypatch.setattr(coalgebras, "support", lambda c, h: calls.append(h) or real(c, h))
        coalg = graph({"a": ["b"], "b": [], "c": ["a", "b"]})
        assert len(calls) == 3
        assert coalg.successor_map == {"a": {"b"}, "b": set(), "c": {"a", "b"}}
        assert len(calls) == 3

    def test_structure_must_be_total(self):
        with pytest.raises(InputError):
            FiniteCoalgebra(GRAPH, ["a", "b"], {"a": set_of(())})

    def test_non_value_keeps_its_message(self):
        unsorted = SetOf((StateRef("b"), StateRef("a")))
        with pytest.raises(InputError, match="structure of state 'a' is not a value of the container"):
            FiniteCoalgebra(GRAPH, ["a", "b"], {"a": unsorted, "b": set_of(())})
        with pytest.raises(InputError, match="extension structure of 'n' is not a value of the container"):
            coproduct_extension(CHAIN, ["n"], {"n": unsorted})

    def test_refs_must_be_carrier_states(self):
        with pytest.raises(InputError):
            FiniteCoalgebra(GRAPH, ["a"], {"a": set_of([StateRef("ghost")])})

    def test_duplicate_states_rejected(self):
        with pytest.raises(InputError):
            FiniteCoalgebra(GRAPH, ["a", "a"], {"a": set_of(())})


UNSORTED = SetOf((StateRef("b"), StateRef("a")))  # a set out of order is not a value


class TestSystemContracts:
    """One refusal per contract through each entry point that checks it:
    the carrier (distinct ids, and a structure total on them) and the
    successor sets (each structure a value whose states lie in the allowed
    set).  The class and the whole message are pinned."""

    @pytest.mark.parametrize(
        "refuse, error, message",
        [
            (lambda: FiniteCoalgebra(GRAPH, ["a", "a"], {"a": set_of(())}),
             InputError, "duplicate state ids in carrier"),
            (lambda: FiniteCoalgebra(GRAPH, ["a", "b"], {"a": set_of(()), "z": set_of(())}),
             InputError, "structure must be total on the carrier (missing ['b'], extra ['z'])"),
            (lambda: coalgebra_from_json({**coalgebra_to_json(CHAIN), "states": ["a", "b", "a"]}),
             InputError, "$.states: duplicate state ids in carrier"),
            (lambda: coalgebra_from_json({**coalgebra_to_json(CHAIN), "states": ["a"]}),
             InputError, "$.structure: structure must be total on the carrier (missing [], extra ['b'])"),
            (lambda: coproduct_extension(CHAIN, ["n", "n"], {"n": set_of(())}),
             InputError, "new states: duplicate state ids in carrier"),
            (lambda: coproduct_extension(CHAIN, ["n"], {"m": set_of(())}),
             InputError, "extension map: structure must be total on the carrier (missing ['n'], extra ['m'])"),
        ],
        ids=["constructor-duplicate", "constructor-total", "json-duplicate", "json-total",
             "extension-duplicate", "extension-total"],
    )
    def test_carrier(self, refuse, error, message):
        with pytest.raises(AnalysisError) as info:
            refuse()
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "refuse, error, message",
        [
            (lambda: FiniteCoalgebra(GRAPH, ["a", "b"], {"a": UNSORTED, "b": set_of(())}),
             InputError, "structure of state 'a' is not a value of the container"),
            (lambda: FiniteCoalgebra(GRAPH, ["a"], {"a": set_of([StateRef("ghost")])}),
             DanglingRefError, "structure of state 'a' references states outside the allowed set ['ghost']"),
            (lambda: coalgebra_from_json({**coalgebra_to_json(CHAIN), "structure": {"a": {"tuple": 5}, "b": {"set": []}}}),
             InputError, "$.structure.a: expected tag 'set', got 'tuple'"),
            (lambda: coalgebra_from_json({**coalgebra_to_json(CHAIN), "structure": {"a": {"set": [{"state": "z"}]}, "b": {"set": []}}}),
             DanglingRefError, "$.structure.a.set[0].state: 'z' is not a carrier state"),
            (lambda: coproduct_extension(CHAIN, ["n"], {"n": UNSORTED}),
             InputError, "extension structure of 'n' is not a value of the container"),
            (lambda: coproduct_extension(CHAIN, ["m", "n"], {"m": set_of(()), "n": set_of([StateRef("m")])}),
             DanglingRefError, "extension structure of 'n' references states outside the allowed set ['m']"),
            (lambda: extend_recursion_solution({"a": 1, "b": 1}, {"n": UNSORTED}, induction_algebra(GRAPH)),
             InputError, "extension structure of 'n' is not a value of the container"),
            (lambda: extend_recursion_solution({"a": 1}, {"n": set_of([StateRef("b")])}, induction_algebra(GRAPH)),
             DanglingRefError, "extension structure of 'n' references states outside the allowed set ['b']"),
        ],
        ids=["constructor-value", "constructor-dangling", "json-value", "json-dangling",
             "extension-value", "extension-dangling",
             "solution-value", "solution-dangling"],
    )
    def test_successor_sets(self, refuse, error, message):
        with pytest.raises(AnalysisError) as info:
            refuse()
        assert (type(info.value), str(info.value)) == (error, message)


class TestMorphism:
    def test_identity_is_a_morphism(self):
        assert verify_coalgebra_morphism({"a": "a", "b": "b"}, CHAIN, CHAIN)

    def test_collapse_onto_self_loop(self):
        # the constant map is a morphism at a (hmap sends {b} to {s} = c(s))
        # but fails at the deadlock b, whose image must keep looping
        cycle = graph({"a": ["b"], "b": ["a"]})
        assert verify_coalgebra_morphism({"a": "s", "b": "s"}, cycle, SELF_LOOP)
        assert not verify_coalgebra_morphism({"a": "s", "b": "s"}, CHAIN, SELF_LOOP)

    def test_chain_into_deadlock_fails(self):
        # a's structure maps to {t} but its image s is a deadlock
        target = graph({"s": [], "t": []})
        assert not verify_coalgebra_morphism({"a": "s", "b": "t"}, CHAIN, target)

    def test_container_mismatch(self):
        ladder_like = FiniteCoalgebra(PairNeq(), ["x"], {"x": STAR})
        with pytest.raises(ContainerMismatchError):
            verify_coalgebra_morphism({"a": "x", "b": "x"}, CHAIN, ladder_like)


class TestSubcoalgebra:
    def test_full_carrier(self):
        assert is_subcoalgebra({"a", "b"}, CHAIN)
        assert is_cartesian_subcoalgebra({"a", "b"}, CHAIN)

    def test_empty_subset(self):
        assert is_subcoalgebra(set(), CHAIN)

    def test_missing_successor(self):
        assert not is_subcoalgebra({"a"}, CHAIN)

    def test_empty_is_cartesian_in_self_loop(self):
        # witnesses non-well-foundedness: s is outside and succ(s) not inside
        assert is_cartesian_subcoalgebra(set(), SELF_LOOP)

    def test_closed_but_not_cartesian(self):
        g = graph({"a": ["b"], "b": ["b"]})
        assert is_subcoalgebra({"b"}, g)
        assert not is_cartesian_subcoalgebra({"b"}, g)

    def test_cartesian_implies_subcoalgebra_randomized(self):
        rng = rng_for(11)
        for _ in range(60):
            coalg = random_coalgebra(rng, 6)
            states = list(coalg.states)
            for _ in range(10):
                subset = {s for s in states if rng.random() < 0.5}
                if is_cartesian_subcoalgebra(subset, coalg):
                    assert is_subcoalgebra(subset, coalg)


class TestPullbackAgreement:
    """The subset biconditional agrees with the pullback formulation.

    For a subset S carrying a subsystem, being cartesian means every state
    whose structure is expressible over S already lies in S.  We check
    expressibility by enumerating all structures over S (supports are
    exact for the grammar, so this matches the support-based check).
    """

    def expressible(self, coalg, subset):
        values = set(enumerate_structures(coalg.container, sorted(subset)))
        return {x for x in coalg.states if coalg.structure_of(x) in values}

    def pullback_cartesian(self, coalg, subset):
        closed = all(coalg.successors(x) <= subset for x in subset)
        return closed and self.expressible(coalg, subset) <= subset

    @pytest.mark.parametrize("container_kind", ["finpow", "pairneq"])
    def test_agreement_on_small_instances(self, container_kind):
        rng = rng_for(17 if container_kind == "finpow" else 23)
        for _ in range(25):
            n = rng.randint(1, 4)
            if container_kind == "finpow":
                coalg = random_graph(rng, n, density=0.4)
            else:
                states = [f"s{i}" for i in range(n)]
                structure = {}
                for x in states:
                    if n >= 2 and rng.random() < 0.7:
                        a, b = rng.sample(states, 2)
                        structure[x] = make_pair(StateRef(a), StateRef(b))
                    else:
                        structure[x] = STAR
                coalg = FiniteCoalgebra(PairNeq(), states, structure)
            for r in range(len(coalg.states) + 1):
                for combo in itertools.combinations(coalg.states, r):
                    subset = set(combo)
                    assert self.pullback_cartesian(coalg, subset) == is_cartesian_subcoalgebra(
                        subset, coalg
                    )


class TestLeastSubcoalgebra:
    def test_chain_closure(self):
        coalg = graph({"a": ["b"], "b": ["c"], "c": []})
        assert least_subcoalgebra(coalg, {"a"}, 10) == {"a", "b", "c"}

    def test_empty_seed(self):
        assert least_subcoalgebra(CHAIN, set(), 10) == frozenset()

    def test_ladder_exhausts_every_budget(self):
        ladder = integer_ladder()
        for budget in (1, 10, 100):
            result = least_subcoalgebra(ladder, {"1"}, budget)
            assert isinstance(result, BudgetExhausted)
            assert result.budget == budget

    def test_budget_below_seed_rejected(self):
        with pytest.raises(InputError):
            least_subcoalgebra(CHAIN, {"a", "b"}, 1)

    @pytest.fixture
    def walks(self, monkeypatch):
        import coalg.coalgebras as coalgebras

        calls = []
        real = coalgebras.support
        monkeypatch.setattr(coalgebras, "support", lambda c, h: calls.append(h) or real(c, h))
        return calls

    def test_lazy_successors_walk_each_structure_once(self, walks):
        # a lazy system with no successor rule reads each state's successors
        # off the structure that its rule builds
        rule, built = integer_ladder().rule, []
        lazy = LazyCoalgebra(PairNeq(), lambda x: built.append(x) or rule(x))
        assert lazy.successors("1") == {"-2", "2"}
        assert len(walks) == 1
        assert isinstance(least_subcoalgebra(lazy, {"1"}, 50), BudgetExhausted)
        # one walk per structure the rule built
        assert len(walks) == len(built) > 40

    def test_a_successor_rule_builds_no_structure(self, walks):
        ladder = integer_ladder()
        rule, built = ladder.rule, []
        ladder.rule = lambda x: built.append(x) or rule(x)
        assert ladder.successors("1") == {"-2", "2"}
        assert isinstance(least_subcoalgebra(ladder, {"1"}, 50), BudgetExhausted)
        assert built == walks == []
        # the structure is still the rule's, checked by one walk
        assert ladder.structure_of("1") == make_pair(StateRef("-2"), StateRef("2"))
        assert built == ["1"] and len(walks) == 1

    def test_lazy_rule_giving_a_non_value_is_input_error(self):
        bad = LazyCoalgebra(PairNeq(), lambda x: make_pair(StateRef(x), STAR))
        with pytest.raises(InputError, match="lazy rule produced an invalid structure at state 'a'"):
            bad.successors("a")

    def test_minimality_by_enumeration(self):
        rng = rng_for(29)
        for _ in range(20):
            coalg = random_graph(rng, rng.randint(1, 12), density=0.25)
            states = list(coalg.states)
            seed = {s for s in states if rng.random() < 0.3}
            closure = least_subcoalgebra(coalg, seed, 100)
            candidates = [
                set(combo)
                for r in range(len(states) + 1)
                for combo in itertools.combinations(states, r)
                if seed <= set(combo) and is_subcoalgebra(set(combo), coalg)
            ]
            # the closure is itself a candidate and sits below every candidate
            assert set(closure) in candidates
            assert all(closure <= c for c in candidates)


class TestCoproductExtension:
    def test_empty_extension_is_identity(self):
        assert coproduct_extension(CHAIN, [], {}) == CHAIN

    def test_two_state_example(self):
        base = graph({"s": []})
        ext = coproduct_extension(base, ["x"], {"x": set_of([StateRef("s")])})
        assert set(ext.states) == {"s", "x"}
        assert ext.successors("x") == {"s"}
        assert ext.successors("s") == frozenset()

    def test_name_clash(self):
        with pytest.raises(NameClashError):
            coproduct_extension(CHAIN, ["a"], {"a": set_of(())})

    def test_dangling_ref(self):
        with pytest.raises(DanglingRefError):
            coproduct_extension(CHAIN, ["x"], {"x": set_of([StateRef("x")])})

    def test_inclusion_is_a_morphism(self):
        rng = rng_for(31)
        for _ in range(60):
            coalg = random_coalgebra(rng, 6)
            new_states, p = random_extension(rng, coalg)
            ext = coproduct_extension(coalg, new_states, p)
            inclusion = {x: x for x in coalg.states}
            assert verify_coalgebra_morphism(inclusion, coalg, ext)

    def test_restriction_undoes_extension(self):
        rng = rng_for(37)
        for _ in range(40):
            coalg = random_coalgebra(rng, 6)
            new_states, p = random_extension(rng, coalg)
            ext = coproduct_extension(coalg, new_states, p)
            assert ext.restrict(coalg.states) == coalg


class TestJsonFiles:
    def test_round_trip(self):
        rng = rng_for(41)
        for _ in range(30):
            coalg = random_coalgebra(rng, 6)
            doc = coalgebra_to_json(coalg)
            assert coalgebra_from_json(doc) == coalg

    def test_version_required(self):
        doc = coalgebra_to_json(CHAIN)
        doc["version"] = 2
        with pytest.raises(InputError, match="version"):
            coalgebra_from_json(doc)

    @pytest.mark.parametrize("version", [True, "1", None])
    def test_version_must_be_the_integer_one(self, version):
        doc = coalgebra_to_json(CHAIN)
        doc["version"] = version
        with pytest.raises(InputError, match=r"\$\.version: expected 1"):
            coalgebra_from_json(doc)

    def test_decode_matches_reference_path(self):
        # reference: structure_from_json per state, then the checking
        # constructor (validate and support)
        rng = rng_for(43)
        for k in range(60):
            coalg = (random_coalgebra if k % 2 else random_wf_coalgebra)(rng, 8, depth=3)
            doc = coalgebra_to_json(coalg)
            reference = FiniteCoalgebra(
                coalg.container,
                doc["states"],
                {x: structure_from_json(h) for x, h in doc["structure"].items()},
            )
            decoded = coalgebra_from_json(doc)
            assert decoded == reference
            assert list(decoded.structure) == list(reference.structure)
            assert decoded.successor_map == reference.successor_map

    def test_consumes_the_structure_entries(self):
        doc = coalgebra_to_json(CHAIN)
        rest = {k: v for k, v in doc.items() if k != "structure"}
        assert coalgebra_from_json(doc) == CHAIN
        assert doc == {**rest, "structure": {}}

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["states"].append("a"), r"\$\.states: duplicate state ids"),
            (lambda d: d["structure"].pop("b"), r"\$\.structure: structure must be total .*missing \['b'\]"),
            (lambda d: d["structure"].update(z={"set": []}), r"\$\.structure: .*extra \['z'\]"),
            (lambda d: d["structure"].update(a={"set": [{"state": "z"}]}), r"\$\.structure\.a\.set\[0\]\.state: 'z' is not a carrier state"),
            (lambda d: d["structure"].update(a={"tuple": 5}), r"\$\.structure\.a: expected tag 'set', got 'tuple'"),
            (lambda d: d.update(functor={"exp": {"base": {"id": None}, "labels": "xy"}}), r"\$\.functor\.exp\.labels"),
        ],
    )
    def test_errors_name_the_json_path(self, edit, error):
        doc = coalgebra_to_json(CHAIN)
        edit(doc)
        with pytest.raises(InputError, match=error):
            coalgebra_from_json(doc)


def supports_by_state(coalg):
    """The successor map as every system kept it before: each state's
    ``support``, in structure order."""
    return {x: support(coalg.container, h) for x, h in coalg.structure.items()}


class TestNameView:
    """The kernels read the index view; the view by name, ``successor_map``,
    is built only when something reads it."""

    def systems(self):
        import coalg.gallery as gallery

        rng = rng_for(269)
        yield from all_graphs(3)
        for _ in range(150):
            yield random_graph(rng, rng.randint(1, 12), density=rng.choice([0.05, 0.15, 0.3]))
        for name in gallery.gallery_names():
            system = gallery.GALLERY[name].build()
            if isinstance(system, FiniteCoalgebra):
                yield system

    def test_successor_map_is_the_dict_of_supports(self):
        count = 0
        for system in self.systems():
            for coalg in (system, coalgebra_from_json(coalgebra_to_json(system))):
                assert coalg._succ is None
                assert coalg.successor_map == supports_by_state(coalg)
                assert list(coalg.successor_map) == list(coalg.states)
                assert all(coalg.successors(x) == coalg.successor_map[x] for x in coalg.states)
            count += 1
        assert count > 512 + 150

    def test_kernels_leave_it_unbuilt(self):
        rng = rng_for(271)
        runs = [
            well_founded_part,
            lambda c: solve_recursion(c, count_algebra(c.container)),
            lambda c: koenig_extract(c, c.states[0], 1),
            lambda c: koenig_extract(c, c.states[0], len(c.states)),
        ]
        verdicts = set()
        for _ in range(40):
            doc = coalgebra_to_json(shuffled_graph(rng, rng.randint(2, 15), 0.1))
            for run in runs:
                coalg = coalgebra_from_json(json.loads(json.dumps(doc)))
                try:
                    verdicts.add(type(run(coalg)).__name__)
                except NotWellFoundedError as exc:
                    verdicts.add(type(exc).__name__)
                assert coalg._succ is None
        assert verdicts >= {"WfReport", "dict", "BudgetExhausted", "frozenset", "CycleError", "FoundInfinitePathEvidence"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-wf"],
            ["fold"],
            ["fold", "--algebra", "term"],
            ["koenig", "--state", "s0", "--budget", "2"],
            ["koenig", "--state", "s0"],
            ["export-dot"],
        ],
    )
    def test_commands_leave_it_unbuilt(self, argv, monkeypatch, tmp_path, capsys):
        import coalg.cli as cli

        decoded, load_input = [], cli.load_input
        monkeypatch.setattr(cli, "load_input", lambda *args: decoded.append(load_input(*args)[1]) or ("set-coalgebra", decoded[-1]))
        for edges in ({"s0": ["s1", "s10"], "s1": ["s10"], "s10": [], "s9": ["s0"]}, {"s0": ["s1"], "s1": ["s0"]}):
            path = tmp_path / "system.json"
            path.write_text(json.dumps(coalgebra_to_json(graph(edges))), encoding="utf-8")
            assert cli.main([argv[0], str(path), *argv[1:]]) in (0, 1, 2)
            assert decoded[-1]._succ is None
        assert len(decoded) == 2
        capsys.readouterr()


class TestIndexView:
    """Library callers that build systems keep the index view in name order."""

    def test_extension_with_names_before_the_old_ones(self):
        rng = rng_for(277)
        for _ in range(60):
            coalg = shuffled_graph(rng, rng.randint(1, 12), 0.2)
            new_states = rng.sample([f"a{i}" for i in range(4)] + [f"s{i}x" for i in range(4)], rng.randint(0, 4))
            p = {x: set_of(StateRef(s) for s in coalg.states if rng.random() < 0.3) for x in new_states}
            ext = coproduct_extension(coalg, new_states, p)
            assert list(ext._names) == sorted(ext.states)
            assert ext.successor_map == supports_by_state(ext)
            assert ext.restrict(coalg.states) == coalg
            assert ext.restrict(coalg.states).successor_map == coalg.successor_map

    def test_restriction_to_a_closure(self):
        rng = rng_for(281)
        for _ in range(60):
            coalg = shuffled_graph(rng, rng.randint(1, 14), 0.15)
            closure = least_subcoalgebra(coalg, [rng.choice(coalg.states)], 100)
            sub = coalg.restrict(closure)
            assert list(sub._names) == sorted(closure)
            assert sub.successor_map == supports_by_state(sub)
            assert is_subcoalgebra(closure, coalg)
            assert is_cartesian_subcoalgebra(closure, coalg) == all(
                (x in closure) == (coalg.successors(x) <= closure) for x in coalg.states
            )
