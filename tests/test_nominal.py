import pytest

from coalg.errors import InputError, NotWellFoundedError, UnknownLabelError
from coalg.fixpoint import least_fixpoint
from coalg.nominal import (
    FRESH_CASE,
    NLTSSpec,
    NState,
    Rule,
    Template,
    fresh_var,
    nlts_from_json,
    nominal_is_well_founded,
    nominal_koenig_extract,
    nominal_step,
    nominal_wf_labels,
    orbit_graph,
    path_witness,
    reg,
    state_from_text,
)

from genutil import (
    canonical_successor,
    nlts_to_json,
    numbered,
    permute_atom,
    permute_state,
    random_nlts,
    random_permutation,
    reference_orbit_graph,
    reference_path_witness,
    rng_for,
    round_ranks,
    simulate,
)

TWO_LABEL = NLTSSpec(
    {"l0": 1, "l1": 1},
    [Rule("l0", FRESH_CASE, (Template("l1", (("input",),)),))],
)

FRESH_LOOP = NLTSSpec(
    {"l0": 1},
    [Rule("l0", FRESH_CASE, (Template("l0", (fresh_var(0),)),))],
)


class TestStep:
    def test_store_input(self):
        out = nominal_step(TWO_LABEL, NState("l0", (0,)), 1)
        assert out == {NState("l1", (1,))}

    def test_deadlock(self):
        assert nominal_step(TWO_LABEL, NState("l1", (5,)), 3) == frozenset()

    def test_fresh_policy_smallest_unused(self):
        out = nominal_step(FRESH_LOOP, NState("l0", (0,)), 1)
        assert out == {NState("l0", (2,))}  # 2 is the least atom outside {0, 1}

    def test_register_case_beats_fresh(self):
        spec = NLTSSpec(
            {"l0": 1, "hit": 0, "miss": 0},
            [
                Rule("l0", reg(0), (Template("hit", ()),)),
                Rule("l0", FRESH_CASE, (Template("miss", ()),)),
            ],
        )
        assert nominal_step(spec, NState("l0", (7,)), 7) == {NState("hit", ())}
        assert nominal_step(spec, NState("l0", (7,)), 8) == {NState("miss", ())}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            nominal_step(TWO_LABEL, NState("ghost", ()), 0)

    def test_registers_must_be_distinct(self):
        with pytest.raises(InputError):
            NState("l0", (1, 1))


class TestOrbitGraph:
    def test_two_label_edges(self):
        assert orbit_graph(TWO_LABEL) == {"l0": frozenset({"l1"}), "l1": frozenset()}

    def test_self_loop_cycle(self):
        assert "l0" in orbit_graph(FRESH_LOOP)["l0"]

    def test_numbered_graph_is_the_per_rule_graph(self):
        rng = rng_for(149)
        for _ in range(300):
            spec = random_nlts(rng, max_labels=8, force_acyclic=rng.random() < 0.3)
            graph = reference_orbit_graph(spec)
            assert orbit_graph(spec) == graph
            names, out = numbered(graph)
            assert spec._names == tuple(names)
            assert spec._out == tuple(tuple(sorted(targets)) for targets in out)

    def test_diamond_acyclic(self):
        spec = NLTSSpec(
            {"a": 0, "b": 0, "c": 0, "d": 0},
            [
                Rule("a", FRESH_CASE, (Template("b", ()), Template("c", ()))),
                Rule("b", FRESH_CASE, (Template("d", ()),)),
                Rule("c", FRESH_CASE, (Template("d", ()),)),
            ],
        )
        assert nominal_is_well_founded(spec)


class TestWellFounded:
    def test_acyclic_two_label(self):
        assert nominal_is_well_founded(TWO_LABEL)
        # independent oracle: no concrete path can make more than one step
        rng = rng_for(109)
        for _ in range(200):
            steps = simulate(TWO_LABEL, NState("l0", (0,)), rng, 10)
            assert len(steps) <= len(TWO_LABEL.labels)

    def test_fresh_loop_with_witness(self):
        assert not nominal_is_well_founded(FRESH_LOOP)
        steps = path_witness(FRESH_LOOP, NState("l0", (0,)), 100)
        assert len(steps) == 100
        current = NState("l0", (0,))
        for a, nxt in steps:
            assert nxt in nominal_step(FRESH_LOOP, current, a)
            current = nxt

    def test_empty_spec(self):
        assert nominal_is_well_founded(NLTSSpec({"l0": 0}, []))

    def test_wf_labels_split(self):
        spec = NLTSSpec(
            {"loop": 0, "safe": 0},
            [Rule("loop", FRESH_CASE, (Template("loop", ()),))],
        )
        assert nominal_wf_labels(spec) == {"safe"}

    def test_orbit_ranks_equal_round_oracle(self):
        rng = rng_for(113)
        for _ in range(300):
            spec = random_nlts(rng, max_labels=8, force_acyclic=rng.random() < 0.3)
            graph = orbit_graph(spec)
            rounds = round_ranks(graph)
            labels, out = numbered(graph)
            rank, order = least_fixpoint(out)
            assert {labels[i]: rank[i] for i in order} == rounds
            assert nominal_wf_labels(spec) == set(rounds)
            assert nominal_is_well_founded(spec) == (len(rounds) == len(spec.labels))


class TestExtract:
    def test_two_label(self):
        assert nominal_koenig_extract(TWO_LABEL, NState("l0", (0,))) == {"l0", "l1"}

    def test_deadlock_label(self):
        assert nominal_koenig_extract(TWO_LABEL, NState("l1", (4,))) == {"l1"}

    def test_non_wf_rejected(self):
        with pytest.raises(NotWellFoundedError):
            nominal_koenig_extract(FRESH_LOOP, NState("l0", (0,)))


class TestEquivariance:
    def test_canonical_forms_match_under_permutation(self):
        rng = rng_for(113)
        for _ in range(40):
            spec = random_nlts(rng, max_labels=4)
            labels = sorted(spec.labels)
            lbl = rng.choice(labels)
            arity = spec.labels[lbl]
            regs = tuple(rng.sample(range(8), arity))
            state = NState(lbl, regs)
            a = rng.choice(sorted(set(regs) | {9, 10}))
            pi = random_permutation(rng, list(range(12)))
            permuted_state = permute_state(pi, state)
            pa = permute_atom(pi, a)
            plain = {
                canonical_successor(s, state.registers, a)
                for s in nominal_step(spec, state, a)
            }
            mapped = {
                canonical_successor(s, permuted_state.registers, pa)
                for s in nominal_step(spec, permuted_state, pa)
            }
            assert plain == mapped


class TestLiftingAndProjection:
    def test_witness_steps_match_the_reference_on_the_acceptance_specs(self):
        # the specs of acceptance criterion 6, drawn in the same order
        rng = rng_for(20_240_006)
        specs = [random_nlts(rng, 6, force_acyclic=True) for _ in range(10)]
        specs += [random_nlts(rng, 6) for _ in range(10)]
        cyclic = [spec for spec in specs if not nominal_is_well_founded(spec)]
        assert cyclic
        for spec in cyclic:
            lbl = min(set(spec.labels) - nominal_wf_labels(spec))
            state = NState(lbl, tuple(range(spec.labels[lbl])))
            assert path_witness(spec, state, 100) == reference_path_witness(spec, state, 100)

    def test_lifting_any_length_from_cycle_labels(self):
        rng = rng_for(127)
        built = 0
        while built < 12:
            spec = random_nlts(rng, max_labels=5)
            if nominal_is_well_founded(spec):
                continue
            bad = sorted(set(spec.labels) - nominal_wf_labels(spec))
            lbl = bad[0]
            state = NState(lbl, tuple(range(spec.labels[lbl])))
            for length in (5, 25):
                steps = path_witness(spec, state, length)
                assert len(steps) == length
                current = state
                for a, nxt in steps:
                    assert nxt in nominal_step(spec, current, a)
                    current = nxt
            built += 1

    def test_projection_concrete_paths_follow_orbit_edges(self):
        rng = rng_for(131)
        for _ in range(40):
            spec = random_nlts(rng, max_labels=5)
            graph = orbit_graph(spec)
            labels = sorted(spec.labels)
            lbl = rng.choice(labels)
            state = NState(lbl, tuple(range(spec.labels[lbl])))
            steps = simulate(spec, state, rng, 50)
            current = state
            for _, nxt in steps:
                assert nxt.label in graph[current.label]
                current = nxt

    def test_extraction_successor_closed_on_probes(self):
        rng = rng_for(137)
        for _ in range(20):
            spec = random_nlts(rng, max_labels=5, force_acyclic=True)
            labels = sorted(spec.labels)
            lbl = rng.choice(labels)
            start = NState(lbl, tuple(range(spec.labels[lbl])))
            extracted = nominal_koenig_extract(spec, start)
            for _ in range(50):
                probe_lbl = rng.choice(sorted(extracted))
                arity = spec.labels[probe_lbl]
                probe = NState(probe_lbl, tuple(rng.sample(range(9), arity)))
                a = rng.randrange(10)
                for s in nominal_step(spec, probe, a):
                    assert s.label in extracted


class TestJson:
    def test_round_trip(self):
        rng = rng_for(139)
        for _ in range(30):
            spec = random_nlts(rng, max_labels=4)
            doc = nlts_to_json(spec)
            back = nlts_from_json(doc)
            assert back.labels == spec.labels
            assert back.rules == spec.rules

    def test_documented_form(self):
        doc = nlts_to_json(TWO_LABEL)
        assert doc["labels"] == {"l0": 1, "l1": 1}
        assert doc["rules"][0] == {
            "from": "l0",
            "case": "fresh",
            "to": [{"label": "l1", "assign": ["input"]}],
        }

    def test_state_text_forms(self):
        assert state_from_text("l0[0,3]") == NState("l0", (0, 3))
        assert state_from_text("l1") == NState("l1", ())


class TestValidation:
    def test_register_and_input_conflict_under_equal_case(self):
        with pytest.raises(InputError):
            NLTSSpec(
                {"l0": 1, "l1": 2},
                [Rule("l0", reg(0), (Template("l1", (reg(0), ("input",))),))],
            )

    def test_duplicate_slots_rejected(self):
        with pytest.raises(InputError):
            NLTSSpec(
                {"l0": 1, "l1": 2},
                [Rule("l0", FRESH_CASE, (Template("l1", (reg(0), reg(0))),))],
            )
