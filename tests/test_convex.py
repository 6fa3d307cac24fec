import time
from fractions import Fraction

import pytest

from coalg import convex
from coalg.convex import (
    CPoint,
    CPolytope,
    ConvexSpec,
    SuccessorCertificate,
    certify_membership,
    convex_from_json,
    convex_path_witness,
    convex_wf_fixpoint,
    mix,
    mix_sets,
    point,
    successors,
    unit,
)
from coalg.errors import InputError

from genutil import (
    blend_certificate,
    combine_choice,
    convex_round_ranks,
    convex_to_json,
    dense_convex_chain,
    non_wf_greatest_fixpoint,
    polytope_vertices,
    random_convex_spec,
    random_cpoint,
    random_fraction01,
    rng_for,
    sample_support_path,
    spellings,
    vertex_choices,
)

F = Fraction


class TestMix:
    def test_midpoint_of_units(self):
        assert mix(unit(0, 3), unit(1, 3), F(1, 2)) == point(["1/2", "1/2", "0"])

    def test_idempotent(self):
        rng = rng_for(149)
        for _ in range(50):
            x = random_cpoint(rng, 4)
            assert mix(x, x, random_fraction01(rng)) == x

    def test_zero_ratio_gives_right_operand(self):
        rng = rng_for(151)
        x, y = random_cpoint(rng, 3), random_cpoint(rng, 3)
        assert mix(x, y, 0) == y
        assert mix(x, y, 1) == x

    def test_ratio_out_of_range(self):
        with pytest.raises(InputError):
            mix(unit(0, 2), unit(1, 2), F(3, 2))

    def test_four_laws_on_random_rationals(self):
        rng = rng_for(157)
        for _ in range(300):
            n = rng.randint(2, 4)
            x, y, z = (random_cpoint(rng, n) for _ in range(3))
            r, s = random_fraction01(rng), random_fraction01(rng)
            assert mix(x, x, r) == x
            assert mix(x, y, 0) == y
            assert mix(x, y, r) == mix(y, x, 1 - r)
            s_prime = r + s - r * s
            if s_prime != 0:
                r_prime = r / s_prime
                assert mix(x, mix(y, z, s), r) == mix(mix(x, y, r_prime), z, s_prime)
            else:
                # r = s = 0: both sides collapse to z
                assert mix(x, mix(y, z, s), r) == z


class TestMixSets:
    def test_interior_mix_with_empty_is_empty(self):
        s = CPolytope([unit(0, 2)])
        assert mix_sets(s, CPolytope(), F(1, 2)).is_empty

    def test_singleton_mix(self):
        s, t = CPolytope([unit(0, 2)]), CPolytope([unit(1, 2)])
        assert mix_sets(s, t, F(1, 2)) == CPolytope([point(["1/2", "1/2"])])

    def test_boundary_conventions(self):
        s = CPolytope([unit(0, 2)])
        assert mix_sets(s, CPolytope(), 1) == s
        assert mix_sets(CPolytope(), s, 0) == s


class TestSuccessors:
    def test_pure_generator_returns_polytope_verbatim(self):
        p1 = CPolytope([point(["0", "1"]), point(["1/2", "1/2"])])
        spec = ConvexSpec([p1, CPolytope([unit(0, 2)])])
        assert successors(spec, unit(0, 2)) == p1

    def test_mixed_point_mixes_vertices(self):
        a, b = point(["1", "0"]), point(["0", "1"])
        spec = ConvexSpec([CPolytope([a]), CPolytope([b])])
        out = successors(spec, point(["1/2", "1/2"]))
        assert out == CPolytope([point(["1/2", "1/2"])])

    def test_empty_component_absorbs(self):
        spec = ConvexSpec([CPolytope([unit(0, 2)]), CPolytope()])
        assert successors(spec, point(["1/2", "1/2"])).is_empty

    def test_support_wider_than_the_recursion_limit(self):
        # one vertex choice per support generator: 1200 generators at the
        # uniform point, more than Python's default recursion limit
        n = 1200
        to_first = CPolytope([unit(0, n)])
        spec = ConvexSpec([to_first] * n)
        uniform = CPoint(tuple(F(1, n) for _ in range(n)))
        assert successors(spec, uniform) == to_first


class TestAffinity:
    """successors(mix(x, y, r)) equals mix_sets(successors(x), successors(y), r)
    as generated convex sets, shown by certified mutual inclusion."""

    def test_random_instances(self):
        rng = rng_for(163)
        checked = 0
        while checked < 60:
            spec = random_convex_spec(rng, max_gens=4, empty_prob=0.2, max_vertices=2)
            n = spec.generators
            x, y = random_cpoint(rng, n), random_cpoint(rng, n)
            den = rng.randint(2, 8)
            r = F(rng.randint(1, den - 1), den)  # interior ratio
            m = mix(x, y, r)
            lhs = successors(spec, m)
            rhs = mix_sets(successors(spec, x), successors(spec, y), r)
            if lhs.is_empty or rhs.is_empty:
                assert lhs.is_empty and rhs.is_empty
                checked += 1
                continue
            # every generating choice of the left side appears verbatim on the right
            supp_m, choices_m = vertex_choices(spec, m)
            for choice in choices_m:
                w = combine_choice(spec, m, supp_m, choice)
                assert w in set(lhs.vertices)
                u = combine_choice(
                    spec, x, sorted(x.support), tuple(
                        choice[supp_m.index(i)] for i in sorted(x.support)
                    ),
                )
                u2 = combine_choice(
                    spec, y, sorted(y.support), tuple(
                        choice[supp_m.index(i)] for i in sorted(y.support)
                    ),
                )
                assert mix(u, u2, r) == w
                assert w in set(rhs.vertices)
            # every pair of generating choices of the right side is certified
            # to lie in the left side
            supp_x, choices_x = vertex_choices(spec, x)
            supp_y, choices_y = vertex_choices(spec, y)
            for cx in choices_x:
                for cy in choices_y:
                    u = combine_choice(spec, x, supp_x, cx)
                    u2 = combine_choice(spec, y, supp_y, cy)
                    z = mix(u, u2, r)
                    cert = blend_certificate(spec, m, x, y, r, supp_x, cx, supp_y, cy)
                    assert certify_membership(spec, m, cert, z)
            checked += 1

    def test_certificate_weights_are_checked(self):
        # combine trusts its weights; certify_membership takes certificates
        # from outside and checks them first
        spec = ConvexSpec([CPolytope([unit(0, 1)])])
        p = unit(0, 1)
        for weights, error in (
            ((F(1), F(0)), "certificate arity mismatch at generator 0"),
            ((F(2),), "certificate weights at generator 0 not convex"),
            ((F(-1),), "certificate weights at generator 0 not convex"),
        ):
            with pytest.raises(InputError, match=error):
                certify_membership(spec, p, SuccessorCertificate(((0, weights),)), p)


class TestFixpoint:
    def test_all_empty_all_wf_rank_one(self):
        spec = ConvexSpec([CPolytope(), CPolytope(), CPolytope()])
        report = convex_wf_fixpoint(spec)
        assert report.is_well_founded
        assert set(report.rank.values()) == {1}

    def test_self_loop_not_wf(self):
        spec = ConvexSpec([CPolytope([unit(0, 1)])])
        report = convex_wf_fixpoint(spec)
        assert not report.is_well_founded
        assert report.non_wf == {0}

    def test_two_generator_ranks(self):
        spec = ConvexSpec([CPolytope([point(["0", "1"])]), CPolytope()])
        report = convex_wf_fixpoint(spec)
        assert report.is_well_founded
        assert report.rank == {1: 1, 0: 2}

    def test_duality_with_greatest_fixpoint(self):
        rng = rng_for(167)
        for _ in range(80):
            spec = random_convex_spec(rng)
            report = convex_wf_fixpoint(spec)
            assert non_wf_greatest_fixpoint(spec) == report.non_wf

    def test_ranks_equal_round_oracle(self):
        rng = rng_for(163)
        for _ in range(1000):
            spec = random_convex_spec(
                rng,
                max_gens=rng.randint(1, 8),
                empty_prob=rng.choice([0.1, 0.3, 0.5]),
                max_vertices=rng.randint(1, 4),
            )
            assert convex_wf_fixpoint(spec).rank == convex_round_ranks(spec)


class TestWitness:
    def test_self_loop_path_repeats_unit(self):
        spec = ConvexSpec([CPolytope([unit(0, 1)])])
        witness = convex_path_witness(spec, 0, 5)
        assert witness.verify()
        assert len(witness.steps) == 5
        assert all(step.point == unit(0, 1) for step in witness.steps)

    def test_wf_generator_has_no_witness(self):
        spec = ConvexSpec([CPolytope([point(["0", "1"])]), CPolytope()])
        assert convex_path_witness(spec, 0, 5) is None
        assert convex_path_witness(spec, 1, 5) is None

    def test_random_non_wf_long_witness(self):
        rng = rng_for(173)
        found = 0
        while found < 15:
            spec = random_convex_spec(rng)
            report = convex_wf_fixpoint(spec)
            if report.is_well_founded:
                continue
            for g in sorted(report.non_wf):
                for length in (10, 50):
                    witness = convex_path_witness(spec, g, length)
                    assert witness is not None
                    assert len(witness.steps) == length
                    assert witness.verify()
            found += 1

    def test_rank_descent_bound_on_sampled_paths(self):
        rng = rng_for(179)
        for _ in range(40):
            spec = random_convex_spec(rng)
            report = convex_wf_fixpoint(spec)
            for g in range(spec.generators):
                if not report.wf_generators[g]:
                    continue
                for _ in range(50):
                    supports = sample_support_path(spec, g, rng, report.rank[g] + 3)
                    assert len(supports) - 1 <= report.rank[g]
                    measures = [
                        min(report.rank[k] for k in supp if report.wf_generators[k])
                        for supp in supports
                    ]
                    assert all(a > b for a, b in zip(measures, measures[1:]))


class TestJson:
    def test_documented_form(self):
        spec = ConvexSpec([CPolytope([point(["1/2", "1/2"])]), CPolytope()])
        assert convex_to_json(spec) == {
            "version": 1,
            "kind": "convex",
            "generators": 2,
            "successors": [[["1/2", "1/2"]], []],
        }

    def test_round_trip(self):
        rng = rng_for(181)
        for _ in range(40):
            spec = random_convex_spec(rng)
            back = convex_from_json(convex_to_json(spec))
            assert back.polytopes == spec.polytopes

    def test_bad_rational_reports_path(self):
        doc = {
            "version": 1,
            "kind": "convex",
            "generators": 1,
            "successors": [[["nope"]]],
        }
        with pytest.raises(InputError, match=r"successors\[0\]\[0\]"):
            convex_from_json(doc)

    def test_point_invariants(self):
        with pytest.raises(InputError):
            point(["1/2", "1/4"])  # does not sum to 1
        with pytest.raises(InputError):
            point(["3/2", "-1/2"])  # negative entry

    def test_point_invariant_messages(self):
        # the sign check comes first, and both quote the whole tuple
        with pytest.raises(InputError, match=r"^negative coefficient in \(Fraction\(0, 1\), "):
            point(["0", "-1/2", "1/4"])
        with pytest.raises(InputError, match=r"^coefficients must sum to 1: \(Fraction\(0, 1\), "):
            point(["0", "1/2", "1/4"])

    def test_dense_chain_parses_each_distinct_string_once(self, monkeypatch):
        doc = dense_convex_chain(rng_for(191))
        distinct = {c for poly in doc["successors"] for v in poly for c in v}
        calls = []

        def counting(*args):
            calls.append(args)
            return Fraction(*args)

        monkeypatch.setattr(convex, "Fraction", counting)
        spec = convex_from_json(doc)
        assert len(calls) <= len(distinct)
        monkeypatch.undo()
        assert convex_from_json(doc).polytopes == spec.polytopes
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            convex_from_json(doc)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05

    def test_support_tests_only_the_nonzero_coefficients(self, monkeypatch):
        spec = convex_from_json(dense_convex_chain(rng_for(191)))
        vertices = [v for poly in spec.polytopes for v in poly.vertices]
        nonzero = sum(c != 0 for v in vertices for c in v.coeffs)
        expected = [frozenset(i for i, c in enumerate(v.coeffs) if c != 0) for v in vertices]
        calls = []
        real = Fraction.__bool__
        monkeypatch.setattr(Fraction, "__bool__", lambda c: calls.append(c) or real(c))
        supports = [v.support for v in vertices]
        monkeypatch.undo()
        assert supports == expected
        assert 0 < len(calls) <= nonzero < sum(v.dim for v in vertices)

    def test_equal_values_spelled_differently_decode_to_one_vertex(self):
        rng = rng_for(193)
        for _ in range(40):
            n = rng.randint(1, 4)
            points = [random_cpoint(rng, n) for _ in range(rng.randint(1, 4))]
            vertices = [[rng.choice(spellings(c)) for c in p.coeffs] for p in points * 2]
            rng.shuffle(vertices)
            doc = {"version": 1, "kind": "convex", "generators": n, "successors": [vertices] * n}
            assert convex_from_json(doc).polytopes == (CPolytope(points),) * n


class TestPolytope:
    def test_vertex_order_matches_the_set_oracle(self):
        rng = rng_for(197)
        for _ in range(200):
            n = rng.randint(1, 4)
            pool = [random_cpoint(rng, n) for _ in range(rng.randint(1, 5))]
            # repeats, and equal values spelled differently
            points = [
                point([rng.choice(spellings(c)) for c in rng.choice(pool).coeffs])
                for _ in range(rng.randint(0, 12))
            ]
            assert CPolytope(points).vertices == polytope_vertices(points)

    def test_mixed_dimensions_are_refused(self):
        points = [unit(0, 2), point(["1/2", "0.5"]), unit(1, 3), unit(0, 2)]
        with pytest.raises(InputError, match=r"^mixed dimensions in polytope: \[2, 3\]$"):
            CPolytope(points)
