import builtins
import itertools
import json
import operator
import sys

import pytest

import coalg.containers
from coalg.coalgebras import coalgebra_from_json, count_algebra, unfold_algebra
from coalg.containers import (
    Const,
    ConstVal,
    Exp,
    FinPow,
    Identity,
    InL,
    InR,
    Pair,
    PairNeq,
    Product,
    STAR,
    SetOf,
    StateRef,
    Sum,
    TupleOf,
    container_from_json,
    container_to_json,
    fun_of,
    hmap,
    interpret,
    make_pair,
    set_of,
    structure_decoder,
    structure_key,
    structure_from_json,
    structure_to_json,
    support,
)
from coalg.errors import AnalysisError, DanglingRefError, InputError, UnknownStateError

from coalg.wellfounded import solve_recursion

from genutil import (
    enumerate_structures,
    malformed,
    random_coalgebra,
    random_container,
    random_structure,
    random_wf_coalgebra,
    reference_decoder,
    reference_hmap,
    reference_interpret,
    reference_structure_key,
    reference_structure_to_json,
    reference_support,
    rng_for,
)

GRAPH = FinPow(Identity())


def ref_set(*names):
    return set_of(StateRef(n) for n in names)


class TestValidate:
    """``support`` is the check: a value passes, and a non-value raises."""

    def test_finpow_of_staterefs(self):
        support(GRAPH, ref_set("a", "b"))

    def test_star_is_a_pairneq_value(self):
        support(PairNeq(), STAR)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            support(Product((Identity(), Identity())), ref_set("a"))

    def test_pair_with_equal_components_rejected(self):
        with pytest.raises(InputError):
            support(PairNeq(), Pair(StateRef("a"), StateRef("a")))
        support(PairNeq(), make_pair(StateRef("a"), StateRef("a")))

    def test_unsorted_set_rejected(self):
        raw = SetOf((StateRef("b"), StateRef("a")))
        with pytest.raises(InputError):
            support(GRAPH, raw)
        support(GRAPH, set_of(raw.items))

    def test_exp_needs_exactly_the_labels(self):
        c = Exp(Identity(), ("x", "y"))
        support(c, fun_of({"x": StateRef("a"), "y": StateRef("b")}))
        with pytest.raises(InputError):
            support(c, fun_of({"x": StateRef("a")}))

    def test_const_label_must_be_declared(self):
        c = Const(("u", "v"))
        support(c, ConstVal("u"))
        with pytest.raises(InputError):
            support(c, ConstVal("w"))


class TestHmap:
    def test_identity_map_is_identity(self):
        h = ref_set("a", "b")
        assert hmap(GRAPH, {"a": "a", "b": "b"}, h) == h

    def test_pair_collapses_when_images_agree(self):
        h = make_pair(StateRef("x1"), StateRef("x2"))
        assert hmap(PairNeq(), {"x1": "t", "x2": "t"}, h) == STAR

    def test_constant_map_merges_set_elements(self):
        h = ref_set("a", "b")
        assert hmap(GRAPH, {"a": "t", "b": "t"}, h) == ref_set("t")

    def test_unknown_state(self):
        with pytest.raises(UnknownStateError):
            hmap(GRAPH, {"a": "t"}, ref_set("a", "b"))

    def test_functor_laws_randomized(self):
        rng = rng_for(101)
        for _ in range(150):
            container = random_container(rng)
            states = [f"s{i}" for i in range(rng.randint(1, 5))]
            h = random_structure(rng, container, states)
            f = {s: rng.choice(states) for s in states}
            g = {s: rng.choice(states) for s in states}
            assert hmap(container, {s: s for s in states}, h) == h
            composed = {s: g[f[s]] for s in states}
            assert hmap(container, composed, h) == hmap(
                container, g, hmap(container, f, h)
            )

    def test_support_naturality_randomized(self):
        rng = rng_for(202)
        for _ in range(150):
            container = random_container(rng)
            states = [f"s{i}" for i in range(rng.randint(1, 5))]
            h = random_structure(rng, container, states)
            targets = [f"t{i}" for i in range(len(states))]
            injective = dict(zip(states, targets))
            image = {injective[s] for s in support(container, h)}
            assert support(container, hmap(container, injective, h)) == image
            squash = {s: "t0" for s in states}
            assert support(container, hmap(container, squash, h)) <= {
                squash[s] for s in support(container, h)
            }

    def test_interpret_naturality_randomized(self):
        # interpreting H f (h) in env is interpreting h in env . f
        rng = rng_for(505)
        for _ in range(200):
            container = random_container(rng)
            states = [f"s{i}" for i in range(rng.randint(1, 5))]
            h = random_structure(rng, container, states)
            f = {s: rng.choice(states) for s in states}
            env = {s: rng.randrange(3) for s in states}
            assert interpret(container, hmap(container, f, h), env) == interpret(
                container, h, {s: env[f[s]] for s in support(container, h)}
            )

    def test_no_validating_structure_has_equal_pair(self):
        # normalization is idempotent: whatever we map, pairs stay distinct
        rng = rng_for(303)
        for _ in range(100):
            states = ["a", "b", "c"]
            h = random_structure(rng, PairNeq(), states)
            f = {s: rng.choice(states) for s in states}
            out = hmap(PairNeq(), f, h)
            support(PairNeq(), out)


class TestSupport:
    @pytest.mark.parametrize(
        "container, h",
        [
            (Product((Identity(), Identity())), ref_set("a")),
            (PairNeq(), Pair(StateRef("a"), StateRef("a"))),
            (GRAPH, SetOf((StateRef("b"), StateRef("a")))),
            (GRAPH, SetOf((StateRef("a"), StateRef("a")))),
            (Exp(Identity(), ("x", "y")), fun_of({"x": StateRef("a")})),
            (Const(("u", "v")), ConstVal("w")),
            (Identity(), StateRef("")),
            (Sum(Identity(), Identity()), StateRef("a")),
            (PairNeq(), Pair(StateRef("a"), ConstVal("b"))),
        ],
        ids=[
            "product-arity", "equal-pair", "unsorted-set", "repeated-member",
            "exp-labels", "const-label", "empty-state", "sum-untagged", "pair-of-non-state",
        ],
    )
    def test_non_values_raise(self, container, h):
        # support is the one checked walk: whatever is not a value raises
        with pytest.raises(InputError):
            support(container, h)

    def test_checks_nested_values(self):
        c = FinPow(Product((Identity(), Const(("u",)))))
        good = set_of([TupleOf((StateRef("a"), ConstVal("u")))])
        assert support(c, good) == {"a"}
        with pytest.raises(InputError):
            support(c, set_of([TupleOf((StateRef("a"), ConstVal("w")))]))

    def test_set_support(self):
        assert support(GRAPH, ref_set("a", "b")) == {"a", "b"}

    def test_star_has_empty_support(self):
        assert support(PairNeq(), STAR) == frozenset()

    def test_duplicate_occurrence_counted_once(self):
        # the binary-tree functor X*X + X + 1
        c = Sum(Product((Identity(), Identity())), Sum(Identity(), Const(("end",))))
        h = InL(TupleOf((StateRef("a"), StateRef("a"))))
        assert support(c, h) == {"a"}


class TestInterpret:
    def test_pair_diagonal_normalizes_to_star(self):
        h = make_pair(StateRef("x1"), StateRef("x2"))
        assert interpret(PairNeq(), h, {"x1": 7, "x2": 7}) == STAR
        assert interpret(PairNeq(), h, {"x1": 7, "x2": 8}) == ("pair", 7, 8)

    def test_set_becomes_frozenset(self):
        env = {"a": 0, "b": 1}
        assert interpret(GRAPH, ref_set("a", "b"), env) == frozenset({0, 1})


class TestEnumerate:
    def test_pairneq_enumeration(self):
        values = enumerate_structures(PairNeq(), ["a", "b"])
        assert STAR in values
        assert len(values) == 3  # star + two ordered distinct pairs

    def test_finpow_enumeration(self):
        values = enumerate_structures(GRAPH, ["a", "b"])
        assert len(values) == 4


class TestJson:
    def test_documented_forms(self):
        assert container_to_json(FinPow(Identity())) == {"finpow": {"id": None}}
        assert structure_to_json(ref_set("a")) == {"set": [{"state": "a"}]}
        assert structure_to_json(STAR) == {"star": None}

    def test_round_trip_randomized(self):
        rng = rng_for(404)
        for _ in range(100):
            coalg = random_coalgebra(rng, 5)
            c = coalg.container
            assert container_from_json(container_to_json(c)) == c
            for h in coalg.structure.values():
                doc = structure_to_json(h)
                json.dumps(doc)  # must be serializable
                assert structure_from_json(doc) == h

    def test_pair_json_normalizes(self):
        doc = {"pair": [{"state": "a"}, {"state": "a"}]}
        assert structure_from_json(doc) == STAR

    def test_bad_tag_reports_path(self):
        with pytest.raises(InputError, match=r"\$\.sum\[1\]"):
            container_from_json({"sum": [{"id": None}, {"nope": None}]})

    @pytest.mark.parametrize("doc", [{"tuple": 5}, {"set": 5}])
    def test_non_list_bodies_rejected(self, doc):
        tag = next(iter(doc))
        with pytest.raises(InputError, match=rf"\$\.{tag}: expected a list"):
            structure_from_json(doc)

    def test_exp_labels_must_be_a_list(self):
        doc = {"exp": {"base": {"id": None}, "labels": "xy"}}
        with pytest.raises(InputError, match=r"\$\.exp\.labels"):
            container_from_json(doc)


def scrambled(doc):
    """The same value as JSON, with every set's members reversed and its
    first member repeated at the end."""
    if isinstance(doc, list):
        return [scrambled(x) for x in doc]
    if not isinstance(doc, dict):
        return doc
    out = {k: scrambled(v) for k, v in doc.items()}
    if "set" in out and out["set"]:
        out["set"] = out["set"][::-1] + out["set"][-1:]
    return out


def decode_one(container, carrier, doc, where="$", values=True):
    """``doc`` decoded alone by the decoder of a table of documents, with
    its successors, positions in the sorted carrier, read back as names;
    with ``values`` false, by the graph walk, which gives the successors
    alone.  The table's one key is "", which joins the carrier, so that an
    error's path is ``where`` and then the steps in ``doc``; both walks
    refuse a reference to the empty name all the same."""
    names = sorted(set(carrier) | {""})
    at = dict(zip(names, range(len(names))))
    decoded, out = structure_decoder(container, at, values)([("", doc)], where)
    refs = frozenset(names[i] for i in out[at[""]])
    return (decoded[""], refs) if values else refs


class TestStructureDecoder:
    """The one-pass decoder against the reference path: structure_from_json,
    then support."""

    def check_against_reference(self, container, carrier, doc):
        h, refs = decode_one(container, carrier, doc)
        expected = structure_from_json(doc)
        assert h == expected
        assert refs == support(container, expected)

    def test_matches_reference_on_random_systems(self):
        rng = rng_for(2024)
        for k in range(200):
            make = random_coalgebra if k % 2 else random_wf_coalgebra
            coalg = make(rng, 6, depth=3)
            carrier = set(coalg.states)
            for h in coalg.structure.values():
                doc = structure_to_json(h)
                self.check_against_reference(coalg.container, carrier, doc)
                self.check_against_reference(coalg.container, carrier, scrambled(doc))

    def test_unsorted_set_with_duplicates(self):
        doc = {"set": [{"state": "b"}, {"state": "a"}, {"state": "b"}]}
        self.check_against_reference(GRAPH, {"a", "b"}, doc)
        assert decode_one(GRAPH, {"a", "b"}, doc) == (ref_set("a", "b"), {"a", "b"})

    def test_equal_component_pair_is_star(self):
        doc = {"pair": [{"state": "a"}, {"state": "a"}]}
        self.check_against_reference(PairNeq(), {"a"}, doc)
        assert decode_one(PairNeq(), {"a"}, doc) == (STAR, frozenset())

    def test_equal_state_refs_are_shared(self):
        decode = structure_decoder(Product((Identity(), Identity())), {"a": 0, "b": 1})
        values, _ = decode([("a", {"tuple": [{"state": "a"}, {"state": "a"}]})])
        assert values["a"].items[0] is values["a"].items[1]
        assert decode([("b", {"tuple": [{"state": "a"}, {"state": "a"}]})])[0]["b"].items[0] is values["a"].items[0]

    @pytest.mark.parametrize(
        "container, doc, error",
        [
            (GRAPH, {"set": [{"state": "a"}, {"stat": "a"}]}, r"\$\.set\[1\]: expected tag 'state', got 'stat'"),
            (GRAPH, {"set": 5}, r"\$\.set: expected a list"),
            (GRAPH, [], r"\$: expected a single-key object tagged 'set'"),
            (GRAPH, {"set": [], "x": 1}, r"\$: expected a single-key object"),
            (Identity(), {"state": ""}, r"\$\.state: expected a non-empty string"),
            (Identity(), {"state": ["a"]}, r"\$\.state: expected a non-empty string"),
            (Identity(), {"state": "ghost"}, r"\$\.state: 'ghost' is not a carrier state"),
            (Const(("u", "v")), {"const": "w"}, r"\$\.const: expected one of \['u', 'v'\]"),
            (Const(("u",)), {"const": ["u"]}, r"\$\.const: expected one of"),
            (Sum(Identity(), Const(("n",))), {"inr": {"const": "m"}}, r"\$\.inr\.const"),
            (Sum(Identity(), Const(("n",))), {"inx": None}, r"\$: expected tag 'inl' or 'inr'"),
            (Product((Identity(), Identity())), {"tuple": 5}, r"\$\.tuple: expected a list of 2"),
            (Product((Identity(), Identity())), {"tuple": [{"state": "a"}]}, r"\$\.tuple: expected a list of 2"),
            (Product((Identity(), GRAPH)), {"tuple": [{"state": "a"}, {"set": [{"state": 3}]}]}, r"\$\.tuple\[1\]\.set\[0\]\.state"),
            (Exp(Identity(), ("x", "y")), {"fun": {"x": {"state": "a"}}}, r"\$\.fun: expected an object with labels \['x', 'y'\]"),
            (Exp(Identity(), ("x",)), {"fun": {"x": {"state": "ghost"}}}, r"\$\.fun\.x\.state"),
            (PairNeq(), {"pair": [{"state": "a"}]}, r"\$\.pair: expected \[left, right\]"),
            (PairNeq(), {"pair": [{"state": "a"}, {"const": "b"}]}, r"\$\.pair\[1\]: expected tag 'state'"),
            (PairNeq(), {"star": 1}, r"\$\.star: expected null"),
            (PairNeq(), {"pair": [{"state": "ghost"}, {"state": "ghost"}]}, r"\$\.pair\[0\]\.state: 'ghost' is not"),
        ],
    )
    def test_errors_name_the_json_path(self, container, doc, error):
        with pytest.raises(InputError, match=error):
            decode_one(container, {"a"}, doc)

    def test_where_prefixes_the_path(self):
        with pytest.raises(InputError, match=r"^\$\.structure\.s\.set\[0\]\.state: "):
            structure_decoder(GRAPH, {"a": 0, "s": 1})([("s", {"set": [{"state": "b"}]})], "$.structure.")


class TestConstructors:
    def test_const_rejects_duplicates(self):
        with pytest.raises(InputError):
            Const(("a", "a"))

    def test_exp_rejects_empty(self):
        with pytest.raises(InputError):
            Exp(Identity(), ())

    def test_labels_must_be_strings(self):
        # count_algebra and induction_algebra take every int of an
        # interpreted shape for a state value, so no label may be an int
        with pytest.raises(InputError, match=r"Const labels must be strings: \(0,\)"):
            Const((0,))
        with pytest.raises(InputError, match=r"Exp labels must be strings: \('x', 1\)"):
            Exp(Identity(), ("x", 1))

    def test_set_of_sorts_and_dedups(self):
        s = set_of([StateRef("b"), StateRef("a"), StateRef("b")])
        assert s == ref_set("a", "b")

    def test_structure_key_orders_as_the_nested_key(self):
        rng = rng_for(1313)
        values = []
        for _ in range(100):
            container = random_container(rng, depth=rng.choice([2, 3, 4]))
            values += [random_structure(rng, container, ["a", "b", "c"]) for _ in range(3)]
        keys = [(structure_key(h), reference_structure_key(h), h) for h in values]
        for (k, r, g), (k2, r2, h) in itertools.product(keys, repeat=2):
            assert (k < k2, k == k2) == (r < r2, r == r2) and (k == k2) == (g == h)


def outcome(f, *args):
    """``f(*args)``, or the type and text of the error it raises."""
    try:
        return f(*args)
    except AnalysisError as exc:
        return type(exc), str(exc)


class TestCompiledWalks:
    """The walks compiled per container, and those that follow a value's
    own constructors, against the generic walks along the container, kept
    in genutil as oracles."""

    def test_walks_match_the_reference_oracles(self):
        rng = rng_for(1414)
        for _ in range(250):
            container = random_container(rng, depth=rng.choice([3, 4]))
            states = [f"s{i}" for i in range(rng.randint(1, 4))]
            reference = reference_decoder(container, set(states))
            for _ in range(3):
                h = random_structure(rng, container, states)
                assert support(container, h) == reference_support(container, h)
                doc = structure_to_json(h)
                assert doc == reference_structure_to_json(container, h)
                assert decode_one(container, set(states), doc) == reference(doc) == (h, support(container, h))
                assert decode_one(container, set(states), scrambled(doc)) == reference(scrambled(doc))
                # the graph walk gives the states alone
                assert decode_one(container, set(states), doc, values=False) == support(container, h)
                assert decode_one(container, set(states), scrambled(doc), values=False) == support(container, h)
                f = {s: rng.choice(states) for s in states[: rng.randint(0, len(states))]}
                assert outcome(hmap, container, f, h) == outcome(reference_hmap, container, f, h)
                env = {s: rng.randrange(3) for s in rng.sample(states, rng.randint(0, len(states)))}
                assert outcome(interpret, container, h, env) == outcome(reference_interpret, container, h, env)

    def test_malformed_documents_give_the_reference_errors(self):
        rng = rng_for(1515)
        failed = 0
        for _ in range(300):
            container = random_container(rng, depth=rng.choice([3, 4]))
            states = [f"s{i}" for i in range(rng.randint(1, 4))]
            doc = structure_to_json(random_structure(rng, container, states))
            for _ in range(3):
                bad = malformed(rng, doc, states)
                got = outcome(decode_one, container, set(states), bad, "$.structure.x")
                assert got == outcome(reference_decoder(container, set(states)), bad, "$.structure.x")
                graph = outcome(decode_one, container, set(states), bad, "$.structure.x", False)
                assert graph == (got if isinstance(got[0], type) else got[1])
                failed += isinstance(got[0], type)
        assert failed > 500  # most of the 900 documents are not values

    @pytest.mark.parametrize(
        "doc, expected",
        [
            ({"set": [{"pair": [{"state": "a"}, {"state": "a"}]}, {"star": None}]}, frozenset()),
            ({"set": [{"pair": [{"state": "a"}, {"state": "b"}]}, {"pair": [{"state": "b"}, {"state": "b"}]}]}, {"a", "b"}),
            ({"set": [{"star": None}, {"pair": [{"state": "a"}, {"state": ""}]}]}, (InputError, r"\$\.structure\.a\.set\[1\]\.pair\[1\]\.state: expected a non-empty string")),
            ({"set": [{"pair": [{"state": "zz"}, {"state": "a"}]}]}, (DanglingRefError, r"\$\.structure\.a\.set\[0\]\.pair\[0\]\.state: 'zz' is not a carrier state")),
        ],
    )
    def test_graph_walk_on_equal_pairs_the_empty_name_and_dangling_names(self, doc, expected):
        """A pair of equal states adds no successor; a reference to "" is
        refused as empty although "" is a carrier state; a name outside the
        carrier is a dangling reference.  Both walks agree with the
        reference decoder, twice over the same decoder."""
        container, carrier = FinPow(PairNeq()), {"": 0, "a": 1, "b": 2}
        reference = reference_decoder(container, set(carrier))
        for values in (True, False):
            decode = structure_decoder(container, carrier, values)
            for _ in range(2):
                if isinstance(expected, tuple):
                    error, message = expected
                    with pytest.raises(error, match=f"^{message}$"):
                        decode([("a", json.loads(json.dumps(doc)))], "$.structure.")
                    with pytest.raises(error, match=f"^{message}$"):
                        reference(doc, "$.structure.a")
                    continue
                decoded, out = decode([("", {"set": []}), ("a", json.loads(json.dumps(doc))), ("b", {"set": []})])
                names = sorted(carrier)
                assert {names[i] for i in out[1]} == expected == reference(doc)[1]
                assert out[0] == out[2] == ()
                assert (decoded is None) == (not values)

    def test_non_values_are_refused_as_the_reference_refuses_them(self):
        cases = [
            (GRAPH, SetOf((StateRef("b"), StateRef("a")))),
            (FinPow(Sum(Identity(), Const(("u",)))), SetOf((InR(ConstVal("u")), InL(StateRef("a"))))),
            (FinPow(PairNeq()), SetOf((make_pair(StateRef("a"), StateRef("b")), STAR))),
            (Product((Identity(), Const(("u",)))), TupleOf((StateRef("a"), ConstVal("w")))),
            (Exp(Identity(), ("y", "x")), fun_of({"x": StateRef("a"), "y": StateRef("")})),
            (PairNeq(), Pair(ConstVal("a"), StateRef("b"))),
            (Sum(GRAPH, PairNeq()), InR(SetOf(()))),
        ]
        for container, h in cases:
            assert outcome(support, container, h) == outcome(reference_support, container, h)

    def test_functors_of_many_distinct_parts_are_walked(self):
        # leaves become closures, other parts generated functions compiled in chunks
        leaves = Product(tuple(Const((f"l{i}",)) for i in range(10_000)))
        h = TupleOf(tuple(ConstVal(f"l{i}") for i in range(10_000)))
        sets = Product(tuple(FinPow(Sum(Identity(), Const((f"l{i}",)))) for i in range(400)))
        g = TupleOf(tuple(set_of([InL(StateRef("a")), InR(ConstVal(f"l{i}"))]) for i in range(400)))
        for container, value, states in ((leaves, h, set()), (sets, g, {"a"})):
            assert support(container, value) == states
            doc = structure_to_json(value)
            assert doc == reference_structure_to_json(container, value)
            assert decode_one(container, {"a"}, doc) == (value, states)
            assert hmap(container, {"a": "b"}, value) == reference_hmap(container, {"a": "b"}, value)
            assert interpret(container, value, {"a": 1}) == reference_interpret(container, value, {"a": 1})

    def test_products_are_walked_without_operator_call(self, monkeypatch):
        # operator.call is new in Python 3.11, and the package supports 3.10
        monkeypatch.delattr(operator, "call", raising=False)
        container = Product((Identity(), Const(("u",)), GRAPH, Product((Identity(), PairNeq()))))
        h = TupleOf((StateRef("a"), ConstVal("u"), ref_set("a", "b"), TupleOf((StateRef("b"), STAR))))
        f, env = {"a": "b", "b": "b"}, {"a": 1, "b": 2}
        assert support(container, h) == {"a", "b"}
        assert decode_one(container, {"a", "b"}, structure_to_json(h)) == (h, {"a", "b"})
        assert hmap(container, f, h) == reference_hmap(container, f, h)
        assert interpret(container, h, env) == reference_interpret(container, h, env)

    def test_each_walk_compiles_once_per_container(self, monkeypatch):
        compiled = []

        def counting_exec(source, scope):
            compiled.append(source)
            return builtins.exec(source, scope)

        monkeypatch.setattr(coalg.containers, "exec", counting_exec, raising=False)
        states = [f"s{i}" for i in range(1000)]
        doc = {
            "version": 1, "kind": "set-coalgebra", "functor": {"finpow": {"id": None}}, "states": states,
            "structure": {s: {"set": [{"state": t} for t in states[i + 1: i + 4]]} for i, s in enumerate(states)},
        }
        system = coalgebra_from_json(doc)
        assert len(compiled) == 1  # the decoder, for 1000 states
        solve_recursion(system, count_algebra(system.container))
        solve_recursion(system, unfold_algebra(system.container))
        assert len(compiled) == 1  # interpret follows the values, for 2000 of them
        for h in system.structure.values():
            support(system.container, h)
            structure_to_json(h)
        assert len(compiled) == 2  # and support; structure_to_json compiles nothing


def nested_finpow(levels):
    c = Identity()
    for _ in range(levels):
        c = FinPow(c)
    return c


def nested_set(levels):
    h = SetOf(())
    for _ in range(levels - 1):
        h = SetOf((h,))
    return h


def chain(x, kind, inner):
    """The levels of ``x``, a chain of one-member sets ending in an empty one,
    counted without recursion (comparing it with ``==`` recurses)."""
    n = 1
    while type(x) is kind and (x := inner(x)) is not None:
        n += 1
    return n if x is None else -1


def levels_of(h):
    return chain(h, SetOf, lambda v: v.items[0] if v.items else None)


@pytest.mark.parametrize("levels", [1, 2, 300, 490, 1000])
def test_containers_as_deep_as_json_allows(levels):
    """A container nested as deep as a JSON file can spell one compiles, and
    each walk of it runs under the interpreter's default recursion limit, on
    a value as deep as a JSON file can spell (two JSON levels per set)."""
    container = nested_finpow(levels)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for depth in (1, min(levels, 490)):
            h = nested_set(depth)
            assert support(container, h) == frozenset()
            doc = structure_to_json(h)
            assert chain(doc, dict, lambda d: d["set"][0] if d["set"] else None) == depth
            decoded, refs = decode_one(container, {"a"}, doc)
            assert (levels_of(decoded), refs) == (depth, frozenset())
            assert levels_of(hmap(container, {}, h)) == depth
            assert chain(interpret(container, h, {}), frozenset, lambda f: next(iter(f), None)) == depth
    finally:
        sys.setrecursionlimit(limit)


def json_depth(doc):
    """The nesting of objects and arrays in ``doc``, counted without recursion."""
    depth, level = 0, [doc]
    while level := [x for x in level if isinstance(x, (dict, list))]:
        depth += 1
        level = [v for x in level for v in (x.values() if isinstance(x, dict) else x)]
    return depth


def every_kind(kinds, levels, bottom, state):
    """A container ``levels`` deep over ``finpow(pairneq)``, and its value with
    ``bottom`` in the set slot and ``state`` in every product: its nodes are
    the ``kinds`` in turn, left sums (``l``), right sums (``r``), products
    (``t``) and exponents (``f``), the last one on top."""
    c, h = FinPow(PairNeq()), bottom
    for i in range(levels):
        kind = kinds[i % len(kinds)]
        if kind == "l":
            c, h = Sum(c, Const(("u",))), InL(h)
        elif kind == "r":
            c, h = Sum(Const(("u",)), c), InR(h)
        elif kind == "t":
            c, h = Product((Identity(), c)), TupleOf((StateRef(state), h))
        else:
            c, h = Exp(c, ("x",)), fun_of({"x": h})
    return c, h


@pytest.mark.parametrize("kinds", ["lr", "t", "f", "ltrf"])
def test_values_of_every_node_kind_as_deep_as_json_allows(kinds):
    """Sums, products and exponents as deep as a JSON file can spell their
    container (two JSON levels each), over sets of pairs: every walk of a
    set of two such members runs under the default recursion limit, so each
    takes one frame per level of the value, and agrees with the oracles."""
    a, b = StateRef("a"), StateRef("b")
    container, h1 = every_kind(kinds, 490, set_of([make_pair(a, b), STAR]), "a")
    _, h2 = every_kind(kinds, 490, set_of([make_pair(b, a)]), "b")
    container = FinPow(container)
    assert 980 < json_depth(container_to_json(container)) < 990
    swap, squash, env = {"a": "b", "b": "a"}, {"a": "a", "b": "a"}, {"a": 1, "b": 2}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        h = set_of([h2, h1])
        states = support(container, h)
        doc = structure_to_json(h)
        decoded = decode_one(container, {"a", "b"}, doc)
        swapped, squashed = hmap(container, swap, h), hmap(container, squash, h)
        shape = interpret(container, h, env)
        sys.setrecursionlimit(10_000)  # ``==`` and the oracles take more frames per level
        assert h.items == (h1, h2) and states == {"a", "b"}
        assert doc == reference_structure_to_json(container, h) and json_depth(doc) < 990
        assert decoded == (h, states)
        assert swapped == reference_hmap(container, swap, h) and len(swapped.items) == 2
        assert squashed == reference_hmap(container, squash, h) and len(squashed.items) == 1
        assert shape == reference_interpret(container, h, env)
    finally:
        sys.setrecursionlimit(limit)
