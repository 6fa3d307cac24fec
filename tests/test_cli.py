import ast
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import coalg.cli as cli
import coalg.coalgebras as coalgebras
from coalg.cli import build_parser, export_dot, main
from coalg.coalgebras import Algebra, coalgebra_to_json, count_algebra, induction_algebra
from coalg.containers import Pair, SetOf, StateRef
from coalg.gallery import (
    GALLERY,
    build_chain,
    build_convex_rank2,
    build_convex_self_loop,
    build_nominal_two_label,
    build_self_loop,
    build_term_chain,
)
from coalg.initial_algebra import Signature
from coalg.nominal import FRESH_CASE, NLTSSpec, Rule, Template

from genutil import (
    ROOT,
    convex_to_json,
    malformed,
    nlts_to_json,
    random_coalgebra,
    random_wf_coalgebra,
    rng_for,
    run_cli,
    signature_to_json,
    state_names,
)


GOLDEN = ROOT / "tests" / "golden"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    return write(tmp_path, "chain.json", coalgebra_to_json(build_chain()))


@pytest.fixture
def selfloop_file(tmp_path):
    return write(tmp_path, "selfloop.json", coalgebra_to_json(build_self_loop()))


class TestCheckWf:
    def test_chain_exits_zero(self, chain_file, capsys):
        assert main(["check-wf", chain_file]) == 0
        out = capsys.readouterr().out
        assert "well-founded" in out
        assert "ranks" in out

    def test_selfloop_exits_one(self, selfloop_file, capsys):
        assert main(["check-wf", selfloop_file]) == 1
        assert "not well-founded" in capsys.readouterr().out

    def test_json_format_round_trips(self, chain_file, capsys):
        assert main(["check-wf", chain_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wellFounded"] is True
        assert doc["ranks"] == {"a": 3, "b": 2, "c": 1}

    def test_nlts_and_convex_inputs(self, tmp_path, capsys):
        nlts = write(tmp_path, "two.json", nlts_to_json(build_nominal_two_label()))
        convex = write(
            tmp_path, "loop.json", convex_to_json(build_convex_self_loop())
        )
        assert main(["check-wf", nlts]) == 0
        assert main(["check-wf", convex]) == 1

    def test_multiple_inputs_report_per_file(self, chain_file, selfloop_file, capsys):
        # exit is the most severe verdict across files
        assert main(["check-wf", chain_file, selfloop_file]) == 1
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("=== ")]
        assert len(headers) == 2


class TestKoenig:
    def test_gallery_ladder_budget_exhausted(self, capsys):
        code = main(
            ["koenig", "gallery:example-3.11", "--state", "1", "--budget", "1000"]
        )
        assert code == 2
        assert "budget exhausted" in capsys.readouterr().out

    def test_chain_extraction(self, chain_file, capsys):
        assert main(["koenig", chain_file, "--state", "a"]) == 0
        assert "['a', 'b', 'c']" in capsys.readouterr().out

    def test_cycle_exits_one(self, selfloop_file, capsys):
        assert main(["koenig", selfloop_file, "--state", "s"]) == 1

    def test_nlts_extraction(self, tmp_path, capsys):
        nlts = write(tmp_path, "two.json", nlts_to_json(build_nominal_two_label()))
        assert main(["koenig", nlts, "--state", "l0[0]"]) == 0
        assert "l1" in capsys.readouterr().out

    @pytest.mark.parametrize("state", ["nope", "l0[1,2]"])
    def test_nlts_bad_state_is_input_error_on_non_wf_spec(self, tmp_path, capsys, state):
        # a 0-ary label looping to itself on a fresh input: not well-founded,
        # yet a bad --state must still be reported as an input error
        loop = NLTSSpec({"l0": 0}, [Rule("l0", FRESH_CASE, (Template("l0", ()),))])
        nlts = write(tmp_path, "loop.json", nlts_to_json(loop))
        assert main(["koenig", nlts, "--state", state]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("registers", ["-1", "00", "+0", " 0", "\u0663"])
    def test_nlts_registers_are_natural_numbers_written_as_str(self, capsys, registers):
        # int() reads each of these as an atom, but only str(a) names a
        state = f"l0[{registers}]"
        assert main(["koenig", "gallery:nominal-two-label", "--state", state, "--format", "json"]) == 3
        message = f"bad register list in {state!r}: registers are natural numbers, written as str(a)"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("state", [" l0[0] ", "l0[0]\n", "\tl1"])
    def test_nlts_state_names_have_no_whitespace_around_them(self, capsys, state):
        assert main(["koenig", "gallery:nominal-two-label", "--state", state, "--format", "json"]) == 3
        assert capsys.readouterr() == ("", f"error: bad state syntax: {state!r}\n")

    @pytest.mark.parametrize(
        "state, message",
        # int() reads the first five as states, but only str(k) names k
        [(state, f"integer-ladder state names are canonical integers, got {state!r}")
         for state in ("01", "+3", "1_0", " 2", "\u0663")]
        + [("0", "0 is not a state of the integer ladder"), ("x1", "integer-ladder states are integers, got 'x1'")],
    )
    def test_ladder_refuses_a_name_outside_its_carrier(self, capsys, state, message):
        assert main(["koenig", "gallery:example-3.11", "--state", state, "--budget", "3"]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "build, state, code",
        [
            (build_convex_rank2, "0", 0),
            (build_convex_rank2, "1", 0),
            (build_convex_self_loop, "0", 1),
            # the state is read before the verdict, so a bad one exits 3
            # on a system that is not well-founded too
            (build_convex_self_loop, "1", 3),
            (build_convex_rank2, "2", 3),
            (build_convex_rank2, "garbage", 3),
            (build_convex_rank2, "-1", 3),
            (build_convex_rank2, "01", 3),
            (build_convex_rank2, "", 3),
        ],
    )
    def test_convex_state_is_a_generator_index(self, tmp_path, capsys, build, state, code):
        spec = build()
        path = write(tmp_path, "convex.json", convex_to_json(spec))
        assert main(["koenig", path, "--state", state]) == code
        err = capsys.readouterr().err
        if code == 3:
            assert err == f"error: convex states are generator indices 0..{spec.generators - 1}, got {state!r}\n"


class TestFold:
    def test_count_on_chain(self, chain_file, capsys):
        assert main(["fold", chain_file, "--algebra", "count", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == {"a": 2, "b": 1, "c": 0}

    def test_induction_on_chain(self, chain_file, capsys):
        assert main(["fold", chain_file, "--algebra", "induction", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["values"].values()) == {1}

    def test_term_on_signature_chain(self, tmp_path, capsys):
        path = write(tmp_path, "tc.json", coalgebra_to_json(build_term_chain()))
        assert main(["fold", path, "--algebra", "term", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"]["n3"] == {"inl": "z"}

    def test_cycle_exits_one(self, selfloop_file):
        assert main(["fold", selfloop_file, "--algebra", "count"]) == 1

    @pytest.mark.parametrize(
        "functor, a, value",
        [
            # a product whose first component is the label "inl"
            ({"sum": [{"product": [{"const": ["inl", "pair"]}, {"id": None}]}, {"const": ["end"]}]},
             {"inl": {"tuple": [{"const": "inl"}, {"state": "b"}]}},
             {"inl": ["inl", {"inr": "end"}]}),
            ({"sum": [{"sum": [{"id": None}, {"const": ["x"]}]}, {"const": ["end"]}]},
             {"inl": {"inl": {"state": "b"}}},
             {"inl": {"inl": {"inr": "end"}}}),
            ({"sum": [{"product": [{"const": ["pair"]}, {"id": None}, {"id": None}]}, {"const": ["end"]}]},
             {"inl": {"tuple": [{"const": "pair"}, {"state": "b"}, {"state": "b"}]}},
             {"inl": ["pair", {"inr": "end"}, {"inr": "end"}]}),
            ({"sum": [{"exp": {"base": {"id": None}, "labels": ["inr"]}}, {"const": ["end"]}]},
             {"inl": {"fun": {"inr": {"state": "b"}}}},
             {"inl": [["inr", {"inr": "end"}]]}),
        ],
        ids=["product-with-label-inl", "nested-sum", "product-with-label-pair", "exp-with-label-inr"],
    )
    def test_term_values_are_read_through_the_functor(self, tmp_path, capsys, functor, a, value):
        doc = {
            "version": 1,
            "kind": "set-coalgebra",
            "functor": functor,
            "states": ["a", "b"],
            "structure": {"a": a, "b": {"inr": {"const": "end"}}},
        }
        path = write(tmp_path, "f.json", doc)
        assert main(["fold", path, "--algebra", "term", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["values"] == {"a": value, "b": {"inr": "end"}}


class TestRealizeAndFragmentCheck:
    def test_realize(self, tmp_path, capsys):
        sig = write(
            tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1))))
        )
        structure = write(tmp_path, "structure.json", {"op": "s", "args": ["s(z)"]})
        code = main(
            ["realize", "--sig", sig, "--structure", structure, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unfolded"] == "s(s(z))"
        assert len(doc["coalgebra"]["states"]) == 3

    @pytest.mark.parametrize(
        "structure,message",
        [
            ({"op": "s", "args": [{"op": ["z"]}]}, "$.args[0].op: expected an operation name"),
            ({"op": "s", "args": [{"op": "s", "args": [{"op": {"z": 0}}]}]},
             "$.args[0].args[0].op: expected an operation name"),
            ({"op": ["s"], "args": []}, "unknown operation symbol ['s']"),
        ],
    )
    def test_non_string_operation_is_input_error(self, tmp_path, capsys, structure, message):
        sig = write(
            tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1))))
        )
        structure = write(tmp_path, "structure.json", structure)
        assert main(["realize", "--sig", sig, "--structure", structure]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "structure,message",
        [
            ({"op": "f", "args": [{"op": "f", "args": [{"op": "a", "args": ["a"]}]}]},
             "'a' takes 0 arguments, got 1"),
            # two distinct subterms print as f(a): states are printed subterms,
            # so realize names the shared form rather than a carrier check
            ({"op": "g", "args": [{"op": "f(a)"}, {"op": "f", "args": [{"op": "a"}]}]},
             "two distinct subterms print as 'f(a)'; states are named by printed form"),
            ({"op": "g", "args": [{"op": "h", "args": ["a", "b"]}, {"op": "h(a,b)"}]},
             "two distinct subterms print as 'h(a,b)'; states are named by printed form"),
        ],
        ids=["nested-arity", "printed-name-collision", "printed-name-collision-binary"],
    )
    def test_realize_input_errors(self, tmp_path, capsys, structure, message):
        sig = Signature((("a", 0), ("b", 0), ("f(a)", 0), ("h(a,b)", 0), ("f", 1), ("g", 2), ("h", 2)))
        sig = write(tmp_path, "sig.json", signature_to_json(sig))
        structure = write(tmp_path, "structure.json", structure)
        assert main(["realize", "--sig", sig, "--structure", structure]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("args", [5, "z", {"op": "z"}, None])
    def test_top_level_args_must_be_a_list(self, tmp_path, capsys, args):
        sig = write(
            tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1))))
        )
        structure = write(tmp_path, "structure.json", {"op": "s", "args": args})
        assert main(["realize", "--sig", sig, "--structure", structure]) == 3
        err = capsys.readouterr().err
        assert "$.args: expected a list" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("levels, code", [(480, 0), (494, 3)])
    def test_deep_op_args_file(self, tmp_path, levels, code):
        # two JSON levels per term level: 494 is past what json.loads reads
        sig = write(tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1)))))
        structure = tmp_path / "structure.json"
        structure.write_text('{"op": "s", "args": [' * levels + '"z"' + "]}" * levels, encoding="utf-8")
        proc = run_cli(["realize", "--sig", sig, "--structure", str(structure), "--format", "json"],
                       capture_output=True, text=True)
        assert (proc.returncode, "Traceback" in proc.stderr) == (code, False)
        if code == 0:
            assert json.loads(proc.stdout)["unfolded"] == "s(" * levels + "z" + ")" * levels

    @pytest.mark.parametrize("levels, code", [(900, 0), (1500, 3)])
    def test_deep_term_string(self, tmp_path, levels, code):
        sig = write(tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1)))))
        structure = write(tmp_path, "structure.json", {"op": "s", "args": ["s(" * levels + "z" + ")" * levels]})
        proc = run_cli(["realize", "--sig", sig, "--structure", structure], capture_output=True, text=True)
        assert (proc.returncode, "Traceback" in proc.stderr) == (code, False)
        if code == 3:
            assert proc.stderr.startswith("error: term nested too deeply (the limit is about ")

    def test_fragment_check_depth_six(self, tmp_path, capsys):
        sig = write(
            tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1))))
        )
        code = main(["check-5.2", "--sig", sig, "--depth", "6", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["terms"] == 7
        assert doc["passed"] is True


class TestExportDot:
    def test_chain(self, tmp_path, capsys):
        from coalg.coalgebras import FiniteCoalgebra
        from coalg.containers import FinPow, Identity, StateRef, set_of

        two = FiniteCoalgebra(
            FinPow(Identity()),
            ["a", "b"],
            {"a": set_of([StateRef("b")]), "b": set_of(())},
        )
        path = write(tmp_path, "two.json", coalgebra_to_json(two))
        assert main(["export-dot", path]) == 0
        out = capsys.readouterr().out
        assert out == 'digraph G {\n  "a";\n  "b";\n  "a" -> "b";\n}\n'

    def test_empty_graph(self):
        assert export_dot([], []) == "digraph G { }"

    def test_orbit_graph(self, tmp_path, capsys):
        path = write(tmp_path, "two.json", nlts_to_json(build_nominal_two_label()))
        assert main(["export-dot", path]) == 0
        assert '"l0" -> "l1";' in capsys.readouterr().out


class TestErrors:
    def test_parse_error_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "set-coalgebra",\n  oops\n}', encoding="utf-8")
        assert main(["check-wf", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_schema_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"kind": "set-coalgebra", "version": 1})
        assert main(["check-wf", path]) == 3
        assert "functor" in capsys.readouterr().err

    def test_unknown_gallery_entry(self, capsys):
        assert main(["check-wf", "gallery:nope"]) == 3

    def test_missing_file(self, capsys):
        assert main(["check-wf", "/nonexistent/x.json"]) == 3

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["check-wf", str(path)]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_non_list_tuple_is_input_error(self, tmp_path, capsys):
        doc = coalgebra_to_json(build_chain())
        doc["functor"] = {"product": [{"id": None}]}
        doc["structure"] = {x: {"tuple": 5} for x in doc["states"]}
        assert main(["check-wf", write(tmp_path, "t.json", doc)]) == 3
        err = capsys.readouterr().err
        assert "$.structure.a.tuple: expected a list of 1 values" in err
        assert "Traceback" not in err

    def test_string_exp_labels_are_input_error(self, tmp_path, capsys):
        doc = coalgebra_to_json(build_chain())
        doc["functor"] = {"exp": {"base": {"id": None}, "labels": "xy"}}
        doc["structure"] = {x: {"fun": {"x": {"state": x}, "y": {"state": x}}} for x in doc["states"]}
        assert main(["check-wf", write(tmp_path, "e.json", doc)]) == 3
        assert "$.functor.exp.labels: expected a list of labels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            coalgebra_to_json(build_chain()),
            nlts_to_json(build_nominal_two_label()),
            convex_to_json(build_convex_self_loop()),
            signature_to_json(Signature((("z", 0), ("s", 1)))),
        ],
        ids=lambda doc: doc["kind"],
    )
    def test_boolean_version_is_input_error(self, tmp_path, capsys, doc):
        path = write(tmp_path, "v.json", {**doc, "version": True})
        argv = ["check-5.2", "--sig", path] if doc["kind"] == "signature" else ["check-wf", path]
        assert main(argv) == 3
        assert "$.version: expected 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, mutate, path",
        [
            ("nlts", lambda d: d["rules"][0].update(to=5), "$.rules[0].to: expected a list"),
            ("nlts", lambda d: d["rules"][0]["to"][0].update(assign=5), "$.rules[0].to[0].assign: expected a list"),
            ("nlts", lambda d: d["labels"].update(l0=True), "$.labels: expected an object of label -> arity"),
            ("nlts", lambda d: d["labels"].update(l0=-1), "$.labels: expected an object of label -> arity"),
            ("nlts", lambda d: d["labels"].update({"": 0}), "$.labels: expected an object of label -> arity"),
            ("nlts", lambda d: d["rules"][0]["to"][0].update(label=["l1"]), "$.rules[0].to[0]: expected {label, assign}"),
            ("nlts", lambda d: d["rules"][0].update({"from": ["l0"]}), "$.rules[0]: expected {from, case, to}"),
            ("convex", lambda d: d.update(generators=True), "$.generators: expected a positive integer"),
            # 1e-400 would read as the float 0.0; the vertex sums to more than 1
            ("convex", lambda d: d.update(generators=2, successors=[[[1e-400, 1]], []]),
             "$.successors[0][0]: expected 2 rational strings"),
            ("convex", lambda d: d.update(successors=[[[1]]]), "$.successors[0][0]: expected 1 rational strings"),
            ("signature", lambda d: d["ops"][0].update(arity=True), "$.ops[0]: expected {name, arity}"),
        ],
        ids=["nlts-to", "nlts-assign", "nlts-bool-arity", "nlts-negative-arity", "nlts-empty-label",
             "nlts-list-label", "nlts-list-from", "convex-bool-generators", "convex-float-coefficient",
             "convex-int-coefficient", "signature-bool-arity"],
    )
    def test_strict_decoders(self, tmp_path, capsys, kind, mutate, path):
        doc = {
            "nlts": nlts_to_json(build_nominal_two_label()),
            "convex": convex_to_json(build_convex_self_loop()),
            "signature": signature_to_json(Signature((("z", 0), ("s", 1)))),
        }[kind]
        mutate(doc)
        file = write(tmp_path, "bad.json", doc)
        argv = ["check-5.2", "--sig", file] if kind == "signature" else ["check-wf", file]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, mutate, path",
        [
            ("set-coalgebra", lambda d: d.update(bogus=1), "$.bogus"),
            ("nlts", lambda d: d.update(bogus=1), "$.bogus"),
            ("nlts", lambda d: d["rules"][0].update(bogus=1), "$.rules[0].bogus"),
            ("nlts", lambda d: d["rules"][0]["to"][0].update(bogus=1), "$.rules[0].to[0].bogus"),
            ("convex", lambda d: d.update(bogus=1), "$.bogus"),
            ("signature", lambda d: d.update(bogus=1), "$.bogus"),
            ("signature", lambda d: d["ops"][1].update(bogus=1), "$.ops[1].bogus"),
            ("structure", lambda d: d.update(bogus=1), "$.bogus"),
            ("structure", lambda d: d["args"][0].update(bogus=1), "$.args[0].bogus"),
        ],
        ids=["set-coalgebra", "nlts", "nlts-rule", "nlts-template", "convex", "signature", "signature-op",
             "structure", "structure-arg"],
    )
    def test_unknown_key_is_refused(self, tmp_path, capsys, kind, mutate, path):
        signature = signature_to_json(Signature((("z", 0), ("s", 1))))
        sig = write(tmp_path, "sig.json", signature)
        doc = {
            "set-coalgebra": coalgebra_to_json(build_chain()),
            "nlts": nlts_to_json(build_nominal_two_label()),
            "convex": convex_to_json(build_convex_self_loop()),
            "signature": signature,
            "structure": {"op": "s", "args": [{"op": "z"}]},
        }[kind]
        mutate(doc)
        file = write(tmp_path, "bad.json", doc)
        argv = {
            "signature": ["check-5.2", "--sig", file],
            "structure": ["realize", "--sig", sig, "--structure", file],
        }.get(kind, ["check-wf", file])
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {path}: unknown field\n")



class TestLimits:
    """Inputs beyond a size limit are input errors, reported before
    anything is printed."""

    def assert_input_error(self, capsys, message):
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_fold_term_nested_too_deeply_to_print(self, tmp_path, capsys, fmt):
        states = [f"s{i}" for i in range(400)]
        structure = {x: {"set": [{"state": y}]} for x, y in zip(states, states[1:])}
        structure[states[-1]] = {"set": []}
        doc = {"version": 1, "kind": "set-coalgebra", "functor": {"finpow": {"id": None}},
               "states": states, "structure": structure}
        path = write(tmp_path, "chain.json", doc)
        assert main(["fold", path, "--algebra", "term", "--format", fmt]) == 3
        self.assert_input_error(capsys, f"error: {path}: an unfolding is nested too deeply to print")

    @pytest.mark.parametrize(
        "coefficient, message",
        [("1e-5000", "coefficient has more than 4300 digits"),
         ("1e-4000000", "decimal exponent has more than 4 digits")],
    )
    def test_oversized_convex_coefficient(self, tmp_path, capsys, coefficient, message):
        doc = {"version": 1, "kind": "convex", "generators": 1, "successors": [[[coefficient]]]}
        path = write(tmp_path, "big.json", doc)
        start = time.perf_counter()
        assert main(["check-wf", path]) == 3
        assert time.perf_counter() - start < 0.5
        self.assert_input_error(capsys, f"$.successors[0][0]: a {message}")

    @pytest.mark.parametrize(
        "coefficient, message",
        [("1e-5000", "a coefficient has more than 4300 digits"),
         ("1e-4000000", "a decimal exponent has more than 4 digits"),
         ("x", "bad rational")],
    )
    @pytest.mark.parametrize(
        "successors, where",
        [([[["1", "0"], ["1/2", "1/2"], ["C", "1"]], [["0", "1"]]], "[0][2]"),
         ([[["1", "0"], ["1/2", "1/2"]], [["0", "1"], ["1", "C"]]], "[1][1]"),
         # the bad string repeats: it is reported where it first appears
         ([[["0", "1"], ["1/2", "1/2"]], [["1/2", "C"], ["C", "C"]]], "[1][0]")],
    )
    def test_oversized_convex_coefficient_after_cached_strings(
        self, tmp_path, capsys, coefficient, message, successors, where
    ):
        # each distinct string is parsed once; the screens still see a
        # string first met after other vertices have been decoded
        successors = [[[coefficient if c == "C" else c for c in v] for v in p] for p in successors]
        doc = {"version": 1, "kind": "convex", "generators": 2, "successors": successors}
        path = write(tmp_path, "big.json", doc)
        start = time.perf_counter()
        assert main(["check-wf", path]) == 3
        assert time.perf_counter() - start < 0.5
        self.assert_input_error(capsys, f"$.successors{where}: {message}")

    def signature(self, tmp_path, *ops):
        doc = {"version": 1, "kind": "signature", "ops": [{"name": n, "arity": a} for n, a in ops]}
        return write(tmp_path, "sig.json", doc)

    def test_huge_arity_in_check_52(self, tmp_path, capsys):
        sig = self.signature(tmp_path, ("z", 0), ("w", 10**30))
        assert main(["check-5.2", "--sig", sig]) == 3
        self.assert_input_error(capsys, "arities add up to 1000000000000000000000000000000, above the limit")

    def test_huge_arity_declared_in_realize(self, tmp_path, capsys):
        sig = self.signature(tmp_path, ("z", 0), ("s", 1), ("w", 10**30))
        structure = write(tmp_path, "st.json", {"op": "s", "args": ["z"]})
        assert main(["realize", "--sig", sig, "--structure", structure]) == 3
        self.assert_input_error(capsys, "add up to 1000000000000000000000000000001, above the limit of 200000")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_signature_of_400_symbols(self, tmp_path, capsys, fmt):
        # the functor nests one sum per symbol
        sig = self.signature(tmp_path, *[(f"c{i}", 0) for i in range(399)], ("s", 1))
        structure = write(tmp_path, "st.json", {"op": "s", "args": ["c0"]})
        assert main(["check-5.2", "--sig", sig, "--depth", "1", "--format", fmt]) == 0
        assert main(["realize", "--sig", sig, "--structure", structure, "--format", fmt]) == 0

    @pytest.mark.parametrize("command", ["check-5.2", "realize"])
    def test_signature_of_401_symbols(self, tmp_path, capsys, command):
        sig = self.signature(tmp_path, *[(f"c{i}", 0) for i in range(400)], ("s", 1))
        structure = write(tmp_path, "st.json", {"op": "s", "args": ["c0"]})
        argv = ["check-5.2", "--sig", sig] if command == "check-5.2" else ["realize", "--sig", sig, "--structure", structure]
        assert main(argv) == 3
        self.assert_input_error(capsys, "the signature has 401 symbols, above the limit of 400")

    def test_wide_op_is_counted_before_it_is_built(self, tmp_path, capsys):
        sig = self.signature(tmp_path, ("z", 0), ("y", 0), ("w", 1000))
        assert main(["check-5.2", "--sig", sig, "--depth", "1"]) == 3
        self.assert_input_error(capsys, "term enumeration exceeded 200000 terms at depth 1")


# the options each command takes
COMMAND_OPTIONS = {
    "check-wf": {"--format"},
    "koenig": {"--format", "--budget", "--state"},
    "fold": {"--format", "--algebra"},
    "realize": {"--format", "--sig", "--structure"},
    "check-5.2": {"--format", "--depth", "--sig"},
    "gallery": set(),
    "export-dot": set(),
}


class TestUsage:
    def test_each_command_takes_only_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        taken = {
            name: {o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
            for name, p in sub.choices.items()
        }
        assert taken == COMMAND_OPTIONS

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-wf", "gallery:chain", "--budget", "5"],
            ["wf-part", "gallery:chain"],
            ["gallery", "chain", "--seed", "1"],
            ["export-dot", "gallery:chain", "--format", "json"],
            ["koenig", "gallery:chain"],
            ["koenig", "gallery:chain", "--state", "a", "--budget", "0"],
            ["check-5.2", "--sig", "s.json", "--depth", "-1"],
            ["gallery", "chain", "--length", "x"],
            ["gallery", "chain", "--format", "json"],
            [],
        ],
        ids=lambda argv: " ".join(argv) or "no-command",
    )
    def test_usage_error_exits_three(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: coalg")
        assert "Traceback" not in err

    def test_usage_error_exits_three_from_the_console(self, chain_file):
        proc = run_cli(["check-wf", chain_file, "--budget", "5"], capture_output=True, text=True)
        assert proc.returncode == 3
        assert "unrecognized arguments: --budget 5" in proc.stderr


# run one command and write its exit code and the coalg.* modules whose code
# ran; a module that coalg.cli binds lazily has not run while its type is
# still the lazy subclass of the module type
MODULES_RUN = """
import json, sys, types
from coalg.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
ran = [n[6:] for n, m in sys.modules.items() if n.startswith("coalg.") and type(m) is types.ModuleType]
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump([code, sorted(ran)], fh)
"""
SET_SYSTEM = ["cli", "coalgebras", "containers", "errors", "fixpoint", "records", "wellfounded"]
NOMINAL = ["cli", "errors", "fixpoint", "nominal", "records"]
CONVEX = ["cli", "convex", "errors", "fixpoint", "records"]
TERMS = sorted(SET_SYSTEM + ["initial_algebra"])


def with_gallery(modules):
    return sorted(modules + ["gallery"])


# each command's exit code and the modules it runs, on the inputs of
# TestEachCommandRunsItsBackEnd.files
MODULES_BY_COMMAND = {
    "check-wf set": (0, SET_SYSTEM),
    "koenig set --state a": (0, SET_SYSTEM),
    "fold set": (0, SET_SYSTEM),
    "export-dot set": (0, [m for m in SET_SYSTEM if m != "wellfounded"]),
    "check-wf nlts": (0, NOMINAL),
    "koenig nlts --state l0[0]": (0, NOMINAL),
    "fold nlts": (3, NOMINAL),
    "export-dot nlts": (0, NOMINAL),
    "check-wf convex": (1, CONVEX),
    "koenig convex --state 0": (1, CONVEX),
    "fold convex": (3, CONVEX),
    "export-dot convex": (3, CONVEX),
    "check-5.2 --sig sig": (0, TERMS),
    "realize --sig sig --structure structure": (0, TERMS),
    "check-wf gallery:chain": (0, with_gallery(SET_SYSTEM)),
    "koenig gallery:example-3.11 --state 1 --budget 100": (2, with_gallery(SET_SYSTEM)),
    "check-wf gallery:nominal-two-label": (0, with_gallery(NOMINAL)),
    "check-wf gallery:convex-rank2": (0, with_gallery(CONVEX)),
    "gallery all": (0, sorted(set(TERMS + NOMINAL + CONVEX + ["gallery"]))),
    "gallery list": (0, ["cli", "errors", "gallery", "records"]),
    "check-wf": (3, ["cli", "errors"]),
}


class TestEachCommandRunsItsBackEnd:
    """A command runs the modules of the one back-end it uses, and no other."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("inputs")
        return {
            "set": write(tmp_path, "chain.json", coalgebra_to_json(build_chain())),
            "nlts": write(tmp_path, "two.json", nlts_to_json(build_nominal_two_label())),
            "convex": write(tmp_path, "loop.json", convex_to_json(build_convex_self_loop())),
            "sig": write(tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1))))),
            "structure": write(tmp_path, "structure.json", {"op": "s", "args": ["z"]}),
        }

    @pytest.mark.parametrize("command", MODULES_BY_COMMAND)
    def test_modules_run(self, command, files, tmp_path):
        out = tmp_path / "modules.json"
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        subprocess.run(
            [sys.executable, "-c", MODULES_RUN, str(out), *(files.get(a, a) for a in command.split())],
            env=env, capture_output=True, timeout=300, check=True,
        )
        assert json.loads(out.read_text(encoding="utf-8")) == list(MODULES_BY_COMMAND[command])


class TestCollectorPause:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_paused_during_the_run(self, monkeypatch, collecting, capsys):
        seen = []
        monkeypatch.setattr("coalg.cli.cmd_gallery", lambda name: seen.append(gc.isenabled()) or 0)
        assert main(["gallery", "list"]) == 0
        assert seen == [False]

    @pytest.mark.parametrize("argv, code", [(["gallery", "chain"], 0), (["check-wf", "gallery:nope"], 3)])
    def test_state_restored(self, collecting, capsys, argv, code):
        assert main(argv) == code
        assert gc.isenabled() == collecting

    def test_state_restored_after_a_usage_error(self, collecting, capsys):
        with pytest.raises(SystemExit):
            main(["check-wf"])
        assert gc.isenabled() == collecting


class TestGallery:
    def test_all_is_deterministic_and_green(self, capsys):
        assert main(["gallery", "all"]) == 0
        first = capsys.readouterr().out
        assert main(["gallery", "all"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "MISMATCH" not in first

    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_exit_codes_match_verdicts(self, name, capsys):
        assert main(["gallery", name]) == GALLERY[name].expected_exit
        capsys.readouterr()

    def test_console_script_runs(self):
        proc = run_cli(["gallery", "chain"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wellFounded" in proc.stdout


class TestDeepJson:
    """JSON nested beyond the decoder's recursion limit is an input error,
    in every command that reads a file."""

    @pytest.fixture
    def deep_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
        return str(path)

    def assert_names_the_limit(self, capsys):
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert str(sys.getrecursionlimit()) in err

    @pytest.mark.parametrize("command", ["check-wf", "fold", "export-dot"])
    def test_input_file(self, command, deep_file, capsys):
        assert main([command, deep_file]) == 3
        self.assert_names_the_limit(capsys)

    def test_realize_structure_file(self, tmp_path, capsys):
        sig = write(tmp_path, "sig.json", signature_to_json(Signature((("z", 0), ("s", 1)))))
        structure = tmp_path / "structure.json"
        structure.write_text(
            '{"op": "s", "args": [' * 3000 + '"z"' + "]}" * 3000, encoding="utf-8"
        )
        assert main(["realize", "--sig", sig, "--structure", str(structure)]) == 3
        self.assert_names_the_limit(capsys)


def finpow_system(edges):
    return {
        "version": 1, "kind": "set-coalgebra", "functor": {"finpow": {"id": None}}, "states": list(edges),
        "structure": {x: {"set": [{"state": y} for y in out]} for x, out in edges.items()},
    }


# x -> (y, z) with y, z -> *: y and z both fold to 0 under count, so the
# pair collapses to * and x folds to 0, not to the 1 of its two successors
COLLAPSING_PAIR = {
    "version": 1, "kind": "set-coalgebra", "functor": {"pairneq": None}, "states": ["x", "y", "z"],
    "structure": {"x": {"pair": [{"state": "y"}, {"state": "z"}]}, "y": {"star": None}, "z": {"star": None}},
}


def interpreting(make):
    """A built-in algebra factory whose algebras have no successor eval, so
    that solve_recursion interprets every shape."""
    return lambda c: Algebra(c, make(c).eval_fn, make(c).name)


class TestVerdictsReadTheGraph:
    """check-wf, koenig and export-dot load a set-coalgebra file as its
    canonical graph, with no structure value built; so do fold --algebra
    count and induction over a functor with no pairneq node.  The other
    folds build them.  A probe of the lazy integer ladder builds none
    either: it reads the ladder's successor rule."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = Counter()
        for cls in (StateRef, SetOf, Pair):
            def counted(self, *args, init=cls.__init__, name=cls.__name__):
                made[name] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        return made

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check-wf", "dag", "--format", "json"], 0),
            (["check-wf", "dag", "ring", "--format", "text"], 1),
            (["koenig", "dag", "--state", "s0", "--format", "json"], 0),
            (["koenig", "dag", "--state", "s0", "--budget", "2", "--format", "text"], 2),
            (["koenig", "dag", "--state", "ghost", "--format", "json"], 3),
            (["koenig", "ring", "--state", "r0", "--format", "text"], 1),
            (["export-dot", "ring"], 0),
        ],
    )
    def test_verdicts_build_no_structure_value(self, argv, code, made, tmp_path, capsys):
        files = {
            "dag": write(tmp_path, "dag.json", finpow_system({"s0": ["s1", "s2"], "s1": ["s3"], "s2": ["s3"], "s3": []})),
            "ring": write(tmp_path, "ring.json", finpow_system({"r0": ["r1"], "r1": ["r0", "r2"], "r2": []})),
        }
        assert main([files.get(a, a) for a in argv]) == code
        assert capsys.readouterr().out or code in (1, 3)
        assert made == {}

    def test_ladder_probe_builds_no_structure_value(self, made, capsys):
        assert main(["koenig", "gallery:example-3.11", "--state", "1", "--budget", "1000"]) == 2
        assert "budget exhausted after visiting 1000 states" in capsys.readouterr().out
        assert made == {}

    @pytest.fixture
    def interpreted(self, monkeypatch):
        import coalg.wellfounded as wellfounded

        shapes = []
        interpret = wellfounded.interpret
        monkeypatch.setattr(wellfounded, "interpret", lambda *args: shapes.append(args) or interpret(*args))
        return shapes

    def dag(self, tmp_path):
        return write(tmp_path, "dag.json", finpow_system({"s0": ["s1", "s2"], "s1": ["s2"], "s2": []}))

    def test_fold_builds_them(self, made, interpreted, tmp_path, capsys):
        assert main(["fold", self.dag(tmp_path), "--algebra", "term"]) == 0
        assert made == {"StateRef": 2, "SetOf": 3}  # one StateRef per name referenced
        assert len(interpreted) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "algebra, out",
        [("count", "s0 = 2\ns1 = 1\ns2 = 0\n"), ("induction", "s0 = 1\ns1 = 1\ns2 = 1\n")],
        ids=["count", "induction"],
    )
    def test_count_and_induction_fold_the_graph(self, algebra, out, made, interpreted, tmp_path, capsys):
        assert main(["fold", self.dag(tmp_path), "--algebra", algebra]) == 0
        assert capsys.readouterr().out == out
        assert made == {}
        assert interpreted == []

    def test_fold_over_pairneq_interprets_the_collapsed_pair(self, made, interpreted, tmp_path, capsys):
        path = write(tmp_path, "pair.json", COLLAPSING_PAIR)
        assert main(["fold", path, "--algebra", "count"]) == 0
        assert capsys.readouterr().out == "x = 0\ny = 0\nz = 0\n"
        assert made == {"StateRef": 2, "Pair": 1}
        assert len(interpreted) == 3

    def test_only_fold_decodes_structure_values(self):
        """load_input decodes values where its test of the functor holds,
        and only fold passes one."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        users = {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "load_input" and len(node.args) > 1
        }
        assert users == {"cmd_fold"}
        # and load_input hands the test on to both readers
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) in
                 ("coalgebra_from_json", "system_from_text")]
        assert [ast.unparse(call.args[1]) for call in calls] == ["reads_values", "reads_values"]

    def test_verdicts_match_the_full_decode(self, tmp_path, monkeypatch, capsys):
        """Every verdict command, and fold with each built-in algebra, gives
        the output and exit code it gives when the file is decoded to its
        full system and every shape is interpreted, also on malformed
        files."""
        load_input, system_from_text, rng = cli.load_input, coalgebras.system_from_text, rng_for(1818)
        layout_rng, bailed = rng_for(1819), Counter()

        def streamed(text, full):
            system = system_from_text(text, full)
            bailed[system is None] += 1
            return system

        def full_decode(path, reads_values=None):
            return load_input(path, lambda container: True)

        # (module, attribute, value) per way; the second reads every file
        # whole, with json.loads, and decodes it in full
        ways = [
            [(cli, "load_input", load_input), (coalgebras, "system_from_text", streamed),
             (coalgebras, "count_algebra", count_algebra), (coalgebras, "induction_algebra", induction_algebra)],
            [(cli, "load_input", full_decode), (coalgebras, "system_from_text", lambda text, full: None),
             (coalgebras, "count_algebra", interpreting(count_algebra)),
             (coalgebras, "induction_algebra", interpreting(induction_algebra))],
        ]

        codes = Counter()
        for k in range(48):
            system = (random_coalgebra if k % 2 else random_wf_coalgebra)(rng, 8, depth=3)
            doc = coalgebra_to_json(system)
            if k % 3 == 2:
                x = rng.choice(system.states)
                doc["structure"][x] = malformed(rng, doc["structure"][x], list(system.states))
            # as written, indented, or indented with the top-level keys
            # shuffled, so that a file is streamed or read whole
            layout = (k // 3) % 3
            if layout == 2:
                doc = dict(layout_rng.sample(list(doc.items()), len(doc)))
            path = tmp_path / "system.json"
            path.write_text(json.dumps(doc, indent=2 if layout else None), encoding="utf-8")
            path = str(path)
            state = rng.choice(system.states)
            runs = [["export-dot", path]] + [
                argv + ["--format", fmt]
                for fmt in ("json", "text")
                for argv in (
                    ["check-wf", path],
                    ["koenig", path, "--state", state],
                    ["koenig", path, "--state", state, "--budget", "2"],
                    ["koenig", path, "--state", "ghost"],
                    ["fold", path, "--algebra", "count"],
                    ["fold", path, "--algebra", "induction"],
                    ["fold", path, "--algebra", "term"],
                )
            ]
            for argv in runs:
                outputs = []
                for way in ways:
                    for module, name, value in way:
                        monkeypatch.setattr(module, name, value)
                    code = main(argv)
                    outputs.append((*capsys.readouterr(), code))
                assert outputs[0] == outputs[1], argv
                codes[outputs[0][2]] += 1
        assert min(codes[c] for c in range(4)) >= 10  # every exit code, each many times
        assert min(bailed.values()) >= 100, bailed  # files streamed, and files read whole


CHAIN_DOC = finpow_system({"a": ["b"], "b": ["c"], "c": []})
CHAIN_TEXT = json.dumps(CHAIN_DOC)
# the structure object as written, and each entry in it
CHAIN_STRUCTURE = json.dumps(CHAIN_DOC["structure"])
ENTRY = {x: json.dumps(v) for x, v in CHAIN_DOC["structure"].items()}


def _with_structure(text):
    return CHAIN_TEXT.replace(CHAIN_STRUCTURE, text)


def _nested(n, leaf='{"state": "c"}'):
    """A value of finpow(id) n sets deep, written out, as json.dumps would
    refuse to nest it."""
    return '{"set": [' * n + leaf + "]}" * n


# document -> (its text, whether the streaming reader takes it)
CRAFTED = {
    "indented": (json.dumps(CHAIN_DOC, indent=2), True),
    "tabs and CRLF": (json.dumps(CHAIN_DOC, indent="\t").replace("\n", "\r\n"), True),
    "kind first": (json.dumps({"kind": "set-coalgebra", **CHAIN_DOC}), True),
    "escaped state key": (CHAIN_TEXT.replace('{"a": {', '{"\\u0061": {'), True),
    "empty carrier": (json.dumps({**CHAIN_DOC, "states": [], "structure": {}}), True),
    "repeated entry, the first malformed": (_with_structure(CHAIN_STRUCTURE.replace("{", '{"a": {"set": 5}, ', 1)), False),
    "repeated structure": (CHAIN_TEXT[:-1] + f', "structure": {CHAIN_STRUCTURE}}}', False),
    "structure before states": (json.dumps(dict(sorted(CHAIN_DOC.items(), key=lambda kv: kv[0] != "structure"))), False),
    "sorted keys": (json.dumps(CHAIN_DOC, sort_keys=True), False),
    "bogus after structure": (json.dumps({**CHAIN_DOC, "bogus": 1}), False),
    "bad entry, then a syntax error": (
        _with_structure(CHAIN_STRUCTURE.replace(ENTRY["a"], '{"set": [{"state": "z"}]}'))[:-1] + ",}", False
    ),
    "BOM": ("\ufeff" + CHAIN_TEXT, False),
    "trailing data": (CHAIN_TEXT + " []", False),
    "missing entry": (json.dumps({**CHAIN_DOC, "structure": {"a": CHAIN_DOC["structure"]["a"]}}), False),
    "entry nested 5000 deep": (_with_structure(CHAIN_STRUCTURE.replace(ENTRY["a"], _nested(5000))), False),
    "NaN entry": (_with_structure(CHAIN_STRUCTURE.replace(ENTRY["c"], "NaN")), False),
}


class TestStreamedRead:
    """A set-coalgebra file is read one structure entry at a time where its
    layout allows, and whole otherwise: every command gives the output,
    error and exit code of reading it whole with json.loads."""

    RUNS = [["export-dot"]] + [
        argv + ["--format", fmt]
        for fmt in ("json", "text")
        for argv in (["check-wf"], ["koenig", "--state", "a"], ["fold", "--algebra", "count"], ["fold", "--algebra", "term"])
    ]

    @staticmethod
    def run(argv, capsys, whole=False):
        """(exit code, stdout, stderr) of ``argv``, reading its file whole
        with json.loads if ``whole``."""
        with pytest.MonkeyPatch.context() as patch:
            if whole:
                patch.setattr(coalgebras, "system_from_text", lambda text, full: None)
            return main(argv), *capsys.readouterr()

    def outputs(self, path, capsys, runs):
        """Each run's outputs as the file is read, and as it is read whole."""
        return [[self.run([argv[0], path, *argv[1:]], capsys, whole) for argv in runs] for whole in (False, True)]

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_documents(self, name, tmp_path, capsys):
        text, streams = CRAFTED[name]
        assert (coalgebras.system_from_text(text, lambda container: False) is not None) == streams
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        streamed, whole = self.outputs(str(path), capsys, self.RUNS)
        assert streamed == whole

    def test_depths_that_json_loads_refuses_are_refused(self, tmp_path, capsys):
        """json.loads meets an entry some frames deeper than the reader:
        the reader still takes no entry that json.loads finds too deep."""

        def document(n):
            functor = '{"id": null}'
            for _ in range(n):
                functor = '{"finpow": ' + functor + "}"
            structure = "{" + ", ".join(f'"{x}": {_nested(n)}' for x in "abc") + "}"
            text = CHAIN_TEXT.replace(json.dumps(CHAIN_DOC["functor"]), functor).replace(CHAIN_STRUCTURE, structure)
            path = tmp_path / f"deep{n}.json"
            path.write_text(text, encoding="utf-8")
            return str(path)

        def refused(n):  # by json.loads, here
            code, _, err = self.run(["check-wf", document(n)], capsys, whole=True)
            return code == 3 and "nested too deeply" in err

        low, high = 1, 1000  # refused(high), and not refused(low)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if refused(mid) else (mid, high)
        for n in range(high - 8, high + 3):
            streamed, whole = self.outputs(document(n), capsys, [["check-wf"]])
            assert streamed == whole, n

    def test_memory_is_the_text_and_the_graph(self, tmp_path):
        """The streamed read of a 20 000-state file peaks below a third of
        json.loads alone on its text."""
        names = state_names(20_000)
        doc = finpow_system({x: names[i + 1 : i + 4] for i, x in enumerate(names)})
        path = write(tmp_path, "dag.json", doc)
        text = Path(path).read_text(encoding="utf-8")
        del doc

        def peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert cli.load_input(path)[1]._out[0] == (1, 2, 3)  # and the walk is compiled
        streamed, whole = peak(lambda: cli.load_input(path)), peak(lambda: json.loads(text))
        assert streamed * 3 < whole, (streamed, whole)

    def test_json_loads_runs_only_where_the_reader_bails(self, tmp_path, monkeypatch, capsys):
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(args) or loads(*args, **kwargs))
        good = write(tmp_path, "good.json", CHAIN_DOC)
        bad = write(tmp_path, "bad.json", {**CHAIN_DOC, "structure": {"a": CHAIN_DOC["structure"]["a"]}})
        assert main(["check-wf", good]) == 0
        assert main(["fold", good, "--algebra", "term"]) == 0
        assert len(calls) == 0
        assert main(["check-wf", bad]) == 3
        assert len(calls) == 1
        capsys.readouterr()


class TestClosedStdout:
    """A reader that closes the pipe early (``coalg ... | head``) leaves the
    exit code as the verdict, with nothing on stderr."""

    def run_into_closed_pipe(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return run_cli(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)

    def test_check_wf_on_a_large_dag(self, tmp_path):
        n = 20_000
        structure = {
            f"s{i}": {"set": [{"state": f"s{j}"} for j in (i - 2, i - 1) if j >= 0]}
            for i in range(n)
        }
        dag = write(tmp_path, "dag.json", {
            "version": 1,
            "kind": "set-coalgebra",
            "functor": {"finpow": {"id": None}},
            "states": list(structure),
            "structure": structure,
        })
        proc = self.run_into_closed_pipe(["check-wf", dag, "--format", "json"])
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_gallery_all(self):
        proc = self.run_into_closed_pipe(["gallery", "all"])
        assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("name", ["all", "list"])
def test_gallery_output_is_golden(name):
    proc = run_cli(["gallery", name], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / f"gallery_{name}.txt").read_bytes()


FOLD_GOLDEN = json.loads((GOLDEN / "fold.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(FOLD_GOLDEN))
def test_fold_output_is_golden(case, capsys):
    # keys are "<gallery entry> <algebra> <format>"
    name, algebra, fmt = case.split()
    code = main(["fold", f"gallery:{name}", "--algebra", algebra, "--format", fmt])
    out, err = capsys.readouterr()
    assert (out, err, code) == tuple(FOLD_GOLDEN[case][k] for k in ("stdout", "stderr", "exit"))


# (signature, --structure document) per case; tests/golden/realize.json holds
# each case's output in both formats
REALIZE_INPUTS = {
    "unary-string": ((("z", 0), ("s", 1)), {"op": "s", "args": ["s(s(z))"]}),
    "unary-nested": (
        (("z", 0), ("s", 1)),
        {"op": "s", "args": [{"op": "s", "args": [{"op": "z", "args": []}]}]},
    ),
    "binary-string": ((("leaf", 0), ("node", 2)), {"op": "node", "args": ["node(leaf,leaf)", "leaf"]}),
    "binary-nested": (
        (("leaf", 0), ("node", 2)),
        {"op": "node", "args": [{"op": "node", "args": ["leaf", "node(leaf,leaf)"]}, "leaf"]},
    ),
    "mixed-nested": (
        (("a", 0), ("b", 0), ("f", 1), ("g", 2), ("h", 3)),
        {"op": "h", "args": [{"op": "f", "args": ["g(a,b)"]}, "b", {"op": "g", "args": ["f(a)", "a"]}]},
    ),
}
REALIZE_GOLDEN = json.loads((GOLDEN / "realize.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(REALIZE_GOLDEN))
def test_realize_output_is_golden(case, tmp_path, capsys):
    # keys are "<input name> <format>"
    name, fmt = case.split()
    ops, structure = REALIZE_INPUTS[name]
    sig = write(tmp_path, "sig.json", signature_to_json(Signature(ops)))
    structure = write(tmp_path, "structure.json", structure)
    code = main(["realize", "--sig", sig, "--structure", structure, "--format", fmt])
    out, err = capsys.readouterr()
    assert (out, err, code) == tuple(REALIZE_GOLDEN[case][k] for k in ("stdout", "stderr", "exit"))
