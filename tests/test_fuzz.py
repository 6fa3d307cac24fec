"""Mutation fuzzing of the command line: the JSON documents of the gallery
fixtures, with up to three sub-values replaced by generated JSON values,
with a name no encoding writes or an integer too long to convert, and
deeply nested inputs go through every command in both formats.  Each run
must end in an exit code of the contract (0 to 3) with no exception
escaping ``main``; a fixture with an unknown key in one of its objects is
refused.  The examples are derandomized, so every run tries the same
documents."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalg.cli import main
from coalg.coalgebras import coalgebra_to_json
from coalg.gallery import GALLERY, TERM_CHAIN_SYMBOLS
from coalg.initial_algebra import Signature

from genutil import convex_to_json, nlts_to_json, signature_to_json

ENCODERS = {"set-coalgebra": coalgebra_to_json, "nlts": nlts_to_json, "convex": convex_to_json}
DOCUMENTS = [
    ENCODERS[entry.kind](entry.build()) for entry in GALLERY.values() if entry.kind in ENCODERS
] + [signature_to_json(Signature(TERM_CHAIN_SYMBOLS))]
STATES = ["a", "s", "root", "n0", "l0[0]", "l1[3]", "0"]
STRUCTURE = {"op": "s", "args": ["z"]}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def sub_values(doc, path=()):
    """The path of every sub-value of ``doc``, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from sub_values(value, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "structure.json").write_text(json.dumps(STRUCTURE), encoding="utf-8")
    return work


def run(argv) -> int:
    # stdout and stderr encode as a console's do: stdout strictly, stderr escaping
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        return main(argv)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_mutated_fixtures_keep_the_exit_code_contract(work, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(DOCUMENTS))))
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(list(sub_values(doc))))
        doc = replaced(doc, path, data.draw(JSON_VALUES))
    state = data.draw(st.sampled_from(STATES) | st.text(max_size=6))
    path = str(work / "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    run_every_command(path, str(work / "structure.json"), state)


def field_objects(doc, path=()):
    """The path of every object of ``doc`` whose keys are field names or a
    tag, not data such as an nlts ``labels`` map or a ``structure`` map."""
    if isinstance(doc, dict) and path[-1:] not in (("labels",), ("structure",), ("fun",)):
        yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from field_objects(value, path + (key,))


@pytest.mark.parametrize("doc", DOCUMENTS, ids=[f"{i}-{doc['kind']}" for i, doc in enumerate(DOCUMENTS)])
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_unknown_keys_are_refused(work, doc, data):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in data.draw(st.sampled_from(list(field_objects(doc)))):
        target = target[key]
    target[data.draw(st.text(max_size=6).filter(lambda key: key not in target))] = data.draw(JSON_VALUES)
    path = str(work / "unknown.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = ["check-5.2", "--sig", path] if doc["kind"] == "signature" else ["check-wf", path]
    for fmt in ("json", "text"):
        assert run([*argv, "--format", fmt]) == 3


# the name that each kind of fixture has first: a state, a label, an
# operation, or a coefficient
FIRST_NAME = {
    "set-coalgebra": lambda doc: doc["states"][0],
    "nlts": lambda doc: next(iter(doc["labels"])),
    "convex": lambda doc: doc["successors"][0][0][0],
    "signature": lambda doc: doc["ops"][0]["name"],
}


@pytest.mark.parametrize("doc", DOCUMENTS, ids=[f"{i}-{doc['kind']}" for i, doc in enumerate(DOCUMENTS)])
@pytest.mark.parametrize("swap", ["surrogate", "integer"])
def test_unwritable_names_and_unconvertible_integers(work, doc, swap):
    """Every fixture with its first name written as a lone surrogate, which
    no encoding writes, everywhere it occurs, or with a 5000-digit integer
    for its version; the structure document likewise."""
    text = json.dumps(doc)
    structure = {"op": "\ud800", "args": []} if swap == "surrogate" else {"op": "s", "args": ["z"], "n": 0}
    structure = json.dumps(structure)
    if swap == "surrogate":
        text = text.replace(json.dumps(FIRST_NAME[doc["kind"]](doc)), '"\\ud800"')
    else:
        text = text.replace('"version": 1', '"version": ' + "1" * 5000, 1)
        structure = structure.replace('"n": 0', '"n": ' + "1" * 5000)
    (work / "odd.json").write_text(text, encoding="utf-8")
    (work / "odd-structure.json").write_text(structure, encoding="utf-8")
    run_every_command(str(work / "odd.json"), str(work / "odd-structure.json"), "\ud800")


def run_every_command(path, structure, state):
    commands = [
        ["check-wf", path],
        ["koenig", path, f"--state={state}"],
        ["fold", path, "--algebra", "count"],
        ["fold", path, "--algebra", "term"],
        ["check-5.2", "--sig", path, "--depth", "2"],
        ["realize", "--sig", path, "--structure", structure],
    ]
    # Hypothesis raises the recursion limit while a test runs; the commands
    # run under the interpreter's default one, as the console's do
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for argv in commands:
            for fmt in ("json", "text"):
                assert run([*argv, "--format", fmt]) in (0, 1, 2, 3), argv
        assert run(["export-dot", path]) in (0, 1, 2, 3)
    finally:
        sys.setrecursionlimit(limit)


def nested(before, leaf, after, levels):
    # JSON or term text nested `levels` deep, built without recursion
    return before * levels + leaf + after * levels


def signature_text(ops):
    return json.dumps({"version": 1, "kind": "signature", "ops": [{"name": n, "arity": a} for n, a in ops]})


UNARY = signature_text([("z", 0), ("s", 1)])


def op_args(n):
    return UNARY, nested('{"op": "s", "args": [', '"z"', "]}", n)


def term_string(n):
    return UNARY, json.dumps({"op": "s", "args": [nested("s(", "z", ")", n)]})


def symbols(n, k):
    # n symbols: constants, with s/1 at position k
    ops = [(f"c{i}", 0) for i in range(n - 1)]
    ops.insert(k, ("s", 1))
    return signature_text(ops), json.dumps({"op": "s", "args": ["c0"]})


def system_text(levels, structure):
    functor = nested('{"finpow": ', '{"id": null}', "}", levels)
    return f'{{"version": 1, "kind": "set-coalgebra", "functor": {functor}, "states": ["a"], "structure": {{"a": {structure}}}}}'


def deep_container(n):
    return system_text(n, '{"set": []}'), "{}"


def deep_structure(n):
    return system_text(n, nested('{"set": [', '{"state": "a"}', "]}", n)), "{}"


# (input document, --structure document), each as JSON text
DEEP_INPUTS = st.one_of(
    # {op, args} documents, past json's limit from about 494 levels
    st.integers(300, 600).map(op_args),
    # term strings, past parse_term's limit from about 990 levels
    st.integers(300, 1500).map(term_string),
    # signatures around the 400-symbol limit
    st.builds(symbols, st.integers(300, 500), st.integers(0, 499)),
    # containers and structures up to and past json's limit
    st.integers(600, 1500).map(deep_container),
    st.integers(300, 750).map(deep_structure),
)


# the far end of each range, past its limit, is always tried
@example(case=op_args(600))
@example(case=term_string(1500))
@example(case=symbols(500, 499))
@example(case=deep_container(1500))
@example(case=deep_structure(750))
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(case=DEEP_INPUTS)
def test_deep_nesting_keeps_the_exit_code_contract(work, case):
    doc, structure = case
    (work / "deep.json").write_text(doc, encoding="utf-8")
    (work / "deep-structure.json").write_text(structure, encoding="utf-8")
    run_every_command(str(work / "deep.json"), str(work / "deep-structure.json"), "a")
