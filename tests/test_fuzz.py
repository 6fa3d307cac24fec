"""Mutation fuzzing of the command line: the JSON documents of the gallery
fixtures, with up to three sub-values replaced by generated JSON values,
go through every command in both formats.  Each run must end in an exit
code of the contract (0 to 3) with no exception escaping ``main``.  The
examples are derandomized, so every run tries the same documents."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalg.cli import main
from coalg.coalgebras import coalgebra_to_json
from coalg.gallery import GALLERY, TERM_CHAIN_SIGNATURE

from genutil import convex_to_json, nlts_to_json, signature_to_json

ENCODERS = {"set-coalgebra": coalgebra_to_json, "nlts": nlts_to_json, "convex": convex_to_json}
DOCUMENTS = [
    ENCODERS[entry.kind](entry.build()) for entry in GALLERY.values() if entry.kind in ENCODERS
] + [signature_to_json(TERM_CHAIN_SIGNATURE)]
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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
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
    commands = [
        ["check-wf", path],
        ["koenig", path, f"--state={state}"],
        ["fold", path, "--algebra", "count"],
        ["fold", path, "--algebra", "term"],
        ["check-5.2", "--sig", path, "--depth", "2"],
        ["realize", "--sig", path, "--structure", str(work / "structure.json")],
    ]
    for argv in commands:
        for fmt in ("json", "text"):
            assert run([*argv, "--format", fmt]) in (0, 1, 2, 3), argv
    assert run(["export-dot", path]) in (0, 1, 2, 3)
