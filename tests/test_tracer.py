"""The benchmark tracer (perfbench/trace_cmd.py) wraps calls of the package
by name; a command run under it must still work and record only the spans
it declares."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coalg.coalgebras import coalgebra_to_json
from coalg.gallery import build_chain, build_nominal_fresh_loop

from genutil import nlts_to_json

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "trace_cmd.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("trace_cmd", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_traced(tmp_path, argv):
    """The exit code of ``argv`` run under the tracer, and its spans."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, json.loads(spans.read_text(encoding="utf-8"))


def test_gallery_all_runs_traced(tmp_path):
    code, recorded = run_traced(tmp_path, ["gallery", "all"])
    assert code == 0
    assert recorded["spans"]
    assert set(recorded["names"]) <= set(load_tracer().SPAN_NAMES)


# the command line binds each back-end lazily; under the tracer they run
# when it wraps their calls, and the verdict is unchanged
@pytest.mark.parametrize(
    "command, system, code",
    [
        ("check-wf", nlts_to_json(build_nominal_fresh_loop()), 1),
        ("fold", coalgebra_to_json(build_chain()), 0),
    ],
    ids=["check-wf-nlts", "fold-set-coalgebra"],
)
def test_command_runs_traced(tmp_path, command, system, code):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(system), encoding="utf-8")
    traced_code, recorded = run_traced(tmp_path, [command, str(path)])
    assert traced_code == code
    assert "cli.load_input" in recorded["names"]
    assert set(recorded["names"]) <= set(load_tracer().SPAN_NAMES)
