"""The benchmark tracer (perfbench/trace_cmd.py) wraps calls of the package
by name; a command run under it must still work and record only the spans
it declares."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "trace_cmd.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("trace_cmd", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gallery_all_runs_traced(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "gallery", "all"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text(encoding="utf-8"))
    assert recorded["spans"]
    assert set(recorded["names"]) <= set(load_tracer().SPAN_NAMES)
