"""Re-measure the baseline rows of ROADMAP.md, by phase.

Usage, from the root of a source tree that holds ``src/coalg``:

    python3 perfbench/baseline.py

Rows: ``check-wf`` on a 100k-state ``finpow(id)`` chain, ``check-wf`` on a
convex generator chain (n=200) and on a nominal label chain (n=2000), and
``check-5.2`` on a unary signature at depth 100.  Each row runs untraced
for the end-to-end time and traced for the self time of each layer; the
figures are medians over ``REPEATS`` runs.
"""

from __future__ import annotations

import os
import statistics
import sys

import gen
import workloads
from run import ENTRY, HERE, WORK_DIR, run_command, self_times

REPEATS = 3


def chain_doc(n: int) -> dict:
    names = [f"c{i}" for i in range(n)]
    structure = {x: {"set": [{"state": names[i + 1]}] if i + 1 < n else []} for i, x in enumerate(names)}
    return {"version": 1, "kind": "set-coalgebra", "functor": {"finpow": {"id": None}},
            "states": names, "structure": structure}


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coalg", "cli.py")):
        print("error: run from the root of a coalg source tree", file=sys.stderr)
        return 2
    work = os.path.join(WORK_DIR, "baseline")
    os.makedirs(work, exist_ok=True)

    def w(name: str, doc) -> str:
        return workloads.write_json(work, name, doc)

    rows = [
        ("check-wf, 100k-state chain", ["check-wf", w("chain.json", chain_doc(100_000)), "--format", "json"]),
        ("check-wf, convex chain n=200", ["check-wf", w("convex.json", gen.convex_chain(1)[0]), "--format", "json"]),
        ("check-wf, nominal chain n=2000", ["check-wf", w("nominal.json", gen.nominal_chain(1)[0]), "--format", "json"]),
        ("check-5.2, unary depth 100",
         ["check-5.2", "--sig", w("sig.json", gen.signature_doc([("z", 0), ("s", 1)])), "--depth", "100", "--format", "json"]),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    out, err, spans = (os.path.join(work, f) for f in ("out", "err", "spans.json"))
    for label, cmd in rows:
        walls, layers = [], {}
        for _ in range(REPEATS):
            walls.append(run_command([sys.executable, "-c", ENTRY, *cmd], root, env, out, err, 300)[0])
            run_command([sys.executable, os.path.join(HERE, "trace_cmd.py"), spans, *cmd], root, env, out, err, 300)
            for name, t in self_times(spans).items():
                layers.setdefault(name, []).append(t)
        phases = sorted(((statistics.median(v), k) for k, v in layers.items()), reverse=True)
        print(f"{label}: {statistics.median(walls):.3f} s end to end")
        print("    " + ", ".join(f"{k} {t:.3f}" for t, k in phases if t >= 0.005))
    return 0


if __name__ == "__main__":
    sys.exit(main())
