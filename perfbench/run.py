"""Benchmark of the ``coalg`` command-line tool.

Usage, from the root of a source tree that holds ``src/coalg``:

    python3 perfbench/run.py --workload sets-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A closed loop with one client: one ``coalg`` command at a time, each in a
fresh process (``sys.exit(main())``, as the installed entry point runs
it), over inputs generated from ``--seed``.  The run repeats whole passes
over the workload's command list, at least three, until ``--seconds``
have passed, and reports medians over the passes.  Every command's exit code and output
are checked without calling into ``coalg`` (see ``check.py``).

Times are reported at a fixed reference speed.  Through the run, the
benchmark times a fixed piece of pure-Python work (``reference_s``): once
before each set-up and once per started second of each command.  Every
time metric is the measured time scaled by ``REF_S`` over the run's median
reference time.  On the shared 2-CPU machine of the README's reference
figures, the speed one process sees drifted by up to 1.8x over minutes;
the scaling removes most of that drift from the figures.

With ``--trace 1`` the run alternates an untraced pass with a traced
pass, in which each command runs under ``trace_cmd.py`` with spans around
the public calls of each module; it reports the median self time of each
layer per pass and the tracing overhead (traced minus untraced pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import check
import gen
import workloads
from trace_cmd import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = "import sys; from coalg.cli import main; sys.exit(main())"
# set-up is timed in a slice of its own before the first pass: at least
# SETUP_MIN times and for at least SETUP_SLICE_S, and setup_s is the median
SETUP_MIN = 3
SETUP_SLICE_S = 0.5
# a run measures whole passes, at least MIN_PASSES of them, until --seconds
# have passed; medians over fewer passes would not reject one slow pass
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 150
# the reference work: generating, encoding, decoding and analysing a
# REF_STATES-state DAG, the kind of work the commands do.  REF_S is its
# median time on the 2-CPU machine of the README's reference figures.
REF_STATES = 6000
REF_S = 0.05
RUN_LIMIT_S = 175
WORK_DIR = ".perfbench_work"


@dataclass
class Outcome:
    wall: float
    rss_kib: int
    code: int
    stdout: str
    stderr: str
    spans_path: str


def run_command(argv, root, env, out_path, err_path, timeout) -> tuple[float, int, int]:
    """Run one process to its end through ``spawn.py``.

    Returns the wall time and peak RSS (KiB) that ``spawn.py`` measured
    around the process, and its exit code.
    """
    result_path = out_path + ".result.json"
    launcher = [sys.executable, os.path.join(HERE, "spawn.py"), result_path, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(launcher, cwd=root, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return float(timeout), 0, -signal.SIGKILL
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result["wall"], result["maxrss_kib"], result["code"]


def reference_s() -> float:
    """Time the fixed reference work once, with the collector off.

    The collector is off because its cost grows with this process's heap,
    which differs between workloads.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        doc, succ = gen.dag_system(0, n=REF_STATES)
        json.loads(json.dumps(doc))
        check.wf_part(succ)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(cmds, root, env, work, traced: bool, deadline: float, refs: list[float]) -> list[Outcome]:
    """Run the commands once each; after each, time the reference work once
    per started second of the command, so that the samples spread over the
    run like the commands' time does."""
    outcomes = []
    for i, cmd in enumerate(cmds):
        out_path = os.path.join(work, f"cmd{i}.out")
        err_path = os.path.join(work, f"cmd{i}.err")
        spans_path = os.path.join(work, f"cmd{i}.spans.json")
        if traced:
            if os.path.exists(spans_path):
                os.remove(spans_path)  # a command that dies early must not reuse old spans
            argv = [sys.executable, os.path.join(HERE, "trace_cmd.py"), spans_path, *cmd.args]
        else:
            argv = [sys.executable, "-c", ENTRY, *cmd.args]
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.perf_counter()))
        wall, rss, code = run_command(argv, root, env, out_path, err_path, timeout)
        refs.extend(reference_s() for _ in range(1 + int(wall)))
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        outcomes.append(Outcome(wall, rss, code, stdout, stderr, spans_path))
    return outcomes


class Judge:
    """Counts attempted and failed commands and checks outputs.

    A command fails when it does not reach its verdict: a wrong exit code
    or a Python traceback.  A command that reaches its verdict must pass
    its output check, or the run is not correct.  Outputs repeat byte for
    byte, so each distinct output is checked once.
    """

    def __init__(self, cmds):
        self.cmds = cmds
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.seen: dict[tuple, bool] = {}

    def judge(self, outcomes: list[Outcome]) -> None:
        for cmd, o in zip(self.cmds, outcomes):
            self.attempted += 1
            if o.code != cmd.expect or "Traceback (most recent call last)" in o.stderr:
                self.failed += 1
                if (cmd.name, "failed") not in self.seen:
                    self.seen[(cmd.name, "failed")] = True
                    last = o.stderr.strip().splitlines()[-1:] or [""]
                    note = f" (known fault: {cmd.known_fault})" if cmd.known_fault else ""
                    print(f"FAILED {cmd.name}: exit {o.code}, expected {cmd.expect}: {last[0][:200]}{note}")
                continue
            key = (cmd.name, o.code, hashlib.sha256((o.stdout + "\0" + o.stderr).encode()).digest())
            if key not in self.seen:
                problems = cmd.check(o.stdout, o.stderr)
                self.seen[key] = not problems
                for p in problems:
                    print(f"WRONG {cmd.name}: {p}")
            if not self.seen[key]:
                self.correct = False


def self_times(spans_path: str) -> dict[str, float]:
    """Self time per span name, in seconds: duration minus the children's durations."""
    try:
        with open(spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    names, spans = doc["names"], doc["spans"]
    own = [(end - start) / 1e9 for _, start, end, _ in spans]
    for k, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= (end - start) / 1e9
    out: dict[str, float] = {}
    for (k, _, _, _), t in zip(spans, own):
        out[names[k]] = out.get(names[k], 0.0) + t
    return out


def setup(name: str, seed: int, work: str, refs: list[float]) -> tuple[list, list[float]]:
    """Generate and write the inputs, SETUP_MIN times and for SETUP_SLICE_S at least."""
    times: list[float] = []
    while len(times) < SETUP_MIN or sum(times) < SETUP_SLICE_S:
        # the previous set-up's inputs are freed first: kept alive, they
        # slowed the next one by a third through the garbage collector
        cmds = None
        refs.append(reference_s())
        start = time.perf_counter()
        cmds = workloads.build(name, seed, work)
        times.append(time.perf_counter() - start)
    return cmds, times


def command_medians(passes: list[list], key) -> list[float]:
    """Per command, the median of ``key`` over the passes."""
    return [statistics.median(key(p[k]) for p in passes) for k in range(len(passes[0]))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = os.path.join(WORK_DIR, name)
    refs: list[float] = []
    cmds, setup_times = setup(name, seed, work, refs)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    # compile the package's bytecode before anything is timed
    subprocess.run([sys.executable, "-c", ENTRY, "gallery", "list"], cwd=root, env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=COMMAND_TIMEOUT_S)

    judge = Judge(cmds)
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    start = time.perf_counter()
    min_passes = 1 if trace else MIN_PASSES
    longest = 0.0
    while len(plain) < min_passes or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        if plain and began + longest > deadline:
            break  # another round would not end within the time limit
        plain.append(run_pass(cmds, root, env, work, False, deadline, refs))
        judge.judge(plain[-1])
        if trace:
            traced.append(run_pass(cmds, root, env, work, True, deadline, refs))
            judge.judge(traced[-1])
        longest = max(longest, time.perf_counter() - began)

    # Medians are taken command by command over the passes, so a slow
    # stretch of the machine during one command does not move the figure.
    walls = command_medians(plain, lambda o: o.wall)
    pass_s = sum(walls)
    ref = statistics.median(refs)
    scale = REF_S / ref
    print(f"{name}: reference work median {ref:.4f} s of {len(refs)}; times below are scaled by {scale:.4f}")
    if not trace:
        metrics = {
            "setup_s": metric(statistics.median(setup_times) * scale, "s"),
            "pass_s": metric(pass_s * scale, "s"),
            "max_cmd_s": metric(max(walls) * scale, "s"),
            "peak_rss_mib": metric(max(command_medians(plain, lambda o: o.rss_kib)) / 1024, "MiB"),
        }
        print(f"{name}: {len(plain)} passes of {len(cmds)} commands; measured pass {pass_s:.4f} s, "
              f"set-up {statistics.median(setup_times):.4f} s")
        for k, (cmd, wall) in enumerate(zip(cmds, walls)):
            samples = " ".join(f"{p[k].wall:.3f}" for p in plain)
            print(f"  {cmd.name:24s} median {wall:8.4f} s of {samples} (measured)")
    else:
        spans = [[self_times(o.spans_path) for o in p] for p in traced]
        metrics = {
            f"{s}_s": metric(sum(command_medians(spans, lambda t: t.get(s, 0.0))) * scale, "s")
            for s in SPAN_NAMES
        }
        traced_s = sum(command_medians(traced, lambda o: o.wall))
        metrics["trace.overhead_s"] = metric((traced_s - pass_s) * scale, "s")
        print(f"{name}: {len(traced)} traced passes; measured traced {traced_s:.4f} s, untraced {pass_s:.4f} s")
        for cmd, o, times in zip(cmds, traced[0], spans[0]):
            top = sorted(times.items(), key=lambda kv: -kv[1])[:4]
            print(f"  {cmd.name:24s} {o.wall:8.4f} s  work {cmd.work(o.stdout)}")
            print("      self: " + ", ".join(f"{k} {v:.4f}" for k, v in top))
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:12.6f} {m['unit']}")
    print(f"  attempted {judge.attempted}, failed {judge.failed}, correct {judge.correct}")
    return {"correct": judge.correct, "attempted": judge.attempted, "failed": judge.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coalg", "cli.py")):
        print("error: run from the root of a coalg source tree (src/coalg not found)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
