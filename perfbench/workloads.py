"""The three workloads: their inputs, command lists and expected verdicts.

``build(name, seed, work_dir)`` generates a workload's inputs from the seed,
writes them under ``work_dir`` and returns the commands of one pass.  Each
command carries the verdict (exit code) it must give, a check of its
output that does not call into ``coalg``, and a function giving the work
counts behind its timings.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import check
import gen

# the nested input has fewer states than the DAG but a comparable number
# of structure nodes (about 2.7e5 against 3.6e5)
DAG_STATES = 100_000
NESTED_STATES = 20_000
LADDER_BUDGET = 100_000
UNARY_DEPTH = 100
BINARY_DEPTH = 3
REALIZE_DEPTH = 150
DEEP_REALIZE_DEPTH = 3000


@dataclass
class Command:
    name: str
    args: list[str]
    expect: int
    check: Callable[[str, str], list[str]]
    work: Callable[[str], dict]
    # a command that fails today because of a known fault in the program
    known_fault: str = ""


def write_json(work_dir: str, name: str, doc) -> str:
    path = os.path.join(work_dir, name)
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _field(stdout: str, key: str):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc.get(key) if isinstance(doc, dict) else None


def _max_rank(stdout: str):
    ranks = _field(stdout, "ranks")
    return max(ranks.values(), default=0) if isinstance(ranks, dict) else None


def _sets_large(seed: int, work_dir: str) -> list[Command]:
    dag_doc, dag = gen.dag_system(seed, n=DAG_STATES)
    nested_doc, nested, ring_starts = gen.nested_system(seed + 1, n=NESTED_STATES)
    dag_path = write_json(work_dir, "dag.json", dag_doc)
    nested_path = write_json(work_dir, "nested.json", nested_doc)
    cmds = []
    for tag, path, succ, doc in (("dag", dag_path, dag, dag_doc), ("nested", nested_path, nested, nested_doc)):
        def base(succ=succ, doc=doc):
            return {
                "states": len(succ),
                "edges": sum(len(v) for v in succ.values()),
                "structure_nodes": gen.json_nodes(doc["structure"]),
            }

        wf = tag == "dag"
        cmds.append(Command(
            f"check-wf {tag}", ["check-wf", path, "--format", "json"], 0 if wf else 1,
            lambda out, err, succ=succ: check.check_wf_report(succ, out),
            lambda out, base=base: {**base(), "rounds": _max_rank(out)},
        ))
        cmds.append(Command(
            f"fold-count {tag}", ["fold", path, "--algebra", "count", "--format", "json"],
            0 if wf else 1,
            (lambda out, err, succ=succ: check.check_fold_count(succ, out)) if wf
            else (lambda out, err, succ=succ: check.check_named_cycle_state(succ, err)),
            lambda out, base=base: base(),
        ))
        state = "d0" if wf else ring_starts[0]
        cmds.append(Command(
            f"koenig {tag}",
            ["koenig", path, "--state", state, "--budget", str(len(succ)), "--format", "json"],
            0 if wf else 1,
            (lambda out, err, succ=succ, state=state: check.check_koenig_set(succ, state, out)) if wf
            else (lambda out, err, succ=succ, state=state: check.check_not_wf_state(succ, state)),
            lambda out, base=base, succ=succ, state=state: {**base(), "closure_states": len(check.reach(succ, state))},
        ))
    return cmds


def _infinite_branching(seed: int, work_dir: str) -> list[Command]:
    cmds = []
    for tag, (doc, polys) in (("chain", gen.convex_chain(seed)), ("random", gen.convex_random(seed + 1))):
        path = write_json(work_dir, f"convex-{tag}.json", doc)
        counts = {
            "generators": len(polys),
            "nonzero_coefficients": sum(len(v) for poly in polys for v in poly),
        }
        cmds.append(Command(
            f"check-wf convex-{tag}", ["check-wf", path, "--format", "json"],
            0 if tag == "chain" else 1,
            lambda out, err, polys=polys: check.check_convex_report(polys, out),
            lambda out, counts=counts: {**counts, "rounds": _max_rank(out)},
        ))
    for tag, (doc, edges) in (("chain", gen.nominal_chain(seed + 2)), ("random", gen.nominal_random(seed + 3))):
        path = write_json(work_dir, f"nominal-{tag}.json", doc)
        counts = {
            "labels": len(edges),
            "orbit_edges": sum(len(v) for v in edges.values()),
        }
        wf = tag == "chain"
        label = min(edges)
        state = gen.state_text(label, doc["labels"][label])
        cmds.append(Command(
            f"check-wf nominal-{tag}", ["check-wf", path, "--format", "json"], 0 if wf else 1,
            lambda out, err, edges=edges: check.check_wf_labels(edges, out),
            lambda out, counts=counts: dict(counts),
        ))
        cmds.append(Command(
            f"koenig nominal-{tag}", ["koenig", path, "--state", state, "--format", "json"],
            0 if wf else 1,
            (lambda out, err, edges=edges, label=label: check.check_koenig_labels(edges, label, out)) if wf
            else (lambda out, err, edges=edges: check.check_nominal_not_wf(edges)),
            lambda out, counts=counts: dict(counts),
        ))
    cmds.append(Command(
        "koenig ladder-probe",
        ["koenig", "gallery:example-3.11", "--state", "1", "--budget", str(LADDER_BUDGET), "--format", "json"],
        2,
        lambda out, err: check.check_budget_probe(LADDER_BUDGET, out),
        lambda out: {"closure_states": _field(out, "visited")},
    ))
    return cmds


def _terms(seed: int, work_dir: str) -> list[Command]:
    cmds = []
    for tag, ops, depth in (
        ("unary", gen.unary_signature(seed), UNARY_DEPTH),
        ("binary", gen.binary_signature(seed + 1), BINARY_DEPTH),
    ):
        path = write_json(work_dir, f"sig-{tag}.json", gen.signature_doc(ops))
        cmds.append(Command(
            f"check-5.2 {tag}", ["check-5.2", "--sig", path, "--depth", str(depth), "--format", "json"], 0,
            lambda out, err, ops=ops, depth=depth: check.check_fragment_report(ops, depth, out),
            lambda out: {"terms": _field(out, "terms")},
        ))

    ops = gen.mixed_signature(seed + 2)
    rng = random.Random(seed + 3)
    deep = gen.random_term(rng, ops, REALIZE_DEPTH)
    side = gen.random_term(rng, ops, 12)
    top = next(n for n, a in ops if a == 2)
    sig_path = write_json(work_dir, "sig-mixed.json", gen.signature_doc(ops))
    structure = {"op": top, "args": [gen.term_text(deep), gen.term_doc(side)]}
    st_path = write_json(work_dir, "realize.json", structure)
    text = gen.term_text((top, (deep, side)))
    subterms = gen.distinct_subterms((top, (deep, side))) - 1
    cmds.append(Command(
        "realize mixed", ["realize", "--sig", sig_path, "--structure", st_path, "--format", "json"], 0,
        lambda out, err: check.check_realize(text, subterms, out),
        lambda out: {"terms": subterms + 1},
    ))

    cmds.append(Command(
        "gallery all", ["gallery", "all"], 0,
        lambda out, err: check.check_gallery_all(out),
        lambda out: {"entries": out.count("=== ")},
    ))

    # fixed input, independent of the seed: it fails on every run today
    unary = [("z", 0), ("s", 1)]
    deep_sig = write_json(work_dir, "sig-deep.json", gen.signature_doc(unary))
    chain = ("z", ())
    for _ in range(DEEP_REALIZE_DEPTH - 1):
        chain = ("s", (chain,))
    deep_text = gen.term_text(("s", (chain,)))
    deep_path = write_json(work_dir, "realize-deep.json", {"op": "s", "args": [gen.term_text(chain)]})
    cmds.append(Command(
        "realize deep", ["realize", "--sig", deep_sig, "--structure", deep_path, "--format", "json"], 0,
        lambda out, err: check.check_realize(deep_text, DEEP_REALIZE_DEPTH, out),
        lambda out: {"terms": DEEP_REALIZE_DEPTH + 1},
        known_fault="RecursionError in the recursive parse_term / Term.__str__ / subterms",
    ))
    return cmds


WORKLOADS = {
    "sets-large": _sets_large,
    "infinite-branching": _infinite_branching,
    "terms": _terms,
}


def build(name: str, seed: int, work_dir: str) -> list[Command]:
    os.makedirs(work_dir, exist_ok=True)
    return WORKLOADS[name](seed, work_dir)
