"""Output checks that do not call into ``coalg``.

Every check works on the plain model the generator kept (successor lists,
sparse polytopes, orbit edges, terms) and on the JSON a command printed.
It either recomputes the answer by a different method than the solver's
(SCC-based cycle analysis, plain BFS, the term-count recurrence) or
checks a property every correct answer has (the rank equations).  Each
function returns a list of problems; an empty list means the output is
accepted.
"""

from __future__ import annotations

import json
from fractions import Fraction


# ---------------------------------------------------------------------------
# graph analyses


def cycle_states(succ: dict[str, list[str]]) -> set[str]:
    """States on a cycle: members of a strongly connected component with
    more than one state, or with a self-loop (iterative Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: set[str] = set()
    counter = 0
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in succ[v]:
                    out.update(component)
    return out


def reaching(succ: dict[str, list[str]], targets: set[str]) -> set[str]:
    """States with a path (possibly empty) into ``targets``."""
    preds: dict[str, list[str]] = {x: [] for x in succ}
    for x, ys in succ.items():
        for y in ys:
            preds[y].append(x)
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        y = frontier.pop()
        for x in preds[y]:
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


def reach(succ: dict[str, list[str]], start: str) -> set[str]:
    """States reachable from ``start``, itself included (plain BFS)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def wf_part(succ: dict[str, list[str]]) -> set[str]:
    """States that reach no cycle."""
    return set(succ) - reaching(succ, cycle_states(succ))


# ---------------------------------------------------------------------------
# set systems


def _load(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_wf_report(succ, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    expected = wf_part(succ)
    got = set(doc.get("wfPart", []))
    if got != expected:
        problems.append(f"wfPart differs from the cycle analysis on {len(got ^ expected)} states")
        return problems
    if doc.get("wellFounded") != (len(expected) == len(succ)):
        problems.append("wellFounded flag disagrees with wfPart")
    ranks = doc.get("ranks", {})
    if set(ranks) != expected:
        problems.append("ranks are not given exactly on wfPart")
        return problems
    for x in expected:
        want = 1 + max((ranks[y] for y in succ[x]), default=0)
        if ranks[x] != want:
            problems.append(f"rank({x}) = {ranks[x]}, expected {want}")
            break
    for x in set(succ) - expected:
        if all(y in expected for y in succ[x]):
            problems.append(f"non-WF state {x} has no non-WF successor")
            break
    return problems


def check_fold_count(succ, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    values = doc.get("values", {})
    if set(values) != set(succ):
        return ["fold values are not given on every state"]
    for x, ys in succ.items():
        want = 1 + max((values[y] for y in ys), default=-1)
        if values[x] != want:
            return [f"v({x}) = {values[x]}, expected {want}"]
    return problems


def check_koenig_set(succ, state: str, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    got = set(doc.get("subcoalgebra", []))
    expected = reach(succ, state)
    if got != expected or doc.get("size") != len(expected):
        problems.append(f"koenig set has {len(got)} states, BFS reach has {len(expected)}")
    return problems


def check_named_cycle_state(succ, stderr: str) -> list[str]:
    """A cycle report names a state; that state must lie on a cycle."""
    marker = "state '"
    at = stderr.find(marker)
    if at < 0:
        return ["no state named in the cycle report"]
    name = stderr[at + len(marker) :].split("'", 1)[0]
    if name not in succ or name not in cycle_states(succ):
        return [f"reported state {name!r} is not on a cycle"]
    return []


def check_not_wf_state(succ, state: str) -> list[str]:
    if state in wf_part(succ):
        return [f"{state} reaches no cycle, yet the verdict was 'not well-founded'"]
    return []


# ---------------------------------------------------------------------------
# convex systems


def check_convex_report(polys: list[list[dict[int, Fraction]]], stdout: str) -> list[str]:
    """rank(g) = 1 + max over vertices of the least rank in the vertex's
    support (an empty polytope gives rank 1), and every non-WF generator
    has a vertex whose support is entirely non-WF."""
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    n = len(polys)
    ranks = {int(k): v for k, v in doc.get("ranks", {}).items()}
    flags = doc.get("wfGenerators", [])
    if len(flags) != n or {g for g in range(n) if flags[g]} != set(ranks):
        return ["wfGenerators and ranks disagree"]
    for g, r in ranks.items():
        mins = []
        for v in polys[g]:
            inner = [ranks[k] for k in v if k in ranks]
            if not inner:
                return [f"WF generator {g} has a vertex with no WF support"]
            mins.append(min(inner))
        if r != 1 + max(mins, default=0):
            return [f"rank({g}) = {r}, expected {1 + max(mins, default=0)}"]
    for g in set(range(n)) - set(ranks):
        if not any(all(k not in ranks for k in v) for v in polys[g]):
            return [f"non-WF generator {g} has no vertex with entirely non-WF support"]
    if doc.get("wellFounded") != (len(ranks) == n):
        problems.append("wellFounded flag disagrees with the ranks")
    return problems


# ---------------------------------------------------------------------------
# register systems


def check_wf_labels(edges: dict[str, set[str]], stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    graph = {x: sorted(ys) for x, ys in edges.items()}
    expected = wf_part(graph)
    if set(doc.get("wfLabels", [])) != expected:
        problems.append("wfLabels differ from the labels reaching no orbit cycle")
    if doc.get("wellFounded") != (len(expected) == len(graph)):
        problems.append("wellFounded flag disagrees with wfLabels")
    return problems


def check_koenig_labels(edges: dict[str, set[str]], label: str, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    graph = {x: sorted(ys) for x, ys in edges.items()}
    if set(doc.get("labels", [])) != reach(graph, label):
        problems.append("koenig labels differ from the orbit-graph reach")
    return problems


def check_nominal_not_wf(edges: dict[str, set[str]]) -> list[str]:
    graph = {x: sorted(ys) for x, ys in edges.items()}
    if not cycle_states(graph):
        return ["verdict 'not well-founded' but the orbit graph is acyclic"]
    return []


# ---------------------------------------------------------------------------
# terms


def term_count(ops: list[tuple[str, int]], depth: int) -> int:
    """T(0) = #constants, T(d) = #constants + sum over symbols of T(d-1)^arity."""
    constants = sum(1 for _, a in ops if a == 0)
    t = constants
    for _ in range(depth):
        t = constants + sum(t**a for _, a in ops if a > 0)
    return t


def check_fragment_report(ops, depth: int, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    terms = term_count(ops, depth)
    lower = term_count(ops, depth - 1) if depth > 0 else 0
    structures = sum(lower**a for _, a in ops)
    want = {"terms": terms, "realized": terms, "structures": structures,
            "distinctTerms": structures, "passed": True}
    for key, value in want.items():
        if doc.get(key) != value:
            problems.append(f"{key} = {doc.get(key)!r}, expected {value!r}")
    return problems


def check_realize(text: str, subterm_count: int, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    if doc.get("unfolded") != text:
        problems.append("unfolded term differs from the input term")
    states = doc.get("coalgebra", {}).get("states", [])
    if len(states) != subterm_count + 1:
        problems.append(f"{len(states)} states, expected {subterm_count + 1}")
    return problems


def check_budget_probe(budget: int, stdout: str) -> list[str]:
    problems: list[str] = []
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    if doc.get("budgetExhausted") is not True or doc.get("visited") != budget:
        problems.append(f"expected an exhausted budget with visited = {budget}")
    return problems


def check_gallery_all(stdout: str) -> list[str]:
    if "MISMATCH" in stdout or stdout.count("=== ") != stdout.count(" ok\n"):
        return ["a gallery entry did not give its expected exit code"]
    return []
