"""The fixpoint and closure kernels that every back-end shares.

``least_fixpoint`` is the well-founded part of a finite successor map, in
time linear in its size by counter-based unit propagation (Dowling and
Gallier, "Linear-time algorithms for testing the satisfiability of
propositional Horn formulae", 1984).  ``reach`` is the breadth-first
successor closure of a seed, optionally bounded by a budget.  This module
imports nothing from the package.
"""

from __future__ import annotations

from collections import deque


def least_fixpoint(succ, any_of=frozenset()) -> dict:
    """Ranks of the least set of nodes closed under "all my successors are in".

    A node in ``any_of`` needs only one of its successors in (so with no
    successors it never holds).  Every successor must be a key of ``succ``.
    Nodes are taken in rank order with a 0-1 BFS deque: an ordinary node is
    completed by its successor of highest rank and gets that rank + 1 (to
    the back); an ``any_of`` node takes the rank of its first member to
    hold, the least one (to the front).  Nodes without successors rank 1.
    The result lists each ordinary node after all of its successors.
    """
    preds: dict = {x: [] for x in succ}
    pending: dict = {}
    rank: dict = {}
    queue: deque = deque()
    for x, out in succ.items():
        pending[x] = 1 if x in any_of else len(out)
        for s in out:
            preds[s].append(x)
        if not out and x not in any_of:
            rank[x] = 1
            queue.append(x)
    while queue:
        y = queue.popleft()
        r = rank[y]
        for x in preds[y]:
            pending[x] -= 1
            if pending[x] == 0:
                if x in any_of:
                    rank[x] = r
                    queue.appendleft(x)
                else:
                    rank[x] = r + 1
                    queue.append(x)
    return rank


def reach(successors, seed, budget=None) -> tuple[frozenset, bool]:
    """Breadth-first closure of ``seed`` under the ``successors`` function.

    Returns ``(closure, True)``, or ``(visited, False)`` with exactly
    ``budget`` nodes if the closure has more.  Frontiers are sorted, so the
    nodes taken when the budget runs out are the same on every run.
    """
    visited: set = set()
    frontier = sorted(set(seed))
    while frontier:
        if budget is not None and len(visited) + len(frontier) > budget:
            visited.update(frontier[: budget - len(visited)])
            return frozenset(visited), False
        visited.update(frontier)
        nxt: set = set()
        for x in frontier:
            nxt.update(successors(x))
        frontier = sorted(nxt - visited)
    return frozenset(visited), True
