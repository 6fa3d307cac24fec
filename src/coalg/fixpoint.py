"""The fixpoint and closure kernels that every back-end shares.

``least_fixpoint`` is the well-founded part of a finite graph on dense int
nodes, in time linear in its size by counter-based unit propagation
(Dowling and Gallier, "Linear-time algorithms for testing the
satisfiability of propositional Horn formulae", 1984).  ``reach`` is the
breadth-first successor closure of a seed, optionally bounded by a budget.
This module imports nothing from the package.
"""

from __future__ import annotations

from collections import deque


def least_fixpoint(succ, any_of=(), nodes=None) -> tuple[list[int], list[int]]:
    """Ranks of the least set of nodes closed under "all my successors are in".

    The nodes are the indices ``0 .. len(succ)-1``, and ``succ[i]`` is the
    tuple of successor indices of node ``i``; the kernel reads it once per
    node, and only for the nodes of ``nodes``, a successor-closed set of
    indices (all of them by default).  A node in ``any_of`` needs only one
    of its successors in (so with no successors it never holds).  Nodes are
    taken in rank order with a 0-1 BFS deque: an ordinary node is completed
    by its successor of highest rank and gets that rank + 1 (to the back);
    an ``any_of`` node takes the rank of its first member to hold, the
    least one (to the front).  Nodes without successors rank 1.

    Each back-end numbers its own nodes, named ones in sorted name order.
    A :class:`coalg.coalgebras.FiniteCoalgebra` numbers its states when it
    is built and keeps their successor tuples; its ``successor_map`` by
    name is built from them on first read.  A
    :class:`coalg.nominal.NLTSSpec` numbers its orbit labels when it is
    built, in the same way, and the convex back-end numbers its
    generators, then their vertices.

    Returns ``(rank, order)``: ``rank[i]`` is node i's rank, or 0 if it is
    outside the fixpoint (or outside ``nodes``), and ``order`` lists the
    nodes of the fixpoint as they completed, each ordinary node after all
    of its successors.
    """
    n = len(succ)
    preds: list[list[int]] = [[] for _ in range(n)]
    pending = [0] * n
    rank = [0] * n
    queue: deque = deque()
    for x in range(n) if nodes is None else nodes:
        out = succ[x]
        for s in out:
            preds[s].append(x)
        if x in any_of:
            pending[x] = 1
        elif out:
            pending[x] = len(out)
        else:
            rank[x] = 1
            queue.append(x)
    order = []
    while queue:
        y = queue.popleft()
        order.append(y)
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
    return rank, order


def reach(successors, seed, budget=None) -> tuple[frozenset, bool]:
    """Breadth-first closure of ``seed`` under the ``successors`` function,
    over any sortable nodes: the indices of a finite system, or the names
    of a lazy carrier or of a diagram, which cannot be numbered ahead.

    Returns ``(closure, True)``, or ``(visited, False)`` with exactly
    ``budget`` nodes if the closure has more; ``successors`` is called
    once per visited node, after it is counted against the budget.
    Frontiers are sorted, so the nodes taken when the budget runs out are
    the same on every run.
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
