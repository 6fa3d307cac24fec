"""Seeded input generators for the benchmark workloads.

Each generator returns the JSON document handed to ``coalg`` together with
the plain model the checker uses (successor lists, polytope supports,
orbit edges, terms).  The model is built here, from the generator's own
choices, never by decoding the document with ``coalg``.  The same seed
gives byte-identical documents.
"""

from __future__ import annotations

import random
from fractions import Fraction


# ---------------------------------------------------------------------------
# set systems


def dag_system(seed: int, n: int = 100_000, window: int = 40):
    """A well-founded ``finpow(id)`` graph: state i points only to later states.

    Each state gets 0 to 3 successors drawn from the next ``window`` states
    (the root ``d0`` gets 3), so ``d0`` reaches most of the carrier and
    ranks grow along long forward paths.
    """
    rng = random.Random(seed)
    names = [f"d{i}" for i in range(n)]
    succ: dict[str, list[str]] = {}
    structure = {}
    draw = rng.random
    for i, x in enumerate(names):
        width = min(n - 1, i + window) - i
        k = (0, 1, 2, 2, 3)[int(draw() * 5)] if i and width else 3 if width else 0
        targets = sorted({names[i + 1 + int(draw() * width)] for _ in range(k)})
        succ[x] = targets
        structure[x] = {"set": [{"state": s} for s in targets]}
    doc = {
        "version": 1,
        "kind": "set-coalgebra",
        "functor": {"finpow": {"id": None}},
        "states": names,
        "structure": structure,
    }
    return doc, succ


NESTED_FUNCTOR = {
    "product": [
        {"const": ["p", "q", "r"]},
        {"exp": {"base": {"sum": [{"id": None}, {"const": ["nil"]}]}, "labels": ["x", "y"]}},
        {"finpow": {"pairneq": None}},
    ]
}


def nested_system(seed: int, n: int = 100_000, window: int = 40, cycles: int = 8):
    """A system over ``const x exp(id + 1) x finpow(pairneq)`` with planted cycles.

    References point forward within ``window`` states, except along
    ``cycles`` planted rings whose states chain their ``x`` slot to the next
    ring state and the last back to the first.  The first ring starts in
    the first twentieth of the carrier, so its states reach a large part of
    the system.  Returns the document, the successor lists and the ring
    starts.
    """
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(n)]
    ring_next: dict[int, int] = {}
    starts = sorted(rng.sample(range(n // 20), 1) + rng.sample(range(n // 20, n - 20), cycles - 1))
    for p in starts:
        length = rng.randint(2, 12)
        for k in range(length):
            ring_next[p + k] = p + k + 1
        ring_next[p + length] = p
    succ: dict[str, list[str]] = {}
    structure = {}
    draw = rng.random
    for i, x in enumerate(names):
        hi = min(n - 1, i + window)
        refs: set[str] = set()

        def slot(forced=None):
            if forced is not None:
                target = names[forced]
            elif i == hi or draw() < 0.45:
                return {"inr": {"const": "nil"}}
            else:
                target = names[i + 1 + int(draw() * (hi - i))]
            refs.add(target)
            return {"inl": {"state": target}}

        fun = {"x": slot(ring_next.get(i)), "y": slot()}
        pairs = []
        for _ in range((0, 0, 1, 2)[int(draw() * 4)]):
            if hi - i >= 2 and draw() < 0.8:
                a, b = rng.sample(range(i + 1, hi + 1), 2)
                pairs.append({"pair": [{"state": names[a]}, {"state": names[b]}]})
                refs.update((names[a], names[b]))
            else:
                pairs.append({"star": None})
        succ[x] = sorted(refs)
        structure[x] = {"tuple": [{"const": "pqr"[int(draw() * 3)]}, {"fun": fun}, {"set": pairs}]}
    doc = {
        "version": 1,
        "kind": "set-coalgebra",
        "functor": NESTED_FUNCTOR,
        "states": names,
        "structure": structure,
    }
    return doc, succ, [names[p] for p in starts]


def json_nodes(doc) -> int:
    """Number of JSON objects and arrays in a document (structure size)."""
    count = 0
    stack = [doc]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            count += 1
            stack.extend(v.values())
        elif isinstance(v, list):
            count += 1
            stack.extend(v)
    return count


# ---------------------------------------------------------------------------
# convex systems


def _rational_weights(rng, k: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _convex_doc(n: int, polytopes: list[list[dict[int, Fraction]]]) -> dict:
    return {
        "version": 1,
        "kind": "convex",
        "generators": n,
        "successors": [
            [[str(v.get(j, 0)) for j in range(n)] for v in poly] for poly in polytopes
        ],
    }


def convex_chain(seed: int, n: int = 200):
    """Generator g steps to g+1, plus at most one mixed vertex over later ones.

    Every g < n-1 has the vertex e_{g+1}, so rank(g) = n - g and the fixpoint
    needs n rounds.  The last generator has an empty polytope.  Returns the
    document and the polytopes as sparse {generator: weight} vertices.
    """
    rng = random.Random(seed)
    polys: list[list[dict[int, Fraction]]] = []
    for g in range(n):
        if g == n - 1:
            polys.append([])
            continue
        poly = [{g + 1: Fraction(1)}]
        later = list(range(g + 1, n))
        if len(later) >= 2 and rng.random() < 0.6:
            support = rng.sample(later, min(len(later), rng.randint(2, 3)))
            poly.append(dict(zip(support, _rational_weights(rng, len(support)))))
        polys.append(poly)
    return _convex_doc(n, polys), polys


def convex_random(seed: int, n: int = 120, cycle: int = 4):
    """Random polytopes with a planted non-well-founded ring.

    Generators 0..n-1 get 0 to 3 vertices with supports of 1 to 3
    generators, biased toward later ones; a ring of ``cycle`` generators in
    the middle has a vertex pointing only at the next ring member, so the
    spec is not well-founded.
    """
    rng = random.Random(seed)
    polys: list[list[dict[int, Fraction]]] = []
    ring_at = rng.randrange(n // 4, n // 2)
    ring = list(range(ring_at, ring_at + cycle))
    for g in range(n):
        poly = []
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            pool = list(range(g + 1, n)) if rng.random() < 0.85 or g == 0 else list(range(n))
            if not pool:
                break
            support = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            poly.append(dict(zip(support, _rational_weights(rng, len(support)))))
        if g in ring:
            poly.append({ring[(ring.index(g) + 1) % cycle]: Fraction(1)})
        # the document lists vertices in any order; dedupe identical ones
        uniq = {tuple(sorted(v.items())): v for v in poly}
        polys.append(list(uniq.values()))
    return _convex_doc(n, polys), polys


# ---------------------------------------------------------------------------
# register (nominal) systems


def _assign(rng, src_arity: int, tgt_arity: int, case) -> list:
    pool = [{"reg": j} for j in range(src_arity)] + ["input"]
    pool += [{"fresh": m} for m in range(tgt_arity)]
    if case != "fresh":
        pool.remove("input")  # under a register case the input repeats that register
    return rng.sample(pool, tgt_arity)


def nominal_chain(seed: int, n: int = 2000):
    """Labels c0000 -> c0001 -> ... -> c{n-1}, the last a deadlock.

    Arities and register assignments are seeded; label names are padded so
    their sorted order is the chain order.  Returns the document and the
    orbit edges.
    """
    rng = random.Random(seed)
    names = [f"c{i:04d}" for i in range(n)]
    labels = {x: rng.randint(0, 2) for x in names}
    rules = []
    edges: dict[str, set[str]] = {x: set() for x in names}
    for i, src in enumerate(names[:-1]):
        tgt = names[i + 1]
        case = {"reg": 0} if labels[src] and rng.random() < 0.3 else "fresh"
        rules.append({
            "from": src,
            "case": case,
            "to": [{"label": tgt, "assign": _assign(rng, labels[src], labels[tgt], case)}],
        })
        edges[src].add(tgt)
    doc = {"version": 1, "kind": "nlts", "labels": labels, "rules": rules}
    return doc, edges


def nominal_random(seed: int, n: int = 300, cycle: int = 5):
    """Random forward rules over ``n`` labels plus one planted orbit cycle."""
    rng = random.Random(seed)
    names = [f"r{i}" for i in range(n)]
    labels = {x: rng.randint(0, 3) for x in names}
    ring_at = rng.randrange(n // 3, 2 * n // 3)
    edges: dict[str, set[str]] = {x: set() for x in names}
    rules = []
    for i, src in enumerate(names):
        cases = ["fresh"] + [{"reg": j} for j in range(labels[src])]
        for case in cases:
            targets = []
            if i + 1 < n and rng.random() < 0.5:
                pool = names[i + 1 : i + 30]
                targets = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
            if case == "fresh" and ring_at <= i < ring_at + cycle:
                targets.append(names[ring_at + (i - ring_at + 1) % cycle])
            if not targets:
                continue
            rules.append({
                "from": src,
                "case": case,
                "to": [
                    {"label": t, "assign": _assign(rng, labels[src], labels[t], case)}
                    for t in targets
                ],
            })
            edges[src].update(targets)
    doc = {"version": 1, "kind": "nlts", "labels": labels, "rules": rules}
    return doc, edges


def state_text(label: str, arity: int) -> str:
    return f"{label}[{','.join(str(a) for a in range(arity))}]"


# ---------------------------------------------------------------------------
# signatures and terms


def _op_names(rng, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = "o" + str(rng.randrange(10_000))
        if name not in names:
            names.append(name)
    return names


def signature_doc(ops: list[tuple[str, int]]) -> dict:
    return {
        "version": 1,
        "kind": "signature",
        "ops": [{"name": n, "arity": a} for n, a in ops],
    }


def unary_signature(seed: int) -> list[tuple[str, int]]:
    z, s = _op_names(random.Random(seed), 2)
    return [(z, 0), (s, 1)]


def binary_signature(seed: int) -> list[tuple[str, int]]:
    a, b, f = _op_names(random.Random(seed), 3)
    return [(a, 0), (b, 0), (f, 2)]


def mixed_signature(seed: int) -> list[tuple[str, int]]:
    a, b, g, f = _op_names(random.Random(seed), 4)
    return [(a, 0), (b, 0), (g, 1), (f, 2)]


def random_term(rng, ops: list[tuple[str, int]], depth: int):
    """A term of height exactly ``depth`` as nested (op, args) tuples.

    A spine of unary and binary nodes reaches the full height; the other
    argument of a binary spine node is a random term of height at most 3.
    """
    consts = [n for n, a in ops if a == 0]
    unary = [n for n, a in ops if a == 1]
    binary = [n for n, a in ops if a == 2]

    def small(h: int):
        if h == 0 or rng.random() < 0.3:
            return (rng.choice(consts), ())
        return (rng.choice(binary), (small(h - 1), small(h - 1)))

    term = (rng.choice(consts), ())
    for _ in range(depth):
        if rng.random() < 0.5:
            term = (rng.choice(unary), (term,))
        else:
            side = small(rng.randint(0, 3))
            args = (term, side) if rng.random() < 0.5 else (side, term)
            term = (rng.choice(binary), args)
    return term


def term_text(term) -> str:
    """Print a nested (op, args) term as ``op(arg,...)``, without recursion."""
    out: list[str] = []
    stack: list = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        op, args = item
        out.append(op)
        if args:
            out.append("(")
            tail: list = [")"]
            for k, a in enumerate(reversed(args)):
                tail.append(a)
                if k < len(args) - 1:
                    tail.append(",")
            stack.extend(tail)
    return "".join(out)


def term_doc(term) -> dict:
    """The ``{op, args}`` object form of a term, used for realize arguments."""
    op, args = term
    return {"op": op, "args": [term_doc(a) for a in args]}


def distinct_subterms(term) -> int:
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        stack.extend(t[1])
    return len(seen)
