"""Seeded random generators shared by the property and acceptance tests,
and the oracles and JSON encoders that only tests use."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from coalg.containers import (
    Const,
    ConstVal,
    Exp,
    FinPow,
    FunOf,
    Identity,
    InL,
    InR,
    Pair,
    PairNeq,
    Product,
    STAR,
    SetOf,
    Star,
    StateRef,
    Sum,
    TupleOf,
    fun_of,
    make_pair,
    set_of,
    structure_key,
)
from coalg.coalgebras import FiniteCoalgebra
from coalg.convex import CPoint, CPolytope, ConvexSpec
from coalg.errors import DanglingRefError, InputError, UnknownStateError
from coalg.nominal import (
    FRESH_CASE,
    INPUT_SLOT,
    NLTSSpec,
    NState,
    Rule,
    Template,
    fresh_var,
    nominal_step,
    reg,
)

LABELS = ("p", "q", "r")


def rng_for(seed):
    return random.Random(seed)


def random_container(rng, depth=2):
    if depth == 0:
        return rng.choice([Identity(), Const(LABELS[: rng.randint(1, 3)]), PairNeq()])
    kind = rng.randrange(7)
    if kind == 0:
        return Identity()
    if kind == 1:
        return Const(LABELS[: rng.randint(1, 3)])
    if kind == 2:
        return Sum(random_container(rng, depth - 1), random_container(rng, depth - 1))
    if kind == 3:
        return Product(
            tuple(random_container(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        )
    if kind == 4:
        return FinPow(random_container(rng, depth - 1))
    if kind == 5:
        return Exp(random_container(rng, depth - 1), ("x", "y")[: rng.randint(1, 2)])
    return PairNeq()


def admits_closed(container):
    """Whether the container has a value referencing no states."""
    if isinstance(container, Identity):
        return False
    if isinstance(container, (Const, PairNeq, FinPow)):
        return True
    if isinstance(container, Sum):
        return admits_closed(container.left) or admits_closed(container.right)
    if isinstance(container, Product):
        return all(admits_closed(p) for p in container.parts)
    if isinstance(container, Exp):
        return admits_closed(container.base)
    raise AssertionError(container)


def random_container_with_leaves(rng, depth=2):
    """A container admitting closed values (so deadlock states can exist)."""
    for _ in range(50):
        c = random_container(rng, depth)
        if admits_closed(c):
            return c
    return FinPow(Identity())


def random_structure(rng, container, allowed):
    """A random value over the ``allowed`` states (uses none if empty)."""
    if isinstance(container, Identity):
        return StateRef(rng.choice(allowed))
    if isinstance(container, Const):
        return ConstVal(rng.choice(container.labels))
    if isinstance(container, Sum):
        sides = []
        if allowed or admits_closed(container.left):
            sides.append(("l", container.left))
        if allowed or admits_closed(container.right):
            sides.append(("r", container.right))
        tag, side = rng.choice(sides)
        inner = random_structure(rng, side, allowed)
        return InL(inner) if tag == "l" else InR(inner)
    if isinstance(container, Product):
        return TupleOf(tuple(random_structure(rng, p, allowed) for p in container.parts))
    if isinstance(container, FinPow):
        if not allowed and not admits_closed(container.inner):
            return set_of(())
        k = rng.randint(0, 2)
        return set_of(random_structure(rng, container.inner, allowed) for _ in range(k))
    if isinstance(container, Exp):
        return fun_of(
            {lbl: random_structure(rng, container.base, allowed) for lbl in container.exponent}
        )
    if isinstance(container, PairNeq):
        if len(allowed) >= 2 and rng.random() < 0.7:
            a, b = rng.sample(allowed, 2)
            return Pair(StateRef(a), StateRef(b))
        return STAR
    raise AssertionError(container)


def state_names(n):
    return [f"s{i:03d}" for i in range(n)]


def random_wf_coalgebra(rng, max_states, depth=2):
    """States only reference strictly later states, so the result is a DAG."""
    n = rng.randint(1, max_states)
    container = random_container_with_leaves(rng, depth)
    states = state_names(n)
    structure = {}
    for i, x in enumerate(states):
        structure[x] = random_structure(rng, container, states[i + 1 :])
    return FiniteCoalgebra(container, states, structure)


def random_coalgebra(rng, max_states, depth=2):
    """Arbitrary structures (cycles allowed)."""
    n = rng.randint(1, max_states)
    container = random_container_with_leaves(rng, depth)
    states = state_names(n)
    structure = {x: random_structure(rng, container, states) for x in states}
    return FiniteCoalgebra(container, states, structure)


def random_graph(rng, n, density=0.3):
    """A random finite-powerset graph on n states."""
    states = state_names(n)
    structure = {}
    for x in states:
        succ = [s for s in states if rng.random() < density]
        structure[x] = set_of(StateRef(s) for s in succ)
    return FiniteCoalgebra(FinPow(Identity()), states, structure)


def shuffled_graph(rng, n, density=0.2):
    """A random finite-powerset graph on the states s0 .. s<n-1>, listed in
    a shuffled carrier order; from n = 11 on, name order is not number
    order either (s10 sorts before s9)."""
    names = [f"s{i}" for i in range(n)]
    states = rng.sample(names, n)
    structure = {x: set_of(StateRef(s) for s in names if rng.random() < density) for x in states}
    return FiniteCoalgebra(FinPow(Identity()), states, structure)


def cycle_state_by_name(succ, wf):
    """The state that ``CycleError`` names, chosen on a successor map keyed
    by names: from the least state outside ``wf`` (a successor-closed set),
    step to the least successor outside it until a state repeats."""
    x = min(x for x in succ if x not in wf)
    seen = set()
    while x not in seen:
        seen.add(x)
        x = min(s for s in succ[x] if s not in wf)
    return x


def all_graphs(n):
    """Every finite-powerset graph on n named states."""
    states = state_names(n)
    choices = []
    for r in range(n + 1):
        for combo in itertools.combinations(states, r):
            choices.append(set_of(StateRef(s) for s in combo))
    for combo in itertools.product(choices, repeat=n):
        yield FiniteCoalgebra(FinPow(Identity()), states, dict(zip(states, combo)))


def random_extension(rng, coalg, max_new=4):
    """New states plus structures over the old carrier."""
    k = rng.randint(0, max_new)
    new_states = [f"x{i:02d}" for i in range(k)]
    old = list(coalg.states)
    p = {x: random_structure(rng, coalg.container, old) for x in new_states}
    return new_states, p


# ---------------------------------------------------------------------------
# nominal


def random_assignment(rng, src_arity, tgt_arity, case):
    pool = [reg(j) for j in range(src_arity)] + [("input",)]
    pool += [fresh_var(m) for m in range(tgt_arity + 1)]
    while True:
        slots = tuple(rng.sample(pool, tgt_arity))
        if case != FRESH_CASE and case in slots and ("input",) in slots:
            continue
        return slots


def random_nlts(rng, max_labels=6, force_acyclic=False):
    n = rng.randint(1, max_labels)
    labels = {f"l{i}": rng.randint(0, 2) for i in range(n)}
    names = sorted(labels)
    rules = []
    for i, src in enumerate(names):
        arity = labels[src]
        cases = [FRESH_CASE] + [reg(j) for j in range(arity)]
        for case in cases:
            if rng.random() < 0.45:
                continue
            templates = []
            for _ in range(rng.randint(1, 2)):
                if force_acyclic:
                    candidates = names[i + 1 :]
                    if not candidates:
                        continue
                    target = rng.choice(candidates)
                else:
                    target = rng.choice(names)
                templates.append(
                    Template(target, random_assignment(rng, arity, labels[target], case))
                )
            if templates:
                rules.append(Rule(src, case, tuple(templates)))
    return NLTSSpec(labels, rules)


def random_permutation(rng, atoms):
    atoms = sorted(set(atoms))
    shuffled = atoms[:]
    rng.shuffle(shuffled)
    return dict(zip(atoms, shuffled))


# ---------------------------------------------------------------------------
# convex


def random_fraction01(rng, max_den=12):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_cpoint(rng, n, max_support=None):
    max_support = max_support or n
    size = rng.randint(1, min(n, max_support))
    support = rng.sample(range(n), size)
    weights = [rng.randint(1, 6) for _ in support]
    total = sum(weights)
    coeffs = [Fraction(0)] * n
    for i, w in zip(support, weights):
        coeffs[i] = Fraction(w, total)
    return CPoint(tuple(coeffs))


def random_convex_spec(rng, max_gens=6, empty_prob=0.3, max_vertices=3):
    n = rng.randint(1, max_gens)
    polys = []
    for _ in range(n):
        if rng.random() < empty_prob:
            polys.append(CPolytope())
        else:
            polys.append(
                CPolytope(random_cpoint(rng, n) for _ in range(rng.randint(1, max_vertices)))
            )
    return ConvexSpec(polys)


def dense_convex_chain(rng, n=200):
    """A convex document in the dense JSON form, every vertex n strings
    long: generator g steps to g + 1, and most also to a mix of two or
    three later generators; the last one has an empty polytope."""
    successors = []
    for g in range(n):
        vertices = [{g + 1: Fraction(1)}] if g < n - 1 else []
        if g < n - 2 and rng.random() < 0.6:
            support = rng.sample(range(g + 1, n), min(n - g - 1, rng.randint(2, 3)))
            raw = [rng.randint(1, 9) for _ in support]
            vertices.append({k: Fraction(r, sum(raw)) for k, r in zip(support, raw)})
        successors.append([[str(v.get(k, 0)) for k in range(n)] for v in vertices])
    return {"version": 1, "kind": "convex", "generators": n, "successors": successors}


def polytope_vertices(points):
    """The vertex order of a ``CPolytope``, by hashing the points into a set
    (the oracle for its sort-then-drop-neighbours dedupe)."""
    return tuple(sorted(set(points), key=lambda p: p.coeffs))


def spellings(c):
    """Strings that parse to the rational ``c``, in a few notations."""
    out = [str(c), f"{c.numerator * 2}/{c.denominator * 2}"]
    den = c.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:  # a terminating decimal
        out.append(repr(float(c)))
    return out


def vertex_choices(spec, p):
    """All per-support-generator vertex choices of successors(spec, p)."""
    supp = sorted(p.support)
    if any(spec.polytopes[i].is_empty for i in supp):
        return None
    pools = [list(enumerate(spec.polytopes[i].vertices)) for i in supp]
    return supp, list(itertools.product(*pools))


def combine_choice(spec, p, supp, choice):
    coeffs = [Fraction(0)] * spec.generators
    for i, (_, v) in zip(supp, choice):
        for j, c in enumerate(v.coeffs):
            coeffs[j] += p.coeffs[i] * c
    return CPoint(tuple(coeffs))


def blend_certificate(spec, m, x, y, r, supp_x, cx, supp_y, cy):
    """Certificate that mix of two successor choices lies in successors(m)."""
    from coalg.convex import SuccessorCertificate

    pick_x = dict(zip(supp_x, cx))
    pick_y = dict(zip(supp_y, cy))
    components = []
    for i in sorted(m.support):
        poly = spec.polytopes[i]
        weights = [Fraction(0)] * len(poly.vertices)
        total = m.coeffs[i]
        if i in pick_x:
            k, _ = pick_x[i]
            weights[k] += r * x.coeffs[i] / total
        if i in pick_y:
            k, _ = pick_y[i]
            weights[k] += (1 - r) * y.coeffs[i] / total
        components.append((i, tuple(weights)))
    return SuccessorCertificate(tuple(components))


# ---------------------------------------------------------------------------
# fixpoint oracles: the direct round-by-round iterations the linear kernel
# in coalg.fixpoint replaces


def non_wf_greatest_fixpoint(spec):
    """Greatest fixpoint from above: B(g) iff some successor vertex of g has
    support entirely inside B.  Dual of ``convex_wf_fixpoint``; the two
    complement each other exactly."""
    bad = set(range(spec.generators))
    changed = True
    while changed:
        changed = False
        for g in sorted(bad):
            if not any(v.support <= bad for v in spec.polytopes[g]):
                bad.discard(g)
                changed = True
    return frozenset(bad)


def convex_round_ranks(spec):
    """Round-synchronous least fixpoint: rank(g) is the round in which every
    successor vertex of g first has a generator of an earlier round in its
    support."""
    n = spec.generators
    wf = {}
    round_no = 0
    changed = True
    while changed:
        changed = False
        round_no += 1
        entering = []
        for g in range(n):
            if g in wf:
                continue
            if all(any(k in wf for k in v.support) for v in spec.polytopes[g]):
                entering.append(g)
        for g in entering:
            wf[g] = round_no
            changed = True
    return wf


def round_ranks(succ, any_of=frozenset()):
    """Round-synchronous least fixpoint of ``coalg.fixpoint.least_fixpoint``.

    Round k admits every ordinary node whose successors all entered before
    round k, then every ``any_of`` node with a member that has entered,
    repeatedly, so those take the round of their first member.
    """
    rank = {}
    round_no = 0
    while True:
        round_no += 1
        entering = [
            x for x in succ
            if x not in rank and x not in any_of and all(s in rank for s in succ[x])
        ]
        if not entering:
            return rank
        for x in entering:
            rank[x] = round_no
        changed = True
        while changed:
            changed = False
            for x in any_of:
                if x not in rank and any(s in rank for s in succ[x]):
                    rank[x] = round_no
                    changed = True


def numbered(succ) -> tuple[list, list[tuple[int, ...]]]:
    """A successor map keyed by node names, as ``least_fixpoint`` takes it:
    the names in sorted order, so that index order is name order, and each
    one's successors as a tuple of indices into that list."""
    names = sorted(succ)
    at = dict(zip(names, range(len(names))))
    return names, [tuple(map(at.__getitem__, succ[x])) for x in names]


# ---------------------------------------------------------------------------
# exhaustive enumeration of container values


def enumerate_structures(container, states):
    """All values of ``container`` over the given states, in canonical order.

    Intended for small oracles and exhaustive checks; the powerset and
    exponent cases grow fast, so inner domains are capped at 16 elements.
    """
    states = sorted(set(states))
    if isinstance(container, Identity):
        out = [StateRef(s) for s in states]
    elif isinstance(container, Const):
        out = [ConstVal(lbl) for lbl in container.labels]
    elif isinstance(container, Sum):
        out = [InL(x) for x in enumerate_structures(container.left, states)]
        out += [InR(x) for x in enumerate_structures(container.right, states)]
    elif isinstance(container, Product):
        parts = [enumerate_structures(c, states) for c in container.parts]
        out = [TupleOf(tuple(combo)) for combo in itertools.product(*parts)]
    elif isinstance(container, FinPow):
        inner = enumerate_structures(container.inner, states)
        if len(inner) > 16:
            raise InputError("powerset enumeration domain too large")
        out = []
        for r in range(len(inner) + 1):
            for combo in itertools.combinations(inner, r):
                out.append(set_of(combo))
    elif isinstance(container, Exp):
        inner = enumerate_structures(container.base, states)
        labels = sorted(container.exponent)
        if len(inner) ** len(labels) > 4096:
            raise InputError("exponent enumeration domain too large")
        out = [
            FunOf(tuple(zip(labels, combo)))
            for combo in itertools.product(inner, repeat=len(labels))
        ]
    elif isinstance(container, PairNeq):
        out = [STAR]
        for a in states:
            for b in states:
                if a != b:
                    out.append(Pair(StateRef(a), StateRef(b)))
    else:
        raise InputError(f"unknown container: {container!r}")
    return sorted(out, key=structure_key)


# ---------------------------------------------------------------------------
# the generic walks of a value along its container: the reference oracles of
# the walks of coalg.containers, compiled per container or following the
# value's own constructors


def reference_structure_key(h):
    """A key of nested tuples whose order ``structure_key``, one flat tuple
    per node, keeps: a node's tag, then its children's keys as one tuple."""
    tags = [StateRef, ConstVal, InL, InR, TupleOf, SetOf, FunOf, Star, Pair]
    tag = tags.index(type(h))
    if isinstance(h, StateRef):
        return (tag, h.state)
    if isinstance(h, ConstVal):
        return (tag, h.label)
    if isinstance(h, (InL, InR)):
        return (tag, reference_structure_key(h.value))
    if isinstance(h, (TupleOf, SetOf)):
        return (tag, tuple(reference_structure_key(x) for x in h.items))
    if isinstance(h, FunOf):
        return (tag, tuple((lbl, reference_structure_key(v)) for lbl, v in h.entries))
    if isinstance(h, Star):
        return (tag,)
    return (tag, reference_structure_key(h.left), reference_structure_key(h.right))


def reference_support(container, h):
    """The states of ``h``, a value of ``container``; raises InputError on
    anything that is not a canonical value."""
    def mismatch(c, h):
        return InputError(f"structure {h!r} does not match container {c!r}")

    out = set()
    todo = [(container, h)]
    while todo:
        c, h = todo.pop()
        if isinstance(c, Identity):
            if not (isinstance(h, StateRef) and h.state):
                raise mismatch(c, h)
            out.add(h.state)
        elif isinstance(c, Const):
            if not (isinstance(h, ConstVal) and h.label in c.labels):
                raise mismatch(c, h)
        elif isinstance(c, Sum):
            if isinstance(h, InL):
                todo.append((c.left, h.value))
            elif isinstance(h, InR):
                todo.append((c.right, h.value))
            else:
                raise mismatch(c, h)
        elif isinstance(c, Product):
            if not (isinstance(h, TupleOf) and len(h.items) == len(c.parts)):
                raise mismatch(c, h)
            todo.extend(zip(c.parts, h.items))
        elif isinstance(c, FinPow):
            if not isinstance(h, SetOf):
                raise mismatch(c, h)
            keys = [structure_key(x) for x in h.items]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise InputError(f"set {h!r} is not sorted and duplicate-free")
            todo.extend((c.inner, x) for x in h.items)
        elif isinstance(c, Exp):
            if not (isinstance(h, FunOf) and [lbl for lbl, _ in h.entries] == sorted(c.exponent)):
                raise mismatch(c, h)
            todo.extend((c.base, v) for _, v in h.entries)
        elif isinstance(h, Pair) and h.left != h.right:  # PairNeq
            todo += ((Identity(), h.left), (Identity(), h.right))
        elif not isinstance(h, Star):
            raise mismatch(c, h)
    return frozenset(out)


def reference_fmap(container, h, state, build):
    """Rebuild ``h`` bottom-up: ``state(name)`` at each state slot and one
    constructor of the table ``build`` at every other node."""
    if isinstance(container, Identity):
        return state(h.state)
    if isinstance(container, Const):
        return build["const"](h.label)
    if isinstance(container, Sum):
        if isinstance(h, InL):
            return build["inl"](reference_fmap(container.left, h.value, state, build))
        return build["inr"](reference_fmap(container.right, h.value, state, build))
    if isinstance(container, Product):
        return build["tuple"]([reference_fmap(c, x, state, build) for c, x in zip(container.parts, h.items)])
    if isinstance(container, FinPow):
        return build["set"]([reference_fmap(container.inner, x, state, build) for x in h.items])
    if isinstance(container, Exp):
        return build["fun"]([(lbl, reference_fmap(container.base, v, state, build)) for lbl, v in h.entries])
    if isinstance(h, Star):  # PairNeq
        return build["star"]()
    return build["pair"](state(h.left.state), state(h.right.state))


REFERENCE_VALUES = dict(
    const=ConstVal, inl=InL, inr=InR, tuple=lambda xs: TupleOf(tuple(xs)), set=set_of,
    fun=lambda entries: FunOf(tuple(entries)), star=lambda: STAR, pair=make_pair,
)
REFERENCE_SHAPES = dict(
    const=lambda label: label, inl=lambda x: ("inl", x), inr=lambda x: ("inr", x),
    tuple=tuple, set=frozenset, fun=tuple, star=lambda: STAR,
    pair=lambda a, b: STAR if a == b else ("pair", a, b),
)
REFERENCE_JSON = dict(
    const=lambda label: {"const": label}, inl=lambda x: {"inl": x}, inr=lambda x: {"inr": x},
    tuple=lambda xs: {"tuple": xs}, set=lambda xs: {"set": xs},
    fun=lambda entries: {"fun": dict(entries)}, star=lambda: {"star": None},
    pair=lambda a, b: {"pair": [a, b]},
)


def reference_hmap(container, f, h):
    def rename(s):
        if s not in f:
            raise UnknownStateError(f"map undefined on state {s!r}")
        return StateRef(f[s])

    return reference_fmap(container, h, rename, REFERENCE_VALUES)


def reference_interpret(container, h, env):
    def value(s):
        try:
            return env[s]
        except KeyError:
            raise UnknownStateError(f"no value for state {s!r}") from None

    return reference_fmap(container, h, value, REFERENCE_SHAPES)


def reference_structure_to_json(container, h):
    return reference_fmap(container, h, lambda s: {"state": s}, REFERENCE_JSON)


class _Mismatch(Exception):
    def __init__(self, msg, step="", error=InputError):
        super().__init__(msg)
        self.msg = msg
        self.steps = [step] if step else []
        self.error = error


def _tag_error(doc, tags):
    want = " or ".join(repr(t) for t in tags)
    if isinstance(doc, dict) and len(doc) == 1:
        return _Mismatch(f"expected tag {want}, got {next(iter(doc))!r}")
    return _Mismatch(f"expected a single-key object tagged {want}, got {doc!r}")


def _body(doc, tag):
    if isinstance(doc, dict) and len(doc) == 1 and tag in doc:
        return doc[tag]
    raise _tag_error(doc, (tag,))


def _decode_items(decoders, body, refs, tag):
    items = []
    try:
        for decode, x in zip(decoders, body):
            items.append(decode(x, refs))
    except _Mismatch as exc:
        exc.steps.append(f".{tag}[{len(items)}]")
        raise
    return items


def reference_decoder(container, carrier):
    """The one-pass JSON decoder built from closures, one per container node:
    ``decode(doc, where)`` gives ``(h, support)`` or raises InputError naming
    the JSON path below ``where``."""
    interned = {}

    def identity(doc, refs):
        s = _body(doc, "state")
        if not isinstance(s, str) or not s:
            raise _Mismatch("expected a non-empty string", ".state")
        if s not in carrier:
            raise _Mismatch(f"{s!r} is not a carrier state", ".state", DanglingRefError)
        refs.add(s)
        return interned.setdefault(s, StateRef(s))

    def compile_node(c):
        if isinstance(c, Identity):
            return identity
        if isinstance(c, Const):
            def const(doc, refs):
                lbl = _body(doc, "const")
                if not isinstance(lbl, str) or lbl not in c.labels:
                    raise _Mismatch(f"expected one of {list(c.labels)}, got {lbl!r}", ".const")
                return ConstVal(lbl)
            return const
        if isinstance(c, Sum):
            sides = {"inl": (InL, compile_node(c.left)), "inr": (InR, compile_node(c.right))}

            def sum_(doc, refs):
                tag = next(iter(doc)) if isinstance(doc, dict) and len(doc) == 1 else None
                if tag not in sides:
                    raise _tag_error(doc, tuple(sides))
                wrap, inner = sides[tag]
                try:
                    return wrap(inner(doc[tag], refs))
                except _Mismatch as exc:
                    exc.steps.append("." + tag)
                    raise
            return sum_
        if isinstance(c, Product):
            parts = tuple(compile_node(p) for p in c.parts)

            def product(doc, refs):
                body = _body(doc, "tuple")
                if not isinstance(body, list) or len(body) != len(parts):
                    raise _Mismatch(f"expected a list of {len(parts)} values", ".tuple")
                return TupleOf(tuple(_decode_items(parts, body, refs, "tuple")))
            return product
        if isinstance(c, FinPow):
            inner = compile_node(c.inner)

            def finpow(doc, refs):
                body = _body(doc, "set")
                if not isinstance(body, list):
                    raise _Mismatch("expected a list", ".set")
                return set_of(_decode_items(itertools.repeat(inner), body, refs, "set"))
            return finpow
        if isinstance(c, Exp):
            base = compile_node(c.base)
            labels = set(c.exponent)

            def exp(doc, refs):
                body = _body(doc, "fun")
                if not isinstance(body, dict) or body.keys() != labels:
                    raise _Mismatch(f"expected an object with labels {sorted(labels)}", ".fun")
                entries = {}
                lbl = ""
                try:
                    for lbl, v in body.items():
                        entries[lbl] = base(v, refs)
                except _Mismatch as exc:
                    exc.steps.append(f".fun.{lbl}")
                    raise
                return fun_of(entries)
            return exp

        def pairneq(doc, refs):
            if isinstance(doc, dict) and len(doc) == 1:
                if "star" in doc:
                    if doc["star"] is not None:
                        raise _Mismatch("expected null", ".star")
                    return STAR
                if "pair" in doc:
                    body = doc["pair"]
                    if not isinstance(body, list) or len(body) != 2:
                        raise _Mismatch("expected [left, right]", ".pair")
                    pair_refs = set()
                    h = make_pair(*_decode_items((identity, identity), body, pair_refs, "pair"))
                    if h is not STAR:
                        refs.update(pair_refs)
                    return h
            raise _tag_error(doc, ("star", "pair"))
        return pairneq

    root = compile_node(container)

    def decode(doc, where="$"):
        refs = set()
        try:
            h = root(doc, refs)
        except _Mismatch as exc:
            raise exc.error(f"{where}{''.join(reversed(exc.steps))}: {exc.msg}") from None
        return h, frozenset(refs)

    return decode


def malformed(rng, doc, states):
    """``doc``, the JSON of a value, with one sub-document replaced by a
    nearby wrong one: another tag, body or state, a repeated, dropped or
    extra item, or an extra key."""
    paths = []
    todo = [((), doc)]
    while todo:
        path, node = todo.pop()
        paths.append(path)
        if isinstance(node, dict):
            todo.extend((path + (k,), v) for k, v in node.items())
        elif isinstance(node, list):
            todo.extend((path + (i,), v) for i, v in enumerate(node))
    path = rng.choice(paths)
    doc = json.loads(json.dumps(doc))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    if isinstance(node, list) and node and rng.random() < 0.5:
        bad = rng.choice([node[:-1], node + node[:1], node + [{"state": "ghost"}], node[::-1]])
    elif isinstance(node, dict) and node and rng.random() < 0.3:
        bad = {**node, "extra": None}
    else:
        bad = rng.choice([
            None, 5, "s0", [], {}, {"state": rng.choice(states + ["", "ghost"])}, {"state": 3},
            {"const": rng.choice(["p", "q", "r", "z", 1])}, {"inl": {"state": "s0"}},
            {"inr": {"const": "p"}}, {"inx": None}, {"tuple": [{"state": "s0"}]}, {"tuple": 5},
            {"set": []}, {"set": 5}, {"set": [{"state": "s0"}, {"state": "s0"}]},
            {"fun": {"x": {"state": "s0"}}}, {"fun": []}, {"star": None}, {"star": 1},
            {"pair": [{"state": "s0"}, {"state": "s0"}]}, {"pair": [{"state": "s0"}]},
        ])
    if parent is None:
        return bad
    parent[path[-1]] = bad
    return doc


# ---------------------------------------------------------------------------
# register systems: random runs, atom permutations and canonical forms
# (the projection side of the orbit-graph reduction, and the equivariance
# checks)


def simulate(spec, state, rng, max_steps):
    """A random concrete run: random input atoms, random successor choice.

    Stops at a deadlock or after ``max_steps``.  Atoms are drawn from the
    current registers plus a small window of other atoms so both input
    cases get exercised.
    """
    spec.check_state(state)
    steps = []
    current = state
    for _ in range(max_steps):
        pool = sorted(set(current.registers) | set(range(4)))
        a = rng.choice(pool)
        successors = sorted(
            nominal_step(spec, current, a), key=lambda s: (s.label, s.registers)
        )
        if not successors:
            break
        nxt = rng.choice(successors)
        steps.append((a, nxt))
        current = nxt
    return steps


def reference_orbit_graph(spec):
    """The orbit graph built rule by rule, keyed by name: an edge per
    template target."""
    edges = {lbl: set() for lbl in spec.labels}
    for rule in spec.rules:
        for tpl in rule.templates:
            edges[rule.source].add(tpl.label)
    return {lbl: frozenset(targets) for lbl, targets in edges.items()}


def reference_path_witness(spec, state, length):
    """``path_witness`` on the by-name orbit graph, its live labels read
    from the round-by-round fixpoint: each step goes to the least live
    target, through the first rule with a template toward it, on the least
    admissible atom, to the successor with the least registers."""
    graph = reference_orbit_graph(spec)
    alive = set(graph) - set(round_ranks(graph))
    steps = []
    current = state
    for _ in range(length):
        target = min(graph[current.label] & alive)
        case = next(
            rule.case
            for rule in spec.rules
            if rule.source == current.label and any(tpl.label == target for tpl in rule.templates)
        )
        if case == FRESH_CASE:
            a = next(b for b in itertools.count() if b not in current.registers)
        else:
            a = current.registers[case[1]]
        current = min(
            (s for s in nominal_step(spec, current, a) if s.label == target),
            key=lambda s: s.registers,
        )
        steps.append((a, current))
    return steps


def permute_atom(pi, a):
    return pi.get(a, a)


def permute_state(pi, state):
    return NState(state.label, tuple(permute_atom(pi, a) for a in state.registers))


def canonical_successor(state, source_registers, input_atom):
    """Describe a successor relative to its source, forgetting fresh atoms.

    Each register atom is classified as a source register index, the input
    atom, or the n-th fresh atom in order of first occurrence.  Two
    successor sets of permuted steps agree exactly on these forms.
    """
    fresh_order = {}
    slots = []
    for a in state.registers:
        if a in source_registers:
            slots.append(("reg", source_registers.index(a)))
        elif a == input_atom:
            slots.append(("input",))
        else:
            slots.append(("fresh", fresh_order.setdefault(a, len(fresh_order))))
    return (state.label, tuple(slots))


# ---------------------------------------------------------------------------
# convex systems: sampled support paths (the rank-descent check of the WF
# side)


def sample_support_path(spec, g, rng, max_steps):
    """Support evolution of a random successor path from generator g.

    At each step one successor vertex is drawn per support generator; the
    next point's support is exactly the union of the drawn vertices'
    supports (all coefficients are nonnegative, so nothing cancels).  Stops
    at a deadlock (some support generator has an empty polytope) or after
    ``max_steps``.
    """
    supports = [frozenset([g])]
    current = frozenset([g])
    for _ in range(max_steps):
        if any(spec.polytopes[i].is_empty for i in current):
            break
        nxt = set()
        for i in sorted(current):
            v = rng.choice(spec.polytopes[i].vertices)
            nxt |= v.support
        current = frozenset(nxt)
        supports.append(current)
    return supports


# ---------------------------------------------------------------------------
# signature functors: the inverse of coalg.initial_algebra.encode_structure


def identity_values(container, shape):
    """Yield the values sitting in the identity slots of a plain shape, by
    a walk of the container (the oracle for the int scan of the built-in
    algebras)."""
    if isinstance(container, Identity):
        yield shape
    elif isinstance(container, Const):
        return
    elif isinstance(container, Sum):
        tag, inner = shape
        side = container.left if tag == "inl" else container.right
        yield from identity_values(side, inner)
    elif isinstance(container, Product):
        for c, x in zip(container.parts, shape):
            yield from identity_values(c, x)
    elif isinstance(container, FinPow):
        for x in shape:
            yield from identity_values(container.inner, x)
    elif isinstance(container, Exp):
        for _, v in shape:
            yield from identity_values(container.base, v)
    elif isinstance(container, PairNeq):
        if shape != STAR:
            _, a, b = shape
            yield a
            yield b
    else:
        raise AssertionError(container)


def decode_structure(sig, h):
    """Inverse of :func:`coalg.initial_algebra.encode_structure`."""
    k = len(sig.ops)
    i = 0
    while i < k - 1 and isinstance(h, InR):
        h = h.value
        i += 1
    if i < k - 1:
        if not isinstance(h, InL):
            raise InputError(f"structure does not match the signature functor: {h!r}")
        h = h.value
    name, arity = sig.ops[i]
    if arity == 0:
        if not isinstance(h, ConstVal) or h.label != name:
            raise InputError(f"bad constant payload for {name!r}: {h!r}")
        return name, []
    if arity == 1:
        return name, [h]
    if not isinstance(h, TupleOf) or len(h.items) != arity:
        raise InputError(f"bad payload for {name!r}: {h!r}")
    return name, list(h.items)


# ---------------------------------------------------------------------------
# JSON encoders of the input documents the CLI reads


def _case_to_json(case):
    return "fresh" if case == FRESH_CASE else {"reg": case[1]}


def _slot_to_json(slot):
    if slot == INPUT_SLOT:
        return "input"
    return {slot[0]: slot[1]}


def nlts_to_json(spec):
    return {
        "version": 1,
        "kind": "nlts",
        "labels": dict(sorted(spec.labels.items())),
        "rules": [
            {
                "from": rule.source,
                "case": _case_to_json(rule.case),
                "to": [
                    {
                        "label": tpl.label,
                        "assign": [_slot_to_json(s) for s in tpl.assign],
                    }
                    for tpl in rule.templates
                ],
            }
            for rule in spec.rules
        ],
    }


def convex_to_json(spec):
    return {
        "version": 1,
        "kind": "convex",
        "generators": spec.generators,
        "successors": [
            [[str(c) for c in v.coeffs] for v in poly] for poly in spec.polytopes
        ],
    }


def signature_to_json(sig):
    return {
        "version": 1,
        "kind": "signature",
        "ops": [{"name": n, "arity": a} for n, a in sig.ops],
    }


ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv, **kwargs):
    """Run ``python -m coalg.cli`` on the source tree in a fresh interpreter."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "coalg.cli", *argv], env=env, timeout=300, **kwargs
    )
