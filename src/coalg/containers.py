"""Shape functors over named states, and their structure values.

A ``Container`` is a finite description of a shape functor: identity (one
state slot), finite constants, binary sums, finite products, finite
powerset, finite exponents, and the built-in ``PairNeq`` functor of
distinct pairs with the diagonal collapsed to a single point ``*``.

An ``HStructure`` is a value of such a functor over named states.  All
values are immutable and hashable; set-like nodes are kept sorted and
duplicate-free so that structural equality is plain ``==``.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat
from typing import Iterable, Mapping, Union

from .errors import DanglingRefError, InputError, UnknownStateError
from .records import record

# ---------------------------------------------------------------------------
# containers


class _Node:
    __slots__ = ("_walks",)  # walk name -> its compiled root function, made on first use


@record
class Identity(_Node):
    """One state slot."""


@record
class Const(_Node):
    """A fixed finite set of labels; no state slots."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise InputError("Const needs at least one label")
        if not all(isinstance(x, str) for x in self.labels):
            raise InputError(f"Const labels must be strings: {self.labels}")
        if len(set(self.labels)) != len(self.labels):
            raise InputError(f"duplicate Const labels: {self.labels}")


@record
class Sum(_Node):
    left: "Container"
    right: "Container"


@record
class Product(_Node):
    parts: tuple["Container", ...]

    def __post_init__(self):
        if not self.parts:
            raise InputError("Product needs at least one component")


@record
class FinPow(_Node):
    """Finite sets of inner values."""

    inner: "Container"


@record
class Exp(_Node):
    """Functions from a fixed finite label set into inner values."""

    base: "Container"
    exponent: tuple[str, ...]

    def __post_init__(self):
        if not self.exponent:
            raise InputError("Exp needs a non-empty exponent")
        if not all(isinstance(x, str) for x in self.exponent):
            raise InputError(f"Exp labels must be strings: {self.exponent}")
        if len(set(self.exponent)) != len(self.exponent):
            raise InputError(f"duplicate Exp labels: {self.exponent}")


@record
class PairNeq(_Node):
    """Ordered pairs of *distinct* states, plus a point ``*``.

    The diagonal is collapsed: a pair whose components become equal under
    renaming is normalized to ``*``.
    """


Container = Union[Identity, Const, Sum, Product, FinPow, Exp, PairNeq]


# ---------------------------------------------------------------------------
# structure values


@record
class StateRef:
    state: str


@record
class ConstVal:
    label: str


@record
class InL:
    value: "HStructure"


@record
class InR:
    value: "HStructure"


@record
class TupleOf:
    items: tuple["HStructure", ...]


@record
class SetOf:
    """A finite set, stored sorted and duplicate-free (use :func:`set_of`)."""

    items: tuple["HStructure", ...]


@record
class FunOf:
    """A function as label/value entries sorted by label (use :func:`fun_of`)."""

    entries: tuple[tuple[str, "HStructure"], ...]


@record
class Star:
    """The collapsed-diagonal point of ``PairNeq``."""


@record
class Pair:
    left: "HStructure"
    right: "HStructure"


HStructure = Union[StateRef, ConstVal, InL, InR, TupleOf, SetOf, FunOf, Star, Pair]

STAR = Star()
_IDENTITY = Identity()


def structure_key(h: HStructure):
    """Total order key for structures; the one order of set members.

    A node's key is one flat tuple, its tag followed by its children's keys
    (a function's interleaved with its labels), so building a key, as the
    walks below, and comparing two keys take one stack frame per level."""
    t = type(h)
    if t is StateRef:
        return (0, h.state)
    if t is ConstVal:
        return (1, h.label)
    if t is InL or t is InR:
        return (2 if t is InL else 3, structure_key(h.value))
    if t is TupleOf or t is SetOf:
        return (4 if t is TupleOf else 5, *map(structure_key, h.items))
    if t is FunOf:
        keys = map(structure_key, [v for _, v in h.entries])
        return (6, *chain.from_iterable(zip([lbl for lbl, _ in h.entries], keys)))
    if t is Star:
        return (7,)
    return (8, structure_key(h.left), structure_key(h.right))


def set_of(items: Iterable[HStructure]) -> SetOf:
    """Build a canonical set node: duplicates removed, members sorted by
    :func:`structure_key`."""
    items = tuple(items)
    return SetOf(items) if len(items) < 2 else _canonical({structure_key(x): x for x in items})


def _canonical(members: dict) -> SetOf:
    """The set of the values of ``members``, sorted by their keys."""
    return SetOf(tuple([members[k] for k in sorted(members)]))


def fun_of(entries) -> FunOf:
    """Build a canonical function node from a mapping or (label, value) pairs."""
    pairs = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
    labels = [lbl for lbl, _ in pairs]
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate function labels: {labels}")
    return FunOf(tuple(sorted(pairs, key=lambda e: e[0])))


def make_pair(left: HStructure, right: HStructure) -> HStructure:
    """Pair constructor with diagonal normalization: equal components give ``*``."""
    if left == right:
        return STAR
    return Pair(left, right)


# ---------------------------------------------------------------------------
# the walks that follow a value's own constructors
#
# No container is needed to rebuild a value that ``support`` accepts.  Each
# walk takes one stack frame per level of the value: a child that is not a
# leaf is walked through ``map``, which adds no frame of its own, as a
# comprehension would.


def hmap(container: Container, f: Mapping[str, str], h: HStructure) -> HStructure:
    """Rename every state slot of ``h`` through ``f`` (the functor action).

    ``h`` must be a value of ``container``, as :func:`support` accepts it.
    Set nodes are re-canonicalized after renaming, and a ``PairNeq`` pair
    whose components collide under ``f`` collapses to ``*``.
    """
    try:
        return _rename(h, f)
    except KeyError as exc:
        raise UnknownStateError(f"map undefined on state {exc.args[0]!r}") from None


def _rename(h, f):
    t = type(h)
    if t is StateRef:
        return StateRef(f[h.state])
    if t is SetOf:
        return set_of(tuple(map(_rename, h.items, repeat(f))))
    if t is TupleOf:
        return TupleOf(tuple(map(_rename, h.items, repeat(f))))
    if t is InL or t is InR:
        return t(_rename(h.value, f))
    if t is FunOf:
        return FunOf(tuple(zip([lbl for lbl, _ in h.entries], map(_rename, [v for _, v in h.entries], repeat(f)))))
    if t is Pair:
        return make_pair(_rename(h.left, f), _rename(h.right, f))
    return h  # a ConstVal or STAR


def interpret(container: Container, h: HStructure, env: Mapping[str, object]):
    """Replace state slots by values from ``env``, yielding a plain shape.

    ``h`` must be a value of ``container``, as :func:`support` accepts it.
    The result uses ordinary Python data: labels stay strings, sums become
    ``("inl", x)`` / ``("inr", x)`` tags, products become tuples, sets
    become frozensets, functions become sorted (label, value) tuples, and
    ``PairNeq`` values become ``STAR`` or ``("pair", a, b)`` with the
    diagonal normalized to ``STAR``.  Algebra evaluation consumes these
    shapes.
    """
    try:
        return _shape(h, env)
    except KeyError as exc:
        raise UnknownStateError(f"no value for state {exc.args[0]!r}") from None


def _shape(h, env):
    t = type(h)
    if t is SetOf:
        if h.items and type(h.items[0]) is StateRef:  # then every member is one
            return frozenset([env[x.state] for x in h.items])
        return frozenset(map(_shape, h.items, repeat(env)))
    if t is StateRef:
        return env[h.state]
    if t is TupleOf:
        return tuple(map(_shape, h.items, repeat(env)))
    if t is InL or t is InR:
        return ("inl" if t is InL else "inr", _shape(h.value, env))
    if t is ConstVal:
        return h.label
    if t is FunOf:
        return tuple(zip([lbl for lbl, _ in h.entries], map(_shape, [v for _, v in h.entries], repeat(env))))
    if t is Pair:
        a, b = _shape(h.left, env), _shape(h.right, env)
        return STAR if a == b else ("pair", a, b)
    return STAR


def structure_to_json(h: HStructure):
    t = type(h)
    if t is StateRef:
        return {"state": h.state}
    if t is SetOf or t is TupleOf:
        return {"set" if t is SetOf else "tuple": list(map(structure_to_json, h.items))}
    if t is InL or t is InR:
        return {"inl" if t is InL else "inr": structure_to_json(h.value)}
    if t is ConstVal:
        return {"const": h.label}
    if t is FunOf:
        return {"fun": dict(zip([lbl for lbl, _ in h.entries], map(structure_to_json, [v for _, v in h.entries])))}
    if t is Pair:
        return {"pair": [structure_to_json(h.left), structure_to_json(h.right)]}
    return {"star": None}


# ---------------------------------------------------------------------------
# the walks that check a value against its container, compiled once per
# container: the decoder, its graph walk, and support
#
# Each walk is Python source generated for one container, as records.py
# generates methods: a function ``w<k>`` per distinct sub-container k runs
# the node's checks inline and inlines an Identity or Const child, so no
# walk dispatches on the container at run time.  Block nesting is fixed, so
# a container of any depth compiles; a walk takes one frame per value level.
#
# decoding JSON: w<k>(doc, refs, at, interned) is the value ``doc`` spells,
# the indices of its states added to ``refs``; ``at`` gives the index of each
# carrier name, and ``interned`` the StateRef at each index once it is made
# (never at -1, the index of a name outside the carrier, nor at an empty
# name's).  The graph walk is this table with the lines marked ``# value``
# left out: it makes the same checks, adds the same indices and builds no
# value, and its ``interned`` holds True at each index that needs no check.
_DECODE = dict(
    id=[
        's = x.get("state") if type(x) is dict and len(x) == 1 else None',
        "i = at.get(s, -1) if type(s) is str else -1",
        "v = interned[i]",
        "if v is None: v = _intern(x, i, interned)",
    ],
    ref=["refs.add(i)"],  # after a state, unless its parent (a pair) adds them
    const=[
        'l = x.get("const") if type(x) is dict and len(x) == 1 else None',
        "v = L{j}.get(l) if type(l) is str else None",
        "if v is None: raise _bad_leaf(x, 'const', C{j}.labels)",
    ],
    call=["v = w{j}(x, refs, at, interned)"],
    key={"id": "i", "const": "l"},  # a state sorts as its index does
    leaf="def w{k}(x, refs, at, interned):\n    {child}\n    return v",
    sum="""def w{k}(doc, refs, at, interned):
    tag = next(iter(doc)) if type(doc) is dict and len(doc) == 1 else None
    if tag != "inl" and tag != "inr": raise _tag_error(doc, ("inl", "inr"))
    x = doc[tag]
    try:
        if tag == "inl":
            {child}
        else:
            {right}
    except _Mismatch as exc: raise exc.at("." + tag)
    return InL(v) if tag == "inl" else InR(v)  # value""",
    product="""def w{k}(doc, refs, at, interned):
    body = _body(doc, "tuple")
    if type(body) is not list or len(body) != {n}: raise _Mismatch("expected a list of {n} values", ".tuple")
    items = []  # value
    try:
        for n, (f, x) in enumerate(zip(wP{k}, body)):
            v = f(x, refs, at, interned)
            items.append(v)  # value
    except _Mismatch as exc: raise exc.at(f".tuple[{{n}}]")
    return TupleOf(tuple(items))  # value""",
    finpow="""def w{k}(doc, refs, at, interned):
    body = doc["set"] if type(doc) is dict and len(doc) == 1 and "set" in doc else _body(doc, "set")
    if type(body) is not list: raise _Mismatch("expected a list", ".set")
    items = {{}}  # value: sort key -> member
    try:
        for n, x in enumerate(body):
            {child}
            items[{key}] = v  # value
    except _Mismatch as exc: raise exc.at(f".set[{{n}}]")
    return _canonical(items)  # value""",
    exp="""def w{k}(doc, refs, at, interned):
    body = _body(doc, "fun")
    if type(body) is not dict or body.keys() != X{k}: raise _Mismatch(E{k}, ".fun")
    items = {{}}  # value
    try:
        for lbl, x in body.items():
            {child}
            items[lbl] = v  # value
    except _Mismatch as exc: raise exc.at(f".fun.{{lbl}}")
    return FunOf(tuple([(l, items[l]) for l in S{k}]))  # value""",
    pairneq="""def w{k}(doc, refs, at, interned):
    if type(doc) is dict and len(doc) == 1 and "star" in doc:
        if doc["star"] is not None: raise _Mismatch("expected null", ".star")
        return STAR
    body = _body(doc, "pair", ("star", "pair"))
    if type(body) is not list or len(body) != 2: raise _Mismatch("expected [left, right]", ".pair")
    pair = []  # value
    ids = []
    try:
        for x in body:
            {child}
            pair.append(v)  # value
            ids.append(i)
    except _Mismatch as exc: raise exc.at(f".pair[{{len(ids)}}]")
    if ids[0] == ids[1]: return STAR  # * references no state
    refs.update(ids)
    return Pair(*pair)  # value""",
)

# checking a value: w<k>(h, out) raises InputError unless ``h`` is a value
# of node k, and adds its states to ``out``.  The checks run in the order of
# a depth-first walk that takes a node's children from the last.
_SUPPORT = dict(
    id=["if type(x) is not StateRef or not x.state: raise _shape_error(C{j}, x)", "out.add(x.state)"],
    const=["if type(x) is not ConstVal or x.label not in C{j}.labels: raise _shape_error(C{j}, x)"],
    call=["w{j}(x, out)"],
    key={"id": "v.state", "const": "v.label"},
    leaf="def w{k}(x, out):\n    {child}",
    sum="""def w{k}(h, out):
    if type(h) is not InL and type(h) is not InR: raise _shape_error(C{k}, h)
    x = h.value
    if type(h) is InL:
        {child}
    else:
        {right}""",
    product="""def w{k}(h, out):
    if type(h) is not TupleOf or len(h.items) != {n}: raise _shape_error(C{k}, h)
    for f, x in zip(reversed(wP{k}), reversed(h.items)): f(x, out)""",
    finpow="""def w{k}(h, out):
    if type(h) is not SetOf: raise _shape_error(C{k}, h)
    for x in reversed(h.items):
        {child}
    keys = [{key} for v in h.items]
    if any(map(operator.ge, keys, keys[1:])): raise InputError(f"set {{h!r}} is not sorted and duplicate-free")""",
    exp="""def w{k}(h, out):
    if type(h) is not FunOf or [l for l, _ in h.entries] != S{k}: raise _shape_error(C{k}, h)
    for _, x in reversed(h.entries):
        {child}""",
    pairneq="""def w{k}(h, out):
    if type(h) is Pair and h.left != h.right:
        for x in (h.right, h.left):
            {child}
    elif type(h) is not Star: raise _shape_error(C{k}, h)""",
)

# the graph walk: the decoder's templates, less their lines marked # value
_GRAPH = {
    name: "\n".join(line for line in t.split("\n") if "  # value" not in line) if isinstance(t, str) else t
    for name, t in _DECODE.items()
}

_WALKS = {"decode": _DECODE, "graph": _GRAPH, "support": _SUPPORT}


def _compile(container, walk: str):
    """Generate and exec one walk of ``container``; return its root function.
    The sub-containers are listed children first, equal ones once."""
    at: dict[int, int] = {}  # id(node) -> its position in nodes
    shared: dict[tuple, int] = {}  # (kind, labels, kid positions) -> position
    nodes, todo = [], [container]
    while todo:
        c = todo[-1]
        kind, kids, labels = _node(c)
        new = [x for x in kids if id(x) not in at]
        todo += new
        if not new and id(todo.pop()) not in at:
            key = (kind, labels, tuple(at[id(x)] for x in kids))
            at[id(c)] = shared.setdefault(key, len(nodes))
            if at[id(c)] == len(nodes):
                nodes.append((kind, c, key[2]))
    scope, source = dict(_SCOPE), []
    for k, (kind, node, kids) in enumerate(nodes):
        scope[f"C{k}"] = node
        if kind == "const":
            scope[f"L{k}"] = {lbl: ConstVal(lbl) for lbl in node.labels}
        elif kind == "exp":
            scope[f"X{k}"], scope[f"S{k}"] = set(node.exponent), sorted(node.exponent)
            scope[f"E{k}"] = f"expected an object with labels {sorted(node.exponent)}"
        if kind in ("id", "const"):  # inlined into its parents, or a closure in a product's loop
            scope[f"w{k}"] = _LEAVES[walk, kind](scope.get(f"L{k}"), node)
        else:
            source += _lines_source(_WALKS[walk], k, nodes)
        if len(source) > 2000 or k == len(nodes) - 1:  # compiling takes memory in proportion to the source
            exec("\n".join(source), scope)
            source = []
    for k, (kind, _, kids) in enumerate(nodes):
        if kind == "product":
            scope[f"wP{k}"] = tuple(scope[f"w{j}"] for j in kids)
    return scope[f"w{len(nodes) - 1}"]


def _node(c) -> tuple[str, tuple, tuple]:
    """The kind of the container node ``c``, its children and its labels."""
    if isinstance(c, Identity):
        return "id", (), ()
    if isinstance(c, Const):
        return "const", (), c.labels
    if isinstance(c, Sum):
        return "sum", (c.left, c.right), ()
    if isinstance(c, Product):
        return "product", c.parts, ()
    if isinstance(c, FinPow):
        return "finpow", (c.inner,), ()
    if isinstance(c, Exp):
        return "exp", (c.base,), c.exponent
    if isinstance(c, PairNeq):
        return "pairneq", (_IDENTITY,), ()  # its two state slots
    raise InputError(f"unknown container: {c!r}")


def has_pairneq(container: Container) -> bool:
    """True iff ``container`` has a ``PairNeq`` node, the one node whose
    values can drop a state slot when states are replaced by values: a pair
    of distinct states collapses to ``*`` once their values are equal."""
    seen, todo = set(), [container]
    while todo:
        kind, kids, _ = _node(todo.pop())
        if kind == "pairneq":
            return True
        todo += [x for x in kids if id(x) not in seen]
        seen.update(map(id, kids))
    return False


def _lines_source(table, k, nodes) -> list[str]:
    # the source of w<k> in ``table``'s walk
    kind, _, kids = nodes[k]
    j = kids[0] if kids else k

    def child(i):  # the lines that walk x under node i, leaving its value in v
        leaf = nodes[i][0]
        if leaf not in ("id", "const"):
            return [table["call"][0].format(j=i)]
        # a pair of states adds them to refs itself, unless they are equal
        ref = table.get("ref", []) if leaf == "id" and kind != "pairneq" else []
        return [line.format(j=i) for line in table[leaf] + ref]

    children = {"child": child(j), "right": child(kids[-1] if kids else k)}
    # a set's members sort by structure_key, a label as its name does
    key = table["key"].get(nodes[j][0], "structure_key(v)")
    fields = dict(k=k, j=j, n=len(kids), key=key)
    out = []
    for line in table["leaf" if kind in ("id", "const") else kind].split("\n"):
        name = line.strip()[1:-1]
        out += [line[: line.index("{")] + c for c in children[name]] if name in children else [line.format(**fields)]
    return out


def _walk(container, walk: str):
    # kept on the container, not in a table keyed by it: hashing a container
    # recurses as deep as it is, and its walks die with it
    try:
        return container._walks[walk]
    except (AttributeError, KeyError):
        walks = getattr(container, "_walks", {})
        walks[walk] = fn = _compile(container, walk)
        object.__setattr__(container, "_walks", walks)
        return fn


def _shape_error(container, h):
    return InputError(f"structure {h!r} does not match container {container!r}")


class _Mismatch(Exception):
    """A decode error, raised as an ``error``; each enclosing node adds its
    step to the JSON path."""

    def __init__(self, msg: str, step: str = "", error: type = InputError):
        super().__init__(msg)
        self.msg, self.steps, self.error = msg, [step] if step else [], error

    def at(self, step: str) -> "_Mismatch":
        self.steps.append(step)
        return self


def _tag_error(doc, tags) -> _Mismatch:
    want = " or ".join(repr(t) for t in tags)
    if isinstance(doc, dict) and len(doc) == 1:
        return _Mismatch(f"expected tag {want}, got {next(iter(doc))!r}")
    return _Mismatch(f"expected a single-key object tagged {want}, got {doc!r}")


def _body(doc, tag: str, tags=None):
    if isinstance(doc, dict) and len(doc) == 1 and tag in doc:
        return doc[tag]
    raise _tag_error(doc, tags or (tag,))


def _intern(x, i: int, interned: list):
    """The StateRef of the carrier state at index ``i`` that ``x`` names,
    made on its first reference; ``i`` is -1 for a name outside the
    carrier."""
    if i < 0 or not x["state"]:
        raise _bad_leaf(x, "state", None)
    v = interned[i] = StateRef(x["state"])
    return v


def _bad_leaf(x, tag: str, labels) -> _Mismatch:
    """Why ``x`` is not a state reference (``labels`` None) or one of ``labels``."""
    s = _body(x, tag)
    if labels is not None:
        return _Mismatch(f"expected one of {list(labels)}, got {s!r}", ".const")
    if type(s) is not str or not s:
        return _Mismatch("expected a non-empty string", ".state")
    return _Mismatch(f"{s!r} is not a carrier state", ".state", DanglingRefError)


_SCOPE = dict(  # the names the generated code uses
    InL=InL, InR=InR, TupleOf=TupleOf, SetOf=SetOf, FunOf=FunOf, Star=Star, STAR=STAR, Pair=Pair,
    StateRef=StateRef, ConstVal=ConstVal, InputError=InputError, _canonical=_canonical,
    _Mismatch=_Mismatch, _tag_error=_tag_error, _body=_body, _bad_leaf=_bad_leaf, _intern=_intern,
    _shape_error=_shape_error, structure_key=structure_key, operator=operator,
)


def _leaf_maker(walk: str, kind: str):
    # make(L, C) walks a leaf of labels L and container C: one source for all
    body = "".join(f"    {line}\n" for line in _lines_source(_WALKS[walk], "", {"": (kind, None, ())}))
    exec(f"def make(L, C):\n{body}    return w", scope := dict(_SCOPE))
    return scope["make"]


_LEAVES = {(walk, kind): _leaf_maker(walk, kind) for walk in _WALKS for kind in ("id", "const")}


def support(container: Container, h: HStructure) -> frozenset[str]:
    """The set of states occurring in ``h``, which must be a value of ``container``.

    For every container in the grammar this is the least state set over
    which ``h`` is expressible, so it doubles as the successor set of a
    state whose transition structure is ``h``.  The same walk checks that
    ``h`` is a well-typed, canonical value: constructor types, declared
    ``Const`` labels, ``Product`` arity, set members strictly increasing
    (sorted and duplicate-free; checked after the members), exactly the
    ``Exp`` labels, non-empty state names, and distinct ``PairNeq``
    components (the equal case is only legal as ``*``).  The first mismatch
    raises :class:`InputError`.
    """
    out: set[str] = set()
    _walk(container, "support")(h, out)
    return frozenset(out)


def structure_decoder(container: Container, carrier: dict, values: bool = True):
    """The one-pass decoder of the JSON values of ``container``.

    ``carrier`` maps each state name to its index: the names in sorted
    order, numbered from 0, so that a set of states sorts as its indices do.
    ``decode(entries, where="$")`` decodes each value of ``entries``, pairs
    ``(key, doc)`` whose keys are carrier names, as the pair is reached, so
    that an entry's JSON can be freed as soon as it is decoded.  It returns
    ``(values, out)``: the values keyed as in ``entries``, and the
    successors of each carrier state, ``out[carrier[key]]`` the indices of
    the states of the value at ``key``, in a tuple, or None where no entry
    came; a key that comes twice keeps its last value.  One walk of a
    document checks it against the container and its state names against
    the carrier, and builds the canonical value that
    :func:`structure_from_json` builds, with one ``StateRef`` per name.  An
    error names the JSON path ``where``, then the key, then the steps in it.

    With ``values`` false the decoder runs the graph walk: the same checks
    in the same order, with the same errors, and the same ``out``, but no
    value is built, and ``values`` comes back None.
    """
    root = _walk(container, "decode" if values else "graph")
    # index -> its StateRef, made on first use; the graph walk makes none, and
    # holds True at every index but an empty name's, which _intern refuses
    interned = [None if values else True] * len(carrier) + [None]
    if not values and "" in carrier:
        interned[carrier[""]] = None

    def decode(entries, where: str = "$"):
        kept, out = {} if values else None, [None] * len(carrier)
        for key, doc in entries:
            refs: set[int] = set()
            try:
                v = root(doc, refs, carrier, interned)
            except _Mismatch as exc:
                raise exc.error(f"{where}{key}{''.join(reversed(exc.steps))}: {exc.msg}") from None
            if values:
                kept[key] = v
            out[carrier[key]] = tuple(refs)
        return kept, out

    return decode


# ---------------------------------------------------------------------------
# JSON encoding (tagged single-key objects; round-trips exactly)


def container_to_json(container: Container):
    if isinstance(container, Identity):
        return {"id": None}
    if isinstance(container, Const):
        return {"const": list(container.labels)}
    if isinstance(container, Sum):
        return {"sum": [container_to_json(container.left), container_to_json(container.right)]}
    if isinstance(container, Product):
        return {"product": list(map(container_to_json, container.parts))}
    if isinstance(container, FinPow):
        return {"finpow": container_to_json(container.inner)}
    if isinstance(container, Exp):
        return {
            "exp": {
                "base": container_to_json(container.base),
                "labels": list(container.exponent),
            }
        }
    if isinstance(container, PairNeq):
        return {"pairneq": None}
    raise InputError(f"unknown container: {container!r}")


def _tagged(doc, where):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise InputError(f"{where}: expected a single-key tagged object, got {doc!r}")
    return next(iter(doc.items()))


def container_from_json(doc, where: str = "$") -> Container:
    tag, body = _tagged(doc, where)
    if tag == "id":
        return Identity()
    if tag == "const":
        if not isinstance(body, list) or not all(isinstance(x, str) for x in body):
            raise InputError(f"{where}.const: expected a list of labels")
        return Const(tuple(body))
    if tag == "sum":
        if not isinstance(body, list) or len(body) != 2:
            raise InputError(f"{where}.sum: expected [left, right]")
        return Sum(
            container_from_json(body[0], f"{where}.sum[0]"),
            container_from_json(body[1], f"{where}.sum[1]"),
        )
    if tag == "product":
        if not isinstance(body, list):
            raise InputError(f"{where}.product: expected a list")
        return Product(
            tuple(
                container_from_json(c, f"{where}.product[{i}]")
                for i, c in enumerate(body)
            )
        )
    if tag == "finpow":
        return FinPow(container_from_json(body, f"{where}.finpow"))
    if tag == "exp":
        if not isinstance(body, dict) or set(body) != {"base", "labels"}:
            raise InputError(f"{where}.exp: expected {{base, labels}}")
        labels = body["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError(f"{where}.exp.labels: expected a list of labels")
        return Exp(
            container_from_json(body["base"], f"{where}.exp.base"),
            tuple(labels),
        )
    if tag == "pairneq":
        return PairNeq()
    raise InputError(f"{where}: unknown container tag {tag!r}")


def structure_from_json(doc, where: str = "$") -> HStructure:
    tag, body = _tagged(doc, where)
    if tag == "state":
        if not isinstance(body, str) or not body:
            raise InputError(f"{where}.state: expected a non-empty string")
        return StateRef(body)
    if tag == "const":
        if not isinstance(body, str):
            raise InputError(f"{where}.const: expected a label string")
        return ConstVal(body)
    if tag == "inl":
        return InL(structure_from_json(body, f"{where}.inl"))
    if tag == "inr":
        return InR(structure_from_json(body, f"{where}.inr"))
    if tag == "tuple":
        if not isinstance(body, list):
            raise InputError(f"{where}.tuple: expected a list")
        return TupleOf(
            tuple(
                structure_from_json(x, f"{where}.tuple[{i}]")
                for i, x in enumerate(body)
            )
        )
    if tag == "set":
        if not isinstance(body, list):
            raise InputError(f"{where}.set: expected a list")
        return set_of(
            structure_from_json(x, f"{where}.set[{i}]") for i, x in enumerate(body)
        )
    if tag == "fun":
        if not isinstance(body, dict):
            raise InputError(f"{where}.fun: expected an object")
        return fun_of(
            {lbl: structure_from_json(v, f"{where}.fun.{lbl}") for lbl, v in body.items()}
        )
    if tag == "star":
        return STAR
    if tag == "pair":
        if not isinstance(body, list) or len(body) != 2:
            raise InputError(f"{where}.pair: expected [left, right]")
        return make_pair(
            structure_from_json(body[0], f"{where}.pair[0]"),
            structure_from_json(body[1], f"{where}.pair[1]"),
        )
    raise InputError(f"{where}: unknown structure tag {tag!r}")
