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

import itertools
from types import SimpleNamespace
from typing import Iterable, Mapping, Union

from .errors import InputError, UnknownStateError
from .records import record

# ---------------------------------------------------------------------------
# containers


@record
class Identity:
    """One state slot."""


@record
class Const:
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
class Sum:
    left: "Container"
    right: "Container"


@record
class Product:
    parts: tuple["Container", ...]

    def __post_init__(self):
        if not self.parts:
            raise InputError("Product needs at least one component")


@record
class FinPow:
    """Finite sets of inner values."""

    inner: "Container"


@record
class Exp:
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
class PairNeq:
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

_KEY_TAGS = {
    StateRef: 0,
    ConstVal: 1,
    InL: 2,
    InR: 3,
    TupleOf: 4,
    SetOf: 5,
    FunOf: 6,
    Star: 7,
    Pair: 8,
}


def structure_key(h: HStructure):
    """Total order key for structures; used to canonicalize set nodes."""
    tag = _KEY_TAGS[type(h)]
    if isinstance(h, StateRef):
        return (tag, h.state)
    if isinstance(h, ConstVal):
        return (tag, h.label)
    if isinstance(h, (InL, InR)):
        return (tag, structure_key(h.value))
    if isinstance(h, TupleOf):
        return (tag, tuple(structure_key(x) for x in h.items))
    if isinstance(h, SetOf):
        return (tag, tuple(structure_key(x) for x in h.items))
    if isinstance(h, FunOf):
        return (tag, tuple((lbl, structure_key(v)) for lbl, v in h.entries))
    if isinstance(h, Star):
        return (tag,)
    return (tag, structure_key(h.left), structure_key(h.right))


def set_of(items: Iterable[HStructure]) -> SetOf:
    """Build a canonical set node: duplicates removed, members sorted."""
    items = tuple(items)
    if len(items) < 2:
        return SetOf(items)
    dedup = {structure_key(x): x for x in items}
    return SetOf(tuple(dedup[k] for k in sorted(dedup)))


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
# the three functor operations


def support(container: Container, h: HStructure) -> frozenset[str]:
    """The set of states occurring in ``h``, which must be a value of ``container``.

    For every container in the grammar this is the least state set over
    which ``h`` is expressible, so it doubles as the successor set of a
    state whose transition structure is ``h``.  The same walk checks that
    ``h`` is a well-typed, canonical value: constructor types, declared
    ``Const`` labels, ``Product`` arity, set members strictly increasing
    (sorted and duplicate-free), exactly the ``Exp`` labels, non-empty
    state names, and distinct ``PairNeq`` components (the equal case is
    only legal as ``*``).  The first mismatch raises :class:`InputError`.
    """
    out: set[str] = set()
    todo = [(container, h)]
    while todo:
        c, h = todo.pop()
        if isinstance(c, Identity):
            if not (isinstance(h, StateRef) and h.state):
                raise _shape_error(c, h)
            out.add(h.state)
        elif isinstance(c, Const):
            if not (isinstance(h, ConstVal) and h.label in c.labels):
                raise _shape_error(c, h)
        elif isinstance(c, Sum):
            if isinstance(h, InL):
                todo.append((c.left, h.value))
            elif isinstance(h, InR):
                todo.append((c.right, h.value))
            else:
                raise _shape_error(c, h)
        elif isinstance(c, Product):
            if not (isinstance(h, TupleOf) and len(h.items) == len(c.parts)):
                raise _shape_error(c, h)
            todo.extend(zip(c.parts, h.items))
        elif isinstance(c, FinPow):
            if not isinstance(h, SetOf):
                raise _shape_error(c, h)
            keys = [structure_key(x) for x in h.items]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise InputError(f"set {h!r} is not sorted and duplicate-free")
            todo.extend((c.inner, x) for x in h.items)
        elif isinstance(c, Exp):
            if not (isinstance(h, FunOf) and [lbl for lbl, _ in h.entries] == sorted(c.exponent)):
                raise _shape_error(c, h)
            todo.extend((c.base, v) for _, v in h.entries)
        elif isinstance(c, PairNeq):
            if isinstance(h, Pair) and h.left != h.right:
                todo += ((_IDENTITY, h.left), (_IDENTITY, h.right))
            elif not isinstance(h, Star):
                raise _shape_error(c, h)
        else:
            raise InputError(f"unknown container: {c!r}")
    return frozenset(out)


def _shape_error(container, h):
    return InputError(f"structure {h!r} does not match container {container!r}")


def _fmap(container: Container, h: HStructure, state, build):
    """Rebuild ``h``, a value of ``container``, bottom-up: ``state(name)`` at
    every state slot and one constructor of ``build`` at every other node.

    ``build`` has ``const(label)``, ``inl(x)``, ``inr(x)``, ``tuple(xs)``,
    ``set(xs)``, ``fun(entries)`` (label/result pairs in label order),
    ``star()`` and ``pair(a, b)``.  Nothing is checked: ``h`` must be a
    value that :func:`support` accepts.
    """
    if isinstance(container, Identity):
        return state(h.state)
    if isinstance(container, Const):
        return build.const(h.label)
    if isinstance(container, Sum):
        if isinstance(h, InL):
            return build.inl(_fmap(container.left, h.value, state, build))
        return build.inr(_fmap(container.right, h.value, state, build))
    if isinstance(container, Product):
        return build.tuple([_fmap(c, x, state, build) for c, x in zip(container.parts, h.items)])
    if isinstance(container, FinPow):
        return build.set([_fmap(container.inner, x, state, build) for x in h.items])
    if isinstance(container, Exp):
        return build.fun([(lbl, _fmap(container.base, v, state, build)) for lbl, v in h.entries])
    if isinstance(h, Star):  # PairNeq
        return build.star()
    return build.pair(state(h.left.state), state(h.right.state))


_VALUES = SimpleNamespace(
    const=ConstVal, inl=InL, inr=InR, tuple=lambda xs: TupleOf(tuple(xs)), set=set_of,
    fun=lambda entries: FunOf(tuple(entries)), star=lambda: STAR, pair=make_pair,
)
_SHAPES = SimpleNamespace(
    const=lambda label: label, inl=lambda x: ("inl", x), inr=lambda x: ("inr", x),
    tuple=tuple, set=frozenset, fun=tuple, star=lambda: STAR,
    pair=lambda a, b: STAR if a == b else ("pair", a, b),
)


def hmap(container: Container, f: Mapping[str, str], h: HStructure) -> HStructure:
    """Rename every state slot of ``h`` through ``f`` (the functor action).

    ``h`` must be a value of ``container``, as :func:`support` accepts it.
    Set nodes are re-canonicalized after renaming, and a ``PairNeq`` pair
    whose components collide under ``f`` collapses to ``*``.
    """
    def rename(s):
        if s not in f:
            raise UnknownStateError(f"map undefined on state {s!r}")
        return StateRef(f[s])

    return _fmap(container, h, rename, _VALUES)


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
    def value(s):
        try:
            return env[s]
        except KeyError:
            raise UnknownStateError(f"no value for state {s!r}") from None

    return _fmap(container, h, value, _SHAPES)


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
        return {"product": [container_to_json(c) for c in container.parts]}
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


_JSON = SimpleNamespace(
    const=lambda label: {"const": label}, inl=lambda x: {"inl": x}, inr=lambda x: {"inr": x},
    tuple=lambda xs: {"tuple": xs}, set=lambda xs: {"set": xs},
    fun=lambda entries: {"fun": dict(entries)}, star=lambda: {"star": None},
    pair=lambda a, b: {"pair": [a, b]},
)


def structure_to_json(container: Container, h: HStructure):
    return _fmap(container, h, lambda s: {"state": s}, _JSON)


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


# ---------------------------------------------------------------------------
# one-pass decoding against a known container


class _Mismatch(Exception):
    """A decode error; each enclosing node adds its step to the JSON path."""

    def __init__(self, msg: str, step: str = ""):
        super().__init__(msg)
        self.msg = msg
        self.steps = [step] if step else []


def _tag_error(doc, tags) -> _Mismatch:
    want = " or ".join(repr(t) for t in tags)
    if isinstance(doc, dict) and len(doc) == 1:
        return _Mismatch(f"expected tag {want}, got {next(iter(doc))!r}")
    return _Mismatch(f"expected a single-key object tagged {want}, got {doc!r}")


def _body(doc, tag: str):
    if isinstance(doc, dict) and len(doc) == 1 and tag in doc:
        return doc[tag]
    raise _tag_error(doc, (tag,))


def _decode_items(decoders, body, refs, tag: str) -> list:
    """Decode ``body[i]`` with ``decoders[i]``; an error's path gets ``.tag[i]``."""
    items = []
    try:
        for decode, x in zip(decoders, body):
            items.append(decode(x, refs))
    except _Mismatch as exc:
        exc.steps.append(f".{tag}[{len(items)}]")
        raise
    return items


def structure_decoder(container: Container, carrier):
    """Compile ``container`` into a one-pass decoder of its JSON values.

    ``decode(doc, where)`` returns ``(h, support)``.  A single walk of
    ``doc`` checks every tag and type against the container and every state
    reference against ``carrier`` (a set of state ids), builds the canonical
    value that :func:`structure_from_json` builds (through ``set_of``,
    ``fun_of`` and ``make_pair``, so unsorted or repeated set members and
    pairs of equal states are normalized), and collects the states the value
    references.  Equal state references share one ``StateRef``.  A value
    that does not fit raises :class:`InputError` naming its JSON path below
    ``where``.
    """
    interned: dict[str, StateRef] = {}

    def identity(doc, refs):
        # _body inlined: this and ``finpow`` are the hot nodes
        if not (isinstance(doc, dict) and len(doc) == 1 and "state" in doc):
            raise _tag_error(doc, ("state",))
        s = doc["state"]
        r = interned.get(s) if isinstance(s, str) else None
        if r is None:
            if not isinstance(s, str) or not s:
                raise _Mismatch("expected a non-empty string", ".state")
            if s not in carrier:
                raise _Mismatch(f"{s!r} is not a carrier state", ".state")
            r = interned[s] = StateRef(s)
        refs.add(s)
        return r

    def compile_node(c):
        if isinstance(c, Identity):
            return identity
        if isinstance(c, Const):
            consts = {lbl: ConstVal(lbl) for lbl in c.labels}

            def const(doc, refs):
                lbl = _body(doc, "const")
                v = consts.get(lbl) if isinstance(lbl, str) else None
                if v is None:
                    raise _Mismatch(f"expected one of {list(c.labels)}, got {lbl!r}", ".const")
                return v

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
                if not (isinstance(doc, dict) and len(doc) == 1 and "set" in doc):
                    raise _tag_error(doc, ("set",))
                body = doc["set"]
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
        if isinstance(c, PairNeq):

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
                        # a pair of equal states is * and references nothing
                        pair_refs: set[str] = set()
                        left, right = _decode_items((identity, identity), body, pair_refs, "pair")
                        h = make_pair(left, right)
                        if h is not STAR:
                            refs.update(pair_refs)
                        return h
                raise _tag_error(doc, ("star", "pair"))

            return pairneq
        raise InputError(f"unknown container: {c!r}")

    root = compile_node(container)

    def decode(doc, where: str = "$"):
        refs: set[str] = set()
        try:
            h = root(doc, refs)
        except _Mismatch as exc:
            path = "".join(reversed(exc.steps))
            raise InputError(f"{where}{path}: {exc.msg}") from None
        return h, frozenset(refs)

    return decode
