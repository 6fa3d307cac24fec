"""Term algebras for signatures, realization of structures as finite
systems, and desk-scale colimits of system diagrams.

A signature's shape functor is a sum of products (one summand per
operation symbol); its closed terms form the free algebra.  Every functor
structure over closed terms is *realized* by a finite well-founded system
whose distinguished state unfolds back to the corresponding term; this
realization step is what makes the closed-term algebra a fixed point of
the functor, checkable fragment by fragment with
:func:`term_realization_report`.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from typing import Mapping, Optional, Sequence

from .coalgebras import (
    Algebra,
    FiniteCoalgebra,
    verify_coalgebra_morphism,
)
from .containers import (
    Const,
    ConstVal,
    Container,
    HStructure,
    Identity,
    InL,
    InR,
    Product,
    StateRef,
    Sum,
    TupleOf,
    hmap,
)
from .errors import InputError, check_fields, check_header
from .fixpoint import reach
from .records import record
from .wellfounded import solve_recursion


class Term:
    """A closed term: an operation symbol applied to subterms.

    Terms are interned (hash-consed, after Filliâtre and Conchon,
    "Type-safe modular hash-consing", 2006): ``Term(op, args)`` returns the
    one live instance for that symbol and argument tuple, so equal terms
    are the same object and ``==`` is identity.  The structural hash and
    the height are computed once, from the children, when a term is first
    built; the printed form is computed on first use and kept.  Terms are
    immutable.
    """

    __slots__ = ("op", "args", "height", "_hash", "_text", "__weakref__")
    _table: "weakref.WeakValueDictionary[tuple, Term]" = weakref.WeakValueDictionary()

    def __new__(cls, op: str, args: Sequence["Term"] = ()):
        args = tuple(args)
        key = (op, args)
        term = cls._table.get(key)
        if term is None:
            term = object.__new__(cls)
            init = object.__setattr__
            init(term, "op", op)
            init(term, "args", args)
            init(term, "height", 1 + max(a.height for a in args) if args else 0)
            init(term, "_hash", hash(key))
            init(term, "_text", None)
            cls._table[key] = term
        return term

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Term")

    def __reduce__(self):
        # copies and unpickled terms go through the table too
        return Term, (self.op, self.args)

    def __repr__(self):
        # the dataclass-style text, with ``args`` as a tuple, built
        # without recursion
        parts = []
        todo: list = [self]
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                parts.append(t)
                continue
            parts.append(f"Term(op={t.op!r}, args=(")
            todo.append(",))" if len(t.args) == 1 else "))")
            for i, a in enumerate(reversed(t.args)):
                if i:
                    todo.append(", ")
                todo.append(a)
        return "".join(parts)

    def __str__(self):
        if self._text is None:
            # one join over the tokens, without recursion; a subterm whose
            # text is already kept is copied whole
            parts = []
            todo: list = [self]
            while todo:
                t = todo.pop()
                if isinstance(t, str):
                    parts.append(t)
                elif t._text is not None:
                    parts.append(t._text)
                elif not t.args:
                    parts.append(t.op)
                else:
                    parts.append(t.op + "(")
                    todo.append(")")
                    for i, a in enumerate(reversed(t.args)):
                        if i:
                            todo.append(",")
                        todo.append(a)
            object.__setattr__(self, "_text", "".join(parts))
        return self._text


def parse_term(text: str) -> Term:
    """Parse the compact form ``op(arg,...)`` (no whitespace significance)."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse() -> Term:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_-'"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise InputError(f"expected an operation name at offset {pos} in {text!r}")
        skip_ws()
        args = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            while True:
                args.append(parse())
                skip_ws()
                if pos >= len(text):
                    raise InputError(f"unclosed '(' in {text!r}")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                raise InputError(f"expected ',' or ')' at offset {pos} in {text!r}")
        return Term(name, tuple(args))

    try:
        term = parse()
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise InputError(f"term nested too deeply (the limit is about {limit} levels)") from None
    skip_ws()
    if pos != len(text):
        raise InputError(f"trailing input at offset {pos} in {text!r}")
    return term


# the most terms an enumeration builds, and the most argument slots (the
# sum of the arities) a signature's functor may have
TERM_LIMIT = 200_000
# the most symbols a signature may have: its functor nests one sum per
# symbol, and the walks over a container recurse once per level
SYMBOL_LIMIT = 400


@record
class Signature:
    """Operation symbols with arities; symbols must be distinct.

    Without at least one constant the set of closed terms is empty (legal,
    but every enumeration is vacuous).
    """

    # name -> (index, arity), and the functor: both built once
    __slots__ = ("_by_name", "_container")
    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.ops:
            raise InputError("signature needs at least one operation symbol")
        if len(self.ops) > SYMBOL_LIMIT:
            raise InputError(f"the signature has {len(self.ops)} symbols, above the limit of {SYMBOL_LIMIT}")
        names = [n for n, _ in self.ops]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate operation symbols: {names}")
        for n, a in self.ops:
            if not n:
                raise InputError("empty operation symbol")
            if a < 0:
                raise InputError(f"negative arity for {n!r}")
        slots = sum(a for _, a in self.ops)
        if slots > TERM_LIMIT:
            raise InputError(f"the arities add up to {slots}, above the limit of {TERM_LIMIT}")
        object.__setattr__(
            self, "_by_name", {n: (i, a) for i, (n, a) in enumerate(self.ops)}
        )
        parts = [_op_container(n, a) for n, a in self.ops]
        container = parts[-1]
        for part in reversed(parts[:-1]):
            container = Sum(part, container)
        object.__setattr__(self, "_container", container)

    def _entry(self, op: str) -> tuple[int, int]:
        entry = self._by_name.get(op) if isinstance(op, str) else None
        if entry is None:
            raise InputError(f"unknown operation symbol {op!r}")
        return entry

    def arity(self, op: str) -> int:
        return self._entry(op)[1]

    def index(self, op: str) -> int:
        return self._entry(op)[0]


def signature_from_json(doc) -> Signature:
    check_header(doc, "signature", ("ops",))
    ops = doc.get("ops")
    if not isinstance(ops, list):
        raise InputError("$.ops: expected a list")
    out = []
    for i, entry in enumerate(ops):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or type(entry.get("arity")) is not int
        ):
            raise InputError(f"$.ops[{i}]: expected {{name, arity}}")
        check_fields(entry, ("name", "arity"), f"$.ops[{i}]")
        out.append((entry["name"], entry["arity"]))
    return Signature(tuple(out))


def _op_container(name: str, arity: int) -> Container:
    if arity == 0:
        return Const((name,))
    if arity == 1:
        return Identity()
    return Product((Identity(),) * arity)


def signature_container(sig: Signature) -> Container:
    """The sum-of-products functor of a signature, built once with it.

    One summand per symbol: a one-label constant for arity 0, a single
    state slot for arity 1, a product of state slots otherwise.  Summands
    nest to the right in declaration order.
    """
    return sig._container


def encode_structure(sig: Signature, op: str, children: Sequence[HStructure]) -> HStructure:
    """Wrap per-symbol payload into the signature functor's sum nesting."""
    i, arity = sig._entry(op)
    if len(children) != arity:
        raise InputError(f"{op!r} takes {arity} arguments, got {len(children)}")
    if arity == 0:
        h: HStructure = ConstVal(op)
    elif arity == 1:
        h = children[0]
    else:
        h = TupleOf(tuple(children))
    if i < len(sig.ops) - 1:
        h = InL(h)
    for _ in range(i):
        h = InR(h)
    return h


def term_algebra(sig: Signature) -> Algebra:
    """The free algebra: eval wraps an evaluated shape into a new term.

    Eval is injective (distinct shapes give distinct terms), which is what
    makes closed terms free over the signature.
    """
    k = len(sig.ops)

    def ev(shape) -> Term:
        i = 0
        s = shape
        while (
            i < k - 1
            and isinstance(s, tuple)
            and len(s) == 2
            and s[0] in ("inl", "inr")
        ):
            if s[0] == "inl":
                s = s[1]
                break
            s = s[1]
            i += 1
        name, arity = sig.ops[i]
        if arity == 0:
            args: tuple[Term, ...] = ()
        elif arity == 1:
            args = (s,)
        else:
            args = tuple(s)
        for a in args:
            if not isinstance(a, Term):
                raise InputError(f"term algebra applied to a non-term value: {a!r}")
        return Term(name, args)

    return Algebra(signature_container(sig), ev, name="term")


def unfold_to_term(sig: Signature, coalg: FiniteCoalgebra, state: str) -> Term:
    """Unfold one state of a signature-functor system into a closed term.

    Equals structural recursion into the term algebra over the whole
    system; raises :class:`coalg.errors.CycleError` if the system is not
    well-founded.
    """
    return solve_recursion(coalg, term_algebra(sig))[state]


def subterms(term: Term) -> list[Term]:
    """All distinct subterms, in dependency order (subterms first)."""
    seen: dict[Term, None] = {}
    todo = [(term, iter(term.args))]
    while todo:
        t, rest = todo[-1]
        for a in rest:
            if a not in seen:
                todo.append((a, iter(a.args)))
                break
        else:
            todo.pop()
            seen[t] = None
    return list(seen)


def _term_system(sig: Signature, terms: Sequence[Term], name: Mapping[Term, str]) -> FiniteCoalgebra:
    """One state ``name[t]`` per term of a subterm-closed list, in list
    order, whose structure is the term's top node."""
    return FiniteCoalgebra(
        signature_container(sig),
        [name[t] for t in terms],
        {name[t]: encode_structure(sig, t.op, [StateRef(name[a]) for a in t.args]) for t in terms},
    )


def realize_hstructure(
    sig: Signature, op: str, args: Sequence[Term]
) -> tuple[FiniteCoalgebra, str]:
    """Realize a functor structure over closed terms as a finite system.

    One state per distinct subterm of ``op(args...)``, named by the term's
    printed form, with the term's top node as structure: the argument
    subterms in name order, then the fresh top state.  The result is
    finite and well-founded, and the top state unfolds back to
    ``op(args...)``.  Two distinct subterms that print alike (symbol names
    may hold brackets and commas) are refused with an :class:`InputError`.
    """
    if sig.arity(op) != len(args):
        raise InputError(f"{op!r} takes {sig.arity(op)} arguments, got {len(args)}")
    terms = subterms(Term(op, args))
    name = {t: str(t) for t in terms}
    if len(set(name.values())) < len(name):
        printed = sorted(name.values())
        shared = next(a for a, b in zip(printed, printed[1:]) if a == b)
        raise InputError(f"two distinct subterms print as {shared!r}; states are named by printed form")
    top = terms.pop()
    return _term_system(sig, [*sorted(terms, key=name.__getitem__), top], name), name[top]


def enumerate_terms(sig: Signature, depth: int, limit: int = TERM_LIMIT) -> list[Term]:
    """All closed terms of height at most ``depth``, sorted by (height, text).

    Each layer is counted before it is built: an op of arity a adds
    end**a - start**a terms, those with an argument of the greatest height.
    """
    if depth < 0:
        return []
    terms = [Term(n) for n, a in sig.ops if a == 0]
    start = 0  # terms[start:] are the terms of the greatest height so far
    starts = [0]  # where each height begins
    for _ in range(depth):
        end = size = len(terms)
        if end == start:  # the last layer was empty, and so is every later one
            break
        for _, arity in sig.ops:
            size += end**arity - start**arity
            if size > limit:
                raise InputError(f"term enumeration exceeded {limit} terms at depth {depth}")
        for name, arity in sig.ops:
            # each new term has a first argument of the greatest height:
            # lower terms before it (none in the first layer), any terms after it
            for j in range(arity if start else min(arity, 1)):
                pools = (
                    [terms[:start]] * j + [terms[start:end]] + [terms[:end]] * (arity - j - 1)
                )
                terms.extend(Term(name, combo) for combo in itertools.product(*pools))
        start = end
        starts.append(start)
    starts.append(len(terms))
    # a term keeps its printed text, so a height of one term is not printed
    for a, b in zip(starts, starts[1:]):
        if b - a > 1:
            terms[a:b] = sorted(terms[a:b], key=str)
    return terms


# ---------------------------------------------------------------------------
# colimits of finite diagrams


@record(frozen=False)
class DiagramSpec:
    """A finite diagram: systems over one container plus morphisms between
    them, each morphism given as (source index, target index, state map)."""

    coalgebras: list[FiniteCoalgebra]
    morphisms: list[tuple[int, int, dict[str, str]]]


@record(frozen=False)
class ColimitResult:
    """Colimit carrier as equivalence classes of (system index, state).

    ``injections[i]`` maps the states of system i to class ids.  The
    induced structure is reported per class; classes whose members induce
    conflicting structures are listed in ``partial_classes`` (this cannot
    happen when every diagram morphism verifies, but it is checked rather
    than assumed).
    """

    class_members: list[tuple[tuple[int, str], ...]]
    class_ids: list[str]
    injections: list[dict[str, str]]
    structure: dict[str, HStructure]
    partial_classes: list[str]
    coalgebra: Optional[FiniteCoalgebra]

    @property
    def total(self) -> bool:
        return not self.partial_classes


def diagram_colimit(diagram: DiagramSpec) -> ColimitResult:
    """Quotient the disjoint union of the diagram's carriers.

    Two tagged states are identified iff they are connected by a zig-zag
    of morphism edges (x, i) ~ (f(x), j); on filtered diagrams this is the
    usual cospan description, and on arbitrary finite diagrams it is the
    coequalizer-style closure.  Injections are the quotient maps, and the
    structure induced on each class is computed from its members.
    """
    if not diagram.coalgebras:
        raise InputError("diagram needs at least one system")
    container = diagram.coalgebras[0].container
    for c in diagram.coalgebras[1:]:
        if c.container != container:
            raise InputError("diagram systems must share one container")
    for i, j, f in diagram.morphisms:
        if not (0 <= i < len(diagram.coalgebras) and 0 <= j < len(diagram.coalgebras)):
            raise InputError(f"morphism endpoints out of range: ({i}, {j})")
        if not verify_coalgebra_morphism(f, diagram.coalgebras[i], diagram.coalgebras[j]):
            raise InputError(
                f"listed map from system {i} to system {j} is not a morphism"
            )
    # the classes are the components of the undirected graph of morphism edges
    edges: dict[tuple[int, str], list[tuple[int, str]]] = {
        (i, x): [] for i, c in enumerate(diagram.coalgebras) for x in c.states
    }
    for i, j, f in diagram.morphisms:
        for x in diagram.coalgebras[i].states:
            edges[(i, x)].append((j, f[x]))
            edges[(j, f[x])].append((i, x))
    classes: list[tuple[tuple[int, str], ...]] = []
    class_of: dict[tuple[int, str], str] = {}
    for node in sorted(edges):  # so classes come in order of least member
        if node not in class_of:
            members = tuple(sorted(reach(edges.__getitem__, [node])[0]))
            class_of.update(dict.fromkeys(members, f"q{len(classes)}"))
            classes.append(members)
    class_ids = [f"q{n}" for n in range(len(classes))]
    injections = [
        {x: class_of[(i, x)] for x in c.states}
        for i, c in enumerate(diagram.coalgebras)
    ]
    structure: dict[str, HStructure] = {}
    partial: list[str] = []
    for cid, members in zip(class_ids, classes):
        candidates = {
            hmap(container, injections[i], diagram.coalgebras[i].structure_of(x))
            for i, x in members
        }
        if len(candidates) == 1:
            structure[cid] = candidates.pop()
        else:
            partial.append(cid)
    coalgebra = (
        FiniteCoalgebra(container, class_ids, structure) if not partial else None
    )
    return ColimitResult(classes, class_ids, injections, structure, partial, coalgebra)


# ---------------------------------------------------------------------------
# fragment check of the closed-term fixed point


@record(frozen=False)
class RealizationReport:
    """Counts from one realize-and-unfold sweep over a term fragment.

    * every closed term of height <= depth is realized and unfolds back to
      itself (the structure map reaches every term);
    * distinct structures over lower terms evaluate to distinct terms (the
      structure map is injective on the fragment).
    """

    signature: Signature
    depth: int
    term_count: int
    realized_ok: int
    structure_count: int
    distinct_terms: int
    mismatches: list[str]

    @property
    def injective(self) -> bool:
        return self.structure_count == self.distinct_terms

    @property
    def passed(self) -> bool:
        return self.injective and self.realized_ok == self.term_count and not self.mismatches

    def to_json(self) -> dict:
        return {
            "ops": [{"name": n, "arity": a} for n, a in self.signature.ops],
            "depth": self.depth,
            "terms": self.term_count,
            "realized": self.realized_ok,
            "structures": self.structure_count,
            "distinctTerms": self.distinct_terms,
            "injective": self.injective,
            "passed": self.passed,
            "counterexamples": self.mismatches,
        }


def term_realization_report(sig: Signature, depth: int) -> RealizationReport:
    """Check the closed-term fragment of height <= depth, both directions.

    The fragment is closed under subterms, so it is realized as one finite
    system with a state per term whose structure is the term's top node;
    the realization of each term is the closure of its state.  One
    recursion into the term algebra then serves every term; the system is
    acyclic by height, so its fixpoint covers it, and a
    :class:`coalg.errors.CycleError` would be a bug.
    """
    terms = enumerate_terms(sig, depth)
    # states are named by position: printed forms need not be distinct
    # when symbol names contain brackets or commas
    name = {t: str(i) for i, t in enumerate(terms)}
    values = solve_recursion(_term_system(sig, terms, name), term_algebra(sig))
    mismatches: list[str] = []
    realized_ok = 0
    for t in terms:
        back = values[name[t]]
        if back == t:
            realized_ok += 1
        else:
            mismatches.append(f"{t} unfolded to {back}")
    # every term of the fragment is one symbol over lower terms, so the
    # structure map is injective iff these structures evaluate to as many
    # distinct terms
    lower = sum(t.height < depth for t in terms)
    return RealizationReport(
        sig,
        depth,
        len(terms),
        realized_ok,
        sum(lower**arity for _, arity in sig.ops),
        len(set(values.values())),
        mismatches,
    )
