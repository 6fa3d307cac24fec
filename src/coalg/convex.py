"""Transition systems whose branching is convex, over exact rationals.

The carrier is the free convex set on n generators: points are rational
coefficient vectors that are nonnegative and sum to one.  A spec assigns
each generator a successor polytope (vertex representation, possibly
empty); successors of an arbitrary point are obtained by mixing the
per-generator polytopes with the point's coefficients, so the successor
map is affine in the point.

Well-foundedness (no infinite point paths) reduces to a finite least
fixpoint on generators, computed in linear time:

    WF(g)  iff  every vertex of g's successor polytope has some
                WF generator in its support,

because a path from a mixed point projects to a path from some support
generator, and paths from component generators combine into a path from
the mix.  Non-WF verdicts are backed by constructive path witnesses whose
steps carry exact mixing certificates; WF verdicts carry the generator
ranks (the tests check them for strict descent along sampled paths).  No
floating point, no linear programming: membership claims are always
certified by explicit combinations.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, check_header
from .fixpoint import least_fixpoint
from .records import record

ZERO = Fraction(0)
ONE = Fraction(1)


@record
class CPoint:
    """A convex combination of the generators: nonnegative, sums to one."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        # a zero changes neither check: skip the shared ZERO, which the
        # decoder and `unit` use, by identity rather than by a Fraction method
        terms = [c for c in self.coeffs if c is not ZERO]
        if any(c < 0 for c in terms):
            raise InputError(f"negative coefficient in {self.coeffs}")
        if sum(terms) != 1:
            raise InputError(f"coefficients must sum to 1: {self.coeffs}")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def support(self) -> frozenset[int]:
        # coefficients are nonnegative, so nonzero means positive; the shared
        # ZERO is skipped by identity, with no Fraction method call
        return frozenset(i for i, c in enumerate(self.coeffs) if c is not ZERO and c)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


def point(values: Sequence) -> CPoint:
    return CPoint(tuple(Fraction(v) for v in values))


def unit(i: int, n: int) -> CPoint:
    if not 0 <= i < n:
        raise InputError(f"generator index {i} out of range for dimension {n}")
    return CPoint(tuple(ONE if j == i else ZERO for j in range(n)))


class CPolytope:
    """A finitely generated convex set, as a sorted duplicate-free vertex list.

    The list is a generator representation: affinely redundant generators
    are kept, since membership is certified by exhibiting combinations, not
    by minimizing the representation.  May be empty.
    """

    def __init__(self, points: Iterable[CPoint] = ()):
        # equal points are adjacent once sorted: no dense point is hashed
        ordered = sorted(points, key=lambda p: p.coeffs)
        vertices = [p for k, p in enumerate(ordered) if not k or p != ordered[k - 1]]
        dims = {p.dim for p in vertices}
        if len(dims) > 1:
            raise InputError(f"mixed dimensions in polytope: {sorted(dims)}")
        self.vertices: tuple[CPoint, ...] = tuple(vertices)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def __eq__(self, other):
        return isinstance(other, CPolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"CPolytope({len(self.vertices)} vertices)"


def mix(x: CPoint, y: CPoint, r) -> CPoint:
    """The convex combination r*x + (1-r)*y, exactly."""
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise InputError(f"mixing ratio {r} outside [0, 1]")
    if x.dim != y.dim:
        raise InputError("mixing points of different dimension")
    return CPoint(tuple(r * a + (1 - r) * b for a, b in zip(x.coeffs, y.coeffs)))


def mix_sets(s: CPolytope, t: CPolytope, r) -> CPolytope:
    """Pointwise mix of two polytopes.

    For interior ratios the vertex list is all pairwise vertex mixes (mixing
    is affine in each argument, so these generate the set); at the boundary
    ratios the operands are returned verbatim, which in particular makes the
    empty polytope a neutral operand there: S +_1 (empty) = S.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise InputError(f"mixing ratio {r} outside [0, 1]")
    if r == 1:
        return s
    if r == 0:
        return t
    return CPolytope(mix(u, v, r) for u in s for v in t)


class ConvexSpec:
    """Per-generator successor polytopes over a shared basis."""

    def __init__(self, successor_polytopes: Sequence[CPolytope]):
        self.polytopes = tuple(successor_polytopes)
        n = len(self.polytopes)
        if n == 0:
            raise InputError("spec needs at least one generator")
        for i, poly in enumerate(self.polytopes):
            for v in poly:
                if v.dim != n:
                    raise InputError(
                        f"vertex of generator {i} has dimension {v.dim}, expected {n}"
                    )
        self.generators = n

    def __repr__(self):
        return f"ConvexSpec({self.generators} generators)"


def successors(spec: ConvexSpec, p: CPoint) -> CPolytope:
    """The successor polytope of an arbitrary point.

    Affine extension of the per-generator assignment: the vertices are all
    support-weighted combinations of one vertex per positive-support
    generator, each combined through its vertex-choice certificate; empty
    as soon as any positive-support generator has an empty successor
    polytope.
    """
    if p.dim != spec.generators:
        raise InputError(f"point dimension {p.dim} != spec dimension {spec.generators}")
    supp = sorted(p.support)
    choices = itertools.product(*(range(len(spec.polytopes[i])) for i in supp))
    return CPolytope(
        vertex_choice_certificate(spec, p, dict(zip(supp, ks))).combine(spec, p)
        for ks in choices
    )


# ---------------------------------------------------------------------------
# membership certificates


@record
class SuccessorCertificate:
    """Witness that a point lies in successors(spec, p).

    For each positive-support generator i of p, ``components[i]`` gives
    convex coefficients over the vertices of generator i's successor
    polytope; the certified point is sum_i p_i * (combination_i).
    """

    components: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def combine(self, spec: ConvexSpec, p: CPoint) -> CPoint:
        """The certified point; ``certify_membership`` checks the weights."""
        coeffs = [ZERO] * spec.generators
        for i, weights in self.components:
            for w, v in zip(weights, spec.polytopes[i].vertices):
                if w:
                    pw = p.coeffs[i] if w == 1 else p.coeffs[i] * w
                    for j, c in enumerate(v.coeffs):
                        if c:
                            coeffs[j] += pw * c
        return CPoint(tuple(coeffs))


def certify_membership(
    spec: ConvexSpec, p: CPoint, cert: SuccessorCertificate, z: CPoint
) -> bool:
    """Exact arithmetic re-check: the certificate covers all of p's support
    and combines to exactly z."""
    covered = {i for i, _ in cert.components}
    if covered != set(p.support):
        return False
    for i, weights in cert.components:
        if len(weights) != len(spec.polytopes[i].vertices):
            raise InputError(f"certificate arity mismatch at generator {i}")
        if any(w < 0 for w in weights) or sum(weights) != 1:
            raise InputError(f"certificate weights at generator {i} not convex")
    return cert.combine(spec, p) == z


def vertex_choice_certificate(
    spec: ConvexSpec, p: CPoint, choice: Mapping[int, int]
) -> SuccessorCertificate:
    """Certificate picking one vertex (by index) per support generator."""
    components = []
    for i in sorted(p.support):
        k, rest = choice[i], len(spec.polytopes[i].vertices) - choice[i] - 1
        components.append((i, (ZERO,) * k + (ONE,) + (ZERO,) * rest))
    return SuccessorCertificate(tuple(components))


# ---------------------------------------------------------------------------
# well-foundedness fixpoint


@record
class ConvexWfReport:
    """Per-generator verdicts of the well-foundedness fixpoint.

    ``rank`` gives the fixpoint round at which a WF generator entered;
    generators with no rank admit infinite paths.  The whole system is
    well-founded iff every generator is WF, and then the full carrier is
    itself the finitely generated subsystem containing every node.
    """

    wf_generators: tuple[bool, ...]
    rank: dict[int, int]

    @property
    def is_well_founded(self) -> bool:
        return all(self.wf_generators)

    @property
    def non_wf(self) -> frozenset[int]:
        return frozenset(i for i, ok in enumerate(self.wf_generators) if not ok)

    def to_json(self) -> dict:
        return {
            "wellFounded": self.is_well_founded,
            "wfGenerators": list(self.wf_generators),
            "ranks": {str(i): r for i, r in sorted(self.rank.items())},
        }


def convex_wf_fixpoint(spec: ConvexSpec) -> ConvexWfReport:
    """Least fixpoint from below: WF(g) iff every successor vertex of g has
    a WF generator in its support (see the module docstring for why).

    One linear pass of :func:`coalg.fixpoint.least_fixpoint`: generator g
    is node g, and its vertices are nodes numbered after all generators;
    g maps to its vertex nodes, and a vertex node maps to the vertex's
    support and holds once one member does.  So rank(g) = 1 + max over g's
    vertices of the least rank in the support (1 for an empty polytope):
    the round in which g enters when the rule is iterated from the empty set.
    """
    n = spec.generators
    succ: list = []
    vertices: list = []
    for poly in spec.polytopes:
        first = n + len(vertices)
        succ.append(range(first, first + len(poly)))
        vertices += [v.support for v in poly]
    rank = least_fixpoint(succ + vertices, any_of=range(n, n + len(vertices)))[0]
    wf = {g: rank[g] for g in range(n) if rank[g]}
    return ConvexWfReport(tuple(g in wf for g in range(n)), wf)


# ---------------------------------------------------------------------------
# path witnesses


@record
class WitnessStep:
    point: CPoint
    certificate: SuccessorCertificate


@record
class WitnessPath:
    """A verified path start -> steps[0].point -> steps[1].point -> ...

    Every step's certificate re-verifies against its predecessor, so the
    path is a genuine run of the system."""

    spec: ConvexSpec
    start: CPoint
    steps: tuple[WitnessStep, ...]

    def verify(self) -> bool:
        current = self.start
        for step in self.steps:
            if not certify_membership(self.spec, current, step.certificate, step.point):
                return False
            current = step.point
        return True


def convex_path_witness(spec: ConvexSpec, g: int, length: int) -> Optional[WitnessPath]:
    """A verified ``length``-step path from generator g, or None if g is WF.

    Construction: pick once for every non-WF generator the first successor
    vertex whose support consists of non-WF generators only (one exists, by
    the fixpoint rule); at each point, mix the picks of its support
    generators with the point's coefficients.  Every step is certified and
    re-checked exactly.
    """
    report = convex_wf_fixpoint(spec)
    if report.wf_generators[g]:
        return None
    bad = report.non_wf
    choice: dict[int, int] = {}
    for i in bad:
        for k, v in enumerate(spec.polytopes[i].vertices):
            if v.support <= bad:
                choice[i] = k
                break
        else:  # cannot happen for non-WF generators
            raise InputError(f"generator {i} has no all-non-WF successor vertex")
    current = unit(g, spec.generators)
    steps = []
    for _ in range(length):
        cert = vertex_choice_certificate(spec, current, choice)
        nxt = cert.combine(spec, current)
        if not certify_membership(spec, current, cert, nxt):
            raise InputError("witness step failed its own certificate")
        if not nxt.support <= bad:
            raise InputError("witness step left the non-WF region")
        steps.append(WitnessStep(nxt, cert))
        current = nxt
    return WitnessPath(spec, unit(g, spec.generators), tuple(steps))


# ---------------------------------------------------------------------------
# JSON


# Python refuses to print an int of more than 4300 digits, and a decimal
# exponent of more than 4 digits is refused before Fraction expands it
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS
_LONG_EXPONENT = re.compile(r"[eE][-+]?[0_]*(?!0)\d(?:_?\d){4}")


def convex_from_json(doc) -> ConvexSpec:
    check_header(doc, "convex", ("generators", "successors"))
    n = doc.get("generators")
    succ = doc.get("successors")
    if type(n) is not int or n < 1:
        raise InputError("$.generators: expected a positive integer")
    if not isinstance(succ, list) or len(succ) != n:
        raise InputError(f"$.successors: expected a list of {n} polytopes")
    polys = []
    parsed: dict[str, Fraction] = {}  # each distinct string is parsed once, 0 to ZERO
    for i, poly_doc in enumerate(succ):
        if not isinstance(poly_doc, list):
            raise InputError(f"$.successors[{i}]: expected a list of vertices")
        points = []
        for j, vec in enumerate(poly_doc):
            where = f"$.successors[{i}][{j}]"
            # a JSON number would reach here already rounded to a float
            if not isinstance(vec, list) or len(vec) != n or not all(isinstance(c, str) for c in vec):
                raise InputError(f"{where}: expected {n} rational strings")
            new = {c for c in vec if c not in parsed}
            if new:
                # one screen per vertex, over the strings that earlier
                # vertices have not passed: without an exponent, a
                # coefficient has no more digits than its string has characters
                text = "".join(new)
                screen = "e" in text or "E" in text or len(text) > _MAX_DIGITS
                if screen and any(map(_LONG_EXPONENT.search, new)):
                    raise InputError(f"{where}: a decimal exponent has more than 4 digits")
                try:
                    fresh = {c: Fraction(c) or ZERO for c in new}
                except (ValueError, ZeroDivisionError):
                    raise InputError(f"{where}: bad rational") from None
                if screen and any(max(abs(c.numerator), c.denominator) >= _TOO_LONG for c in fresh.values()):
                    raise InputError(f"{where}: a coefficient has more than {_MAX_DIGITS} digits")
                parsed.update(fresh)
            try:
                points.append(CPoint(tuple(map(parsed.__getitem__, vec))))
            except InputError as exc:
                raise InputError(f"{where}: {exc}") from None
        polys.append(CPolytope(points))
    return ConvexSpec(polys)
