"""Every record class behaves as the dataclass it replaced: construction,
``__post_init__`` checks, ``repr``, ``==``, ``hash``, immutability, copy
and pickle.  The expected texts were recorded from the dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coalg.coalgebras import BudgetExhausted
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
    SetOf,
    Star,
    StateRef,
    Sum,
    TupleOf,
)
from coalg.convex import (
    ConvexSpec,
    ConvexWfReport,
    CPoint,
    CPolytope,
    SuccessorCertificate,
    WitnessPath,
    WitnessStep,
)
from coalg.errors import InputError
from coalg.gallery import GalleryEntry
from coalg.initial_algebra import ColimitResult, DiagramSpec, RealizationReport, Signature
from coalg.nominal import NState, Rule, Template
from coalg.wellfounded import KoenigFamily, WfReport

ROOT = Path(__file__).resolve().parent.parent

A = StateRef("a")
ONE = CPoint((Fraction(1),))
CERT = SuccessorCertificate(((0, (Fraction(1),)),))
SPEC = ConvexSpec([CPolytope([ONE])])
SIG = Signature((("z", 0), ("s", 1)))

# (class, fields by keyword, repr)
FROZEN = [
    (Identity, {}, "Identity()"),
    (Const, {"labels": ("a", "b")}, "Const(labels=('a', 'b'))"),
    (Sum, {"left": Identity(), "right": Const(("a",))},
     "Sum(left=Identity(), right=Const(labels=('a',)))"),
    (Product, {"parts": (Identity(),)}, "Product(parts=(Identity(),))"),
    (FinPow, {"inner": Identity()}, "FinPow(inner=Identity())"),
    (Exp, {"base": Identity(), "exponent": ("x",)}, "Exp(base=Identity(), exponent=('x',))"),
    (PairNeq, {}, "PairNeq()"),
    (StateRef, {"state": "a"}, "StateRef(state='a')"),
    (ConstVal, {"label": "a"}, "ConstVal(label='a')"),
    (InL, {"value": A}, "InL(value=StateRef(state='a'))"),
    (InR, {"value": A}, "InR(value=StateRef(state='a'))"),
    (TupleOf, {"items": (A,)}, "TupleOf(items=(StateRef(state='a'),))"),
    (SetOf, {"items": (A,)}, "SetOf(items=(StateRef(state='a'),))"),
    (FunOf, {"entries": (("x", A),)}, "FunOf(entries=(('x', StateRef(state='a')),))"),
    (Star, {}, "Star()"),
    (Pair, {"left": A, "right": StateRef("b")},
     "Pair(left=StateRef(state='a'), right=StateRef(state='b'))"),
    (BudgetExhausted, {"visited": frozenset({"a"}), "budget": 3},
     "BudgetExhausted(visited=frozenset({'a'}), budget=3)"),
    (CPoint, {"coeffs": (Fraction(1, 2), Fraction(1, 2))},
     "CPoint(coeffs=(Fraction(1, 2), Fraction(1, 2)))"),
    (SuccessorCertificate, {"components": ((0, (Fraction(1),)),)},
     "SuccessorCertificate(components=((0, (Fraction(1, 1),)),))"),
    (ConvexWfReport, {"wf_generators": (True,), "rank": {0: 1}},
     "ConvexWfReport(wf_generators=(True,), rank={0: 1})"),
    (WitnessStep, {"point": ONE, "certificate": CERT},
     "WitnessStep(point=CPoint(coeffs=(Fraction(1, 1),)), "
     "certificate=SuccessorCertificate(components=((0, (Fraction(1, 1),)),)))"),
    (WitnessPath, {"spec": SPEC, "start": ONE, "steps": ()},
     "WitnessPath(spec=ConvexSpec(1 generators), start=CPoint(coeffs=(Fraction(1, 1),)), steps=())"),
    (NState, {"label": "l", "registers": (1, 2)}, "NState(label='l', registers=(1, 2))"),
    (Template, {"label": "l", "assign": (("input",),)}, "Template(label='l', assign=(('input',),))"),
    (Rule, {"source": "l", "case": ("fresh",), "templates": ()},
     "Rule(source='l', case=('fresh',), templates=())"),
    (Signature, {"ops": (("z", 0), ("s", 1))}, "Signature(ops=(('z', 0), ('s', 1)))"),
    (WfReport, {"wf_part": frozenset({"a"}), "is_well_founded": True, "rank": {"a": 1}},
     "WfReport(wf_part=frozenset({'a'}), is_well_founded=True, rank={'a': 1})"),
]
PLAIN = [
    (GalleryEntry,
     {"name": "n", "kind": "set", "description": "d", "build": len, "demo": len, "expected_exit": 0},
     "GalleryEntry(name='n', kind='set', description='d', build=<built-in function len>, "
     "demo=<built-in function len>, expected_exit=0)"),
    (DiagramSpec, {"coalgebras": [], "morphisms": [(0, 0, {})]},
     "DiagramSpec(coalgebras=[], morphisms=[(0, 0, {})])"),
    (ColimitResult,
     {"class_members": [((0, "a"),)], "class_ids": ["q0"], "injections": [{"a": "q0"}],
      "structure": {"q0": A}, "partial_classes": [], "coalgebra": None},
     "ColimitResult(class_members=[((0, 'a'),)], class_ids=['q0'], injections=[{'a': 'q0'}], "
     "structure={'q0': StateRef(state='a')}, partial_classes=[], coalgebra=None)"),
    (RealizationReport,
     {"signature": SIG, "depth": 1, "term_count": 2, "realized_ok": 2, "structure_count": 2,
      "distinct_terms": 2, "mismatches": []},
     "RealizationReport(signature=Signature(ops=(('z', 0), ('s', 1))), depth=1, term_count=2, "
     "realized_ok=2, structure_count=2, distinct_terms=2, mismatches=[])"),
    (KoenigFamily, {"carrier": frozenset({"a"}), "members": (frozenset({"a"}),)},
     "KoenigFamily(carrier=frozenset({'a'}), members=(frozenset({'a'}),))"),
]
RECORDS = FROZEN + PLAIN
IDS = [cls.__name__ for cls, _, _ in RECORDS]
PLAIN_CLASSES = {cls for cls, _, _ in PLAIN}
# a field without value equality: deep copies are equal only in repr
IDENTITY_FIELDS = {WitnessPath}


def test_every_record_class_is_listed():
    assert len(RECORDS) == len(set(IDS)) == 32


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
class TestRecordParity:
    def test_construction_and_repr(self, cls, fields, text):
        x = cls(**fields)
        assert repr(x) == text
        assert cls(*fields.values()) == x
        assert not (cls(*fields.values()) != x)
        assert tuple(getattr(x, f) for f in fields) == tuple(fields.values())

    def test_equal_only_within_the_class(self, cls, fields, text):
        x = cls(**fields)
        for other_cls, other_fields, _ in RECORDS:
            if other_cls is not cls:
                y = other_cls(**other_fields)
                assert x != y and not (x == y)

    def test_hash(self, cls, fields, text):
        x = cls(**fields)
        if cls in PLAIN_CLASSES:
            with pytest.raises(TypeError):
                hash(x)
            return
        try:
            expected = hash(tuple(fields.values()))
        except TypeError:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected

    def test_assignment_and_deletion(self, cls, fields, text):
        x = cls(**fields)
        if cls in PLAIN_CLASSES:
            name = next(iter(fields))
            setattr(x, name, "changed")
            assert getattr(x, name) == "changed"
            assert x != cls(**fields)
            return
        for name in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == cls(**fields)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle(self, cls, fields, text, clone):
        x = cls(**fields)
        y = clone(x)
        assert type(y) is cls and repr(y) == text
        if clone is copy.copy or cls not in IDENTITY_FIELDS:
            assert y == x


@pytest.mark.parametrize(
    "x,y",
    [
        (StateRef("a"), ConstVal("a")),
        (InL(A), InR(A)),
        (TupleOf((A,)), SetOf((A,))),
        (Sum(A, A), Pair(A, A)),
        (Identity(), Star()),
        (PairNeq(), Star()),
    ],
)
def test_same_fields_in_another_class_are_not_equal(x, y):
    assert x != y and y != x
    assert len({x, y}) == 2


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Const(()), "Const needs at least one label"),
        (lambda: Const(("a", "a")), "duplicate Const labels: ('a', 'a')"),
        (lambda: Product(()), "Product needs at least one component"),
        (lambda: Exp(Identity(), ()), "Exp needs a non-empty exponent"),
        (lambda: Exp(base=Identity(), exponent=("a", "a")), "duplicate Exp labels: ('a', 'a')"),
        (lambda: CPoint((Fraction(-1), Fraction(2))),
         "negative coefficient in (Fraction(-1, 1), Fraction(2, 1))"),
        (lambda: CPoint(coeffs=(Fraction(1, 2),)), "coefficients must sum to 1: (Fraction(1, 2),)"),
        (lambda: NState("l", (1, 1)), "registers must be pairwise distinct: (1, 1)"),
        (lambda: Signature(()), "signature needs at least one operation symbol"),
        (lambda: Signature((("a", 0), ("a", 1))), "duplicate operation symbols: ['a', 'a']"),
        (lambda: Signature((("", 0),)), "empty operation symbol"),
        (lambda: Signature(ops=(("a", -1),)), "negative arity for 'a'"),
    ],
)
def test_post_init_rejects(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_signature_lookup_survives_copy_and_pickle():
    for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        sig = clone(SIG)
        assert (sig.index("s"), sig.arity("s")) == (1, 1)


def test_cli_import_loads_no_dataclasses_and_records_have_no_dict():
    """Every command is a fresh process; ``dataclasses`` and ``inspect``
    cost it about 17 ms of import, and a record keeps its fields in slots."""
    code = (
        "import sys, coalg.cli; from coalg.containers import StateRef; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), "
        "hasattr(StateRef('a'), '__dict__'))"
    )
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["[]", "False"]
