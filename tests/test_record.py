"""The immutable record base that every value type of the package uses."""

import pytest

from aplift._record import Record, replace
from aplift.dsl import DslProgram
from aplift.jsets import FuncFamily, FuncFamily2D, JWitness, JWitness2D
from aplift.largeness import PwsWitness, VdwResult
from aplift.lift import APWitness, Box2D, Set2D
from aplift.sets import (
    Ap,
    Bernoulli,
    Complement,
    Intersect,
    Interval,
    IntSet,
    IpSet,
    Multiples,
    Shift,
    ThickBlocks,
    Union,
    Window,
)
from aplift.towers import KIND_QUASI_CENTRAL, Chain, Chain2D, ChainReport, TranslateProbe

_W = Window(1, 12)
_A = IntSet(_W, 0b101101)
_BOX = Box2D(1, 4, 1, 2)
_B = Set2D(_BOX, (0b1010, 0b0001))

# one instance of every record class, with its repr as the frozen dataclasses
# that the records replaced printed it
SAMPLES = [
    (_W, "Window(lo=1, hi=12)"),
    (_A, "IntSet(Window(lo=1, hi=12), popcount=4, bits=0x2d)"),
    (Ap(1, 2), "Ap(a=1, d=2)"),
    (Interval(3, 9), "Interval(lo=3, hi=9)"),
    (Multiples(3), "Multiples(k=3)"),
    (IpSet((1, 4)), "IpSet(generators=(1, 4))"),
    (ThickBlocks(((1, 2), (5, 8))), "ThickBlocks(blocks=((1, 2), (5, 8)))"),
    (Bernoulli(0.25, 7), "Bernoulli(p=0.25, seed=7)"),
    (Shift(Multiples(2), 3), "Shift(child=Multiples(k=2), c=3)"),
    (Union((Ap(1, 2), Multiples(3))), "Union(children=(Ap(a=1, d=2), Multiples(k=3)))"),
    (Intersect((Ap(1, 2),)), "Intersect(children=(Ap(a=1, d=2),))"),
    (Complement(Multiples(5)), "Complement(child=Multiples(k=5))"),
    (APWitness(1, 2, 3), "APWitness(a=1, d=2, l=3)"),
    (_BOX, "Box2D(a_lo=1, a_hi=4, d_lo=1, d_hi=2)"),
    (_B, "Set2D(Box2D(a_lo=1, a_hi=4, d_lo=1, d_hi=2), popcount=3, row0=0xa)"),
    (PwsWitness(2, 3, 4), "PwsWitness(r=2, start=3, length=4)"),
    (VdwResult("false", (0, 1, 1, 0), "exhaustive", 16, 100),
     "VdwResult(verdict='false', coloring=(0, 1, 1, 0), strategy='exhaustive', explored=16,"
     " budget=100)"),
    (FuncFamily(((1, 2), (3, 4))), "FuncFamily(tables=((1, 2), (3, 4)))"),
    (FuncFamily2D((((1, 2), (3, 4)),)), "FuncFamily2D(pairs=(((1, 2), (3, 4)),))"),
    (JWitness(2, (1, 3)), "JWitness(a=2, H=(1, 3))"),
    (JWitness2D(1, 2, (2,)), "JWitness2D(a1=1, a2=2, H=(2,))"),
    (Chain((_A,), KIND_QUASI_CENTRAL),
     "Chain(levels=(IntSet(Window(lo=1, hi=12), popcount=4, bits=0x2d),),"
     " kind='quasi-central-candidate')"),
    (Chain2D((_B,), 2),
     "Chain2D(levels=(Set2D(Box2D(a_lo=1, a_hi=4, d_lo=1, d_hi=2), popcount=3, row0=0xa),), l=2)"),
    (TranslateProbe(1, 3, None), "TranslateProbe(level=1, x=3, found_level=None)"),
    (ChainReport(KIND_QUASI_CENTRAL, 5, (TranslateProbe(1, 3, 2),)),
     "ChainReport(kind='quasi-central-candidate', x_max=5,"
     " probes=(TranslateProbe(level=1, x=3, found_level=2),), r=None, L=None,"
     " pws_witnesses=None, families=(), a_max=None, jset_witnesses=None)"),
    (DslProgram("multiples(3)", Multiples(3)), "DslProgram(source='multiples(3)', expr=Multiples(k=3))"),
]
IDS = [type(r).__name__ for r, _ in SAMPLES]


def _values(r: Record) -> tuple:
    return tuple(getattr(r, name) for name in type(r)._fields)


def test_samples_cover_every_record_class():
    classes = {c for c in Record.__subclasses__() if c.__module__.startswith("aplift.")}
    assert {type(r) for r, _ in SAMPLES} == classes
    assert len(classes) == 26


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_repr_hash_and_equality(record, text):
    assert repr(record) == text
    assert hash(record) == hash(_values(record))
    twin = type(record)(*_values(record))
    assert twin == record and not twin != record and twin is not record
    assert record != _values(record)


def test_equality_holds_only_within_one_class():
    assert Window(1, 2) != (1, 2)
    assert (1, 2) != Window(1, 2)
    assert Ap(1, 2) != Window(1, 2)
    assert Interval(1, 2) != Window(1, 2)
    assert Window(1, 2) != Window(1, 3)
    assert len({Window(1, 2), Window(1, 2), Ap(1, 2), (1, 2)}) == 3


@pytest.mark.parametrize("record, _", SAMPLES, ids=IDS)
def test_assignment_and_deletion_raise(record, _):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, name) == _values(record)[0]


def test_positional_keyword_and_default_construction():
    assert Window(1, 5) == Window(lo=1, hi=5) == Window(1, hi=5) == Window(hi=5, lo=1)
    assert IntSet(_W) == IntSet(_W, 0) == IntSet(window=_W)
    report = ChainReport(KIND_QUASI_CENTRAL, 5, (), r=2)
    assert (report.r, report.L, report.families) == (2, None, ())
    assert Bernoulli(1, 3).p == 1.0 and type(Bernoulli(1, 3).p) is float


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),
    ((), {"hi": 5}),
    ((1, 5, 7), {}),
    ((1, 5), {"lo": 1}),
    ((1, 5), {"width": 5}),
])
def test_missing_or_extra_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Window(*args, **kwargs)


def test_construction_runs_the_checks():
    with pytest.raises(ValueError):
        Window(5, 1)
    with pytest.raises(TypeError):
        Window(1.0, 2)
    with pytest.raises(ValueError):
        Bernoulli(1.5, 0)


def test_replace():
    w = Window(1, 5)
    assert replace(w, hi=9) == Window(1, 9)
    assert w == Window(1, 5)
    assert replace(w) == w and replace(w) is not w
    with pytest.raises(ValueError):
        replace(w, hi=0)
    with pytest.raises(TypeError):
        replace(w, width=3)
    report = ChainReport(KIND_QUASI_CENTRAL, 5, ())
    assert replace(report, r=3, L=4) == ChainReport(KIND_QUASI_CENTRAL, 5, (), r=3, L=4)


def test_positional_patterns():
    match Ap(3, 4):
        case Window(lo, hi):
            found = ("window", lo, hi)
        case Ap(a, d):
            found = ("ap", a, d)
    assert found == ("ap", 3, 4)
