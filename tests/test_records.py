"""The contract every core value type keeps: immutable, equal and hashed by
its fields alone, never equal across types, picklable (the benchmark sends
reports across a fork), and rebuilt through its constructor's checks by
``replace``."""

import inspect
import pickle
from fractions import Fraction

import pytest

from quiverstab.catalog import CatalogEntry, _pn, _Spec
from quiverstab.helix import DegreeCheck
from quiverstab.invariants import CycleMonomial, SeparationReport
from quiverstab.points import PointError, RepresentationPoint, TorusElement
from quiverstab.quiver import (
    Arrow,
    GradingCertificate,
    Path,
    Quiver,
    QuiverError,
    Record,
    Relation,
)
from quiverstab.stability import (
    Character,
    GoodCertificate,
    GreatCertificate,
    StabilityCone,
    StabilityReport,
    SupportFamily,
    WeightMatrix,
)


def _arrows():
    return Arrow("a", 2, 1, label="x"), Arrow("b", 3, 2, label="y"), Arrow("c", 3, 2, label="z")


def _relation():
    a, b, c = _arrows()
    return Relation(((1, Path(3, (b, a))), ("-1/2", Path(3, (c, a)))))


def _quiver():
    return Quiver(
        3,
        _arrows(),
        (_relation(),),
        gg=((True, True, True), (False, True, True), (False, False, True)),
        pic=((0,), (1,), (2,)),
        canonical=(-3,),
    )


# Each builds a fresh instance, equal to the last one built and not the same object.
RECORDS = {
    Arrow: lambda: Arrow("a", 2, 1, 1, "x^2*y"),
    Path: lambda: Path(3, _arrows()[1::-1]),
    Relation: _relation,
    Quiver: _quiver,
    GradingCertificate: lambda: GradingCertificate(False, Arrow("a", 1, 1)),
    Character: lambda: Character((-1, 0, 1)),
    WeightMatrix: lambda: WeightMatrix(((0, 1), (0, 0))),
    SupportFamily: lambda: SupportFamily(2, {frozenset(), frozenset({1}), frozenset({1, 2})}),
    StabilityReport: lambda: StabilityReport(False, False, (1,), 3),
    GoodCertificate: lambda: GoodCertificate(False, (1, 2)),
    GreatCertificate: lambda: GreatCertificate(False, GoodCertificate(True), (2, 1)),
    StabilityCone: lambda: StabilityCone(2, ((1, 0),), (1, 1)),
    RepresentationPoint: lambda: RepresentationPoint((("a", "1/2"), ("b", 3))),
    TorusElement: lambda: TorusElement((1, Fraction(-2, 3))),
    CatalogEntry: lambda: CatalogEntry("e", _quiver(), (("x", (1,)),), (frozenset("x"),), True),
    _Spec: lambda: _pn(2),
    CycleMonomial: lambda: CycleMonomial((Arrow("u", 1, 2), Arrow("v", 2, 1))),
    SeparationReport: lambda: SeparationReport(3, 2, 2, ()),
    DegreeCheck: lambda: DegreeCheck(True, (1,), (1,)),
}
TYPES = list(RECORDS)

# Indexes built at construction: not fields, so outside equality, hash and repr.
CACHES = {
    Arrow: {"_exponents"},
    Quiver: {"_by_id", "_out", "_reach"},
    RepresentationPoint: {"_by_id"},
}


def _fields(cls) -> list[str]:
    """The constructor's parameters, which are the fields, in order."""
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_every_record_type_is_covered():
    assert set(Record.__subclasses__()) == set(TYPES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_are_the_constructor_parameters(self, cls):
        assert list(cls._fields) == _fields(cls)
        x = RECORDS[cls]()
        assert set(vars(x)) == set(cls._fields) | CACHES.get(cls, set())

    def test_immutable(self, cls):
        x = RECORDS[cls]()
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert vars(x) == vars(RECORDS[cls]())

    def test_equal_fields_give_equal_objects_and_hashes(self, cls):
        x, y = RECORDS[cls](), RECORDS[cls]()
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_never_equal_to_another_type(self, cls):
        x = RECORDS[cls]()
        for other in TYPES:
            if other is not cls:
                y = RECORDS[other]()
                assert x != y and not x == y
        assert x != tuple(getattr(x, f) for f in cls._fields)

    def test_pickle_round_trip(self, cls):
        x = RECORDS[cls]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            y = pickle.loads(pickle.dumps(x, protocol))
            assert y == x
            assert vars(y) == vars(x)  # the caches come back too

    def test_replace(self, cls):
        x = RECORDS[cls]()
        y = x.replace()
        assert y == x and y is not x
        with pytest.raises(TypeError):
            x.replace(no_such_field=1)
        for cache in CACHES.get(cls, ()):
            with pytest.raises(TypeError):
                x.replace(**{cache: None})

    def test_repr_names_the_fields_and_no_cache(self, cls):
        x = RECORDS[cls]()
        text = repr(x)
        first, *rest = cls._fields
        assert text.startswith(f"{cls.__name__}({first}=")
        assert all(f", {f}=" in text for f in rest)
        assert not any(f"{cache}=" in text for cache in CACHES.get(cls, ()))


def test_equal_fields_of_two_types_are_not_equal():
    good, grading = GoodCertificate(True), GradingCertificate(True)
    assert good._values() == grading._values()
    assert good != grading and grading != good


def test_replace_changes_only_the_given_field():
    q = _quiver()
    r = q.replace(relations=())
    assert r.relations == () and r.arrows == q.arrows and r.gg == q.gg
    assert r != q
    assert r.arrow("a") is q.arrow("a")


@pytest.mark.parametrize(
    "cls,changes,error",
    [
        (Arrow, {"weight": -1}, QuiverError),
        (Arrow, {"source": 1.0}, ValueError),
        (Path, {"base": 2}, QuiverError),
        (Relation, {"terms": ()}, QuiverError),
        (Quiver, {"n": 0}, QuiverError),
        (Quiver, {"gg": None, "pic": ((0,),)}, QuiverError),
        (Character, {"chi": (1, 1)}, ValueError),
        (WeightMatrix, {"m": ((1,),)}, ValueError),
        (SupportFamily, {"n": 3}, ValueError),
        (RepresentationPoint, {"values": (("a", 0.5),)}, PointError),
        (TorusElement, {"t": (0, 1)}, PointError),
        (CycleMonomial, {"arrows": (Arrow("u", 1, 2),)}, QuiverError),
    ],
)
def test_replace_runs_the_constructor_checks(cls, changes, error):
    with pytest.raises(error):
        RECORDS[cls]().replace(**changes)
