"""The contract every core value type keeps: immutable, equal and hashed by
its fields alone, never equal across types, picklable (the benchmark sends
reports across a fork), and rebuilt through its constructor's checks by
``replace``.  A type whose constructor would only store its fields uses
``Record``'s, which binds them as a signature would."""

import ast
import inspect
import pathlib
import pickle
from fractions import Fraction

import pytest

from quiverstab.catalog import _SPECS, CatalogEntry, ToricCollection, _pn, get_entry
from quiverstab.helix import DegreeCheck
from quiverstab.invariants import SeparationReport
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
    StabilityCone: lambda: StabilityCone(((1, 0),), (1, 1)),
    RepresentationPoint: lambda: RepresentationPoint((("a", "1/2"), ("b", 3))),
    TorusElement: lambda: TorusElement((1, Fraction(-2, 3))),
    CatalogEntry: lambda: CatalogEntry(
        "e", _quiver(), (("x", (1,)),), ((0,), (1,), (2,)), (frozenset("x"),), True
    ),
    ToricCollection: lambda: _pn(2),
    SeparationReport: lambda: SeparationReport(3, 2, 2, ()),
    DegreeCheck: lambda: DegreeCheck(True, (1,), (1,)),
}
TYPES = list(RECORDS)

# Indexes built at construction: not fields, so outside equality, hash and repr.
CACHES = {
    Arrow: {"_exponents"},
    Quiver: {"_by_id", "_out"},
    RepresentationPoint: {"_by_id"},
}


PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "quiverstab"


def _fields(cls) -> list[str]:
    """The constructor's parameters, which are the fields, in order."""
    return list(inspect.signature(cls.__init__).parameters)[1:]


def _only_stores_its_parameters(init: ast.FunctionDef) -> bool:
    """True for an ``__init__`` whose body is ``self.__dict__.update(p=p, ...)``
    over exactly its own parameters ``p``."""
    body = init.body
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    return (
        isinstance(call, ast.Call)
        and ast.unparse(call.func) == "self.__dict__.update"
        and not call.args
        and sorted(k.arg for k in call.keywords) == sorted(a.arg for a in init.args.args[1:])
        and all(isinstance(k.value, ast.Name) and k.value.id == k.arg for k in call.keywords)
    )


def _subclasses(cls) -> set[type]:
    """Every subclass of ``cls``, however indirect."""
    direct = set(cls.__subclasses__())
    return direct.union(*map(_subclasses, direct))


def test_every_record_type_is_covered():
    assert _subclasses(Record) == set(TYPES)


def test_cox_data_is_declared_once():
    """In the catalog, ``ToricCollection`` alone declares the Cox fields; an
    entry extends it with a name and a quiver and declares nothing else.
    (A ``Quiver`` keeps its own ``pic``: a quiver file has no Cox data.)"""
    cox = set(ToricCollection._fields)
    catalog = [cls for cls in TYPES if cls.__module__ == ToricCollection.__module__]
    declares = [cls for cls in catalog if cox & set(cls._fields) - set(cls.__base__._fields)]
    assert declares == [ToricCollection]
    assert CatalogEntry._fields == ("name", "quiver", *ToricCollection._fields)
    assert set(vars(CatalogEntry)) == {"__module__", "__doc__", "_fields"}


@pytest.mark.parametrize("name", [*_SPECS, *(f"pn({k})" for k in range(1, 5))])
def test_an_entry_is_its_table_row_plus_a_name_and_a_quiver(name):
    row = _SPECS[name] if name in _SPECS else _pn(int(name[3:-1]))
    entry = get_entry(name)
    assert ToricCollection(**{f: getattr(entry, f) for f in ToricCollection._fields}) == row


def test_no_record_constructor_only_stores_its_parameters():
    stores = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "Record" in map(ast.unparse, node.bases):
                stores += [
                    f"{path.stem}.{node.name}"
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and member.name == "__init__"
                    and _only_stores_its_parameters(member)
                ]
    assert stores == []


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_are_the_constructor_parameters(self, cls):
        x = RECORDS[cls]()
        assert set(vars(x)) == set(cls._fields) | CACHES.get(cls, set())
        if "__init__" in vars(cls):
            assert list(cls._fields) == _fields(cls)
            return
        # the shared constructor binds like the signature the fields spell out
        values = x._values()
        assert cls(*values) == cls(**dict(zip(cls._fields, values))) == x
        required = len(cls._fields) - len(cls._defaults)
        assert set(cls._defaults) == set(cls._fields[required:])
        assert cls(*values[:required])._values()[required:] == tuple(
            cls._defaults[f] for f in cls._fields[required:]
        )
        for args, kwargs, error in [
            ((*values, None), {}, "takes"),
            (values, {"no_such_field": 1}, "unknown"),
            (values, {cls._fields[0]: values[0]}, "given twice"),
            (values[: required - 1], {}, "missing"),
        ]:
            with pytest.raises(TypeError, match=error):
                cls(*args, **kwargs)

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

    def test_to_dict_gives_the_fields_in_order_and_no_cache(self, cls):
        x = RECORDS[cls]()
        assert list(x.to_dict().items()) == [(f, getattr(x, f)) for f in cls._fields]


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
    ],
)
def test_replace_runs_the_constructor_checks(cls, changes, error):
    with pytest.raises(error):
        RECORDS[cls]().replace(**changes)
