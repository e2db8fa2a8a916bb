"""Every value record of the package behaves as the frozen dataclass with
the same fields and defaults (``oracles.dataclass_twin``): repr text,
equality and hash, immutability, argument binding, defaults and cached
properties.  The record classes are found by walking the package's modules,
and the samples are built from the bundled fixtures."""

import dataclasses
import importlib
import pkgutil
from functools import cached_property
from itertools import product

import pytest

import wsext
from conftest import load_fixture, outcome
from oracles import dataclass_twin
from wsext.algebra import DEFAULT_BUDGET, FnTable
from wsext.ambient import ActionData, TupleSpace, carrier
from wsext.canonical import (
    CanonicalExtension,
    build_canonical,
    sigma_tau_decompose,
)
from wsext.extension import (
    SplitExtension,
    Witness,
    validate_split_extension,
    validate_witness,
)
from wsext.gammabuild import GammaData, _checked, extract_gamma
from wsext.report import Record
from wsext.terms import TermSpec
from wsext.transport import ExtensionMorphism, product_extension_check


def record_classes() -> set[type]:
    classes = set()
    for info in pkgutil.walk_packages(wsext.__path__, "wsext."):
        if info.name == "wsext.__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(info.name)
        classes |= {c for c in vars(module).values() if isinstance(c, type)
                    and issubclass(c, Record) and c is not Record}
    return classes


def subterms(t):
    yield t
    for a in getattr(t, "args", ()):
        yield from subterms(a)


def fixture_samples(name: str) -> list:
    """One or more records of every kind that the fixture gives rise to."""
    e, w, axioms, theta = load_fixture(name)
    c = build_canonical(e, theta, w)
    carrier(c, DEFAULT_BUDGET)  # the form is action data too: read Y off it
    g = extract_gamma(c, axioms)
    _, read_off = _checked(g, DEFAULT_BUDGET)
    ids = (FnTable.identity(e.X.size), FnTable.identity(e.A.size), FnTable.identity(e.B.size))
    # fields away from their defaults: a failing witness and section law
    zero_w = Witness(w.n, [FnTable(e.A.size, e.X.size, [0] * e.A.size)] * w.n)
    zero_s = SplitExtension(e.X, e.A, e.B, e.k, e.p, FnTable(e.B.size, e.A.size, [0] * e.B.size))
    samples = [e, e.X, e.A, e.X.signature, e.k, e.p, w, *axioms, theta,
               TermSpec(theta.vars, theta.term), *subterms(theta.term),
               TupleSpace(e.X.size, w.n, e.B.size), c, g, read_off,
               ActionData(c.X, c.B, c.theta, c.gamma),
               product_extension_check(e.X, theta), ExtensionMorphism(e, e, *ids),
               validate_witness(e, theta, w), validate_witness(e, theta, zero_w),
               *validate_split_extension(zero_s).entries]
    if name == "example_monoid":
        dec = sigma_tau_decompose(e, theta, w)
        samples += [dec, *dec.sigma, *dec.tau]
    return samples


CLASSES = sorted(record_classes(), key=lambda c: (c.__module__, c.__qualname__))
SAMPLES = fixture_samples("example_monoid") + fixture_samples("klein_four")


def field_values(record, twin) -> dict:
    """The record's field values, by the twin's field names."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(twin)}


def samples_of(cls):
    """(record, its twin instance) for every sample of exactly this class."""
    twin = dataclass_twin(cls)
    return twin, [(r, twin(**field_values(r, twin))) for r in SAMPLES if type(r) is cls]


def test_every_record_class_has_samples():
    assert {type(r) for r in SAMPLES} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    twin, pairs = samples_of(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    # a copy rebuilt from the fields, positionally and by keyword, is equal
    # but not the same object
    copies = []
    for r, t in pairs:
        values = field_values(r, twin)
        copies += [(cls(*values.values()), t), (cls(**values), t)]
    pairs += copies
    for (a, ta), (b, tb) in product(pairs, repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
    for r, t in pairs:
        assert repr(r) == repr(t)
        assert outcome(lambda: hash(r), crashes=True) == \
            outcome(lambda: hash(t), crashes=True)
        assert not any(r == other for other in SAMPLES if type(other) is not cls)
        assert r != t and t != r


def test_a_filled_memo_leaves_equality_hash_and_repr_alone():
    memoised = [r for r in SAMPLES if vars(r).get("_memo")]
    assert {type(r) for r in memoised} >= {SplitExtension, CanonicalExtension, GammaData}
    for r in memoised:
        assert "_memo" not in r._fields
        fresh = type(r)(**{f: getattr(r, f) for f in r._fields})
        assert len(vars(fresh).get("_memo", ())) < len(r._memo)
        assert fresh == r and r == fresh
        assert outcome(lambda: hash(fresh), crashes=True) == \
            outcome(lambda: hash(r), crashes=True)
        assert repr(fresh) == repr(r)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_is_immutable(cls):
    twin, pairs = samples_of(cls)
    for r, t in pairs:
        for name in [*cls._fields, "not_a_field"]:
            for obj in (r, t):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert field_values(r, twin) == field_values(t, twin)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_record_binds_arguments_like_its_twin(cls):
    twin, pairs = samples_of(cls)
    r, _ = pairs[0]
    values = field_values(r, twin)
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    calls = [((*values.values(), None), {}),  # one positional too many
             ((), {**values, "not_a_field": None}),
             ((next(iter(values.values())),), values)]  # the first field twice
    calls += [((), {k: v for k, v in values.items() if k != name}) for name in required]
    for args, kwargs in calls:
        assert outcome(lambda: cls(*args, **kwargs), crashes=True)[1] is TypeError
        assert outcome(lambda: twin(*args, **kwargs), crashes=True)[1] is TypeError
    # a field left out takes its default
    given = {k: values[k] for k in required}
    assert repr(cls(**given)) == repr(twin(**given))


@pytest.mark.parametrize("cls", [c for c in CLASSES if any(
    isinstance(a, cached_property) for k in c.__mro__ for a in vars(k).values())],
    ids=lambda c: c.__qualname__)
def test_cached_properties_are_computed_once(cls, monkeypatch):
    twin, pairs = samples_of(cls)
    props = {name: a for k in cls.__mro__ for name, a in vars(k).items()
             if isinstance(a, cached_property)}
    calls = []
    for name, prop in props.items():
        def counted(self, func=prop.func, name=name):
            calls.append(name)
            return func(self)
        monkeypatch.setattr(prop, "func", counted)
    for r, _ in pairs:
        calls.clear()
        fresh = cls(**field_values(r, twin))  # GammaData reads its space here
        for name in props:
            first = getattr(fresh, name)
            assert getattr(fresh, name) is first
            assert vars(fresh)[name] is first
        assert sorted(calls) == sorted(props)

