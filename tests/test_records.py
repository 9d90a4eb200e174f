"""The value classes share shapes.Record: immutable, compared and hashed by their fields."""

import pytest

from schurhopf.schur import MonomialPoly, SymFunc, monomial_expansion, schur_expand
from schurhopf.shapes import SkewShape, parse_shape
from schurhopf.verifier import (
    ProofTrace,
    Report,
    RibbonBasis,
    proof_trace,
    ribbon_basis,
    verify_main_theorem,
)
from schurhopf.wow import KeyRibbons, LooseEnds, WowStructure

CLASSES = (SkewShape, SymFunc, MonomialPoly, WowStructure, KeyRibbons, LooseEnds,
           RibbonBasis, Report, ProofTrace)
UNHASHABLE = (Report, ProofTrace)  # each holds a dict field


@pytest.fixture(scope="module")
def records(positive_structure):
    """One real instance of each class, keyed by class."""
    st = positive_structure
    found = [
        parse_shape("4,4,2,2/2,1"),
        schur_expand(parse_shape("3,2/1")),
        monomial_expansion(parse_shape("2,1"), 2),
        st,
        st.keys,
        st.loose_ends,
        ribbon_basis(3),
        verify_main_theorem((2, 1), st),
        proof_trace((2, 1), st),
    ]
    return {type(rec): rec for rec in found}


def fields(rec):
    return {name: getattr(rec, name) for name in type(rec)._fields}


def test_every_class_covered(records):
    assert set(records) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_refuse_assignment_and_deletion(records, cls):
    rec = records[cls]
    for name, value in fields(rec).items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is value
    with pytest.raises(AttributeError):
        rec.new_attribute = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_equal_and_hash_alike(records, cls):
    rec = records[cls]
    values = fields(rec)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    for twin in (by_position, by_keyword):
        assert twin is not rec
        assert twin == rec and not twin != rec
        assert fields(twin) == values
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(rec)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_never_equals_another_class(records, cls):
    rec = records[cls]
    for other in records.values():
        if other is not rec:
            assert rec != other and other != rec
    assert rec != tuple(fields(rec).values())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_missing_or_unknown_field_refused(records, cls):
    values = fields(records[cls])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), 1)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(values[first], **values)  # the first field twice


def test_proof_trace_defaults(records):
    # no field has a default: leaving out any one of them is refused
    values = fields(records[ProofTrace])
    for name in ("report", "direct_left", "direct_right", "extra_left", "extra_right"):
        with pytest.raises(TypeError):
            ProofTrace(**{k: v for k, v in values.items() if k != name})


def test_repr_lists_fields(records):
    assert repr(records[KeyRibbons]) == (
        "KeyRibbons(top={!r}, bottom={!r}, size={!r}, top_footprint={!r}, "
        "bottom_footprint={!r})".format(*fields(records[KeyRibbons]).values())
    )
    assert repr(SymFunc(2, ())) == "SymFunc(degree=2, coeffs=())"
    assert repr(parse_shape("3,1/1")) == "SkewShape('3,1/1')"


def test_cached_properties_fill(records):
    shape = SkewShape((3, 1), (1,))
    assert "cells" not in vars(shape)
    assert shape.cells is shape.cells == frozenset({(0, 1), (0, 2), (1, 0)})
    assert "cells" in vars(shape)

    structure = WowStructure(**fields(records[WowStructure]))
    assert "keys" not in vars(structure)
    assert structure.keys == records[KeyRibbons]
    assert vars(structure)["keys"] is structure.keys

    report = Report(**fields(records[Report]))
    assert "lhs" not in vars(report)
    assert report.lhs is report.lhs is not None
    assert report.lhs == records[Report].lhs
