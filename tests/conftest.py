import functools

import pytest

from schurhopf import schur
from schurhopf.shapes import parse_shape
from schurhopf.wow import detect_wow, has_loose_end_ribbons, key_ribbons, wow_catalog


@pytest.fixture(scope="session")
def positive_structure():
    """The W->O->W structure on the positive landmark gamma."""
    structures = detect_wow(parse_shape("4,4,2,2/2,1"))
    for st in structures:
        if st.orientation == "RR":
            return st
    raise AssertionError("expected an RR structure on 4,4,2,2/2,1")


@pytest.fixture(scope="session")
def counterexample_structure():
    """The loose-end landmark: (8,7,2)/(3,1) with key size 6."""
    structures = detect_wow(parse_shape("8,7,2/3,1"))
    st = structures[0]
    assert key_ribbons(st).size == 6
    return st


@pytest.fixture(scope="session")
def catalog10():
    """Every structure on connected gammas of size <= 10, with key data."""
    out = []
    for st in wow_catalog(10):
        out.append((st, key_ribbons(st), has_loose_end_ribbons(st)))
    return out


@pytest.fixture
def memo_expansions(monkeypatch):
    """Within one test, each shape's LR and h expansions are made once.

    The library keeps no cache, so a test whose loops expand the same
    shapes again and again reads them through this memo instead.
    """
    for name in ("schur_expand", "h_expansion"):
        monkeypatch.setattr(schur, name, functools.lru_cache(maxsize=None)(getattr(schur, name)))
