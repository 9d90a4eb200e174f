import functools

import pytest

from schurhopf import schur, wow
from schurhopf.shapes import is_connected_skew, ne_box, parse_shape, sw_box
from schurhopf.wow import RR, detect_wow, has_loose_end_ribbons, key_ribbons, wow_catalog


# The placement walk and the adjacency axiom on cell sets, as references:
# test_wow.py calls them as wow._top_placements and wow._adjacency_holds.
# They share no code with detect_wow's row-span walk, so they check it
# independently.
def _adjacency_holds(o_cells, upper_w, lower_w, orientation) -> bool:
    r1, c1 = sw_box(o_cells)
    r2, c2 = ne_box(o_cells)
    if orientation == RR:
        return (r1, c1 - 1) in lower_w and (r2, c2 + 1) in upper_w
    return (r1 + 1, c1) in lower_w and (r2 - 1, c2) in upper_w


def _top_placements(gamma):
    """Connected skew sub-shapes of gamma holding its NE box, each once.

    A placement is a stack of row spans: row 0 is [lo, lambda_0 - 1] and
    each next row [l, h] lies in gamma's row with l <= lo <= h <= hi.  It
    has at most (|gamma| - 1) // 2 cells and is yielded when the rest of
    gamma is a connected skew shape.  A row touching neither end of
    gamma's row splits the rest's row in two, and every deeper placement
    keeps that row, so its branch is cut.
    """
    cells = gamma.cells
    lam, mu = gamma.outer, gamma.padded_inner
    max_w = (gamma.size - 1) // 2

    def rec(r, lo, hi, placed):
        if is_connected_skew(cells - placed):
            yield placed
        r += 1
        if r == len(lam):
            return
        for h in range(lo, min(hi, lam[r] - 1) + 1):
            for l in range(lo, mu[r] - 1, -1):
                if len(placed) + h - l + 1 > max_w:
                    break
                if l == mu[r] or h == lam[r] - 1:
                    row = frozenset((r, c) for c in range(l, h + 1))
                    yield from rec(r, l, h, placed | row)

    hi = lam[0] - 1
    for lo in range(hi, max(mu[0], hi + 1 - max_w) - 1, -1):
        yield from rec(0, lo, hi, frozenset((0, c) for c in range(lo, hi + 1)))


wow._top_placements, wow._adjacency_holds = _top_placements, _adjacency_holds


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
