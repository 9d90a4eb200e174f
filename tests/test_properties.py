"""Property tests on random skew shapes (hypothesis; test-only dependency)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from schurhopf.schur import h_expansion, schur_equal, schur_expand
from schurhopf.shapes import (
    SkewShape,
    connected_skew,
    is_connected,
    is_ribbon,
    rotate180,
    skew_from_cells,
    transpose,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def pairs(draw, max_rows=6, max_part=7):
    """A valid (lambda, mu), padded with zeros, in any translate of its class."""
    lam = sorted(draw(st.lists(st.integers(0, max_part), max_size=max_rows)), reverse=True)
    mu = []
    for part in lam:
        mu.append(draw(st.integers(0, min([part] + mu[-1:]))))
    return tuple(lam), tuple(mu)


@st.composite
def shapes(draw, max_cells):
    lam, mu = draw(pairs().filter(lambda p: sum(p[0]) - sum(p[1]) <= max_cells))
    return SkewShape(lam, mu)


@settings(PROPERTY, max_examples=400)
@given(pairs(), st.integers(-3, 3), st.integers(-3, 3))
def test_constructor_matches_skew_from_cells(pair, dr, dc):
    lam, mu = pair
    cells = {(i + dr, j + dc) for i, (a, b) in enumerate(zip(lam, mu)) for j in range(b, a)}
    shape = SkewShape(lam, mu)
    recovered = skew_from_cells(cells)
    assert (shape.outer, shape.inner) == (recovered.outer, recovered.inner)
    assert shape == recovered and hash(shape) == hash(recovered)
    assert shape.cells == recovered.cells


@PROPERTY
@given(shapes(max_cells=16))
def test_half_turn_is_schur_equal(shape):
    assert schur_equal(shape, rotate180(shape))


@PROPERTY
@given(shapes(max_cells=12))
def test_h_route_agrees_with_lr(shape):
    via_lr: dict = {}
    for nu, c in schur_expand(shape).coeffs:
        for p, d in h_expansion(SkewShape(nu)).items():
            via_lr[p] = via_lr.get(p, 0) + c * d
    assert dict(h_expansion(shape)) == {p: c for p, c in via_lr.items() if c}


def _components(cells) -> int:
    """Number of edge-adjacency components, by breadth-first search."""
    left, count = set(cells), 0
    while left:
        count += 1
        frontier = [left.pop()]
        while frontier:
            r, c = frontier.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in left:
                    left.remove(nb)
                    frontier.append(nb)
    return count


def _reference_connected_skew(cells):
    """Row rules for a skew cell set (contiguous rows, boundaries weakly
    decreasing downward, an empty-row gap only below a row that ends
    strictly right of the next one), then BFS connectivity."""
    if _components(cells) > 1:
        return None
    if not cells:
        return SkewShape(())
    by_row: dict[int, list[int]] = {}
    for r, c in cells:
        by_row.setdefault(r, []).append(c)
    prev = None
    for r in sorted(by_row):
        lo, hi = min(by_row[r]), max(by_row[r])
        if hi - lo + 1 != len(by_row[r]):
            return None
        if prev is not None:
            prow, plo, phi = prev
            if lo > plo or hi > phi or (r - prow > 1 and plo - 1 < hi):
                return None
        prev = (r, lo, hi)
    rows = sorted(by_row)
    return SkewShape(
        tuple(max(by_row[r]) + 1 for r in rows), tuple(min(by_row[r]) for r in rows)
    )


@PROPERTY
@given(shapes(max_cells=20))
def test_pair_predicates_match_cells(shape):
    cells = shape.cells
    assert is_connected(shape) == (_components(cells) <= 1)
    no_block = not any(
        {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells for r, c in cells
    )
    assert is_ribbon(shape) == no_block


@settings(PROPERTY, max_examples=400)
@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
def test_connected_skew_matches_row_rules(cells):
    assert connected_skew(cells) == _reference_connected_skew(cells)


def _conjugate(p):
    return tuple(sum(1 for x in p if x > j) for j in range(p[0] if p else 0))


@PROPERTY
@given(shapes(max_cells=10))
def test_conjugation_acts_as_omega(shape):
    conjugated = {_conjugate(p): c for p, c in schur_expand(shape).coeffs}
    assert schur_expand(transpose(shape)).as_dict() == conjugated
