"""Property tests on random skew shapes (hypothesis; test-only dependency)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from schurhopf.schur import h_expansion, schur_equal, schur_expand
from schurhopf.shapes import SkewShape, rotate180, skew_from_cells

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
