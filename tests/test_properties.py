"""Property tests on random skew shapes (hypothesis; test-only dependency)."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhopf.schur import (
    H_BITS,
    H_LIMIT,
    SymFuncError,
    _h_partition,
    h_expansion,
    h_terms,
    schur_equal,
    schur_expand,
)
from schurhopf.shapes import (
    SkewShape,
    direct_sum,
    is_connected,
    is_connected_skew,
    is_ribbon,
    rotate180,
    skew_from_cells,
    transpose,
    translate_cells,
)
from schurhopf.verifier import _ratio_text
from schurhopf.wow import RR, compose, wow_catalog

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


# schur_equal answers a half-turn pair without expanding either side, so the
# symmetry it relies on is checked here on the images themselves
@PROPERTY
@given(shapes(max_cells=16))
def test_half_turn_keeps_h_image(shape):
    assert h_expansion(shape) == h_expansion(rotate180(shape))


@PROPERTY
@given(shapes(max_cells=12))
def test_half_turn_keeps_schur_image(shape):
    assert schur_expand(shape) == schur_expand(rotate180(shape))


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
@given(
    st.sampled_from([(4, 4), (5, 3), (3, 5)]).flatmap(
        lambda box: st.sets(st.tuples(st.integers(0, box[0] - 1), st.integers(0, box[1] - 1)))
    )
)
def test_connected_skew_matches_row_rules(cells):
    expected = _reference_connected_skew(cells)
    assert (skew_from_cells(cells) if is_connected_skew(cells) else None) == expected
    assert is_connected_skew(cells) == (expected is not None)


def _conjugate(p):
    return tuple(sum(1 for x in p if x > j) for j in range(p[0] if p else 0))


@PROPERTY
@given(shapes(max_cells=10))
def test_conjugation_acts_as_omega(shape):
    conjugated = {_conjugate(p): c for p, c in schur_expand(shape).coeffs}
    assert schur_expand(transpose(shape)).as_dict() == conjugated


def _reference_h_expansion(shape):
    """Jacobi-Trudi determinant keyed by partitions, memoized on (row, free columns)."""
    lam, mu = shape.outer, shape.padded_inner
    ell = len(lam)
    memo: dict = {}

    def subdet(i, free):
        if i == ell:
            return {(): 1}
        if (i, free) not in memo:
            acc: dict = {}
            for idx, j in enumerate(free):
                d = lam[i] - mu[j] - i + j
                if d < 0:
                    continue
                for p, c in subdet(i + 1, free[:idx] + free[idx + 1 :]).items():
                    q = tuple(sorted(p + (d,), reverse=True)) if d else p
                    acc[q] = acc.get(q, 0) + (-1) ** idx * c
            memo[(i, free)] = {p: c for p, c in acc.items() if c}
        return memo[(i, free)]

    return subdet(0, tuple(range(ell)))


@PROPERTY
@given(shapes(max_cells=14))
def test_packed_kernel_matches_partition_kernel(shape):
    terms = list(h_terms(h_expansion(shape)))
    reference = _reference_h_expansion(shape)
    assert terms == sorted(reference.items(), reverse=True)


partitions = st.lists(st.integers(1, 9), max_size=8).map(lambda p: tuple(sorted(p, reverse=True)))


def _pack(parts):
    """h_{p1}...h_{pk} as its packed key: field d counts the parts equal to d."""
    return sum(1 << (H_BITS * d) for d in parts)


def _reference_h_product(f, g) -> dict[int, int]:
    """Product of two h-basis images: the keys of two monomials add."""
    out: dict[int, int] = {}
    for p, a in f.items():
        for q, b in g.items():
            out[p + q] = out.get(p + q, 0) + a * b
    return {k: c for k, c in out.items() if c}


@PROPERTY
@given(st.lists(shapes(max_cells=7), min_size=1, max_size=3))
def test_direct_sum_image_is_product(pieces):
    # s_{A (+) B} = s_A s_B: a class's h-image is its direct sum's
    product = {0: 1}
    for piece in pieces:
        product = _reference_h_product(product, h_expansion(piece))
    assert dict(h_expansion(direct_sum(pieces))) == product


@PROPERTY
@given(partitions, partitions)
def test_h_product_is_multiset_union(p, q):
    # h_{p1} ... h_{pk} is the image of the one-row shapes p1, ..., pk placed apart
    union = tuple(sorted(p + q, reverse=True))
    rows = direct_sum(SkewShape((part,)) for part in p + q)
    assert list(h_terms(h_expansion(rows))) == [(union, 1)]


@PROPERTY
@given(st.dictionaries(partitions, st.integers(-9, 9).filter(bool), max_size=12))
def test_h_terms_decodes_packed_keys(coeffs):
    image = {_pack(p): c for p, c in coeffs.items()}
    assert list(h_terms(image)) == sorted(coeffs.items(), reverse=True)


def _reference_h_partition(key: int):
    """The packed key's partition, read one H_BITS-bit field per step."""
    parts: list[int] = []
    d = 0
    while key:
        parts += [d] * (key & (H_LIMIT - 1))
        key >>= H_BITS
        d += 1
    return tuple(reversed(parts))


# a part and a multiplicity each reach H_LIMIT - 1, one field at a time
field = st.integers(1, H_LIMIT - 1)
multiplicities = st.dictionaries(field, field, max_size=6)


@PROPERTY
@given(multiplicities)
def test_byte_decoder_matches_shift_loop(counts):
    parts = tuple(sorted((d for d, m in counts.items() for _ in range(m)), reverse=True))
    key = _pack(parts)
    assert _h_partition(key) == _reference_h_partition(key) == parts


@pytest.mark.parametrize("m", [1, 2, H_LIMIT - 1])
def test_byte_decoder_top_field_alone(m):
    # only the top field is nonzero: every lower byte of the key is zero
    key = m << (H_BITS * (H_LIMIT - 1))
    assert _h_partition(key) == _reference_h_partition(key) == (H_LIMIT - 1,) * m


@PROPERTY
@given(
    st.one_of(st.integers(-99, 99), st.integers(-(10**40), 10**40)),
    st.one_of(st.integers(1, 99), st.integers(1, 10**30)),
)
def test_ratio_text_is_fraction_text(x, d):
    # the trace writes each coefficient as the reduced x/d
    assert _ratio_text(x, d) == str(Fraction(x, d))


def test_h_degree_bound():
    # the largest multiplicity a degree below the bound allows still decodes
    top = (1,) * (H_LIMIT - 1)
    assert list(h_terms({_pack(top): 1})) == [(top, 1)]
    assert list(h_terms(h_expansion(SkewShape((H_LIMIT - 1,))))) == [((H_LIMIT - 1,), 1)]
    with pytest.raises(SymFuncError):
        h_expansion(SkewShape((H_LIMIT,)))
    halves = direct_sum((SkewShape((H_LIMIT // 2,)),) * 2)
    with pytest.raises(SymFuncError):
        h_expansion(halves)


@cache
def _structures():
    return wow_catalog(7)


def _compose_in_frame(alpha_cells, gamma_cells, upper_w, lower_w, orientation):
    """A gamma copy per alpha cell, overlaid by shifts read off the given W copies."""
    amalg = (
        min(r for r, _ in upper_w) - min(r for r, _ in lower_w),
        min(c for _, c in upper_w) - min(c for _, c in lower_w),
    )
    step = -1 if orientation == RR else 1
    dot = (amalg[0] + step, amalg[1] + step)
    east, south = (amalg, dot) if orientation == RR else (dot, amalg)
    union: set = set()
    for r, c in alpha_cells:
        offset = (c * east[0] - r * south[0], c * east[1] - r * south[1])
        union |= translate_cells(gamma_cells, offset)
    return skew_from_cells(union)


@PROPERTY
@given(
    st.integers(0, 10**6),
    shapes(max_cells=4).filter(lambda s: s.size > 0),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_compose_is_translation_invariant(pick, alpha, gamma_shift, alpha_shift):
    structure = _structures()[pick % len(_structures())]
    moved = _compose_in_frame(
        translate_cells(alpha.cells, alpha_shift),
        translate_cells(structure.gamma.cells, gamma_shift),
        translate_cells(structure.upper_w, gamma_shift),
        translate_cells(structure.lower_w, gamma_shift),
        structure.orientation,
    )
    assert moved == compose(alpha, structure)
