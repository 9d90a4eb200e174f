import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurhopf.shapes import (
    EMPTY_SHAPE,
    DisconnectedError,
    NotConnectedRibbonError,
    NotSkewError,
    ShapeError,
    SkewShape,
    box_bounded_shapes,
    check_partition,
    components_of_cells,
    connected_components,
    connected_shapes,
    diagonal,
    direct_sum,
    format_shape,
    half_turn,
    is_connected,
    is_ribbon,
    ne_box,
    parse_shape,
    partitions_in_box,
    partitions_of,
    ribbon_composition_of,
    ribbon_shape,
    rim_ribbon,
    rotate180,
    shape_sort_key,
    skew_from_cells,
    sw_box,
    transpose,
)
from schurhopf.wow import amalgamate


def shp(text):
    return parse_shape(text)


def _plain_partition(parts):
    """Nonnegative, weakly decreasing parts read as a partition, else None."""
    if min(parts, default=0) < 0 or list(parts) != sorted(parts, reverse=True):
        return None
    return tuple(p for p in parts if p)


def test_check_partition_exhaustive():
    # every tuple of length <= 6 over -1..4: the same partition, or an error from both
    count = 0
    for length in range(7):
        for parts in itertools.product(range(-1, 5), repeat=length):
            expected = _plain_partition(parts)
            if expected is None:
                with pytest.raises(ShapeError):
                    check_partition(parts)
            else:
                assert check_partition(parts) == expected, parts
            count += 1
    assert count == 55_987


def test_non_integer_parts_refused():
    # a float or a str is refused, not truncated or parsed
    for parts in ([3.7, 1], (2.5, 1.9), ["3"], (2, 1.0)):
        with pytest.raises(ShapeError):
            check_partition(parts)
    with pytest.raises(ShapeError):
        SkewShape((2.5, 1.9))
    with pytest.raises(ShapeError):
        SkewShape((3, 1), (0.5,))
    for comp in ((2.5, 1.9), ("3", "1")):  # not SkewShape('2,1') or SkewShape('3,1')
        with pytest.raises(ShapeError):
            ribbon_shape(comp)


def _minimal_pair(outer, inner):
    """The reference minimal pair of a valid lambda/mu, in its own pass.

    Empty rows above the top cell and below the bottom cell go, the bottom
    row moves to column zero, and each empty row in between becomes as
    long as the row below it.
    """
    mu = inner + (0,) * (len(outer) - len(inner))
    rows = [i for i, (lam, m) in enumerate(zip(outer, mu)) if lam > m]
    if not rows:
        return (), ()
    shift = mu[rows[-1]]
    lams, mus = [], []
    below = 0
    for i in range(rows[-1], rows[0] - 1, -1):
        if outer[i] > mu[i]:
            below = outer[i] - shift
            mus.append(mu[i] - shift)
        else:
            mus.append(below)
        lams.append(below)
    lams.reverse()
    mus.reverse()
    while mus and not mus[-1]:
        mus.pop()
    return tuple(lams), tuple(mus)


def _reference_pair(outer, inner):
    """The minimal pair by separate checks and _minimal_pair, or None for an invalid pair."""
    outer, inner = _plain_partition(outer), _plain_partition(inner)
    if outer is None or inner is None or len(inner) > len(outer):
        return None
    if any(m > lam for m, lam in zip(inner, outer)):
        return None
    return _minimal_pair(outer, inner)


@st.composite
def raw_pairs(draw):
    """(outer, inner) lists: a valid pair with empty rows, shifted and padded, maybe broken."""
    outer = sorted(draw(st.lists(st.integers(0, 6), max_size=6)), reverse=True)
    inner = []
    for lam in reversed(outer):  # bottom up; a row is often left empty
        low = inner[-1] if inner else 0
        inner.append(draw(st.one_of(st.just(lam), st.integers(low, lam))))
    inner.reverse()
    shift = draw(st.integers(0, 3))
    top = outer[0] + shift if outer else shift
    above = draw(st.integers(0, 2))  # empty rows above the top cell
    outer = [top] * above + [p + shift for p in outer] + [0] * draw(st.integers(0, 2))
    inner = [top] * above + [m + shift for m in inner] + [0] * draw(st.integers(0, 2))
    if draw(st.booleans()):  # break it, or leave it valid, by one part
        parts = draw(st.sampled_from([outer, inner]))
        if parts:
            parts[draw(st.integers(0, len(parts) - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            parts.append(draw(st.integers(-1, 2)))
    return outer, inner


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(raw_pairs())
def test_constructor_matches_reference(pair):
    # the one-walk constructor gives the reference pair, and raises exactly
    # where the separate checks refuse the pair
    outer, inner = pair
    expected = _reference_pair(outer, inner)
    if expected is None:
        with pytest.raises(ShapeError):
            SkewShape(outer, inner)
    else:
        shape = SkewShape(outer, inner)
        assert (shape.outer, shape.inner) == expected


class TestCellsOf:
    def test_partition(self):
        assert shp("2,1").cells == {(0, 0), (0, 1), (1, 0)}

    def test_skew(self):
        assert shp("2,2/1").cells == {(0, 1), (1, 0), (1, 1)}

    def test_empty_skew(self):
        assert SkewShape((1,), (1,)).cells == frozenset()

    def test_size_matches_cell_count(self):
        for lam in partitions_of(6):
            for shape in [SkewShape(lam), SkewShape(lam, lam[1:])]:
                assert shape.size == len(shape.cells)


class TestMinimalRepresentative:
    def test_translate_equals_minimal_pair(self):
        shape = SkewShape((3, 3), (1, 1))
        assert shape == SkewShape((2, 2))
        assert hash(shape) == hash(SkewShape((2, 2)))
        assert shape.outer == (2, 2) and shape.inner == ()

    def test_empty_pair_is_empty_shape(self):
        assert SkewShape((1,), (1,)) == EMPTY_SHAPE
        assert SkewShape((1,), (1,)).outer == ()

    def test_empty_rows_and_offset_removed(self):
        # the empty top row goes, the empty interior row takes the length of
        # the row below, and the bottom row moves to column zero
        shape = SkewShape((6, 6, 4, 3), (6, 5, 4, 1))
        assert (shape.outer, shape.inner) == ((5, 2, 2), (4, 2))
        assert shape == skew_from_cells({(0, 4), (2, 0), (2, 1)})


class TestSkewFromCells:
    def test_inverse_of_cells(self):
        assert skew_from_cells({(0, 1), (1, 0), (1, 1)}) == shp("2,2/1")

    def test_noncontiguous_row_rejected(self):
        with pytest.raises(NotSkewError):
            skew_from_cells({(0, 0), (0, 2)})

    def test_two_diagonal_boxes(self):
        assert skew_from_cells({(0, 1), (1, 0)}) == shp("2,1/1")

    def test_bad_monotonicity_rejected(self):
        # lower row sticking out to the right cannot be skew
        with pytest.raises(NotSkewError):
            skew_from_cells({(0, 0), (1, 0), (1, 1)})

    def test_empty_row_gap(self):
        shape = skew_from_cells({(0, 1), (2, 0)})
        assert shape.outer == (2, 1, 1)
        assert shape.inner == (1, 1)
        with pytest.raises(NotSkewError):
            skew_from_cells({(0, 0), (2, 0)})

    def test_round_trip_small(self):
        for lam in partitions_of(8):
            for k in range(len(lam) + 1):
                mu = lam[k:]
                if len(mu) <= len(lam) and all(
                    mu[i] <= lam[i] for i in range(len(mu))
                ):
                    shape = SkewShape(lam, mu)
                    assert skew_from_cells(shape.cells).cells == shape.cells

    def test_round_trip_box_family(self):
        for shape in box_bounded_shapes(5, 5):
            assert skew_from_cells(shape.cells) == shape

    def test_empty(self):
        assert skew_from_cells(set()) == EMPTY_SHAPE


class TestRotate180:
    def test_hook(self):
        assert rotate180(shp("3,1")) == shp("3,3/2")

    def test_skew(self):
        assert rotate180(shp("2,2/1")) == shp("2,1")

    def test_single_box(self):
        assert rotate180(shp("1")) == shp("1")

    def test_involution_exhaustive(self):
        # every connected shape of size <= 8, the full 6x6 box family, and
        # disconnected shapes with row gaps
        for n in range(1, 9):
            for shape in connected_shapes(n):
                assert rotate180(rotate180(shape)) == shape
        for shape in box_bounded_shapes(6, 6):
            assert rotate180(rotate180(shape)) == shape
        for text in ["4,1,1/3,1", "5,2/4", "3,3,1,1/3,1,1", "6,3,1/5,2"]:
            shape = parse_shape(text)
            assert rotate180(rotate180(shape)) == shape

    def test_half_turn_of_cells_matches(self):
        for shape in box_bounded_shapes(6, 5):
            if shape.size:
                assert half_turn(shape.cells, shape) == rotate180(shape).cells


class TestConnectivity:
    def test_two_boxes(self):
        comps = connected_components(shp("2,1/1"))
        assert [format_shape(c) for c in comps] == ["1", "1"]

    def test_connected_square(self):
        assert connected_components(shp("2,2")) == (shp("2,2"),)

    def test_three_staircase_boxes(self):
        comps = connected_components(shp("3,2,1/2,1"))
        assert [format_shape(c) for c in comps] == ["1", "1", "1"]

    def test_column_touching(self):
        # the two right-column cells share an edge, so only two components
        comps = connected_components(shp("3,3,1/2,2"))
        assert sorted(format_shape(c) for c in comps) == ["1", "1,1"]

    def test_empty(self):
        assert connected_components(EMPTY_SHAPE) == ()
        assert is_connected(EMPTY_SHAPE)

    def test_row_blocks_match_cell_search(self):
        # reference: a breadth-first search over edge-adjacent cells, each
        # component read back through skew_from_cells; 3,1,1/2,1 has an
        # empty middle row, which is no component of its own
        family = [*box_bounded_shapes(6, 6), EMPTY_SHAPE, shp("3,1,1/2,1")]
        assert shp("3,1,1/2,1").outer == (3, 1, 1)
        for shape in family:
            cells = components_of_cells(shape.cells)
            expected = sorted((skew_from_cells(c) for c in cells), key=shape_sort_key)
            assert connected_components(shape) == tuple(expected), format_shape(shape)

    def test_builds_one_shape_per_nonempty_block(self, monkeypatch):
        # an empty row's block is skipped before a shape is built for it
        family = [*box_bounded_shapes(5, 5), shp("3,1,1/2,1")]
        built = []
        init = SkewShape.__init__
        monkeypatch.setattr(SkewShape, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        for shape in family:
            built.clear()
            comps = connected_components(shape)
            assert len(built) == len(comps), format_shape(shape)

    def test_direct_sum_northeast_to_southwest(self):
        # pieces share no row or column, first piece top right; empties vanish
        total = direct_sum((shp("2,1"), EMPTY_SHAPE, shp("1"), shp("2,2/1")))
        assert format_shape(total) == "5,4,3,2,2/3,3,2,1"
        assert direct_sum(()) == EMPTY_SHAPE


class TestRibbons:
    def test_square_is_not_ribbon(self):
        assert not is_ribbon(shp("2,2"))

    def test_hook_is_ribbon(self):
        assert is_ribbon(shp("2,1"))

    def test_fat_skew_is_not(self):
        assert not is_ribbon(shp("3,3/1"))

    def test_composition_of(self):
        assert ribbon_composition_of(shp("2,2/1")) == (1, 2)
        assert ribbon_composition_of(shp("2,1")) == (2, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedRibbonError):
            ribbon_composition_of(shp("2,1/1"))

    def test_non_ribbon_rejected(self):
        with pytest.raises(NotConnectedRibbonError):
            ribbon_composition_of(shp("2,2"))

    def test_shape_round_trip(self):
        for n in range(1, 8):
            for comp in _compositions(n):
                assert ribbon_composition_of(ribbon_shape(comp)) == comp

    def test_rotation_reverses_composition(self):
        for n in range(1, 9):
            for comp in _compositions(n):
                rotated = rotate180(ribbon_shape(comp))
                assert ribbon_composition_of(rotated) == comp[::-1]


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


class TestRims:
    def test_square_nw(self):
        assert rim_ribbon(shp("2,2"), "NW") == [(1, 0), (0, 0), (0, 1)]

    def test_square_se(self):
        assert rim_ribbon(shp("2,2"), "SE") == [(1, 0), (1, 1), (0, 1)]

    def test_single_box(self):
        assert rim_ribbon(shp("1"), "NW") == [(0, 0)]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            rim_ribbon(shp("2,1/1"), "NW")

    def test_rim_meets_every_diagonal_once(self):
        for n in range(1, 8):
            for shape in connected_shapes(n):
                diags = {diagonal(c) for c in shape.cells}
                for side in ("NW", "SE"):
                    rim = rim_ribbon(shape, side)
                    assert len(rim) == len(diags)
                    assert {diagonal(c) for c in rim} == diags

    def test_rim_runs_southwest_to_northeast(self):
        # diagonal is delta = c - r, so a rim lists its cells by increasing delta
        assert diagonal((2, 5)) == 3
        for shape in connected_shapes(6):
            for side in ("NW", "SE"):
                deltas = [diagonal(c) for c in rim_ribbon(shape, side)]
                assert deltas == list(range(deltas[0], deltas[0] + len(deltas)))


class TestPlacements:
    """A W copy lies in the top (bottom) of A when amalgamate accepts it there.

    The other side's copy is W itself, which lies in both ends of W, so an
    accepted copy gives back A.
    """

    def test_domino_in_top(self):
        w, a = shp("1,1"), shp("2,2/1")
        assert amalgamate(a, w, w, frozenset({(0, 1), (1, 1)}), w.cells) == a
        with pytest.raises(ValueError):  # holds the NE box but leaves a
            amalgamate(a, w, w, frozenset({(-1, 1), (0, 1)}), w.cells)

    def test_row_does_not_fit_in_column(self):
        w, a = shp("2"), shp("1,1")
        for placed in ({(0, 0), (0, 1)}, {(0, -1), (0, 0)}):
            with pytest.raises(ValueError):
                amalgamate(a, w, w, frozenset(placed), w.cells)

    def test_identity_placement(self):
        shape = shp("3,2/1")
        assert amalgamate(shape, shape, shape, shape.cells, shape.cells) == shape

    def test_extreme_boxes(self):
        shape = shp("4,4,2,2/2,1")
        assert ne_box(shape.cells) == (0, 3)
        assert sw_box(shape.cells) == (3, 0)


class TestParsing:
    def test_round_trip(self):
        for text in ["4,4,2,2/2,1", "3,1", "0", "8,7,2/3,1", "1"]:
            assert format_shape(parse_shape(text)) == text

    def test_minimal_representative(self):
        assert format_shape(SkewShape((2, 2), (2,))) == "2"

    def test_rejects_non_monotone(self):
        with pytest.raises(ShapeError):
            parse_shape("4,5")

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            parse_shape("3,0,1")

    def test_rejects_bad_skew(self):
        with pytest.raises(ShapeError):
            parse_shape("2,2/3")

    def test_empty(self):
        assert parse_shape("0") == EMPTY_SHAPE


class TestTranspose:
    def test_is_involution(self):
        for shape in box_bounded_shapes(6, 6):
            assert transpose(transpose(shape)) == shape

    def test_column_row(self):
        assert transpose(shp("1,1,1")) == shp("3")

    def test_reflects_cells(self):
        # conjugating lambda and mu is the cell reflection (r, c) -> (c, r)
        for shape in box_bounded_shapes(6, 6):
            assert transpose(shape) == skew_from_cells((c, r) for r, c in shape.cells)


class TestEnumerations:
    def test_connected_counts(self):
        # connected skew shapes by size, cross-checked against a direct
        # scan of the box-bounded family
        counts = [len(list(connected_shapes(n))) for n in range(1, 7)]
        assert counts == [1, 2, 4, 9, 20, 46]
        for n in range(1, 7):
            direct = {
                s.cells
                for s in box_bounded_shapes(n, n)
                if s.size == n and is_connected(s)
            }
            assert {s.cells for s in connected_shapes(n)} == direct

    @pytest.mark.parametrize("box", [0, 1, 2, 3, 4, 5])
    def test_box_family_is_the_full_walk_once(self, box):
        # reference: every mu inside every lambda in the box, normalized by SkewShape
        def inners(lam, i, bound):
            if i == len(lam):
                yield ()
                return
            for part in range(min(bound, lam[i]), -1, -1):
                for rest in inners(lam, i + 1, part):
                    yield (part,) + rest

        walk = {
            SkewShape(lam, tuple(m for m in mu if m))
            for lam in partitions_in_box(box, box)
            for mu in inners(lam, 0, box)
        }
        for max_cells in sorted({0, 1, 2, 3, 5, 8, box * box}):
            got = list(box_bounded_shapes(max_cells, box))
            assert len(got) == len(set(got))
            assert set(got) == {s for s in walk if s.size <= max_cells}

    def test_partitions_in_box(self):
        assert sorted(partitions_in_box(2, 2)) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]

    def test_partitions_of(self):
        assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_conjugate_counts_the_parts_above_each_column():
    from schurhopf.shapes import conjugate, partitions_in_box

    for part in partitions_in_box(6, 6):
        expected = tuple(sum(p > j for p in part) for j in range(part[0] if part else 0))
        assert conjugate(part) == expected
