import functools
import itertools

import pytest
from hypothesis import given, settings
from test_properties import PROPERTY, shapes

from schurhopf import wow
from schurhopf.shapes import (
    EMPTY_SHAPE,
    DisconnectedError,
    SkewShape,
    canonicalize_cells,
    conjugate,
    connected_shapes,
    format_shape,
    half_turn,
    is_connected,
    is_connected_skew,
    ne_box,
    neighbors,
    parse_shape,
    ribbon_composition_of,
    rim_ribbon,
    rotate180,
    skew_from_cells,
    sw_box,
    translate_cells,
    transpose,
)
from schurhopf.verifier import proof_trace, verify_main_theorem
from schurhopf.wow import (
    RR,
    UU,
    KeyRibbons,
    StructureError,
    WowStructure,
    amalgamate,
    compose,
    compose_layout,
    detect_wow,
    dot_w,
    find_structure,
    has_loose_end_ribbons,
    key_ribbons,
    rotate_structure,
    transpose_structure,
)


def shp(text):
    return parse_shape(text)


def _self_amalgam_cells(structure):
    """gamma || _W gamma with the first copy in gamma's own frame."""
    shifted = translate_cells(structure.gamma.cells, structure.amalg_shift)
    assert structure.gamma.cells & shifted == structure.upper_w
    return structure.gamma.cells | shifted


def _reference_key_ribbons(structure):
    """Key ribbons walked along the rims of the whole amalgam, then mapped back."""
    amalgam = _self_amalgam_cells(structure)
    amalgam_shape = skew_from_cells(amalgam)
    shift = structure.amalg_shift
    o1 = structure.o_cells
    o2 = translate_cells(o1, shift)
    min_r = min(r for r, _ in amalgam)
    min_c = min(c for _, c in amalgam)

    def extract(side, start_after_o1):
        rim = [(r + min_r, c + min_c) for r, c in rim_ribbon(amalgam_shape, side)]
        idx_o1 = [i for i, c in enumerate(rim) if c in o1]
        idx_o2 = [i for i, c in enumerate(rim) if c in o2]
        if start_after_o1:
            return rim[idx_o1[-1] + 1 : idx_o2[-1] + 1]
        return rim[idx_o1[0] : idx_o2[0]]

    back = (-shift[0], -shift[1])
    if structure.orientation == RR:
        top_cells, bottom_cells = extract("NW", True), extract("SE", False)
        top_fp, bottom_fp = translate_cells(top_cells, back), frozenset(bottom_cells)
    else:
        top_cells, bottom_cells = extract("NW", False), extract("SE", True)
        top_fp, bottom_fp = frozenset(top_cells), translate_cells(bottom_cells, back)
    top = ribbon_composition_of(skew_from_cells(top_cells))
    bottom = ribbon_composition_of(skew_from_cells(bottom_cells))
    return KeyRibbons(top, bottom, sum(top), top_fp, bottom_fp)


class TestDetect:
    def test_positive_landmark_structure(self, positive_structure):
        st = positive_structure
        assert st.orientation == RR
        assert st.upper_w == {(0, 3), (1, 3)}
        assert st.lower_w == {(2, 0), (3, 0)}
        assert format_shape(st.w_shape) == "1,1"
        assert format_shape(skew_from_cells(st.o_cells)) == "2,2,1,1/1"

    def test_transpose_symmetric_gamma_also_has_uu(self):
        structures = detect_wow(shp("4,4,2,2/2,1"))
        assert {st.orientation for st in structures} == {RR, UU}
        uu = [st for st in structures if st.orientation == UU][0]
        assert format_shape(uu.w_shape) == "2"

    def test_counterexample_structures(self):
        structures = detect_wow(shp("8,7,2/3,1"))
        assert [format_shape(st.w_shape) for st in structures] == ["3,2/1", "1"]
        assert all(st.orientation == RR for st in structures)

    def test_square_has_none(self):
        assert detect_wow(shp("2,2")) == []

    def test_box_and_domino_have_none(self):
        assert detect_wow(shp("1")) == []
        assert detect_wow(shp("2")) == []
        assert detect_wow(shp("1,1")) == []

    def test_line_shapes(self):
        # a row of three is W->O->W, a column of three is W^O^W
        row = detect_wow(shp("3"))
        assert len(row) == 1 and row[0].orientation == RR
        col = detect_wow(shp("1,1,1"))
        assert len(col) == 1 and col[0].orientation == UU

    def test_validation_rejects_garbage(self):
        gamma = shp("4,4,2,2/2,1")
        with pytest.raises(StructureError):
            find_structure(gamma, RR, frozenset({(0, 3)}), frozenset({(3, 0)}))

    @pytest.mark.parametrize(
        "upper, lower",
        [
            ({(0, 2), (1, 3)}, {(2, 0), (3, 0)}),
            ({(0, 3), (1, 3)}, {(2, 0), (3, 1)}),
        ],
        ids=["upper", "lower"],
    )
    def test_w_copy_not_a_skew_shape(self, upper, lower):
        # a diagonal pair of cells is no skew shape; the axiom check must
        # say so with StructureError rather than leak NotSkewError
        gamma = shp("4,4,2,2/2,1")
        with pytest.raises(StructureError):
            find_structure(gamma, RR, frozenset(upper), frozenset(lower))


def _connected_subsets(cells, anchor, max_size):
    """Reference: every connected subset of cells holding anchor, each once."""

    def rec(current: set, frontier: list, banned: set):
        yield frozenset(current)
        if len(current) >= max_size:
            return
        for idx, cand in enumerate(frontier):
            new_banned = banned | set(frontier[: idx + 1])
            current.add(cand)
            tail = frontier[idx + 1 :]
            grown = tail + [
                nb
                for nb in neighbors(cand)
                if nb in cells and nb not in current and nb not in new_banned and nb not in tail
            ]
            yield from rec(current, grown, new_banned)
            current.remove(cand)

    yield from rec({anchor}, [nb for nb in neighbors(anchor) if nb in cells], set())


def _row_minus_col(cell):
    """The reference's own diagonal index, r - c, independent of shapes.diagonal."""
    return cell[0] - cell[1]


def _cell_tuples(structures):
    """(gamma, orientation, upper_w, lower_w) of each structure, as the reference walks give them."""
    return [(st.gamma, st.orientation, st.upper_w, st.lower_w) for st in structures]


def _reference_detect(gamma):
    """Reference: the polyomino walk, filtered, with maximality over all 2^|band| extensions.

    Returns (gamma, orientation, top, bottom) tuples, in detect_wow's order.
    """
    cells = gamma.cells
    max_w = (gamma.size - 1) // 2

    def pool(anchor):
        out = {}
        for subset in _connected_subsets(cells, anchor, max_w):
            if is_connected_skew(subset) and is_connected_skew(cells - subset):
                out.setdefault(canonicalize_cells(subset), set()).add(subset)
        return out

    def extensions(placed):
        diagonals = {_row_minus_col(x) for x in placed}
        extras = sorted(c for c in cells if _row_minus_col(c) in diagonals and c not in placed)
        for mask in range(1, 1 << len(extras)):
            extended = placed | {extras[i] for i in range(len(extras)) if mask >> i & 1}
            if is_connected_skew(extended) and is_connected_skew(cells - extended):
                yield canonicalize_cells(extended)

    tops, bottoms = pool(ne_box(cells)), pool(sw_box(cells))
    out = []
    for key in sorted(tops.keys() & bottoms.keys(), key=sorted):
        for t in sorted(tops[key], key=sorted):
            for b in sorted(bottoms[key], key=sorted):
                if min(map(_row_minus_col, b)) - max(map(_row_minus_col, t)) < 2:
                    continue
                o = cells - t - b
                if not is_connected_skew(o):
                    continue
                for orientation in (RR, UU):
                    if not wow._adjacency_holds(o, t, b, orientation):
                        continue
                    bigger_tops = set(extensions(t))
                    if not bigger_tops or not bigger_tops & set(extensions(b)):
                        out.append((gamma, orientation, t, b))
    out.sort(key=lambda s: (-len(s[2]), s[1], sorted(s[2]), sorted(s[3])))
    return out


def _reference_validate(gamma, orientation, upper_w, lower_w):
    """Reference: the axioms checked one by one; StructureError names the first that fails.

    O's connectivity is left out, as Lemma 1 of detect_wow derives it.
    """
    cells = gamma.cells
    if not is_connected(gamma):
        raise StructureError("gamma must be connected")
    if not (upper_w <= cells and lower_w <= cells):
        raise StructureError("W copies must lie inside gamma")
    upper = skew_from_cells(upper_w) if is_connected_skew(upper_w) else None
    lower = skew_from_cells(lower_w) if is_connected_skew(lower_w) else None
    if upper is None or lower is None:
        raise StructureError("each W copy must be a connected skew shape")
    if upper != lower:
        raise StructureError("the two W copies must be translates of one shape")
    if ne_box(cells) not in upper_w:
        raise StructureError("upper W must lie in the top of gamma")
    if sw_box(cells) not in lower_w:
        raise StructureError("lower W must lie in the bottom of gamma")
    for removed in (upper_w, lower_w):
        if not is_connected_skew(cells - removed):
            raise StructureError("removing a W copy must leave a connected shape")
    if min(map(_row_minus_col, lower_w)) - max(map(_row_minus_col, upper_w)) < 2:
        raise StructureError("need a diagonal strictly between the W copies")
    if orientation not in (RR, UU):
        raise StructureError(f"unknown orientation {orientation!r}")
    if not wow._adjacency_holds(cells - upper_w - lower_w, upper_w, lower_w, orientation):
        raise StructureError("O / W adjacency fails for this orientation")


def _reference_accepts(gamma, orientation, upper_w, lower_w):
    try:
        _reference_validate(gamma, orientation, upper_w, lower_w)
    except StructureError:
        return False
    return True


def test_find_structure_matches_reference(monkeypatch):
    # membership in detect_wow is the one definition of a valid structure: it
    # accepts exactly the candidates that pass every axiom check; detect_wow
    # runs once per gamma, as each gamma has hundreds of candidates
    monkeypatch.setattr(wow, "detect_wow", functools.lru_cache(maxsize=1)(detect_wow))
    accepted = rejected = 0
    for n in range(1, 8):
        for gamma in connected_shapes(n):
            cells = gamma.cells
            tops = list(_connected_subsets(cells, ne_box(cells), n))
            bottoms = list(_connected_subsets(cells, sw_box(cells), n))
            for t, b, orientation in itertools.product(tops, bottoms, (RR, UU)):
                if _reference_accepts(gamma, orientation, t, b):
                    st = find_structure(gamma, orientation, t, b)
                    assert (st.gamma, st.orientation, st.upper_w, st.lower_w) == (
                        gamma, orientation, t, b)
                    accepted += 1
                else:
                    with pytest.raises(StructureError):
                        find_structure(gamma, orientation, t, b)
                    rejected += 1
    assert (accepted, rejected) == (122, 35_008)
    gamma = shp("4,4,2,2/2,1")
    top, bottom = frozenset({(0, 3), (1, 3)}), frozenset({(2, 0), (3, 0)})
    garbage = [
        (gamma, "LR", top, bottom),  # unknown orientation
        (gamma, RR, frozenset({(0, 4), (1, 4)}), bottom),  # outside gamma
        (gamma, RR, top, frozenset({(2, 0), (4, 0)})),  # outside gamma
        (gamma, RR, frozenset({(0, 3), (1, 2)}), bottom),  # not a skew shape
        (gamma, RR, frozenset(), frozenset()),  # empty copies
        (shp("2,1/1"), RR, frozenset({(0, 1)}), frozenset({(1, 0)})),  # disconnected gamma
    ]
    assert find_structure(gamma, RR, top, bottom).describe().startswith("W -> O -> W")
    for candidate in garbage:
        assert not _reference_accepts(*candidate)
        with pytest.raises(StructureError):
            find_structure(*candidate)


def _sides(w, rest):
    """Where the cells of rest on w's diagonals lie along them: "NW", "SE" or "between"."""
    w_rows = {}
    for r, c in w:
        w_rows.setdefault(r - c, []).append(r)
    sides = set()
    for r, c in rest:
        rows = w_rows.get(r - c)
        if rows:
            sides.add("NW" if r < min(rows) else "SE" if r > max(rows) else "between")
    return sides


class TestSides:
    def test_rest_of_gamma_meets_w_diagonals_on_one_side(self, catalog10):
        # Lemma 2 of detect_wow: for RR the rest of gamma meets upper W's
        # diagonals only northwest of it and lower W's only southeast of it;
        # for UU the sides swap
        seen = {RR: set(), UU: set()}
        for st, _, _ in catalog10:
            top = _sides(st.upper_w, st.gamma.cells - st.upper_w)
            bottom = _sides(st.lower_w, st.gamma.cells - st.lower_w)
            expected = ({"NW"}, {"SE"}) if st.orientation == RR else ({"SE"}, {"NW"})
            assert top <= expected[0] and bottom <= expected[1], st.describe()
            seen[st.orientation] |= top | bottom
        # both sides occur in both orientations, so the check is not vacuous
        assert seen == {RR: {"NW", "SE"}, UU: {"NW", "SE"}}


def _w_pairs_passing_other_axioms(max_size):
    """(gamma, top, bottom) for every pair passing the axioms _reference_validate checks.

    Two translates with a diagonal of gamma between them hold at most
    (|gamma| - 1) // 2 cells each, so the walk stops there.
    """
    for n in range(1, max_size + 1):
        for gamma in connected_shapes(n):
            cells = gamma.cells
            max_w = (n - 1) // 2

            def pool(anchor):
                return [
                    w
                    for w in _connected_subsets(cells, anchor, max_w)
                    if is_connected_skew(w) and is_connected_skew(cells - w)
                ]

            bottoms = pool(sw_box(cells))
            for t in pool(ne_box(cells)):
                for b in bottoms:
                    gap = min(map(_row_minus_col, b)) - max(map(_row_minus_col, t))
                    if gap >= 2 and canonicalize_cells(t) == canonicalize_cells(b):
                        yield gamma, t, b


def test_o_is_connected_by_lemma_1():
    # Lemma 1 of detect_wow: the axioms _reference_validate checks make O a
    # nonempty connected skew shape, so it does not check that
    pairs = 0
    for gamma, t, b in _w_pairs_passing_other_axioms(8):
        o = gamma.cells - t - b
        assert o and is_connected_skew(o), (format_shape(gamma), sorted(t), sorted(b))
        pairs += 1
    assert pairs == 592


class TestAgainstSubsetWalk:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_connected_gamma(self, n):
        for gamma in connected_shapes(n):
            assert _cell_tuples(detect_wow(gamma)) == _reference_detect(gamma), format_shape(gamma)

    def test_square(self):
        gamma = shp("5,5,5,5,5")
        assert detect_wow(gamma) == _reference_detect(gamma) == []

    @pytest.mark.parametrize("text", ["6,6,6,6,6,6", "9,8,8,7,6,5,4/3,2,1"])
    def test_fat_gamma_has_none(self, text):
        # the subset walk takes more than a minute on the 6x6 square
        assert detect_wow(shp(text)) == []


def _two_walk_detect(gamma):
    """Reference: bottoms walked as the half-turned tops of rotate180(gamma), paired by shape.

    Returns (gamma, orientation, top, bottom) tuples, in detect_wow's order.
    """
    cells = gamma.cells

    def by_shape(placements):
        out = {}
        for placed in placements:
            out.setdefault(canonicalize_cells(placed), []).append(placed)
        return out

    tops = by_shape(wow._top_placements(gamma))
    bottoms = by_shape(half_turn(p, gamma) for p in wow._top_placements(rotate180(gamma)))
    out = []
    for key in tops.keys() & bottoms.keys():
        for t in tops[key]:
            for b in bottoms[key]:
                if min(map(_row_minus_col, b)) - max(map(_row_minus_col, t)) >= 2:
                    o = cells - t - b
                    for orientation in (RR, UU):
                        if wow._adjacency_holds(o, t, b, orientation):
                            out.append((gamma, orientation, t, b))
    out.sort(key=lambda s: (-len(s[2]), s[1], sorted(s[2]), sorted(s[3])))
    return out


class TestOneBottomPerTop:
    """detect_wow moves each top onto gamma's SW box instead of walking the bottoms too."""

    def test_every_connected_gamma_of_11_cells(self):
        gammas = list(connected_shapes(11))
        structures = 0
        for gamma in gammas:
            found = detect_wow(gamma)
            assert _cell_tuples(found) == _two_walk_detect(gamma), format_shape(gamma)
            structures += len(found)
        assert (len(gammas), structures) == (2964, 2336)

    @settings(PROPERTY, max_examples=400)
    @given(shapes(max_cells=24).filter(lambda g: g.size and is_connected(g)))
    def test_sampled_gammas(self, gamma):
        assert _cell_tuples(detect_wow(gamma)) == _two_walk_detect(gamma), format_shape(gamma)


def _reference_placements(w, a, target):
    """Reference: every translate of a connected w inside a that holds target, sorted."""
    out = []
    for r0, c0 in w.cells:  # each cell of w gives a different translation
        placed = translate_cells(w.cells, (target[0] - r0, target[1] - c0))
        if placed <= a.cells:
            out.append(placed)
    out.sort(key=sorted)
    return out


def _accepted(w, a, placed, top):
    """Whether amalgamate takes placed as w's copy in a's top (else bottom).

    The other side's copy is w itself, so an accepted copy gives back a.
    """
    try:
        out = amalgamate(a, w, w, placed, w.cells) if top else amalgamate(w, a, w, w.cells, placed)
    except ValueError as exc:
        assert type(exc) is ValueError, exc
        return False
    assert out == a
    return True


class TestAmalgamation:
    def test_full_overlap(self):
        one = shp("1")
        assert amalgamate(one, one, one, one.cells, one.cells) == one

    def test_column_stack(self):
        col = shp("1,1")
        box = shp("1")
        out = amalgamate(col, col, box, frozenset({(0, 0)}), frozenset({(1, 0)}))
        assert out == shp("1,1,1")

    def test_positive_self_amalgam(self, positive_structure):
        st = positive_structure
        out = amalgamate(st.gamma, st.gamma, st.w_shape, st.upper_w, st.lower_w)
        assert format_shape(out) == "7,7,5,5,2,2/5,4,2,1"
        assert out.size == 2 * 9 - 2
        assert skew_from_cells(_self_amalgam_cells(st)) == out

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            amalgamate(shp("2"), shp("2"), shp("1"), frozenset({(0, 0)}), frozenset({(0, 0)}))

    def test_accepts_exactly_the_reference_placements(self):
        # every translate of w that meets a, on connected w and a of <= 5 cells
        shapes = [s for n in range(1, 6) for s in connected_shapes(n)]
        for w in shapes:
            for a in shapes:
                candidates = {
                    translate_cells(w.cells, (ar - wr, ac - wc))
                    for ar, ac in a.cells
                    for wr, wc in w.cells
                }
                for top, box in ((True, ne_box), (False, sw_box)):
                    accepted = sorted((p for p in candidates if _accepted(w, a, p, top)), key=sorted)
                    assert accepted == _reference_placements(w, a, box(a.cells)), (w, a, top)

    def test_disconnected_w_rejected(self):
        a, w = shp("2,2"), shp("2,1/1")
        with pytest.raises(DisconnectedError):
            amalgamate(a, a, w, frozenset({(0, 1), (1, 0)}), frozenset({(0, 1), (1, 0)}))

    def test_copy_missing_the_extreme_box_rejected(self):
        a, w = shp("2,2"), shp("1")
        with pytest.raises(ValueError) as top:  # (1, 1) is in a, but a's NE box is (0, 1)
            amalgamate(a, w, w, frozenset({(1, 1)}), w.cells)
        with pytest.raises(ValueError) as bottom:  # (0, 0) is in a, but a's SW box is (1, 0)
            amalgamate(w, a, w, w.cells, frozenset({(0, 0)}))
        assert top.type is bottom.type is ValueError

    def test_non_translate_rejected(self):
        # a column through a's NE box, where w is a row
        a, w = shp("2,2"), shp("2")
        with pytest.raises(ValueError) as exc:
            amalgamate(a, w, w, frozenset({(0, 1), (1, 1)}), w.cells)
        assert exc.type is ValueError

    @pytest.mark.parametrize("side", ["a1", "a2", "w"])
    def test_empty_shape_rejected(self, side):
        one = shp("1")
        shapes = {"a1": one, "a2": one, "w": one, side: EMPTY_SHAPE}
        placed = frozenset() if side == "w" else one.cells
        with pytest.raises(ValueError) as exc:
            amalgamate(shapes["a1"], shapes["a2"], shapes["w"], placed, placed)
        assert exc.type is ValueError


class TestDot:
    def test_positive_overlapping_union(self, positive_structure):
        st = positive_structure
        out = dot_w(st.gamma, st.gamma, st)
        # the copies legitimately share two cells here, so the union has
        # 16 boxes, not 18
        assert out.size == 16
        assert format_shape(out) == "6,6,4,4,4,2,2/4,3,2,2,1"

    def test_requires_gamma_copies(self, positive_structure):
        with pytest.raises(ValueError):
            dot_w(shp("1"), shp("1"), positive_structure)


class TestCompose:
    def test_single_box_is_gamma(self, positive_structure):
        assert compose(shp("1"), positive_structure) == positive_structure.gamma

    def test_row_of_two_is_amalgam(self, positive_structure):
        st = positive_structure
        out = amalgamate(st.gamma, st.gamma, st.w_shape, st.upper_w, st.lower_w)
        assert compose(shp("2"), st) == out

    def test_positive_beta(self, positive_structure):
        out = compose(shp("2,1"), positive_structure)
        assert format_shape(out) == "9,9,7,7,4,4,4,2,2/7,6,4,3,2,2,1"
        assert out.size == 23

    def test_positive_beta_star(self, positive_structure):
        out = compose(rotate180(shp("2,1")), positive_structure)
        assert format_shape(out) == "9,9,7,7,7,5,5,2,2/7,6,5,5,4,2,1"
        assert out.size == 23

    def test_translation_invariance(self, positive_structure):
        # alpha given through any translated cell set composes identically
        alpha = skew_from_cells({(5, 7), (5, 8), (6, 7)})
        assert compose(alpha, positive_structure) == compose(shp("2,1"), positive_structure)

    def test_layout_offsets(self, positive_structure):
        _, frames = compose_layout(shp("2,1"), positive_structure)
        assert frames == {(0, 0): (2, 2), (0, 1): (0, 5), (1, 0): (5, 0)}

    def test_empty_alpha_rejected(self, positive_structure):
        with pytest.raises(ValueError):
            compose(SkewShape(()), positive_structure)


class TestKeyRibbons:
    def test_positive_instance(self, positive_structure):
        keys = key_ribbons(positive_structure)
        assert keys.top == (1, 2, 2)
        assert keys.bottom == (3, 1, 1)
        assert keys.size == 5
        assert keys.top_footprint == {(0, 2), (1, 1), (1, 2), (2, 0), (2, 1)}
        assert keys.bottom_footprint == {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}

    def test_uu_twin_matches(self):
        structures = detect_wow(shp("4,4,2,2/2,1"))
        uu = [st for st in structures if st.orientation == UU][0]
        keys = key_ribbons(uu)
        assert keys.top == (1, 2, 2)
        assert keys.bottom == (3, 1, 1)

    def test_counterexample_sizes(self, counterexample_structure):
        keys = key_ribbons(counterexample_structure)
        assert keys.size == 6
        assert keys.top == (3, 3)
        assert keys.bottom == (2, 4)

    def test_counterexample_small_w(self):
        st = detect_wow(shp("8,7,2/3,1"))[1]
        keys = key_ribbons(st)
        assert keys.size == 9
        assert keys.top == (4, 3, 2)
        assert keys.bottom == (2, 6, 1)

    def test_matches_amalgam_rims(self, catalog10):
        for st, keys, _ in catalog10:
            assert keys == _reference_key_ribbons(st), st

    def test_footprints_inside_gamma(self, catalog10):
        for st, keys, _ in catalog10[:300]:
            assert keys.top_footprint <= st.gamma.cells
            assert keys.bottom_footprint <= st.gamma.cells


class TestLooseEnds:
    def test_positive_clean(self, positive_structure):
        assert not has_loose_end_ribbons(positive_structure).found

    def test_counterexample_witness(self, counterexample_structure):
        loose = has_loose_end_ribbons(counterexample_structure)
        assert loose.found
        comps = {comp for comp, _ in loose.witnesses}
        assert comps == {(1, 3, 2)}
        (witness_cells,) = [cells for _, cells in loose.witnesses]
        assert witness_cells == {(0, 3), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)}

    def test_counterexample_small_w_clean(self):
        st = detect_wow(shp("8,7,2/3,1"))[1]
        assert not has_loose_end_ribbons(st).found


class TestRotation:
    def test_positive_rotation(self, positive_structure):
        rot = rotate_structure(positive_structure)
        assert format_shape(rot.gamma) == "4,4,3,2/2,2"

    def test_double_rotation_identity(self, positive_structure):
        twice = rotate_structure(rotate_structure(positive_structure))
        assert twice == positive_structure

    def test_detection_commutes_with_rotation(self):
        # detecting on the half-turn finds exactly the rotated structures
        count = 0
        for n in range(1, 10):
            for gamma in connected_shapes(n):
                structures = detect_wow(gamma)
                count += len(structures)
                rotated = {rotate_structure(st) for st in structures}
                assert set(detect_wow(rotate180(gamma))) == rotated, format_shape(gamma)
        assert count == 722

    def test_duality_on_small_catalog(self):
        beta = shp("2,1")
        beta_star = rotate180(beta)
        for n in range(3, 7):
            for gamma in connected_shapes(n):
                for st in detect_wow(gamma):
                    lhs = rotate180(compose(beta, st))
                    rhs = compose(beta_star, rotate_structure(st))
                    assert lhs == rhs

    def test_half_turn_lemma_on_catalog(self):
        # the rotate_structure lemma that lets search copy gamma's rows to its
        # half-turn: compose commutes with the half-turn up to beta's, and the
        # key size and the loose-end verdict are kept
        betas = [shp(text) for text in ("1", "2,1", "2,2", "3,1", "2,2,1", "3,3,2")]
        catalog = wow.wow_catalog(9)
        assert len(catalog) == 722
        for st in catalog:
            rot = rotate_structure(st)
            assert rot.keys.size == st.keys.size, st.describe()
            assert rot.loose_ends.found == st.loose_ends.found, st.describe()
            for beta in betas:
                assert compose(beta, rot) == rotate180(compose(rotate180(beta), st))


class TestTranspose:
    def test_detection_commutes_with_transpose(self):
        # detecting on the transpose finds exactly the transposed structures,
        # which keep the key size and the loose-end verdict: search copies
        # them from gamma's rows
        by_gamma = {}
        for st in wow.wow_catalog(9):
            by_gamma.setdefault(st.gamma, []).append(st)
        assert sum(map(len, by_gamma.values())) == 722
        for gamma, structures in by_gamma.items():
            flipped = {transpose_structure(st): st for st in structures}
            assert len(flipped) == len(structures), format_shape(gamma)
            assert set(detect_wow(transpose(gamma))) == set(flipped), format_shape(gamma)
            for image, st in flipped.items():
                assert image.orientation != st.orientation
                assert image.keys.size == st.keys.size, st.describe()
                assert image.loose_ends.found == st.loose_ends.found, st.describe()

    @pytest.mark.usefixtures("memo_expansions")  # beta' on S' expands what beta on S did
    def test_verdict_of_conjugate_beta(self):
        # compose(beta', S') is the transpose of compose(beta, S), so beta on
        # S and beta' on S' have one verdict
        for st in wow.wow_catalog(8):
            image = transpose_structure(st)
            for text in ("2,1", "3,2", "3,1"):
                beta = tuple(map(int, text.split(",")))
                assert compose(SkewShape(conjugate(beta)), image) == transpose(
                    compose(SkewShape(beta), st)
                )
                a = verify_main_theorem(beta, st)
                b = verify_main_theorem(conjugate(beta), image)
                assert (a.mode, a.equal) == (b.mode, b.equal), (text, st.describe())


class TestDerivedOnce:
    def test_keys_and_loose_ends_computed_once(self, monkeypatch):
        calls = {"key_ribbons": 0, "has_loose_end_ribbons": 0}

        def counting(name):
            original = getattr(wow, name)

            def wrapper(structure):
                calls[name] += 1
                return original(structure)

            return wrapper

        for name in calls:
            monkeypatch.setattr(wow, name, counting(name))
        st = detect_wow(shp("4,4,2,2/2,1"))[0]
        verify_main_theorem((2, 1), st)
        proof_trace((2, 1), st)
        assert calls == {"key_ribbons": 1, "has_loose_end_ribbons": 1}


class TestStructureSurface:
    def test_describe(self, positive_structure):
        text = positive_structure.describe()
        assert text == "W -> O -> W: gamma=4,4,2,2/2,1; W=1,1@top(0,3)/bottom(2,0)"

    def test_json(self, positive_structure):
        data = positive_structure.to_json()
        assert data["gamma"] == "4,4,2,2/2,1"
        assert data["orientation"] == RR
        assert data["upper_w"] == [(0, 3), (1, 3)]


def _loose_ends_by_cells(structure):
    """Reference: the cell-based removable_ribbons filter, by each ribbon's diagonal span."""
    from schurhopf.hopf import removable_ribbons

    keys = key_ribbons(structure)

    def span(cells):
        deltas = [c - r for r, c in cells]
        return min(deltas), max(deltas)

    rr = structure.orientation == RR
    out = []
    for side, footprint, before in (("left", keys.top_footprint, rr),
                                    ("right", keys.bottom_footprint, not rr)):
        key_lo, key_hi = span(footprint)
        for comp, cells in removable_ribbons(structure.gamma, keys.size, side):
            lo, hi = span(cells)
            if (lo < key_lo) if before else (hi > key_hi):
                out.append((comp, cells))
    return tuple(out)


def test_span_layers_match_cell_references_up_to_11_cells():
    # key ribbons, composition and loose ends on every structure of every
    # connected gamma of at most 11 cells, against the cell-level references
    from test_properties import _compose_in_frame

    betas = [shp(b) for b in ("2,1", "2,2/1", "2,2", "3,2", "2,2,1")]
    gammas = [g for n in range(1, 12) for g in connected_shapes(n)]
    structures = [st for g in gammas for st in detect_wow(g)]
    assert len(gammas) == 5235
    for st in structures:
        assert key_ribbons(st) == _reference_key_ribbons(st), st
        assert has_loose_end_ribbons(st).witnesses == _loose_ends_by_cells(st), st
        for beta in betas[: 2 if st.gamma.size > 8 else 5]:
            assert compose(beta, st) == _compose_in_frame(
                beta.cells, st.gamma.cells, st.upper_w, st.lower_w, st.orientation), st


def test_filled_in_w_shape_is_the_shape_of_the_upper_w():
    # a structure holds W alone, and its copies are W placed on gamma's NE and
    # SW boxes; on the images they must be the half-turn or transpose of the
    # source's copies, which the reference walks check on detect_wow's own
    def flip(cells):
        return frozenset((c, r) for r, c in cells)

    for n in range(1, 11):
        for gamma in connected_shapes(n):
            for st in detect_wow(gamma):
                turned, flipped = rotate_structure(st), transpose_structure(st)
                assert (turned.upper_w, turned.lower_w) == (
                    half_turn(st.lower_w, gamma), half_turn(st.upper_w, gamma)), st
                assert (flipped.upper_w, flipped.lower_w) == (flip(st.lower_w), flip(st.upper_w)), st


def test_cells_built_only_for_output():
    # a structure is (gamma, orientation, W): detection and its sort, describe,
    # the shifts, key ribbons and loose ends read W's pair, so the copies' and
    # O's cells are built only when output or a caller asks for them
    assert WowStructure._fields == ("gamma", "orientation", "w_shape")
    for st in wow.wow_catalog(8):
        for image in (st, rotate_structure(st), transpose_structure(st)):
            image.describe(), image.dot_shift, image.keys, image.loose_ends
            assert not {"upper_w", "lower_w", "o_cells"} & vars(image).keys(), image
