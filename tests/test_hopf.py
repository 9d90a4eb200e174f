import functools
import hashlib
import json

import pytest

from schurhopf import hopf, schur
from schurhopf.hopf import (
    check_coassociativity,
    check_counit_laws,
    combo_to_h,
    coproduct,
    coproduct_slice,
    coproduct_to_json,
    counit,
    image_cocommutativity,
    is_shape_level_cocommutative,
    removable_ribbons,
    shape_class,
    take_out_left,
    take_out_right,
)
from schurhopf.schur import schur_expand
from schurhopf.shapes import (
    EMPTY_SHAPE,
    ShapeError,
    SkewShape,
    box_bounded_shapes,
    connected_components,
    connected_shapes,
    direct_sum,
    format_shape,
    is_connected,
    is_connected_skew,
    is_ribbon,
    parse_shape,
    ribbon_composition_of,
    skew_from_cells,
)


def shp(text):
    return parse_shape(text)


def cls(*texts):
    return shape_class(direct_sum(shp(t) for t in texts))


def _split_cells(shape, eta, side):
    """Cells of eta/mu (side "left") or lambda/eta (side "right"), in the frame of lambda/mu."""
    lam, mu = shape.outer, shape.padded_inner
    inner, outer = (mu, eta) if side == "left" else (eta, lam)
    return frozenset((r, c) for r in range(len(lam)) for c in range(inner[r], outer[r]))


def _removable_ribbons_by_slices(shape, n, side):
    """Reference: scan every coproduct split for a connected ribbon of n cells."""
    left_size = n if side == "left" else shape.size - n
    out = []
    for cells in (_split_cells(shape, eta, side) for eta, _, _ in coproduct_slice(shape, left_size)):
        piece = skew_from_cells(cells) if is_connected_skew(cells) else None
        if piece is not None and is_ribbon(piece):
            out.append((ribbon_composition_of(piece), cells))
    out.sort(key=lambda item: tuple(sorted(item[1])))
    return out


class TestCoproduct:
    def test_split_classes_match_cells(self):
        # reference: each split's factors as cell sets, classed through
        # skew_from_cells and the cell search of hopf.class_of_cells
        for shape in box_bounded_shapes(5, 5):
            for k in range(shape.size + 1):
                for eta, left, right in coproduct_slice(shape, k):
                    assert left == hopf.class_of_cells(_split_cells(shape, eta, "left"))
                    assert right == hopf.class_of_cells(_split_cells(shape, eta, "right"))
                    assert left.size == k and right.size == shape.size - k

    def test_single_box(self):
        terms = coproduct(shp("1"))
        assert terms == {
            (EMPTY_SHAPE, cls("1")): 1,
            (cls("1"), EMPTY_SHAPE): 1,
        }

    def test_row_of_two(self):
        terms = coproduct(shp("2"))
        assert terms == {
            (EMPTY_SHAPE, cls("2")): 1,
            (cls("1"), cls("1")): 1,
            (cls("2"), EMPTY_SHAPE): 1,
        }

    def test_hook(self):
        terms = coproduct(shp("2,1"))
        assert terms == {
            (EMPTY_SHAPE, cls("2,1")): 1,
            (cls("1"), cls("1", "1")): 1,
            (cls("2"), cls("1")): 1,
            (cls("1,1"), cls("1")): 1,
            (cls("2,1"), EMPTY_SHAPE): 1,
        }

    def test_empty(self):
        assert coproduct(SkewShape(())) == {(EMPTY_SHAPE, EMPTY_SHAPE): 1}

    def test_grading(self):
        for shape in box_bounded_shapes(5, 5):
            for (a, b), _ in coproduct(shape).items():
                assert a.size + b.size == shape.size

    def test_disconnected_is_product_of_components(self):
        # reference: the product of the component coproducts, one class
        # product (the union of component multisets) at a time
        for shape in box_bounded_shapes(5, 5):
            if is_connected(shape):
                continue
            total = {(EMPTY_SHAPE, EMPTY_SHAPE): 1}
            for comp in connected_components(shape):
                merged = {}
                for (a1, b1), m1 in total.items():
                    for (a2, b2), m2 in coproduct(comp).items():
                        key = (
                            shape_class(direct_sum((a1, a2))),
                            shape_class(direct_sum((b1, b2))),
                        )
                        merged[key] = merged.get(key, 0) + m1 * m2
                total = merged
            assert coproduct(shape) == total

    def test_multiplicities_exceed_one(self):
        # three staircase boxes: each eta removing one box leaves the same
        # class pair, so the term (box, two boxes) carries multiplicity 3
        terms = coproduct(shp("3,2,1/2,1"))
        assert terms[(cls("1"), cls("1", "1"))] == 3


class TestCounit:
    def test_values(self):
        assert counit(EMPTY_SHAPE) == 1
        assert counit(cls("1")) == 0
        assert counit(cls("3,1")) == 0

    def test_counit_laws(self):
        for n in range(1, 6):
            for shape in connected_shapes(n):
                assert check_counit_laws(shape)


class TestTakeOut:
    def test_box_from_hook(self):
        out = take_out_left(shp("2,1"), cls("1"))
        assert out == {cls("1", "1"): 1}

    def test_any_layout_of_the_class(self):
        # two boxes a column apart are the class of two boxes, not a shape of its own
        staircase = shp("3,2/1")
        assert take_out_left(staircase, shp("3,1/2")) == take_out_left(staircase, cls("1", "1"))
        assert take_out_right(staircase, shp("3,1/2")) == take_out_right(staircase, cls("1", "1"))
        assert take_out_left(staircase, cls("1", "1"))

    def test_column_from_row(self):
        assert take_out_left(shp("2"), cls("1,1")) == {}

    def test_whole_shape(self):
        shape = shp("3,1")
        assert take_out_left(shape, shape_class(shape)) == {EMPTY_SHAPE: 1}

    def test_right_mirror(self):
        out = take_out_right(shp("2,1"), cls("1"))
        assert out == {cls("2"): 1, cls("1,1"): 1}


class TestRemovableRibbons:
    def test_square_one_box(self):
        assert removable_ribbons(shp("2,2"), 1, "left") == [((1,), frozenset({(0, 0)}))]

    def test_square_two(self):
        found = removable_ribbons(shp("2,2"), 2, "left")
        assert {(comp, cells) for comp, cells in found} == {
            ((2,), frozenset({(0, 0), (0, 1)})),
            ((1, 1), frozenset({(0, 0), (1, 0)})),
        }

    def test_counterexample_has_two(self):
        found = removable_ribbons(shp("8,7,2/3,1"), 6, "left")
        assert len(found) == 2

    def test_matches_slice_reference(self):
        # 6,752 cases, disconnected shapes included
        for shape in box_bounded_shapes(5, 5):
            for n in range(1, shape.size + 1):
                for side in ("left", "right"):
                    assert removable_ribbons(shape, n, side) == _removable_ribbons_by_slices(
                        shape, n, side
                    ), (format_shape(shape), n, side)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            removable_ribbons(shp("2,2"), 0, "left")
        with pytest.raises(ValueError):
            removable_ribbons(shp("2,2"), 1, "up")
        for n in (2.5, "2"):  # read as integers, as ribbon_shape reads its parts
            with pytest.raises(ShapeError):
                removable_ribbons(shp("2"), n, "left")


class TestAxioms:
    @pytest.mark.parametrize("text", ["1", "2,1", "3,2/1"])
    def test_coassociativity_examples(self, text):
        assert check_coassociativity(shp(text))

    def test_shape_level_witness(self):
        # the hook is the classic size-3 witness: (1) (x) {two boxes} has no
        # mirror term at the class level
        assert not is_shape_level_cocommutative(shp("2,1"))

    @pytest.mark.parametrize("text", ["1", "2,1", "3,3/1"])
    def test_image_cocommutativity_examples(self, text):
        assert image_cocommutativity(shp(text))

    def test_image_cocommutativity_sliced(self):
        shape = shp("4,3,1/1")
        n = shape.size
        for k in range(n + 1):
            assert image_cocommutativity(shape, slice_size=k)


def _reference_image_cocommutativity(shape, slice_size):
    """The former comparison of one bidegree: Schur buckets of the small side.

    Each split's small-side factor is expanded by LR, the large-side classes
    are bucketed by those Schur coordinates, and each bucket's residue, after
    classes cancel, is compared through the h-basis.  Only the splits' eta
    are read: each factor's class is built from its cells through
    hopf.class_of_cells, independently of the classes coproduct_slice gives.
    Splits and classes are read through hopf so that a test can substitute them.
    """
    n = shape.size
    k = slice_size
    small_is_left = k <= n - k

    def bucket(slice_terms, left_small):
        buckets = {}
        small_side, big_side = ("left", "right") if left_small else ("right", "left")
        for eta, _, _ in slice_terms:
            small = hopf.class_of_cells(_split_cells(shape, eta, small_side))
            big = hopf.class_of_cells(_split_cells(shape, eta, big_side))
            for p, c in schur.schur_expand(small).coeffs:
                buckets.setdefault(p, {})
                buckets[p][big] = buckets[p].get(big, 0) + c
        return buckets

    lhs = bucket(hopf.coproduct_slice(shape, k), small_is_left)
    rhs = bucket(hopf.coproduct_slice(shape, n - k), not small_is_left)
    for p in set(lhs) | set(rhs):
        residue = dict(lhs.get(p, {}))
        for cls_, m in rhs.get(p, {}).items():
            residue[cls_] = residue.get(cls_, 0) - m
        if combo_to_h({c: m for c, m in residue.items() if m}):
            return False
    return True


def _mutate_first_slice(monkeypatch, mutate):
    """Make the next hopf.coproduct_slice call return its splits mutated; later calls are kept."""
    original = coproduct_slice
    calls = []

    def patched(shape, left_size):
        splits = original(shape, left_size)
        calls.append(left_size)
        return mutate(splits) if len(calls) == 1 else splits

    monkeypatch.setattr(hopf, "coproduct_slice", patched)


@pytest.mark.usefixtures("memo_expansions")  # the family shares most factor shapes
class TestImageCocommutativityAgainstReference:
    SHAPES = list(box_bounded_shapes(6, 5))

    @pytest.fixture(autouse=True)
    def shared_classes(self, monkeypatch):
        # the reference builds each split's class from its cells, a class
        # depends only on those, and the shapes of the family share their
        # frame: all of its calls read one memo (2,695 cell sets)
        memo = functools.lru_cache(maxsize=None)(hopf.class_of_cells)
        monkeypatch.setattr(hopf, "class_of_cells", memo)

    def test_every_slice_matches_reference(self):
        compared = 0
        for shape in self.SHAPES:
            for k in range(-1, shape.size + 2):  # out-of-range slices are cocommutative
                new = image_cocommutativity(shape, slice_size=k)
                assert new == _reference_image_cocommutativity(shape, slice_size=k), (shape, k)
                assert new, (shape, k)
                compared += 1
        assert compared == sum(s.size + 3 for s in self.SHAPES) > 10000

    @pytest.mark.parametrize(
        "mutate",
        [lambda splits: splits[1:], lambda splits: splits + splits[-1:]],
        ids=["drop-one-split", "duplicate-one-split"],
    )
    def test_mutated_slices_match_reference(self, monkeypatch, mutate):
        verdicts = []
        for shape in self.SHAPES:
            for k in range(shape.size + 1):
                pair = []
                for check in (image_cocommutativity, _reference_image_cocommutativity):
                    with monkeypatch.context() as patch:
                        _mutate_first_slice(patch, mutate)
                        pair.append(check(shape, slice_size=k))
                assert pair[0] == pair[1], (shape, k)
                verdicts.append(pair[0])
        assert False in verdicts


class TestImageAgainstLRCoproduct:
    @pytest.mark.usefixtures("memo_expansions")  # lr_coefficient expands kappa/nu per rho
    def test_interval_coproduct_matches_lr_coproduct(self):
        # independent route: Delta(s_kappa) = sum c^kappa_{nu,rho} s_nu (x) s_rho,
        # extended linearly over the LR expansion of the shape
        from schurhopf.schur import lr_coefficient
        from schurhopf.shapes import box_bounded_shapes, partitions_of

        for shape in box_bounded_shapes(5, 5):
            if shape.size > 5:
                continue
            via_interval = {}
            for (a, b), m in coproduct(shape).items():
                fa = schur.schur_expand(a)
                fb = schur.schur_expand(b)
                for pa, ca in fa.coeffs:
                    for pb, cb in fb.coeffs:
                        key = (pa, pb)
                        via_interval[key] = via_interval.get(key, 0) + m * ca * cb
            via_lr = {}
            for kappa, c in schur.schur_expand(shape).coeffs:
                for k in range(shape.size + 1):
                    for nu in partitions_of(k):
                        for rho in partitions_of(shape.size - k):
                            coeff = lr_coefficient(kappa, nu, rho)
                            if coeff:
                                key = (nu, rho)
                                via_lr[key] = via_lr.get(key, 0) + c * coeff
            via_interval = {k: v for k, v in via_interval.items() if v}
            via_lr = {k: v for k, v in via_lr.items() if v}
            assert via_interval == via_lr, shape


class TestClasses:
    def test_class_multiset_identification(self):
        # different layouts of the same components give equal classes
        a = shape_class(shp("2,1/1"))
        b = shape_class(shp("3,1/2"))
        assert a == b
        assert hash(a) == hash(b)

    def test_class_schur(self):
        f = schur_expand(cls("1", "1"))
        assert f.as_dict() == {(2,): 1, (1, 1): 1}

    def test_class_is_direct_sum_of_components(self):
        # the connected short-circuit agrees with the general form, the class
        # keeps the component multiset (so distinct multisets never collide),
        # and taking the class twice changes nothing
        for s in box_bounded_shapes(6, 6):
            c = shape_class(s)
            assert c == direct_sum(connected_components(s)), format_shape(s)
            assert connected_components(c) == connected_components(s), format_shape(s)
            assert shape_class(c) == c, format_shape(s)

    def test_json(self):
        rows = coproduct_to_json(coproduct(shp("2")))
        assert {"left": [], "right": ["2"], "mult": 1} in rows

    def test_json_digest(self):
        # pinned output: the coproduct JSON of every shape of box_bounded_shapes(6, 5)
        digest = hashlib.sha256()
        for s in box_bounded_shapes(6, 5):
            digest.update(json.dumps(coproduct_to_json(coproduct(s)), sort_keys=True).encode())
        assert digest.hexdigest()[:16] == "07cb835b9e6732ab"
