"""Acceptance suite: every criterion is exact, no tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.
"""

from contextlib import contextmanager

from schurhopf.hopf import (
    check_coassociativity,
    check_counit_laws,
    image_cocommutativity,
    is_shape_level_cocommutative,
    removable_ribbons,
)
from schurhopf.schur import (
    SymFunc,
    connected_ribbons_of_size,
    monomial_expansion,
    multiply,
    ribbon_product,
    schur_equal,
    schur_expand,
    sym_to_monomials,
)
from schurhopf.shapes import (
    SkewShape,
    box_bounded_shapes,
    connected_shapes,
    is_connected,
    is_ribbon,
    parse_shape,
    partitions_of,
    ribbon_shape,
    rotate180,
    translate_cells,
)
from schurhopf.verifier import (
    check_scalar_multiple_lemma,
    check_signed_sum,
    proof_trace,
    ribbon_basis,
    verify_corollary,
    verify_main_theorem,
)
from schurhopf.wow import compose, compose_layout, has_loose_end_ribbons, key_ribbons


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def test_criterion_1_oracle_cross_validation():
    with criterion(1, "LR expansion matches the monomial oracle for all shapes <= 6 in a 6x6 box"):
        checked = 0
        for shape in box_bounded_shapes(6, 6):
            k = max(shape.size, 1)
            direct = monomial_expansion(shape, k)
            via_lr = sym_to_monomials(schur_expand(shape), k)
            assert direct == via_lr, shape
            checked += 1
        assert checked > 5000


def test_criterion_2_hopf_axioms():
    with criterion(2, "coassociativity, counit laws, image cocommutativity <= 6; size-3 witness"):
        for n in range(1, 7):
            for shape in connected_shapes(n):
                assert check_coassociativity(shape), shape
                assert check_counit_laws(shape), shape
                assert image_cocommutativity(shape), shape
        assert not is_shape_level_cocommutative(parse_shape("2,1"))


def test_criterion_3_rotation():
    with criterion(3, "schur_equal(a, rotate180(a)) for all shapes of size <= 7 in a 7x7 box"):
        for shape in box_bounded_shapes(7, 7):
            assert schur_equal(shape, rotate180(shape)), shape


def test_criterion_4_ribbon_rule():
    with criterion(4, "ribbon product rule against multiply for all pairs of total size <= 6"):
        for total in range(2, 7):
            for asize in range(1, total):
                bsize = total - asize
                for a in connected_ribbons_of_size(asize):
                    for b in connected_ribbons_of_size(bsize):
                        product = multiply(
                            schur_expand(ribbon_shape(a)), schur_expand(ribbon_shape(b))
                        )
                        first, second = ribbon_product(a, b)
                        rhs = schur_expand(ribbon_shape(first)).as_dict()
                        for p, c in schur_expand(ribbon_shape(second)).coeffs:
                            rhs[p] = rhs.get(p, 0) + c
                        assert product == SymFunc.from_dict(total, rhs), (a, b)


def test_criterion_5_signed_sum_lemma():
    with criterion(5, "v . coefficient vector vanishes for non-connected-ribbon shapes of sizes 4-6"):
        for n in (4, 5, 6):
            basis = ribbon_basis(n)
            checked = 0
            for shape in box_bounded_shapes(n, n):
                if shape.size != n:
                    continue
                if is_connected(shape) and is_ribbon(shape):
                    continue
                assert check_signed_sum(shape, basis), shape
                checked += 1
            assert checked > 0


def test_criterion_6_scalar_multiple_lemma():
    with criterion(6, "proportional same-row-count ribbon Schur functions are equal, n <= 6"):
        for n in range(1, 7):
            assert check_scalar_multiple_lemma(n)


def test_criterion_7_key_ribbon_size_lemma(catalog10):
    with criterion(7, "key ribbons agree in size, rows, and columns on the size <= 10 catalog"):
        assert len(catalog10) > 1500
        for structure, keys, _ in catalog10:
            assert sum(keys.top) == sum(keys.bottom) == keys.size
            assert len(keys.top) == len(keys.bottom)
            top_cols = {c for _, c in keys.top_footprint}
            bottom_cols = {c for _, c in keys.bottom_footprint}
            assert len(top_cols) == len(bottom_cols)


def test_criterion_8_positive_landmark(positive_structure):
    with criterion(8, "beta=(2,1), gamma=(4,4,2,2)/(2,1), W=(1,1): no loose ends and equal"):
        st = positive_structure
        assert st.upper_w == {(0, 3), (1, 3)}
        assert not has_loose_end_ribbons(st).found
        beta = SkewShape((2, 1))
        lhs = compose(beta, st)
        rhs = compose(rotate180(beta), st)
        assert schur_expand(lhs) == schur_expand(rhs)
        report = verify_main_theorem((2, 1), st)
        assert report.equal and report.mode == "theorem"


def test_criterion_9_negative_landmark(counterexample_structure):
    with criterion(9, "gamma=(8,7,2)/(3,1): key size 6, size-6 loose end, compositions differ"):
        st = counterexample_structure
        keys = key_ribbons(st)
        assert keys.size == 6
        loose = has_loose_end_ribbons(st)
        assert loose.found
        assert all(sum(comp) == 6 for comp, _ in loose.witnesses)
        beta = SkewShape((2, 1))
        lhs = compose(beta, st)
        rhs = compose(rotate180(beta), st)
        assert schur_expand(lhs) != schur_expand(rhs)
        report = verify_main_theorem((2, 1), st)
        assert not report.equal and report.mode == "outside theorem"


def test_criterion_10_one_key_lemma(catalog10):
    with criterion(10, "exactly one key ribbon comes out of compose(lambda) in the catalog"):
        lams = [p for k in range(1, 4) for p in partitions_of(k)]
        checked = 0
        for structure, keys, loose in catalog10:
            if loose.found:
                continue
            for lam in lams:
                shape, frames = compose_layout(SkewShape(lam), structure)
                found = removable_ribbons(shape, keys.size, "left")
                expected = translate_cells(keys.top_footprint, frames[(0, 0)])
                assert len(found) == 1, (structure, lam)
                assert found[0][0] == keys.top
                assert found[0][1] == expected
                lam_star = rotate180(SkewShape(lam))
                shape2, frames2 = compose_layout(lam_star, structure)
                bottom_right = max(lam_star.cells)
                found2 = removable_ribbons(shape2, keys.size, "right")
                expected2 = translate_cells(keys.bottom_footprint, frames2[bottom_right])
                assert len(found2) == 1, (structure, lam)
                assert found2[0][0] == keys.bottom
                assert found2[0][1] == expected2
                checked += 1
        assert checked > 9000


def test_criterion_11_proof_trace(positive_structure):
    with criterion(11, "L/R column sums balance and agree with image cocommutativity"):
        trace = proof_trace((2, 1), positive_structure)
        assert trace.one_key_left_ok and trace.one_key_right_ok
        assert trace.all_column_equalities_hold()
        assert trace.signed_sum_rows_ok and trace.signed_column_ok
        assert trace.balance_ok
        assert trace.key_column_equal == trace.equal
        assert trace.equal
        sliced = image_cocommutativity(trace.s_shape, slice_size=trace.key_size)
        assert sliced == trace.cocommutativity_assertions_hold() == True  # noqa: E712


def test_criterion_12_corollary(positive_structure):
    with criterion(12, "beta o gamma ~ beta o gamma* on the positive instance"):
        report = verify_corollary((2, 1), positive_structure)
        assert report.equal
