from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from schurhopf import hopf, schur, verifier
from schurhopf.schur import connected_ribbons_of_size, multiply, schur_expand
from schurhopf.shapes import (
    ShapeError,
    is_connected,
    is_ribbon,
    parse_shape,
    partitions_of,
    ribbon_shape,
    skew_from_cells,
)
from schurhopf.verifier import (
    BadBetaError,
    DegreeMismatchError,
    DependentRequiredError,
    HypothesesFailError,
    IsConnectedRibbonError,
    check_scalar_multiple_lemma,
    check_signed_sum,
    coefficient_vector,
    filled_rectangle,
    is_rect_minus_corner,
    parity_vector,
    proof_trace,
    ribbon_basis,
    verify_corollary,
    verify_main_theorem,
)


def shp(text):
    return parse_shape(text)


class TestRibbonBasis:
    def test_degree_one(self):
        basis = ribbon_basis(1)
        assert basis.ribbons == ((1,),)

    def test_degree_three_skips_dependent(self):
        # the two 2-row ribbons are 180-degree rotations, so only one enters
        basis = ribbon_basis(3)
        assert basis.ribbons == ((1, 1, 1), (1, 2), (3,))

    def test_seeded(self):
        basis = ribbon_basis(4, ((2, 2),))
        assert basis.ribbons[0] == (2, 2)
        assert len(basis.ribbons) == 5

    def test_dependent_required(self):
        with pytest.raises(DependentRequiredError):
            ribbon_basis(3, ((1, 2), (2, 1)))
        with pytest.raises(DependentRequiredError):
            ribbon_basis(1, ((1,), (1,)))  # a seed past a full basis is dependent too

    def test_matrix_rows_match_expansions(self):
        basis = ribbon_basis(4)
        for comp, row in zip(basis.ribbons, basis.matrix):
            expansion = schur_expand(ribbon_shape(comp)).as_dict()
            assert row == tuple(expansion.get(p, 0) for p in basis.partitions)


@pytest.mark.parametrize("call, error", [
    (lambda n: hopf.coproduct_slice(shp("3,2"), n), ShapeError),
    (connected_ribbons_of_size, schur.SymFuncError),
    (ribbon_basis, verifier.VerifierError),
    (check_scalar_multiple_lemma, verifier.VerifierError),
], ids=["coproduct_slice", "connected_ribbons_of_size", "ribbon_basis", "scalar_multiple_lemma"])
@pytest.mark.parametrize("size", [2.5, "2"])
def test_non_integer_size_is_refused(call, error, size):
    # read through shapes.integers, as removable_ribbons reads its size: each
    # module's own ValueError, not a TypeError from a comparison or range
    assert issubclass(error, ValueError)
    with pytest.raises(error):
        call(size)


def _fraction_solve(basis, coeffs):
    """Reference: Gauss-Jordan in Fractions on the augmented transposed matrix."""
    p = len(basis.partitions)
    aug = [
        [Fraction(basis.matrix[i][j]) for i in range(p)]
        + [Fraction(coeffs.get(basis.partitions[j], 0))]
        for j in range(p)
    ]
    for col in range(p):
        piv = next(r for r in range(col, p) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(p):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][p] for r in range(p))


def _greedy_basis(n, required=()):
    """Reference: greedy selection by Fraction row reduction, then a separate inverse."""
    order = tuple(sorted(partitions_of(n), reverse=True))

    def vector(comp):
        f = schur.schur_expand(ribbon_shape(comp)).as_dict()
        return tuple(f.get(p, 0) for p in order)

    chosen, rows, pivots = [], [], []

    def try_add(comp):
        work = [Fraction(x) for x in vector(comp)]
        for row, piv in zip(rows, pivots):
            if work[piv]:
                factor = work[piv] / row[piv]
                work = [a - factor * b for a, b in zip(work, row)]
        piv = next((j for j, x in enumerate(work) if x), None)
        if piv is None:
            return False
        chosen.append(tuple(comp))
        rows.append(work)
        pivots.append(piv)
        return True

    for comp in required:
        if not try_add(comp):
            raise DependentRequiredError(comp)
    for comp in connected_ribbons_of_size(n):
        if len(chosen) < len(order) and comp not in chosen:
            try_add(comp)
    matrix = tuple(vector(c) for c in chosen)
    p = len(order)
    aug = [
        [Fraction(matrix[i][j]) for i in range(p)] + [Fraction(int(i == j)) for i in range(p)]
        for j in range(p)
    ]
    for col in range(p):
        piv = next(r for r in range(col, p) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(p):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    d = lcm(*(x.denominator for row in aug for x in row[p:]))
    solver = tuple(tuple(x.numerator * (d // x.denominator) for x in row[p:]) for row in aug)
    return verifier.RibbonBasis(n, tuple(chosen), order, matrix, solver, d)


@pytest.mark.usefixtures("memo_expansions")  # every seed set expands the same ribbons
class TestOneElimination:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_greedy_selection_and_inverse(self, n):
        # no seed, each single seed and each seed pair: same basis or same refusal
        comps = connected_ribbons_of_size(n)
        dependent = 0
        for seeds in [()] + [(c,) for c in comps] + list(combinations(comps, 2)):
            try:
                expected = _greedy_basis(n, seeds)
            except DependentRequiredError:
                dependent += 1
                with pytest.raises(DependentRequiredError):
                    ribbon_basis(n, seeds)
                continue
            assert ribbon_basis(n, seeds) == expected, seeds
        assert dependent > 0 or n < 3


class TestIntegerSolver:
    def test_matches_fraction_solve_on_every_small_basis(self):
        # no seed, each single seed and each independent pair, degree <= 5
        bases = []
        for n in range(1, 6):
            comps = connected_ribbons_of_size(n)
            for seeds in [()] + [(c,) for c in comps] + list(combinations(comps, 2)):
                try:
                    bases.append(ribbon_basis(n, seeds))
                except DependentRequiredError:
                    pass
        assert len(bases) == 182
        for basis in bases:
            assert basis.denominator > 0
            for p in basis.partitions:
                unit = {p: 1}
                scaled = verifier._solve_in_basis(basis, unit)
                assert all(isinstance(x, int) for x in scaled)
                got = tuple(Fraction(x, basis.denominator) for x in scaled)
                assert got == _fraction_solve(basis, unit), (basis.ribbons, p)


class TestFractionFreeElimination:
    def test_exact_division_past_a_unit_denominator(self, monkeypatch):
        # real ribbon bases have D == 1; scaling each expansion by its row
        # count + 1 makes D large, so every `// d` and the final sign flip run
        real = schur.schur_expand

        def scaled(shape):
            f = real(shape)
            return schur.SymFunc.from_dict(f.degree, {p: (len(shape.outer) + 1) * c
                                                      for p, c in f.as_dict().items()})

        monkeypatch.setattr(verifier.schur, "schur_expand", scaled)
        bases = []
        for n in range(1, 7):
            comps = connected_ribbons_of_size(n)
            for seeds in [()] + [(c,) for c in comps] + list(combinations(comps, 2)):
                try:
                    bases.append(ribbon_basis(n, seeds))
                except DependentRequiredError:
                    pass
        assert max(basis.denominator for basis in bases) > 1
        for basis in bases:
            assert basis.denominator > 0
            for p in basis.partitions:
                unit = {p: 1}
                scaled_solve = verifier._solve_in_basis(basis, unit)
                got = tuple(Fraction(x, basis.denominator) for x in scaled_solve)
                assert got == _fraction_solve(basis, unit), (basis.ribbons, p)


class TestCoefficientVector:
    def test_basis_ribbon_is_unit_vector(self):
        basis = ribbon_basis(4)
        for i, comp in enumerate(basis.ribbons):
            vec = coefficient_vector(ribbon_shape(comp), basis)
            assert vec == tuple(Fraction(int(i == j)) for j in range(len(vec)))

    def test_round_trip(self):
        basis = ribbon_basis(4)
        shape = shp("2,2")
        vec = coefficient_vector(shape, basis)
        total = {}
        for x, row in zip(vec, basis.matrix):
            for p, c in zip(basis.partitions, row):
                total[p] = total.get(p, 0) + x * c
        expected = schur_expand(shape).as_dict()
        assert {p: v for p, v in total.items() if v} == expected

    def test_disconnected_round_trip(self):
        basis = ribbon_basis(4)
        shape = skew_from_cells({(0, 2), (0, 3), (2, 0), (2, 1)})
        vec = coefficient_vector(shape, basis)
        box_row = schur_expand(shp("2"))
        assert schur_expand(shape) == multiply(box_row, box_row)
        total = {}
        for x, row in zip(vec, basis.matrix):
            for p, c in zip(basis.partitions, row):
                total[p] = total.get(p, 0) + x * c
        assert {p: v for p, v in total.items() if v} == schur_expand(shape).as_dict()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            coefficient_vector(shp("2,1"), ribbon_basis(4))


class TestSignedSum:
    def test_square(self):
        assert check_signed_sum(shp("2,2"), ribbon_basis(4))

    def test_two_boxes(self):
        assert check_signed_sum(shp("2,1/1"), ribbon_basis(2))

    def test_fat_five(self):
        assert check_signed_sum(shp("3,2"), ribbon_basis(5))

    def test_connected_ribbon_rejected(self):
        with pytest.raises(IsConnectedRibbonError):
            check_signed_sum(shp("2,1"), ribbon_basis(3))

    def test_seeded_bases_too(self):
        from schurhopf.schur import connected_ribbons_of_size

        probes = {4: ["2,2", "4,2/2"], 5: ["2,2,1", "3,2", "5,2/2"]}
        for n in (4, 5):
            shapes = [shp(text) for text in probes[n]]
            for seed in connected_ribbons_of_size(n):
                basis = ribbon_basis(n, (seed,))
                for shape in shapes:
                    assert check_signed_sum(shape, basis)

    def test_parity_vector(self):
        basis = ribbon_basis(3)
        assert parity_vector(basis) == (-1, 1, -1)


class TestScalarMultipleLemma:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_holds(self, n):
        assert check_scalar_multiple_lemma(n)


class TestBetaShapes:
    def test_accepted(self):
        for beta in [(1,), (3,), (1, 1), (1, 1, 1), (2, 1), (3, 3, 2), (2, 2, 2, 1)]:
            assert is_rect_minus_corner(beta)

    def test_rejected(self):
        for beta in [(), (2, 2), (3, 1), (2, 1, 1), (3, 2, 2)]:
            assert not is_rect_minus_corner(beta)

    def test_filled_rectangle(self):
        assert filled_rectangle((2, 1), "RR") == (2, 2)
        assert filled_rectangle((3,), "RR") == (4,)
        assert filled_rectangle((1, 1), "UU") == (1, 1, 1)
        assert filled_rectangle((1,), "RR") == (2,)
        assert filled_rectangle((1,), "UU") == (1, 1)
        assert filled_rectangle((3, 3, 2), "UU") == (3, 3, 3)
        assert filled_rectangle((1, 1, 1), "RR") == (1, 1, 1, 1)
        with pytest.raises(BadBetaError):
            filled_rectangle((2, 2), "RR")


class TestVerify:
    def test_positive_equal(self, positive_structure):
        report = verify_main_theorem((2, 1), positive_structure)
        assert report.equal
        assert report.mode == "theorem"
        assert report.hypotheses == {"betaShape": True, "looseEnds": False, "wowValid": True}
        assert report.lhs is not None and report.rhs is report.lhs
        assert report.lhs == schur_expand(report.rhs_shape)  # an independent expansion

    def test_counterexample_unequal(self, counterexample_structure):
        report = verify_main_theorem((2, 1), counterexample_structure)
        assert not report.equal
        assert report.mode == "outside theorem"
        assert report.hypotheses["looseEnds"]

    def test_single_box_beta(self, positive_structure):
        report = verify_main_theorem((1,), positive_structure)
        assert report.equal

    def test_strict_bad_beta(self, positive_structure):
        with pytest.raises(BadBetaError):
            verify_main_theorem((2, 2), positive_structure, strict=True)

    def test_strict_loose_ends(self, counterexample_structure):
        with pytest.raises(HypothesesFailError):
            verify_main_theorem((2, 1), counterexample_structure, strict=True)

    def test_beta_trailing_zero_is_the_same_beta(self, positive_structure):
        # (2, 1, 0) spells the partition (2, 1): the same report and trace,
        # also under strict
        for strict in (False, True):
            padded = verify_main_theorem((2, 1, 0), positive_structure, strict=strict)
            plain = verify_main_theorem((2, 1), positive_structure, strict=strict)
            assert padded.to_json() == plain.to_json()
            assert padded.mode == "theorem" and padded.beta == (2, 1)
        padded = proof_trace((2, 1, 0), positive_structure)
        assert padded.to_json() == proof_trace((2, 1), positive_structure).to_json()

    def test_non_integer_beta_refused(self, positive_structure):
        with pytest.raises(ShapeError):
            verify_main_theorem((2.5, 1), positive_structure)

    def test_report_json(self, positive_structure):
        data = verify_main_theorem((2, 1), positive_structure).to_json()
        assert data["schema"] == 1
        assert data["equal"] is True
        assert data["hypotheses"]["looseEnds"] is False
        assert data["lhs"]["basis"] == "schur"


class TestTheoremAcrossBetas:
    def test_bigger_rectangles_on_small_catalog(self):
        # the full admissible beta family, not just (2,1): 2x3 and 3x2
        # rectangles minus their corner, across every clean structure
        from schurhopf.shapes import connected_shapes
        from schurhopf.wow import detect_wow, has_loose_end_ribbons

        betas = [(2, 2, 1), (3, 2)]
        assert all(is_rect_minus_corner(b) for b in betas)
        checked = 0
        for n in range(3, 7):
            for gamma in connected_shapes(n):
                for st in detect_wow(gamma):
                    if has_loose_end_ribbons(st).found:
                        continue
                    for beta in betas:
                        report = verify_main_theorem(beta, st)
                        assert report.equal, (beta, st)
                        checked += 1
        assert checked > 40


class TestCorollary:
    def test_positive_instance(self, positive_structure):
        report = verify_corollary((2, 1), positive_structure)
        assert report.equal

    def test_single_box(self, positive_structure):
        # gamma ~ gamma*: the standard rotation fact
        report = verify_corollary((1,), positive_structure)
        assert report.equal

    def test_counterexample(self, counterexample_structure):
        report = verify_corollary((2, 1), counterexample_structure)
        assert not report.equal


class TestIntegerTrace:
    def test_each_rows_partners_expanded_once(self, monkeypatch):
        from schurhopf.wow import RR, detect_wow

        st = [s for s in detect_wow(shp("4,4,2,2/2,1")) if s.orientation == RR][0]
        real = hopf.combo_to_h
        calls = []

        def counting(combo):
            calls.append(combo)
            return real(combo)

        monkeypatch.setattr(hopf, "combo_to_h", counting)
        trace = proof_trace((2, 1), st)
        # one row per key-side class that is not a connected ribbon, right
        # matrix first; its combination counts each partner class plainly.
        # The classes are built here from each split's cells.
        s, n = trace.s_shape, trace.key_size
        lam, mu, rows_of_s = s.outer, s.padded_inner, range(len(s.outer))
        expected = []
        for key_on_left in (True, False):
            rows = {}
            for eta, _, _ in hopf.coproduct_slice(s, n if key_on_left else s.size - n):
                left = frozenset((r, c) for r in rows_of_s for c in range(mu[r], eta[r]))
                right = frozenset((r, c) for r in rows_of_s for c in range(eta[r], lam[r]))
                mine, other = (left, right) if key_on_left else (right, left)
                cls = hopf.class_of_cells(mine)
                if not (is_connected(cls) and is_ribbon(cls)):
                    partners = rows.setdefault(cls, {})
                    partner = hopf.class_of_cells(other)
                    partners[partner] = partners.get(partner, 0) + 1
            expected += rows.values()
        assert len(expected) == 34
        assert calls == expected
        calls.clear()
        trace.to_json()
        assert calls == []

    def test_denominator_above_one_renders_the_same(self, monkeypatch, positive_structure):
        # every small basis has D == 1; double A and D to run the general path
        expected = proof_trace((2, 1), positive_structure).to_json()
        real = verifier.ribbon_basis

        def doubled(n, required=()):
            b = real(n, required)
            solver = tuple(tuple(2 * x for x in row) for row in b.solver)
            return verifier.RibbonBasis(b.degree, b.ribbons, b.partitions, b.matrix, solver,
                                        2 * b.denominator)

        monkeypatch.setattr(verifier, "ribbon_basis", doubled)
        trace = proof_trace((2, 1), positive_structure)
        assert trace.denominator == 2
        assert trace.cocommutativity_assertions_hold() and trace.signed_column_ok
        assert trace.to_json() == expected


class TestProofTrace:
    def test_positive_full(self, positive_structure):
        trace = proof_trace((2, 1), positive_structure)
        assert trace.modified  # alpha1 != alpha2, independent expansions
        assert trace.key_size == 5
        assert trace.one_key_left_ok and trace.one_key_right_ok
        assert trace.all_column_equalities_hold()
        assert trace.signed_sum_rows_ok and trace.signed_column_ok
        assert trace.balance_ok
        assert trace.key_column_equal == trace.equal == True  # noqa: E712
        assert trace.cocommutativity_assertions_hold()
        from schurhopf.hopf import shape_class

        assert len(trace.direct_left) == 1 and len(trace.direct_right) == 1
        assert trace.direct_left[0][0] == trace.alpha1
        assert trace.direct_left[0][2] == shape_class(trace.report.rhs_shape)
        assert trace.direct_right[0][0] == trace.alpha2
        assert trace.direct_right[0][2] == shape_class(trace.report.lhs_shape)

    def test_positive_uu(self):
        from schurhopf.wow import UU, detect_wow

        uu = [st for st in detect_wow(shp("4,4,2,2/2,1")) if st.orientation == UU][0]
        trace = proof_trace((2, 1), uu)
        assert trace.cocommutativity_assertions_hold()
        assert trace.equal

    def test_degenerate_beta(self, positive_structure):
        trace = proof_trace((1,), positive_structure)
        assert trace.degenerate
        assert trace.one_key_left_ok and trace.one_key_right_ok
        assert trace.balance_ok
        assert trace.equal

    def test_counterexample_localizes_failure(self, counterexample_structure):
        trace = proof_trace((2, 1), counterexample_structure, strict=False)
        assert not trace.equal
        assert not trace.cocommutativity_assertions_hold()
        assert trace.extra_left  # the loose end shows up as an extra takeout
        assert (1, 3, 2) in {comp for comp, _ in trace.extra_left}
        assert not all(trace.column_equal.values())

    def test_strict_raises(self, counterexample_structure):
        with pytest.raises(HypothesesFailError):
            proof_trace((2, 1), counterexample_structure, strict=True)

    def test_trace_json(self, positive_structure):
        data = proof_trace((2, 1), positive_structure).to_json()
        assert data["keySize"] == 5
        assert data["balance"] is True
        assert data["alpha1"] == [1, 2, 2]


class TestBetasOutsideTheTheorem:
    """What the program observes, exactly, for betas the theorem does not cover.

    The theorem needs beta to be a rectangle minus its corner; 3,1, 2,1,1
    and 4,2 are not.  Over every structure of the given gamma sizes, each
    one without loose ends still gives equal sides, and each loose-end
    equality is a half-turn coincidence: beta* o gamma is beta o gamma or
    its half-turn.  These rows are observations, not consequences of a proof.
    """

    @pytest.mark.parametrize("beta, max_size, counts", [
        ((3, 1), 8, (300, 6, 2)),
        ((2, 1, 1), 8, (300, 6, 2)),
        ((4, 2), 7, (122, 0, 0)),
    ], ids=["3,1", "2,1,1", "4,2"])
    def test_clean_structures_equal_and_loose_equalities_half_turns(self, beta, max_size, counts):
        from schurhopf.shapes import rotate180
        from schurhopf.wow import wow_catalog

        assert not is_rect_minus_corner(beta)
        structures = loose = loose_equal = 0
        for st in wow_catalog(max_size):
            report = verify_main_theorem(beta, st)
            assert report.mode == "outside theorem"
            structures += 1
            if not report.hypotheses["looseEnds"]:
                assert report.equal, st
                continue
            loose += 1
            if report.equal:
                loose_equal += 1
                assert report.rhs_shape in (report.lhs_shape, rotate180(report.lhs_shape)), st
        assert (structures, loose, loose_equal) == counts

    @pytest.mark.parametrize("beta, s_parts, one_key_and_balance", [
        ((3, 1), (3, 2), False),
        ((2, 1, 1), (2, 2, 1), False),
        ((2, 1), (2, 2), True),
    ], ids=["3,1", "2,1,1", "2,1-control"])
    def test_trace_with_a_one_box_filling(self, monkeypatch, beta, s_parts, one_key_and_balance):
        # with s a one-box filling of beta that is no rectangle, s o gamma's
        # cocommutativity still gives the column equalities, the signed sums
        # and the key column, but the one-key checks and the balance fail:
        # they need s to be its own half-turn
        from schurhopf.shapes import SkewShape
        from schurhopf.wow import compose, detect_wow

        monkeypatch.setattr(verifier, "filled_rectangle", lambda beta, orientation: s_parts)
        st = detect_wow(shp("4,4,2,2/2,1"))[0]
        tr = proof_trace(beta, st, strict=False)
        assert tr.s_shape == compose(SkewShape(s_parts), st)
        assert tr.all_column_equalities_hold()
        assert tr.signed_sum_rows_ok and tr.signed_column_ok and tr.key_column_equal
        assert tr.one_key_left_ok == tr.one_key_right_ok == tr.balance_ok == one_key_and_balance
        assert len(tr.direct_right) == (1 if one_key_and_balance else 2)
