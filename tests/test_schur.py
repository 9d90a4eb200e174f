import gc
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schurhopf import cli, hopf, schur, shapes, verifier, wow
from schurhopf.schur import (
    SymFunc,
    SymFuncError,
    connected_ribbons_of_size,
    h_expansion,
    h_terms,
    lr_coefficient,
    monomial_expansion,
    multiply,
    ribbon_product,
    schur_equal,
    schur_expand,
    sym_to_monomials,
)
from schurhopf.shapes import (
    ShapeError,
    SkewShape,
    box_bounded_shapes,
    connected_shapes,
    direct_sum,
    parse_shape,
    partitions_of,
    ribbon_shape,
    rotate180,
    skew_from_cells,
    translate_cells,
    transpose,
)
from schurhopf.wow import compose


def shp(text):
    return parse_shape(text)


def disjoint_union(a, b):
    """a in the top-right corner, b in the bottom-left: always a skew shape."""
    if not a.cells:
        return b
    if not b.cells:
        return a
    b_width = max(c for _, c in b.cells) + 1
    a_height = max(r for r, _ in a.cells) + 1
    cells = set(translate_cells(a.cells, (0, b_width)))
    cells |= translate_cells(b.cells, (a_height, 0))
    return skew_from_cells(cells)


class TestMonomialOracle:
    def test_single_box(self):
        poly = monomial_expansion(shp("1"), 2)
        assert poly.as_dict() == {(1, 0): 1, (0, 1): 1}

    def test_column_strict(self):
        poly = monomial_expansion(shp("1,1"), 2)
        assert poly.as_dict() == {(1, 1): 1}

    def test_row_weak(self):
        poly = monomial_expansion(shp("2"), 2)
        assert poly.as_dict() == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_empty_shape(self):
        poly = monomial_expansion(SkewShape(()), 3)
        assert poly.as_dict() == {(0, 0, 0): 1}


class TestSchurExpand:
    def test_two_boxes(self):
        assert schur_expand(shp("2,1/1")).as_dict() == {(2,): 1, (1, 1): 1}

    def test_skew_hook(self):
        assert schur_expand(shp("2,2/1")).as_dict() == {(2, 1): 1}

    def test_identity_on_partitions(self):
        for lam in partitions_of(5):
            assert schur_expand(SkewShape(lam)).as_dict() == {lam: 1}

    def test_lr_coefficient_refuses_non_integer_parts(self):
        with pytest.raises(ShapeError):
            lr_coefficient((2.9, 1), (1,), (2,))

    def test_lr_coefficients_nonnegative_unit(self):
        for lam in partitions_of(5):
            assert lr_coefficient(lam, (), lam) == 1
            for mu in partitions_of(2):
                for nu in partitions_of(3):
                    assert lr_coefficient(lam, mu, nu) >= 0

    def test_multiplicative_on_disjoint_unions(self):
        shapes = [s for s in box_bounded_shapes(4, 4) if s.size <= 4]
        small = [s for s in shapes if 1 <= s.size <= 4][:40]
        for a in small[:12]:
            for b in small[:12]:
                union = disjoint_union(a, b)
                assert schur_expand(union) == multiply(schur_expand(a), schur_expand(b))


def _lattice_fillings(shape: SkewShape):
    """Yield contents of Littlewood-Richardson fillings of a connected-or-not shape.

    Cells are visited in reading order (rows top to bottom, right to left);
    the ballot condition is enforced at every step, so entries in row i
    never exceed i + 1.
    """
    cells = [
        (r, c)
        for r, (lam, mu) in enumerate(zip(shape.outer, shape.padded_inner))
        for c in range(lam - 1, mu - 1, -1)
    ]
    maxe = len(shape.outer)
    counts = [0] * (maxe + 2)
    values: dict[tuple[int, int], int] = {}

    def rec(idx: int):
        if idx == len(cells):
            out = []
            for e in range(1, maxe + 1):
                if counts[e] == 0:
                    break
                out.append(counts[e])
            yield tuple(out)
            return
        r, c = cells[idx]
        lo = 1
        above = values.get((r - 1, c))
        if above is not None:
            lo = above + 1
        hi = r + 1
        right = values.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        hi = min(hi, maxe)
        for v in range(lo, hi + 1):
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            values[(r, c)] = v
            yield from rec(idx + 1)
            counts[v] -= 1
        values.pop((r, c), None)

    yield from rec(0)


def _reference_expand(shape: SkewShape) -> SymFunc:
    """Reference: one filling at a time, the enumerator the row transfer replaced."""
    coeffs: dict = {}
    for content in _lattice_fillings(shape):
        coeffs[content] = coeffs.get(content, 0) + 1
    return SymFunc.from_dict(shape.size, coeffs)


@st.composite
def small_shapes(draw):
    """A lambda/mu with lambda inside a 4 x 4 box and at most 8 cells."""
    lam = sorted(draw(st.lists(st.integers(0, 4), max_size=4)), reverse=True)
    mu = []
    for part in lam:
        mu.append(draw(st.integers(0, min([part] + mu[-1:]))))
    assume(sum(lam) - sum(mu) <= 8)
    return SkewShape(tuple(lam), tuple(mu))


class TestAgainstFillingReference:
    def test_every_shape_in_box(self):
        shapes = list(box_bounded_shapes(6, 6))
        assert len(shapes) == 5214
        for shape in shapes:
            assert schur_expand(shape) == _reference_expand(shape), shape

    def test_landmarks(self, positive_structure, counterexample_structure):
        # the 23-cell and 33-cell sides of verify --beta 2,1 on both landmarks
        beta = SkewShape((2, 1))
        for structure in (positive_structure, counterexample_structure):
            for alpha in (beta, rotate180(beta)):
                shape = compose(alpha, structure)
                assert schur_expand(shape) == _reference_expand(shape), shape

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_shapes(), small_shapes())
    def test_direct_sums(self, a, b):
        # class images and multiply expand shapes with several components
        shape = direct_sum((a, b))
        assert schur_expand(shape) == _reference_expand(shape)


class TestMultiply:
    def test_squares(self):
        f = schur_expand(shp("1"))
        assert multiply(f, f).as_dict() == {(2,): 1, (1, 1): 1}

    def test_unit(self):
        one = SymFunc.basis(())
        f = schur_expand(shp("3,1"))
        assert multiply(one, f) == f
        assert multiply(f, one) == f

    def test_s2_squared(self):
        f = schur_expand(shp("2"))
        assert multiply(f, f).as_dict() == {(4,): 1, (3, 1): 1, (2, 2): 1}


class TestRibbonProduct:
    def test_boxes(self):
        assert ribbon_product((1,), (1,)) == ((2,), (1, 1))

    @pytest.mark.parametrize("a,b", [((2,), (1,)), ((1, 1), (1, 1)), ((2, 1), (1, 2))])
    def test_sum_matches_product(self, a, b):
        lhs = multiply(schur_expand(ribbon_shape(a)), schur_expand(ribbon_shape(b)))
        first, second = ribbon_product(a, b)
        rhs = schur_expand(ribbon_shape(first)).as_dict()
        for p, c in schur_expand(ribbon_shape(second)).coeffs:
            rhs[p] = rhs.get(p, 0) + c
        assert lhs == SymFunc.from_dict(sum(a) + sum(b), rhs)

    def test_non_integer_rows_refused(self):
        # neither truncated nor parsed: (2.7,) and ("3",) are not read as (2,) and (3,)
        for a, b in (((2.7,), ("3",)), ((2,), (1.0,)), (("2",), (1,))):
            with pytest.raises(SymFuncError):
                ribbon_product(a, b)

    def test_sizes(self):
        first, second = ribbon_product((2,), (1,))
        assert sum(first) == sum(second) == 3


class TestRibbonEnumeration:
    def test_small(self):
        assert connected_ribbons_of_size(1) == [(1,)]
        assert connected_ribbons_of_size(2) == [(1, 1), (2,)]
        assert len(connected_ribbons_of_size(3)) == 4

    def test_counts(self):
        for n in range(1, 9):
            assert len(connected_ribbons_of_size(n)) == 2 ** (n - 1)


class TestOracleAgreement:
    def test_small_skew(self):
        shape = shp("2,1/1")
        k = shape.size
        assert monomial_expansion(shape, k) == sym_to_monomials(schur_expand(shape), k)

    def test_ribbon(self):
        shape = shp("3,2/1")
        k = shape.size
        assert monomial_expansion(shape, k) == sym_to_monomials(schur_expand(shape), k)


def h_dict(image):
    return dict(h_terms(image))


def _reference_h_expansion(shape: SkewShape) -> dict[int, int]:
    """The recursive Jacobi-Trudi kernel that h_expansion's row levels replace.

    subdet(i, free) expands the subdeterminant on rows i.. with free columns
    `free` along row i and memoizes every one until the top call returns.
    """
    lam, mu = shape.outer, shape.padded_inner
    ell = len(lam)
    if ell == 0:
        return {0: 1}
    below = []
    for i in range(ell):
        t = next((j for j in range(ell) if mu[j] - j <= lam[i] - i), ell)
        below.append((1 << t) - 1)
    below.append(0)
    steps = [
        [1 << (schur.H_BITS * d) if d > 0 else 0 for d in (lam[i] - mu[j] - i + j for j in range(ell))]
        for i in range(ell)
    ]
    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def subdet(i: int, free: int) -> dict[int, int]:
        forced = free & below[i + 1]
        acc: dict[int, int] = {}
        if not forced & (forced - 1):
            positive = True
            rest = forced or free
            while rest:
                bit = rest & -rest
                rest ^= bit
                sub = memo.get(free ^ bit)
                if sub is None:
                    sub = subdet(i + 1, free ^ bit)
                e = steps[i][bit.bit_length() - 1]
                for k, c in sub.items():
                    acc[k + e] = acc.get(k + e, 0) + (c if positive else -c)
                positive = not positive
            acc = {k: c for k, c in acc.items() if c}
        memo[free] = acc
        return acc

    image = subdet(0, (1 << ell) - 1)
    del subdet
    return image


class TestHExpansion:
    def test_straight_shapes(self):
        assert h_dict(h_expansion(shp("2"))) == {(2,): 1}
        assert h_dict(h_expansion(shp("1,1"))) == {(1, 1): 1, (2,): -1}
        assert h_dict(h_expansion(shp("2,1"))) == {(2, 1): 1, (3,): -1}

    def test_matches_lr_route(self):
        for shape in box_bounded_shapes(5, 5):
            via_lr = {}
            for p, c in schur_expand(shape).coeffs:
                for q, d in h_expansion(SkewShape(p)).items():
                    via_lr[q] = via_lr.get(q, 0) + c * d
            via_lr = {k: v for k, v in via_lr.items() if v}
            assert h_expansion(shape) == via_lr

    def test_caller_owns_image(self):
        # each call builds its own image, so changing one changes no other,
        # also where minors share their sub-minors' terms: a single row (every
        # minor one term), a single column and a ribbon
        for text in ("2,1", "5", "1,1,1,1,1", "4,3,1/2"):
            expected = list(h_expansion(shp(text)).items())
            image = h_expansion(shp(text))
            image[0] = 0
            for key in list(image)[:-1]:
                image[key] += 1
            assert list(h_expansion(shp(text)).items()) == expected
        assert h_dict(h_expansion(shp("2,1"))) == {(2, 1): 1, (3,): -1}

    def test_h_product(self):
        prod = h_expansion(direct_sum((shp("1,1"), shp("1"))))
        assert h_dict(prod) == {(1, 1, 1): 1, (2, 1): -1}
        # s_{A+B} = s_A s_B: a direct sum's image is the product of its
        # pieces' images, multiplied by adding keys, for every ordered pair of
        # connected pieces of at most 8 cells in all and every ordered triple
        # of at most 9, where a northeast block's rows meet southwest columns
        pieces = [s for n in range(1, 8) for s in connected_shapes(n)]
        images = {s: h_expansion(s) for s in pieces}
        pairs = [(a, b) for a in pieces for b in pieces if a.size + b.size <= 8]
        triples = [(a, b, c) for a, b in pairs for c in pieces if a.size + b.size + c.size <= 9]
        for case in pairs + triples:
            expected = {0: 1}
            for piece in case:
                terms = {}
                for k, c in expected.items():
                    for x, d in images[piece].items():
                        terms[k + x] = terms.get(k + x, 0) + c * d
                expected = {k: c for k, c in terms.items() if c}
            assert h_expansion(direct_sum(case)) == expected, case

    def test_matches_reference_kernel(self):
        # the row levels give the recursive kernel's images, key order included,
        # on every shape of the 6x6 box, their transposes, and direct sums:
        # all ordered pairs of at most 5 cells in all, each shape with its
        # mirror in the list, up to 12 rows, and all ordered triples of
        # connected pieces of at most 9 cells in all, where row expansions
        # meet the most vanishing minors
        shapes = list(box_bounded_shapes(6, 6))
        small = [s for s in shapes if 0 < s.size <= 4]
        pieces = [s for n in range(1, 5) for s in connected_shapes(n)]
        cases = shapes + [transpose(s) for s in shapes]
        cases += [direct_sum((a, b)) for a in small for b in small if a.size + b.size <= 5]
        cases += [direct_sum(pair) for pair in zip(shapes, reversed(shapes))]
        cases += [direct_sum((a, b, c)) for a in pieces for b in pieces for c in pieces
                  if a.size + b.size + c.size <= 9]
        # long chains of one-term minors: both composed sides of the heaviest
        # pooled verify call (39 cells, 20 rows) and of the positive landmark,
        # each with its transpose
        for beta, gamma in (((2, 2, 1), "4,3,3,2,2,2/2,2,1,1,1"), ((2, 1), "4,4,2,2/2,1")):
            structure = wow.detect_wow(parse_shape(gamma))[0]
            for alpha in (SkewShape(beta), rotate180(SkewShape(beta))):
                side = compose(alpha, structure)
                cases += [side, transpose(side)]
        for shape in cases:
            assert list(h_expansion(shape).items()) == list(_reference_h_expansion(shape).items())

    def test_high_degree_entries(self):
        # size 2, but the entry in row 0, column 1 is h_1001 (h_301): no
        # table or cache of h_d keys bounded by the size may serve it
        for shape in (SkewShape((1000, 1), (999,)), SkewShape((300, 1), (299,))):
            image = h_expansion(shape)
            assert list(image.items()) == list(_reference_h_expansion(shape).items())
            assert h_dict(image) == {(1, 1): 1}


class TestSchurEqual:
    def test_rotation_small(self):
        for shape in box_bounded_shapes(5, 5):
            assert schur_equal(shape, rotate180(shape))

    def test_half_turn_pair_shares_one_image(self, monkeypatch):
        # a half-turn pair is equal with no h-image; any other pair of the
        # same size expands both sides
        calls = []
        monkeypatch.setattr(schur, "h_expansion", lambda shape: calls.append(shape) or h_expansion(shape))
        a, b = shp("3,1"), shp("2,2")
        assert rotate180(a) != a
        assert schur_equal(a, rotate180(a))
        assert calls == []
        assert not schur_equal(a, b)
        assert not schur_equal(rotate180(a), b)
        assert not schur_equal(b, rotate180(a))
        assert len(calls) == 6

    def test_unequal_partitions(self):
        assert not schur_equal(shp("2,2"), shp("2,1,1"))

    def test_size_mismatch(self):
        assert not schur_equal(shp("2"), shp("3"))

    def test_large_path_uses_h(self):
        # 20 cells, where the h-expansion is far cheaper than LR
        tall = SkewShape((2,) * 10)
        assert schur_equal(tall, rotate180(tall))
        assert not schur_equal(tall, SkewShape((4,) * 5))

    def test_routes_agree_past_threshold(self):
        # the LR comparison and the h comparison are the same predicate
        from schurhopf.wow import compose, detect_wow

        st = detect_wow(shp("4,3/2"))[0]
        for beta in [(2, 1), (2, 2, 1), (3, 2)]:
            a = compose(SkewShape(beta), st)
            b = compose(rotate180(SkewShape(beta)), st)
            assert schur_equal(a, b) == (schur_expand(a) == schur_expand(b))

    @pytest.mark.usefixtures("memo_expansions")  # each class representative meets every other
    def test_groupings_agree_in_box(self):
        # the h route must join each shape to its LR class and keep every two
        # LR classes apart, so its "not equal" verdicts are checked too
        by_lr: dict = {}
        for shape in box_bounded_shapes(6, 6):
            by_lr.setdefault(schur_expand(shape), []).append(shape)
        assert sum(map(len, by_lr.values())) == 5214 and len(by_lr) == 148
        for group in by_lr.values():
            assert all(schur_equal(group[0], s) for s in group[1:])
        reps = [group[0] for group in by_lr.values()]
        for i, a in enumerate(reps):
            assert not any(schur_equal(a, b) for b in reps[i + 1 :])


class TestRendering:
    def test_render_sorted_reverse_lex(self):
        f = SymFunc.from_dict(3, {(1, 1, 1): 2, (2, 1): 1})
        assert f.render() == "s[2,1] + 2*s[1,1,1]"

    def test_render_negative(self):
        f = SymFunc.from_dict(2, {(2,): 1, (1, 1): -1})
        assert f.render() == "s[2] - s[1,1]"

    def test_non_integer_coefficient_refused(self):
        # neither truncated (2.5 to 2) nor parsed from text
        for c in (2.5, "3"):
            with pytest.raises(SymFuncError):
                SymFunc.from_dict(2, {(2,): c})
        with pytest.raises(ShapeError):
            SymFunc.from_dict(2, {(2.0,): 1})

    def test_render_zero(self):
        assert SymFunc.zero(4).render() == "0"

    def test_json(self):
        # the term list is rendered straight to the JSON text of its dicts
        f = SymFunc.from_dict(2, {(1, 1): 3})
        expected = [{"partition": [1, 1], "coefficient": 3}]
        assert f.to_json() == json.dumps(expected, sort_keys=True)
        assert json.loads(f.to_json()) == expected


class TestCaches:
    def test_bounded_and_cleared(self):
        # the oracle's straight-shape memo is the library's one cache, and bounded
        cached = [
            f"{module.__name__}.{name}"
            for module in (hopf, schur, shapes, verifier, wow, cli)
            for name, value in vars(module).items()
            if hasattr(value, "cache_info")
        ]
        assert cached == ["schurhopf.schur._straight_monomials"]
        memo = schur._straight_monomials
        memo.cache_clear()
        sym_to_monomials(schur_expand(shp("3,2/1")), 2)
        info = memo.cache_info()
        assert info.currsize and info.maxsize is not None
        memo.cache_clear()
        assert memo.cache_info().currsize == 0


class TestKernelGarbage:
    # each kernel recurses through a nested function that its own closure
    # holds; unless the kernel breaks that cycle, the function and its memo
    # wait for a cyclic collection instead of being freed on return
    @pytest.mark.parametrize(
        "kernel",
        [
            h_expansion,
            lambda shape: monomial_expansion(shape, 3),
        ],
        ids=["h_expansion", "monomial_expansion"],
    )
    def test_kernel_leaves_no_cyclic_garbage(self, kernel):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for text in ("4,4,2,2/2,1", "3,2/1", "5,3,3/2"):
                kernel(shp(text))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
