"""The shape Hopf algebra: interval coproduct, counit, taking out.

Elements are formal integer combinations of shape classes, where a class
is the multiset of connected components of a shape up to translation.
A class is held as the direct sum of its components in shape order, a
plain SkewShape; as s_{A (+) B} = s_A s_B, its image and its coproduct
are those of that shape.  The coproduct of lambda/mu sums
eta/mu (x) lambda/eta over the interval mu <= eta <= lambda in Young's
lattice; each split is held as eta, not as cells.  The antipode is never needed.
"""

from __future__ import annotations

from . import schur
from .shapes import (
    Composition,
    SkewShape,
    connected_components,
    direct_sum,
    format_shape,
    half_turn,
    integers,
    is_connected,
    rotate180,
    skew_from_cells,
)


def shape_class(shape: SkewShape) -> SkewShape:
    """Class of a shape: the direct sum of its connected components in shape order.

    Components of a direct sum share no row or column, so they are the
    pieces it was built from, and distinct multisets give distinct classes.
    """
    return shape if is_connected(shape) else direct_sum(connected_components(shape))


def class_of_cells(cells) -> SkewShape:
    """Class of a cell set; the cell-level reference for coproduct_slice's classes."""
    return shape_class(skew_from_cells(cells))


CoproductSum = dict  # (class, class) -> int


def coproduct_slice(shape: SkewShape, left_size: int) -> list:
    """Splits of the coproduct whose left factor has exactly left_size cells.

    One (eta, class of eta/mu, class of lambda/eta) per eta with mu <= eta
    <= lambda and |eta/mu| = left_size, for the minimal pair lambda/mu; eta
    has len(lambda) entries, so row_cells(eta, mu) places eta/mu in lambda.
    """
    lam, mu = shape.outer, shape.padded_inner
    ell = len(lam)
    # suffix[i]: the cells rows i.. can still give to the left factor
    suffix = [0] * (ell + 1)
    for i in range(ell - 1, -1, -1):
        suffix[i] = suffix[i + 1] + lam[i] - mu[i]
    eta = [0] * ell

    # rec refers to itself through its closure, so a list it appended to
    # would stay alive until a cyclic collection; it yields instead
    def rec(i: int, upper_bound: int, taken: int):
        if i == ell:
            yield tuple(eta), shape_class(SkewShape(eta, mu)), shape_class(SkewShape(lam, eta))
            return
        need = left_size - taken
        lo = mu[i] + max(0, need - suffix[i + 1])
        for value in range(lo, min(lam[i], upper_bound, mu[i] + need) + 1):
            eta[i] = value
            yield from rec(i + 1, value, taken + value - mu[i])

    (left_size,) = integers((left_size,))  # a ShapeError, not a TypeError, for 2.5 or "2"
    if not 0 <= left_size <= shape.size:
        return []
    return list(rec(0, lam[0] if lam else 0, 0))


def coproduct(shape: SkewShape) -> CoproductSum:
    """Interval coproduct, with both tensor factors collapsed to classes."""
    out: CoproductSum = {}
    for k in range(shape.size + 1):
        for _, left, right in coproduct_slice(shape, k):
            out[left, right] = out.get((left, right), 0) + 1
    return out


def counit(cls: SkewShape) -> int:
    """1 on the empty class, 0 on anything with at least one box."""
    return 0 if cls.size else 1


def take_out_left(shape: SkewShape, m: SkewShape) -> dict[SkewShape, int]:
    """Right factors of coproduct terms whose left factor is the class of m."""
    m = shape_class(m)
    out: dict[SkewShape, int] = {}
    for (a, b), mult in coproduct(shape).items():
        if a == m:
            out[b] = out.get(b, 0) + mult
    return out


def take_out_right(shape: SkewShape, m: SkewShape) -> dict[SkewShape, int]:
    """Left factors of coproduct terms whose right factor is the class of m."""
    m = shape_class(m)
    out: dict[SkewShape, int] = {}
    for (a, b), mult in coproduct(shape).items():
        if b == m:
            out[a] = out.get(a, 0) + mult
    return out


def removable_ribbons(
    shape: SkewShape, n: int, side: str
) -> list[tuple[Composition, frozenset]]:
    """Connected ribbons of size n removable on one side, with positions.

    side "left": the removed cells form eta/mu for some eta; side
    "right": they form lambda/eta.  Distinct eta give distinct entries.

    Read off lambda/mu: rows r0..r1 of a connected ribbon meet in exactly
    one column, so each row r > r0 of a left ribbon is [mu_r, mu_(r-1)]
    and needs mu_(r-1) < lambda_r, and the top row [mu_r0, mu_r0 + a)
    takes the remaining a cells and needs mu_r0 + a <= lambda_r0 and,
    below a row r0 - 1, mu_r0 + a <= mu_(r0-1).  The right ribbons are
    the half-turns of the left ones of the rotated shape.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    (n,) = integers((n,))  # a ShapeError, not no ribbons, for 2.5 or "2"
    if n < 1:
        raise ValueError("ribbon size must be positive")
    if shape.size < n:
        return []
    if side == "right":
        out = [
            (comp[::-1], half_turn(cells, shape))
            for comp, cells in removable_ribbons(rotate180(shape), n, "left")
        ]
    else:
        lam, mu = shape.outer, shape.padded_inner
        out = []
        for r1 in range(len(lam)):
            r, a, spans = r1, n, []  # the rows below r, top first, as (row, end)
            while True:
                if mu[r] + a <= min(lam[r], mu[r - 1] if r else lam[r]):
                    rows = [(r, mu[r] + a), *spans]
                    comp = tuple(end - mu[q] for q, end in rows)
                    cells = frozenset((q, c) for q, end in rows for c in range(mu[q], end))
                    out.append((comp, cells))
                if r == 0 or mu[r - 1] >= lam[r] or mu[r - 1] + 1 - mu[r] >= a:
                    break
                a -= mu[r - 1] + 1 - mu[r]
                spans.insert(0, (r, mu[r - 1] + 1))
                r -= 1
    out.sort(key=lambda item: tuple(sorted(item[1])))
    return out


def _triple_expand(first_then: bool, terms: CoproductSum) -> dict:
    """(Delta x id) or (id x Delta) applied to a coproduct sum."""
    out: dict = {}
    for (a, b), m in terms.items():
        inner = coproduct(a if first_then else b)
        for (x, y), mm in inner.items():
            key = (x, y, b) if first_then else (a, x, y)
            out[key] = out.get(key, 0) + m * mm
    return {k: v for k, v in out.items() if v != 0}


def check_coassociativity(shape: SkewShape) -> bool:
    """(Delta x id) Delta == (id x Delta) Delta on one shape."""
    terms = coproduct(shape)
    return _triple_expand(True, terms) == _triple_expand(False, terms)


def check_counit_laws(shape: SkewShape) -> bool:
    """Collapsing either factor with the counit recovers the class."""
    cls = shape_class(shape)
    left: dict[SkewShape, int] = {}
    right: dict[SkewShape, int] = {}
    for (a, b), m in coproduct(shape).items():
        if counit(a):
            left[b] = left.get(b, 0) + m
        if counit(b):
            right[a] = right.get(a, 0) + m
    expected = {cls: 1}
    return left == expected and right == expected


def is_shape_level_cocommutative(shape: SkewShape) -> bool:
    """Swap-symmetry of the coproduct at the class level (usually false)."""
    terms = coproduct(shape)
    return all(terms.get((b, a), 0) == m for (a, b), m in terms.items())


def combo_to_h(combo: dict) -> dict:
    """Nonzero h-basis coefficients of an integer class combination's image.

    The combination is zero as a symmetric function exactly when the result
    is empty.
    """
    return schur.h_sum((m, schur.h_expansion(cls)) for cls, m in combo.items())


def _slice_image(shape: SkewShape, k: int) -> dict:
    """Image in h (x) h of the bidegree (k, n - k) part, keyed by pairs of packed h-keys."""
    out: dict = {}
    for _, left, right in coproduct_slice(shape, k):
        right_image = schur.h_expansion(right).items()
        for x, c in schur.h_expansion(left).items():
            for y, d in right_image:
                out[x, y] = out.get((x, y), 0) + c * d
    return {key: c for key, c in out.items() if c}


def image_cocommutativity(shape: SkewShape, slice_size: int | None = None) -> bool:
    """Swap-symmetry of the coproduct after mapping to symmetric functions.

    Each bidegree (k, n-k), or only k = slice_size, is mapped into h (x) h and
    compared with the swapped (n-k, k) one.  Exact: the h-monomials are a basis
    of Lambda, so their pairs are a basis of Lambda (x) Lambda, which the swap permutes.
    """
    n = shape.size
    if slice_size is None:
        return all(image_cocommutativity(shape, k) for k in range(n // 2 + 1))
    swapped = {(y, x): c for (x, y), c in _slice_image(shape, n - slice_size).items()}
    return _slice_image(shape, slice_size) == swapped


def coproduct_to_json(terms: CoproductSum):
    rows = []
    for (a, b), m in terms.items():
        rows.append(
            {
                "left": [format_shape(c) for c in connected_components(a)],
                "right": [format_shape(c) for c in connected_components(b)],
                "mult": m,
            }
        )
    rows.sort(key=lambda r: (r["left"], r["right"]))
    return rows
