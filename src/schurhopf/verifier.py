"""Executable verification of the main identities and their proof machinery.

Each basis of connected ribbon Schur functions comes from one fraction-free
elimination as an integer inverse over one common denominator D, so every
solve, and the whole proof trace, is integer arithmetic.  The
proof trace rebuilds the two column-sum matrices (scaled by D) from the
coproduct of s composed with gamma, expands each row's partner classes
into the h-basis once, takes each column sum as the row coefficients
applied to those images, and checks every equality the argument relies on.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from . import hopf, schur, wow
from .shapes import (
    Composition,
    Partition,
    Record,
    SkewShape,
    check_partition,
    format_shape,
    integers,
    is_connected,
    is_ribbon,
    partitions_of,
    ribbon_composition_of,
    ribbon_shape,
    rotate180,
    row_cells,
    translate_cells,
)


class VerifierError(ValueError):
    pass


class DependentRequiredError(VerifierError):
    """The required ribbons are linearly dependent."""


class DegreeMismatchError(VerifierError):
    pass


class IsConnectedRibbonError(VerifierError):
    """The signed-sum lemma only covers shapes that are not connected ribbons."""


class BadBetaError(VerifierError):
    """beta is not a rectangle minus its lower-right corner box."""


class HypothesesFailError(VerifierError):
    pass


class RibbonBasis(Record):
    """Ordered basis of degree-n symmetric functions made of connected ribbons."""

    degree: int
    ribbons: tuple[Composition, ...]
    partitions: tuple[Partition, ...]
    matrix: tuple[tuple[int, ...], ...]  # row i = expansion of ribbons[i]
    solver: tuple[tuple[int, ...], ...]  # solver / denominator inverts the transposed matrix
    denominator: int


def ribbon_basis(n: int, required: tuple[Composition, ...] = ()) -> RibbonBasis:
    """Deterministic ribbon basis: required seeds, then lexicographic scan.

    One fraction-free Gauss-Jordan pass over [V | I] (Bareiss), where
    column j of V is the j-th candidate's expansion vector, computed when
    the scan reaches it.  The pivot columns are the basis, and the
    identity half ends as d times the inverse of the transposed basis
    matrix, d the last pivot: every step divides exactly by the one
    before it.  Raises DependentRequiredError when the seeds are already
    dependent; callers fall back on the scalar-multiple lemma in that case.
    """
    (n,) = integers((n,), VerifierError)
    if n < 1:
        raise VerifierError("degree must be positive")
    order = tuple(sorted(partitions_of(n), reverse=True))
    p = len(order)
    seeds = tuple(tuple(c) for c in required)
    scan = seeds + tuple(c for c in schur.connected_ribbons_of_size(n) if c not in seeds)
    chosen: list[Composition] = []
    matrix: list[tuple[int, ...]] = []
    inverse = [[int(i == j) for j in range(p)] for i in range(p)]  # d times the inverse
    d = 1
    for i, comp in enumerate(scan):
        k = len(chosen)
        if k == p and i >= len(seeds):
            break
        f = schur.schur_expand(ribbon_shape(comp)).as_dict()
        vec = tuple(f.get(q, 0) for q in order)
        col = [sum(a * b for a, b in zip(row, vec) if b) for row in inverse]
        piv = next((r for r in range(k, p) if col[r]), None)
        if piv is None:
            if i < len(seeds):
                raise DependentRequiredError(f"required ribbons are dependent at {comp}")
            continue
        inverse[k], inverse[piv] = inverse[piv], inverse[k]
        col[k], col[piv] = col[piv], col[k]
        pivot_row = inverse[k]
        for r, row in enumerate(inverse):
            if r != k:
                inverse[r] = [(col[k] * a - col[r] * b) // d for a, b in zip(row, pivot_row)]
        d = col[k]
        chosen.append(comp)
        matrix.append(vec)
    if len(chosen) != p:
        raise VerifierError("ribbons failed to span; this should be impossible")
    sign = 1 if d > 0 else -1
    solver = tuple(tuple(sign * x for x in row) for row in inverse)
    return RibbonBasis(n, tuple(chosen), order, tuple(matrix), solver, sign * d)


def _solve_in_basis(basis: RibbonBasis, coeffs: dict[Partition, int]) -> tuple[int, ...]:
    """D times the solution x of sum_i x_i * row_i = coeffs, D = basis.denominator."""
    c = [coeffs.get(p, 0) for p in basis.partitions]
    return tuple(sum(a * b for a, b in zip(row, c)) for row in basis.solver)


def _scaled_vector(shape: SkewShape, basis: RibbonBasis) -> tuple[int, ...]:
    """D times the shape's row coefficient vector in the basis, D = basis.denominator."""
    if shape.size != basis.degree:
        raise DegreeMismatchError(f"size-{shape.size} shape against a degree-{basis.degree} basis")
    return _solve_in_basis(basis, schur.schur_expand(shape).as_dict())


def coefficient_vector(shape: SkewShape, basis: RibbonBasis) -> tuple:
    """Row coefficient vector of the shape's Schur function in the basis, as Fractions."""
    from fractions import Fraction
    return tuple(Fraction(x, basis.denominator) for x in _scaled_vector(shape, basis))


def parity_vector(basis: RibbonBasis) -> tuple[int, ...]:
    """+1 for an even number of rows, -1 for odd, per basis ribbon."""
    return tuple(1 if len(comp) % 2 == 0 else -1 for comp in basis.ribbons)


def check_signed_sum(shape: SkewShape, basis: RibbonBasis) -> bool:
    """D times v . coefficient_vector(shape) == 0, for a shape that is not a connected ribbon."""
    if shape.size > 0 and is_connected(shape) and is_ribbon(shape):
        raise IsConnectedRibbonError("shape is a connected ribbon")
    return sum(s * x for s, x in zip(parity_vector(basis), _scaled_vector(shape, basis))) == 0


def check_scalar_multiple_lemma(n: int) -> bool:
    """Proportional same-row-count connected ribbon Schur functions are equal."""
    (n,) = integers((n,), VerifierError)
    comps = schur.connected_ribbons_of_size(n)
    expansions = {c: schur.schur_expand(ribbon_shape(c)).as_dict() for c in comps}
    for i, a in enumerate(comps):
        for b in comps[i + 1 :]:
            if len(a) != len(b):
                continue
            fa, fb = expansions[a], expansions[b]
            if set(fa) != set(fb):
                continue
            k0 = next(iter(fa))  # proportional: fa = (fa[k0] / fb[k0]) fb, cross-multiplied
            if fa != fb and all(fa[p] * fb[k0] == fb[p] * fa[k0] for p in fa):
                return False
    return True


def is_rect_minus_corner(beta: Partition) -> bool:
    """Rectangle with the lower-right corner box removed, degenerate cases included."""
    beta = tuple(beta)
    if not beta or any(p <= 0 for p in beta):
        return False
    if len(beta) == 1:
        return True
    if all(p == 1 for p in beta):
        return True
    c = beta[0]
    return c >= 2 and all(p == c for p in beta[:-1]) and beta[-1] == c - 1


def filled_rectangle(beta: Partition, orientation: str) -> Partition:
    """beta with its lower-right corner filled back in.

    A single box reads as the one-row rectangle for RR structures and the
    one-column rectangle for UU, so the degenerate trace keeps a single
    amalgamation.
    """
    beta = tuple(beta)
    if not is_rect_minus_corner(beta):
        raise BadBetaError(f"{beta} is not a rectangle minus its corner")
    if beta == (1,):
        return (2,) if orientation == wow.RR else (1, 1)
    if beta[0] == 1:  # a column gains a row
        return beta + (1,)
    return beta[:-1] + (beta[-1] + 1,)  # the corner box goes back


EXPANSION_LIMIT = 26  # beyond this the report omits Schur expansions


class Report(Record):
    """A verdict on two composed shapes; each side is Schur-expanded when first read."""

    beta: Partition
    instance: str
    hypotheses: dict
    lhs_shape: SkewShape
    rhs_shape: SkewShape
    equal: bool
    mode: str

    @cached_property
    def lhs(self) -> schur.SymFunc | None:
        """Schur expansion of the lhs, None past EXPANSION_LIMIT cells."""
        shape = self.lhs_shape
        return schur.schur_expand(shape) if shape.size <= EXPANSION_LIMIT else None

    @cached_property
    def rhs(self) -> schur.SymFunc | None:
        """Schur expansion of the rhs; equal sides have one image, the lhs's."""
        if self.equal:
            return self.lhs
        shape = self.rhs_shape
        return schur.schur_expand(shape) if shape.size <= EXPANSION_LIMIT else None

    def to_json(self):
        def expansion(f, shape):
            if f is not None:
                return {"basis": "schur", "terms": f.to_json()}
            terms = schur.terms_json(schur.h_terms(schur.h_expansion(shape)))
            return {"basis": "h", "terms": terms}

        # equal sides have one image, in either basis: render it once for both
        lhs = expansion(self.lhs, self.lhs_shape)
        return {
            "schema": 1,
            "instance": self.instance,
            "hypotheses": self.hypotheses,
            "lhs": lhs,
            "rhs": lhs if self.equal else expansion(self.rhs, self.rhs_shape),
            "lhsShape": format_shape(self.lhs_shape),
            "rhsShape": format_shape(self.rhs_shape),
            "equal": self.equal,
            "mode": self.mode,
        }


def _build_report(
    beta: Partition, structure: wow.WowStructure, strict: bool, corollary: bool
) -> Report:
    """beta o gamma against beta* o gamma, or against beta o gamma* for the corollary.

    Under strict, raises unless beta and the structure satisfy the
    theorem's hypotheses.
    """
    beta = check_partition(beta)
    beta_ok = is_rect_minus_corner(beta)
    loose = structure.loose_ends.found
    if strict and not beta_ok:
        raise BadBetaError(f"{beta} is not a rectangle minus its corner")
    if strict and loose:
        raise HypothesesFailError("structure has loose end ribbons")
    beta_shape = SkewShape(beta)
    lhs = wow.compose(beta_shape, structure)
    if corollary:
        rhs = wow.compose(beta_shape, wow.rotate_structure(structure))
    else:
        rhs = wow.compose(rotate180(beta_shape), structure)
    for side in (lhs, rhs):  # refuse a side no h-image can hold before any output
        schur.check_h_degree(side.size)
    prefix = "corollary " if corollary else ""
    return Report(
        beta=beta,
        instance=f"{prefix}beta={','.join(map(str, beta))} gamma={format_shape(structure.gamma)}",
        hypotheses={"betaShape": beta_ok, "looseEnds": loose, "wowValid": True},
        lhs_shape=lhs,
        rhs_shape=rhs,
        equal=schur.schur_equal(lhs, rhs),
        mode="theorem" if beta_ok and not loose else "outside theorem",
    )


def verify_main_theorem(
    beta: Partition, structure: wow.WowStructure, strict: bool = False
) -> Report:
    """Compare compose(beta) with compose(beta rotated) on one structure."""
    return _build_report(beta, structure, strict, corollary=False)


def verify_corollary(
    beta: Partition, structure: wow.WowStructure, strict: bool = False
) -> Report:
    """Compare compose(beta) on the structure and on its half-turn."""
    return _build_report(beta, structure, strict, corollary=True)


def _ratio_text(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d >= 1, without building the Fraction."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


class ProofTrace(Record):
    """Everything the column-sum argument checks, with verdicts, and the report it traces."""

    report: Report
    degenerate: bool
    modified: bool
    key_size: int
    alpha1: Composition
    alpha2: Composition
    basis: RibbonBasis
    parity: tuple[int, ...]
    s_shape: SkewShape
    columns: tuple  # column labels: compositions, possibly ("delta", a2, a1)
    column_h_left: dict  # label -> h-image of the column sum, scaled by the denominator
    column_h_right: dict
    column_equal: dict
    one_key_left_ok: bool
    one_key_right_ok: bool
    signed_sum_rows_ok: bool
    signed_column_ok: bool
    balance_ok: bool
    key_column_equal: bool
    direct_left: tuple  # (composition, placement cells, remainder class)
    direct_right: tuple
    extra_left: tuple
    extra_right: tuple

    @property
    def denominator(self) -> int:
        return self.basis.denominator

    @property
    def equal(self) -> bool:
        return self.report.equal

    def all_column_equalities_hold(self) -> bool:
        return all(self.column_equal.values())

    def cocommutativity_assertions_hold(self) -> bool:
        return (
            self.all_column_equalities_hold()
            and self.one_key_left_ok
            and self.one_key_right_ok
            and self.balance_ok
        )

    def to_json(self):
        def render_col(label):
            if isinstance(label, tuple) and label and label[0] == "delta":
                return f"{list(label[1])}-{list(label[2])}"
            return list(label)

        d = self.denominator
        rendered = []  # (image, terms): equal column sums share one term list

        def render_terms(image):
            for seen, terms in rendered:
                if seen == image:
                    return terms
            terms = schur.terms_json((p, _ratio_text(x, d)) for p, x in schur.h_terms(image))
            rendered.append((image, terms))
            return terms

        def render_sums(images):
            return {str(render_col(c)): render_terms(h) for c, h in images.items()}

        def render_direct(direct):
            return [{"ribbon": list(c), "cells": sorted(cells)} for c, cells, _ in direct]

        return {
            "degenerate": self.degenerate,
            "modifiedBasis": self.modified,
            "keySize": self.key_size,
            "alpha1": list(self.alpha1),
            "alpha2": list(self.alpha2),
            "basis": [list(c) for c in self.basis.ribbons],
            "parity": list(self.parity),
            "columns": [render_col(c) for c in self.columns],
            "columnSumsLeft": render_sums(self.column_h_left),
            "columnSumsRight": render_sums(self.column_h_right),
            "columnEqual": {str(render_col(c)): v for c, v in self.column_equal.items()},
            "directLeft": render_direct(self.direct_left),
            "directRight": render_direct(self.direct_right),
            "oneKeyLeft": self.one_key_left_ok,
            "oneKeyRight": self.one_key_right_ok,
            "signedSumRows": self.signed_sum_rows_ok,
            "signedColumn": self.signed_column_ok,
            "balance": self.balance_ok,
            "keyColumnEqual": self.key_column_equal,
            "equal": self.equal,
            "extraLeft": [list(c) for c, _ in self.extra_left],
            "extraRight": [list(c) for c, _ in self.extra_right],
        }


def proof_trace(beta: Partition, structure: wow.WowStructure, strict: bool = True) -> ProofTrace:
    """Reconstruct the L/R column-sum argument on one instance.

    Builds s (beta with the corner filled), slices the coproduct of
    s composed with gamma at the key size, routes connected-ribbon
    factors to the direct terms and everything else into the matrices,
    and checks the column equalities and the key-column balance.  It
    holds the report of verify_main_theorem whose two sides it traces,
    and reads beta as that report normalized it.  s must be a rectangle:
    the one-key checks read (s/(1)) o gamma and (s minus its corner) o
    gamma as beta* o gamma and beta o gamma, so s must be its own half-turn.
    """
    report = verify_main_theorem(beta, structure, strict)
    lhs_shape, rhs_shape = report.lhs_shape, report.rhs_shape  # beta o gamma, beta* o gamma
    keys = structure.keys
    n = keys.size
    alpha1, alpha2 = keys.top, keys.bottom
    s_parts = filled_rectangle(report.beta, structure.orientation)
    degenerate = 1 in (len(s_parts), s_parts[0])
    s_shape, frames = wow.compose_layout(SkewShape(s_parts), structure)

    # ---- basis and coefficient vectors: they read only the key ribbons ----
    modified = False
    try:
        basis = ribbon_basis(n, (alpha1, alpha2))
        modified = True
    except DependentRequiredError:
        # equal key ribbons are dependent seeds; for unequal ones the
        # scalar-multiple lemma forces equality of the key columns
        if not schur.schur_equal(ribbon_shape(alpha1), ribbon_shape(alpha2)):
            raise
        basis = ribbon_basis(n, (alpha1,))

    v = parity_vector(basis)
    i1 = basis.ribbons.index(alpha1)
    columns: list = list(basis.ribbons)
    vprime = list(v)  # v with the delta column's weight 0
    if modified:
        i2 = basis.ribbons.index(alpha2)
        columns[i2] = ("delta", alpha2, alpha1)
        vprime[i2] = 0

    def vector_for(cls) -> list[int]:
        vec = list(_scaled_vector(cls, basis))
        if modified:
            vec[i1] += vec[i2]
        return vec

    signed_sum_rows_ok = True

    # ---- one tensor side of the coproduct, sliced at the key size --------
    def tensor_side(key_on_left: bool, alpha, footprint, alpha_cell, other):
        """(direct terms, one-key verdict, column sums) of the side holding the key-size factor.

        A factor whose class is a connected ribbon, that is, a ribbon
        removable on its side, becomes a direct term (ribbon, cells in s,
        class of the other factor); any other factor adds one to its row,
        indexed by its class and then by the other factor's class.  The
        one-key check asks for a single direct term: alpha on the key
        footprint of alpha_cell's gamma copy, whose partner outside the
        degenerate case is the class of other.  Column j sums vec_cls[j]
        times the h-image of row cls's partners, scaled by D, so each
        row's partners are expanded once, whatever columns it meets.
        """
        nonlocal signed_sum_rows_ok
        rows: dict = {}
        direct = []
        lam, mu = s_shape.outer, s_shape.padded_inner
        size = n if key_on_left else s_shape.size - n
        for eta, left, right in hopf.coproduct_slice(s_shape, size):
            cls, partner = (left, right) if key_on_left else (right, left)
            if is_connected(cls) and is_ribbon(cls):
                cells = frozenset(row_cells(eta, mu) if key_on_left else row_cells(lam, eta))
                direct.append((ribbon_composition_of(cls), cells, partner))
            else:
                partners = rows.setdefault(cls, {})
                partners[partner] = partners.get(partner, 0) + 1
        one_key_ok = len(direct) == 1 and (
            direct[0][0] == alpha
            and direct[0][1] == translate_cells(footprint, frames[alpha_cell])
            and (degenerate or direct[0][2] == hopf.shape_class(other))
        )
        totals = {lab: {} for lab in columns}
        for cls, partners in rows.items():
            vec = vector_for(cls)
            if sum(a * b for a, b in zip(vprime, vec)) != 0:
                signed_sum_rows_ok = False
            image = hopf.combo_to_h(partners)
            for w, total in zip(vec, totals.values()):
                if w:
                    get = total.get
                    for k, c in image.items():
                        total[k] = get(k, 0) + w * c
        sums = {lab: {k: c for k, c in total.items() if c} for lab, total in totals.items()}
        return tuple(direct), one_key_ok, sums

    corner = (len(s_parts) - 1, s_parts[-1] - 1)
    direct_left, one_key_left_ok, h_right = tensor_side(
        True, alpha1, keys.top_footprint, (0, 0), rhs_shape
    )
    direct_right, one_key_right_ok, h_left = tensor_side(
        False, alpha2, keys.bottom_footprint, corner, lhs_shape
    )
    extra_left = tuple((c, cells) for c, cells, _ in direct_left if c != alpha1)
    extra_right = tuple((c, cells) for c, cells, _ in direct_right if c != alpha2)

    # ---- the assertions, all on the h-images of the column sums ----------
    key_labels = {columns[i1]}
    if modified:
        key_labels.add(columns[i2])
    column_equal = {lab: h_right[lab] == h_left[lab] for lab in columns if lab not in key_labels}

    # v' applied to the whole matrix vanishes, i.e. the alpha1 column is the
    # signed sum of the non-key columns (the delta column carries weight 0)
    def signed_column_zero(images) -> bool:
        return not schur.h_sum((w, images[lab]) for w, lab in zip(vprime, columns) if w)

    signed_column_ok = signed_column_zero(h_right) and signed_column_zero(h_left)

    # key-column balance: colsum_R(a1) + X = colsum_L(a1) + Y as symmetric
    # functions; the column sums carry the factor D, so X and Y enter with D
    d = basis.denominator
    x_class = direct_left[0][2] if len(direct_left) == 1 else None
    y_class = direct_right[0][2] if len(direct_right) == 1 else None
    balance_ok = False
    key = columns[i1]
    key_column_equal = h_right[key] == h_left[key]
    if x_class is not None and y_class is not None:
        x_h, y_h = schur.h_expansion(x_class), schur.h_expansion(y_class)
        balance_ok = not schur.h_sum(
            [(1, h_right[key]), (-1, h_left[key]), (d, x_h), (-d, y_h)]
        )
        if modified:
            delta = columns[i2]
            balance_ok = balance_ok and not schur.h_sum(
                [(1, h_right[delta]), (-1, h_left[delta]), (-d, y_h)]
            )

    return ProofTrace(
        report=report,
        degenerate=degenerate,
        modified=modified,
        key_size=n,
        alpha1=alpha1,
        alpha2=alpha2,
        basis=basis,
        parity=v,
        s_shape=s_shape,
        columns=tuple(columns),
        column_h_left=h_left,
        column_h_right=h_right,
        column_equal=column_equal,
        one_key_left_ok=one_key_left_ok,
        one_key_right_ok=one_key_right_ok,
        signed_sum_rows_ok=signed_sum_rows_ok,
        signed_column_ok=signed_column_ok,
        balance_ok=balance_ok,
        key_column_equal=key_column_equal,
        direct_left=direct_left,
        direct_right=direct_right,
        extra_left=extra_left,
        extra_right=extra_right,
    )
