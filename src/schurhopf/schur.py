"""Exact Schur-basis expansions of skew Schur functions.

Everything is integer or rational arithmetic; there is no floating point.
The monomial expansion is a deliberately independent oracle: it enumerates
fillings directly and never calls the Littlewood-Richardson machinery.
"""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from .shapes import (
    Composition,
    Partition,
    Record,
    SkewShape,
    check_partition,
    direct_sum,
    integers,
    rotate180,
    transpose,
)

class SymFuncError(ValueError):
    pass


class SymFunc(Record):
    """Homogeneous symmetric function in the Schur basis with integer coefficients."""

    degree: int
    coeffs: tuple[tuple[Partition, int], ...]

    @staticmethod
    def from_dict(degree: int, coeffs: dict[Partition, int]) -> "SymFunc":
        values = integers(coeffs.values(), SymFuncError)
        clean = {check_partition(p): k for p, k in zip(coeffs, values) if k}
        for p in clean:
            if sum(p) != degree:
                raise SymFuncError(f"partition {p} does not have degree {degree}")
        # descending lex = reverse-lexicographic order on partitions of equal size
        return SymFunc(degree, tuple(sorted(clean.items(), reverse=True)))

    @staticmethod
    def zero(degree: int) -> "SymFunc":
        return SymFunc(degree, ())

    @staticmethod
    def basis(partition) -> "SymFunc":
        p = check_partition(partition)
        return SymFunc(sum(p), ((p, 1),))

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.coeffs)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for p, c in self.coeffs:
            name = "s[" + ",".join(str(x) for x in p) + "]"
            mag = abs(c)
            body = name if mag == 1 else f"{mag}*{name}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_json(self):
        return terms_json(self.coeffs)


class JsonText(str):
    """JSON text that a JSON writer copies as it is, in place of quoting it."""


def terms_json(pairs) -> JsonText:
    """The JSON term list of (partition, coefficient) pairs, in their order.

    It is json.dumps([{"partition": list(p), "coefficient": c}, ...],
    sort_keys=True), c an int or a str, rendered without those dicts.
    """
    return JsonText("[" + ", ".join(
        f'{{"coefficient": {c if isinstance(c, int) else _json_str(c)}, '
        f'"partition": [{", ".join(map(str, p))}]}}'
        for p, c in pairs
    ) + "]")


class MonomialPoly(Record):
    """Polynomial in k variables as a map from exponent vectors to integers."""

    k: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def from_dict(k: int, terms: dict[tuple[int, ...], int]) -> "MonomialPoly":
        clean = {e: c for e, c in terms.items() if c != 0}
        return MonomialPoly(k, tuple(sorted(clean.items())))

    def as_dict(self):
        return dict(self.terms)


def monomial_expansion(shape: SkewShape, k: int) -> MonomialPoly:
    """Sum over fillings of the shape with entries in 1..k.

    Fillings weakly increase along rows and strictly increase down columns.
    This is the independent oracle; it enumerates fillings directly.
    """
    if k < 1:
        raise SymFuncError("need at least one variable")
    cells = sorted(shape.cells)
    counts: dict[tuple[int, ...], int] = {}
    values: dict[tuple[int, int], int] = {}
    content = [0] * k

    def fill(idx: int):
        if idx == len(cells):
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = 1
        left = values.get((r, c - 1))
        if left is not None:
            lo = max(lo, left)
        above = values.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, k + 1):
            values[(r, c)] = v
            content[v - 1] += 1
            fill(idx + 1)
            content[v - 1] -= 1
        values.pop((r, c), None)

    fill(0)
    del fill  # fill's closure holds fill: break the cycle so counts is freed now
    return MonomialPoly.from_dict(k, counts)


def schur_expand(shape: SkewShape) -> SymFunc:
    """Expansion of the skew Schur function in the Schur basis.

    The coefficient of s_nu counts the Littlewood-Richardson fillings of
    the shape with content nu: semistandard fillings whose reading word
    (rows top to bottom, each right to left) is a lattice word.  A transfer
    over the rows, top to bottom, counts them.  Its state after row r is
    the content so far (no zeros) and needs, where needs[k] counts the
    cells of row r holding k + 1 or more among the columns [mu_r,
    lam_(r+1)) that row r + 1 shares with it.  Equal states are merged, and
    the final contents, summed by count, are the coefficients.

    A row weakly increases, so its multiplicities m_v fix it; it is filled
    right to left with non-increasing values.  Read right to left it lists
    its v's before its (v - 1)'s, so the lattice condition on the row is
    prev[v] + m_v <= prev[v - 1] for each v, prev the content before it.
    Column strictness puts v or more in the cells under a v - 1 or more:
    the needs[v - 2] rightmost cells, as the shared columns end where the
    row ends and the row above increases.
    """
    lam, mu = shape.outer, shape.padded_inner
    ell = len(lam)
    states = {((), ()): 1}
    for r in range(ell):
        length = lam[r] - mu[r]
        shared = lam[r + 1] - mu[r] if r + 1 < ell else 0
        after: dict = {}
        get = after.get
        for (prev, needs), count in states.items():
            padded = prev + (0,)
            lows = [1] * length  # lows[j]: least value of the j-th cell from the right
            for k, n in enumerate(needs):
                lows[:n] = [k + 2] * n
            # partial rows: (value of the last cell filled, content with it)
            rows = [(len(padded), padded)]
            for lo in lows:
                filled = []
                for hi, content in rows:
                    for v in range(lo, hi + 1):
                        if v == 1 or content[v - 1] < padded[v - 2]:
                            grown = list(content)
                            grown[v - 1] += 1
                            filled.append((v, grown))
                rows = filled
            for _, content in rows:
                content = tuple(content)
                if not content[-1]:
                    content = content[:-1]
                below = []
                rest = shared
                for now, before in zip(content, padded):
                    if rest <= 0:
                        break
                    below.append(rest)
                    rest -= now - before
                key = (content, tuple(below))
                after[key] = get(key, 0) + count
        states = after
    coeffs: dict[Partition, int] = {}
    for (content, _), count in states.items():
        coeffs[content] = coeffs.get(content, 0) + count
    return SymFunc.from_dict(shape.size, coeffs)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: the s_nu coefficient of s_{lam/mu}."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    try:
        shape = SkewShape(lam, mu)
    except ValueError:
        return 0
    return schur_expand(shape).as_dict().get(nu, 0)


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product via s_mu * s_nu = s_{mu (+) nu}, the direct-sum skew shape."""
    out: dict[Partition, int] = {}
    for mu, a in f.coeffs:
        for nu, b in g.coeffs:
            pair = direct_sum((SkewShape(mu), SkewShape(nu)))
            for lam, c in schur_expand(pair).coeffs:
                out[lam] = out.get(lam, 0) + a * b * c
    return SymFunc.from_dict(f.degree + g.degree, out)


def connected_ribbons_of_size(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n in lexicographic order."""
    (n,) = integers((n,), SymFuncError)
    if n < 1:
        raise SymFuncError("ribbon size must be positive")

    def rec(remaining):
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in rec(remaining - first):
                yield (first,) + rest

    return sorted(rec(n))


def ribbon_product(a: Composition, b: Composition) -> tuple[Composition, Composition]:
    """The two ribbons whose Schur functions sum to the ribbon product.

    First the concatenation ribbon (b's bottom row extends a's top row to
    the right), then the stacking ribbon (b's bottom box sits directly
    above a's top-right box).
    """
    a, b = integers(a, SymFuncError), integers(b, SymFuncError)
    if not a or not b:
        raise SymFuncError("ribbon product needs nonempty ribbons")
    concat = b[:-1] + (b[-1] + a[0],) + a[1:]
    stacked = b + a
    return concat, stacked


def schur_equal(a: SkewShape, b: SkewShape) -> bool:
    """Whether two shapes index the same skew Schur function.

    Compares the Jacobi-Trudi h-expansions, which is exact because the
    complete homogeneous functions are algebraically independent.  Tall
    shapes are conjugated first (conjugation is a ring automorphism, so
    equality is preserved) to keep the determinants small.  A shape and
    its half-turn have the same h-image, so a half-turn pair is equal
    without an expansion.
    """
    if a.size != b.size:
        return False
    if not a.outer:
        return True
    if max(len(a.outer), len(b.outer)) > max(a.outer[0], b.outer[0]):
        a, b = transpose(a), transpose(b)
    return a == b or a == rotate180(b) or h_expansion(a) == h_expansion(b)


# An h-monomial h_{p1}...h_{pk} is packed into one int whose H_BITS-bit field
# d holds the multiplicity of d among the p's, so multiplying monomials adds
# their keys.  A monomial of degree n has no multiplicity above n, so fields
# cannot overflow below the degree bound H_LIMIT.
H_BITS = 8
H_LIMIT = 1 << H_BITS
_H_PART = [bytes((d,)) for d in range(H_LIMIT)]  # part d as a one-byte string


def _h_partition(key: int) -> Partition:
    # a field is one byte, so byte d of the key is the multiplicity of d; the
    # parts, each below H_LIMIT, are joined as bytes and read back reversed
    fields = key.to_bytes((key.bit_length() + 7) // 8, "little")
    return tuple(b"".join([_H_PART[d] * m for d, m in enumerate(fields) if m])[::-1])


def h_terms(image):
    """(partition, coefficient) pairs of an h-basis image, in reverse-lex order.

    Comparing packed keys compares the highest differing multiplicity first,
    which is the lexicographic order on the partitions they pack.
    """
    for key in sorted(image, reverse=True):
        yield _h_partition(key), image[key]


def check_h_degree(size: int) -> None:
    """Raise SymFuncError when an h-image of this degree would overflow the packed keys."""
    if size >= H_LIMIT:
        raise SymFuncError(f"h-basis image of degree {size} exceeds the bound {H_LIMIT - 1}")


def h_expansion(shape: SkewShape) -> dict[int, int]:
    """Jacobi-Trudi determinant as a polynomial in the h-basis.

    Keys are packed h-monomials; values are nonzero integer coefficients.
    """
    lam = shape.outer
    ell = len(lam)
    if ell == 0:
        return {0: 1}
    check_h_degree(shape.size)
    # det(h_{a_i - b_j}), a_i = lam_i - i and b_j = mu_j - j: the entry in row
    # i, column j is nonzero exactly when j >= t_i, the first j with
    # b_j <= a_i.  Both a and b strictly decrease, so one walk finds the
    # thresholds, and they are non-decreasing.  A minor on rows i.. is fixed
    # by its free columns f_0 < f_1 < ..., a bitmask of ell - i columns, and
    # is nonzero exactly when its diagonal entries have degree >= 0, that is
    # f_k >= t_(i+k) for every k (Macdonald I.5).  Expanded along row i, a
    # nonzero minor's term for f_j is nonzero exactly when f_k >= t_(i+1+k)
    # for every k < j, so its nonzero terms are the prefix that ends with the
    # first f_k under t_(i+1+k)
    a = [p - i for i, p in enumerate(lam)]
    b = [m - j for j, m in enumerate(shape.padded_inner)]
    below = []  # below[i]: mask of the columns under row i's threshold
    t = 0
    for x in a:
        while t < ell and b[t] > x:
            t += 1
        below.append((1 << t) - 1)
    below.append(0)
    # a pass over masks alone lists the nonzero minors each row reaches from
    # the top, each with the last minor of the row above that reads it
    full = (1 << ell) - 1
    levels = [{full: None}]  # levels[i]: mask -> last reader, for row i's minors
    for i in range(1, ell + 1):
        reached = {}
        for free in levels[-1]:
            rest = free
            row = i  # free column f_k must reach t_row, row = i + k
            while rest:
                bit = rest & -rest
                rest ^= bit
                reached[free ^ bit] = free
                if bit & below[row]:
                    break
                row += 1
        levels.append(reached)
    # the minors then go from the bottom row up, each row in the same order,
    # keyed by mask; each is dropped once its last reader has read it, and a
    # row's terms end at the first sub-minor the mask pass did not list.  A
    # minor is held as (shift, terms), its image {k + shift: c}, so a
    # one-term minor shares its sub-minor's terms; no stored terms change
    done: dict[int, tuple[int, dict[int, int]]] = {0: (0, {0: 1})}
    for i in range(ell - 1, -1, -1):
        x = a[i]
        step = [1 << (H_BITS * (x - y)) if x > y else 0 for y in b]
        last = levels[i + 1]
        level = {}
        for free in levels[i]:
            held = acc = None
            positive = True
            rest = free
            while rest:
                bit = rest & -rest
                rest ^= bit
                minor = free ^ bit
                reader = last.get(minor)
                if reader is None:
                    break
                shift, terms = done.pop(minor) if reader == free else done[minor]
                shift += step[bit.bit_length() - 1]
                if held is None:  # the first term is positive and shares its terms
                    held = shift, terms
                else:
                    if acc is None:  # the second copies the first's terms, keys as they are,
                        base, acc = held  # but at row 0 the copy is the image, built once
                        acc, base = (dict(acc), base) if i else ({k + base: c for k, c in acc.items()}, 0)
                        get = acc.get
                        held = base, acc
                    shift -= base
                    # one loop times a sign: median 4.11 vs 3.97 s, 12 cold search --max-size 11 pairs
                    if positive:
                        for k, c in terms.items():
                            k += shift
                            acc[k] = get(k, 0) + c
                    else:
                        for k, c in terms.items():
                            k += shift
                            acc[k] = get(k, 0) - c
                positive = not positive
            if acc and 0 in acc.values():  # drop cancelled keys in place
                for k in [k for k, c in acc.items() if not c]:
                    del acc[k]
            level[free] = held
        done = level
    shift, terms = done[full]
    return {k + shift: c for k, c in terms.items()} if shift else terms


def h_sum(terms) -> dict[int, int]:
    """Nonzero coefficients of sum w * image over (w, h-basis image) pairs."""
    total: dict[int, int] = {}
    get = total.get
    for w, image in terms:
        for k, c in image.items():
            total[k] = get(k, 0) + w * c
    return {k: c for k, c in total.items() if c}


@lru_cache(maxsize=1 << 14)  # criterion 1 re-expands the same straight shapes
def _straight_monomials(p: Partition, k: int) -> MonomialPoly:
    return monomial_expansion(SkewShape(p), k)


def sym_to_monomials(f: SymFunc, k: int) -> MonomialPoly:
    """Evaluate a Schur-basis element into monomials using the oracle.

    Each straight-shape Schur function is expanded by monomial_expansion,
    so this stays on the oracle side of the dual-route check.
    """
    total: dict[tuple[int, ...], int] = {}
    for p, c in f.coeffs:
        for e, m in _straight_monomials(p, k).terms:
            total[e] = total.get(e, 0) + c * m
    return MonomialPoly.from_dict(k, total)
