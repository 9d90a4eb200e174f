"""W->O->W / W^O^W structures, amalgamation, composition, key ribbons.

A structure records a connected shape gamma together with two designated
translates of a connected shape W, one in the top (containing the
northeasternmost box) and one in the bottom, separated by at least one
diagonal, whose removal singly or jointly leaves connected shapes, with
the orientation-specific adjacency between O and the W copies.  W is
then maximal on its diagonals; detect_wow's docstring proves it.  W
also fixes both copies, as the top one's NE box is gamma's and the
bottom one's SW box is gamma's (WowStructure says why), so a structure
is held as (gamma, orientation, W) and its cells are built on demand.

A structure is valid exactly when it is a member of detect_wow(gamma);
WowStructure checks nothing, and find_structure is the checked way in.
"""

from __future__ import annotations

from functools import cached_property

from . import hopf
from .shapes import (
    Cell,
    Composition,
    DisconnectedError,
    NotSkewError,
    Record,
    ShapeError,
    SkewShape,
    canonicalize_cells,
    connected_shapes,
    diagonal,
    format_shape,
    is_connected,
    ne_box,
    rotate180,
    row_cells,
    shape_sort_key,
    skew_from_cells,
    sw_box,
    translate_cells,
    transpose,
)

RR = "RR"  # W -> O -> W (horizontal adjacency)
UU = "UU"  # W ^ O ^ W (vertical adjacency)


class StructureError(ValueError):
    """Candidate (gamma, W placements) violates the structure axioms."""


class WowStructure(Record):
    """A structure on gamma, built unchecked: gamma, its orientation and W.

    W fixes both copies.  The upper one holds gamma's NE box, and no cell
    of gamma lies above that box or right of it in its row, so the box is
    the copy's own NE box too; detect_wow's docstring shows that the lower
    copy's SW box is gamma's.  Only detect_wow, rotate_structure and
    transpose_structure build one.
    """

    gamma: SkewShape
    orientation: str
    w_shape: SkewShape

    @cached_property
    def upper_w(self) -> frozenset[Cell]:
        """W moved right onto gamma's NE box."""
        return translate_cells(self.w_shape.cells, (0, self.amalg_shift[1]))

    @cached_property
    def lower_w(self) -> frozenset[Cell]:
        """W moved down onto gamma's SW box."""
        return translate_cells(self.w_shape.cells, (-self.amalg_shift[0], 0))

    @cached_property
    def o_cells(self) -> frozenset[Cell]:
        return self.gamma.cells - self.upper_w - self.lower_w

    @cached_property
    def amalg_shift(self) -> Cell:
        """Translation taking the lower W copy onto the upper one."""
        gamma, w = self.gamma, self.w_shape
        return (len(w.outer) - len(gamma.outer), gamma.outer[0] - w.outer[0])

    @cached_property
    def dot_shift(self) -> Cell:
        """Translation used by the shifted overlay; NW step for RR, SE for UU."""
        dr, dc = self.amalg_shift
        step = -1 if self.orientation == RR else 1
        return (dr + step, dc + step)

    @cached_property
    def keys(self) -> KeyRibbons:
        return key_ribbons(self)

    @cached_property
    def loose_ends(self) -> LooseEnds:
        return has_loose_end_ribbons(self)

    def describe(self) -> str:
        arrow = "->" if self.orientation == RR else "^"
        (dr, dc), mu0 = self.amalg_shift, self.w_shape.padded_inner[0]  # each copy's least cell
        return (
            f"W {arrow} O {arrow} W: gamma={format_shape(self.gamma)}; "
            f"W={format_shape(self.w_shape)}"
            f"@top(0,{dc + mu0})/bottom({-dr},{mu0})"
        )

    def to_json(self):
        return {
            "gamma": format_shape(self.gamma),
            "orientation": self.orientation,
            "w": format_shape(self.w_shape),
            "upper_w": sorted(self.upper_w),
            "lower_w": sorted(self.lower_w),
            "o_cells": sorted(self.o_cells),
        }

    def __repr__(self):
        return f"WowStructure({self.describe()!r})"


def _rows(shape: SkewShape) -> list[tuple[int, int]]:
    """shape's rows as inclusive column spans (lo, hi), top down; an emptied row reads lo > hi."""
    return [(m, lam - 1) for m, lam in zip(shape.padded_inner, shape.outer)]


def _cut(rows, top, spans):
    """rows less the spans laid from row top down; None unless each lies in its row at an end."""
    rows = rows[:]
    for r, (l, h) in enumerate(spans, top):
        lo, hi = rows[r]
        if not (l == lo and h <= hi or h == hi and l >= lo):
            return None
        rows[r] = (h + 1, hi) if l == lo else (lo, l - 1)
    return rows


def _boxes(rows) -> tuple[Cell, Cell] | None:
    """SW and NE boxes of the nonempty shape with these rows; None unless it is connected skew.

    As shapes.is_connected_skew reads cells: the nonempty rows are consecutive,
    each starting and ending weakly right of the next and overlapping it.
    """
    full = [r for r, (lo, hi) in enumerate(rows) if lo <= hi]
    a, b = full[0], full[-1]
    pairs = zip(rows[a:b], rows[a + 1 : b + 1])
    if b - a >= len(full) or not all(l <= lo <= h <= hi for (lo, hi), (l, h) in pairs):
        return None
    return (b, rows[b][0]), (a, rows[a][1])


def _adjacent(rows, sw: Cell, ne: Cell, orientation: str) -> bool:
    """Whether the rows hold the cells that O, with SW box sw and NE box ne, needs beside it."""
    (r1, c1), (r2, c2) = sw, ne
    cells = ((r1, c1 - 1), (r2, c2 + 1)) if orientation == RR else ((r1 + 1, c1), (r2 - 1, c2))
    return all(0 <= r < len(rows) and rows[r][0] <= c <= rows[r][1] for r, c in cells)


def _top_spans(gamma: SkewShape):
    """Connected skew sub-shapes of gamma holding its NE box, each once, as row spans.

    A placement is a stack of row spans: row 0 is [lo, lambda_0 - 1] and
    each next row [l, h] lies in gamma's row with l <= lo <= h <= hi.  It
    has at most (|gamma| - 1) // 2 cells and is yielded when the rest of
    gamma, read off gamma's rows less the spans, is a connected skew shape.
    A row touching neither end of gamma's row splits the rest's row in two,
    and every deeper placement keeps that row, so its branch is cut.
    """
    rows = _rows(gamma)
    lam, mu = gamma.outer, gamma.padded_inner
    max_w = (gamma.size - 1) // 2

    def rec(r, lo, hi, spans, size):
        if _boxes(_cut(rows, 0, spans)):
            yield spans
        r += 1
        if r == len(rows):
            return
        for h in range(lo, min(hi, lam[r] - 1) + 1):
            for l in range(lo, mu[r] - 1, -1):
                if size + h - l + 1 > max_w:
                    break
                if l == mu[r] or h == lam[r] - 1:
                    yield from rec(r, l, h, (*spans, (l, h)), size + h - l + 1)

    hi = lam[0] - 1
    for lo in range(hi, max(mu[0], hi + 1 - max_w) - 1, -1):
        yield from rec(0, lo, hi, ((lo, hi),), hi - lo + 1)


def detect_wow(gamma: SkewShape) -> list[WowStructure]:
    """All valid structures on gamma, largest W first.

    Tops t are the connected skew sub-shapes of at most (|gamma| - 1) // 2
    cells that hold gamma's NE box and leave a connected skew shape (two
    copies with a diagonal of gamma between them never hold more).  A
    translate b of t holding gamma's SW box z has z as its own SW box (b
    has a cell in z's column, gamma none left of it, and b's cells there
    lie in gamma's, none below z), so b is t moved by z - sw_box(t).  If b
    lies in gamma and leaves a connected skew shape, a t and b on
    diagonals from t0 and up to b1 <= t0 - 2 need only an orientation's
    adjacency, as proved below.  Here diagonal(r, c) = c - r,
    and the product order x <= y runs NW to SE along a diagonal.  The cells
    adjacency asks for beside O's SW and NE boxes lie on o0 - 1 <= b1 and
    o1 + 1 >= t0 (Lemma 1), outside O, so the first is not in t and the
    second not in b: each is in its W copy exactly when it is in gamma.

    Lemma 1: O is a nonempty connected skew shape.  A finite cell set is
    skew iff convex in the product order, and then connected iff its
    diagonals form an interval.  O = (gamma - t) & (gamma - b) is convex.
    It holds all of gamma on (b1, t0), and agrees with gamma - t above b1
    and with gamma - b below t0, whose diagonals are intervals through
    b1 + 1 and t0 - 1 respectively.

    Lemma 2: for RR each cell of gamma - t on a diagonal of t (so in O)
    lies NW of t's cells there, and each of gamma - b on a diagonal of b
    lies SE of b's; for UU the sides swap.  Proof for the RR top: t's rows
    0..m are [l_r, h_r] with l_r <= l_(r-1) <= h_r, each touching an end
    of gamma's row as gamma - t is skew, so O lies wholly left or right of
    t in each.  Adjacency puts (r2, c2 + 1) in t for O's NE box (r2, c2),
    on O's top row.  O left of t in row r - 1 and right in row r would
    start its row r past h_r >= l_(r-1), beyond its whole row r - 1, which
    no skew shape does; so O lies left of t in every row of t it meets.
    Let x = (r + k, c + k) in O, k > 0, lie SE of z = (r, c) in t.  If
    r < r2, then c >= l_r >= l_(r2) > c2 >= c + k, as O's rows end weakly
    left of c2.  Otherwise O meets row r, between r2 and r + k, in a cell
    y left of z, and y <= z <= x puts z in the convex gamma - t.  The
    half-turn (rotate_structure keeps RR) reverses each diagonal and gives
    the bottom; transpose_structure keeps that order and turns UU into RR,
    swapping t and b.

    Maximality follows: let t' and b' be copies of a larger W' with t' > t
    and b' > b strictly, on the same diagonals.  The translations b -> t
    and b' -> t' move diagonals alike, so they differ by some (k, k), and
    t' holds t + (k, k) while b' holds b - (k, k).  As t holds the NE box
    and b the SW box, k > 0 puts t' past gamma's last column and k < 0
    puts b' past its last row.  So k = 0, and t' - t, the translate of
    b' - b, lies both NW and SE of t's cells on its diagonals by Lemma 2.
    """
    if gamma.size == 0:
        return []
    if not is_connected(gamma):
        raise DisconnectedError("gamma must be connected")
    rows, ne, zr = _rows(gamma), gamma.outer[0] - 1, len(gamma.outer) - 1  # NE box on diagonal ne; z = (zr, 0)
    out = []
    for t in _top_spans(gamma):
        sr, sc = len(t) - 1, t[-1][0]  # t's SW box; t's diagonals run over [sc - sr, ne], b's up to ne - (sc - sr) - zr
        top, b = zr - sr, tuple((l - sc, h - sc) for l, h in t)  # t moved by (top, -sc), from row top down
        rest = _cut(rows, top, b) if 2 * (sc - sr) + zr - ne >= 2 else None
        if rest is None or not _boxes(rest):
            continue
        sw, o_ne = _boxes(_cut(rest, 0, t))
        found = [x for x in (RR, UU) if _adjacent(rows, sw, o_ne, x)]
        if found:
            outer, inner = tuple(h + 1 for _, h in t), tuple(l for l, _ in t)  # the upper copy's pair
            w, upper = SkewShape(outer, inner), tuple(row_cells(outer, inner))  # its cells, sorted
            out += (((-w.size, x, upper), WowStructure(gamma, x, w)) for x in found)
    out.sort(key=lambda pair: pair[0])
    return [st for _, st in out]


def find_structure(gamma: SkewShape, orientation: str, upper_w, lower_w) -> WowStructure:
    """The member of detect_wow(gamma) with these W cell sets; else StructureError only."""
    try:
        structures = detect_wow(gamma)
    except DisconnectedError as exc:
        raise StructureError(str(exc)) from None
    for st in structures:
        if (st.orientation, st.upper_w, st.lower_w) == (orientation, upper_w, lower_w):
            return st
    raise StructureError(f"no {orientation} structure on {format_shape(gamma)} has these W")


def amalgamate(
    a1: SkewShape,
    a2: SkewShape,
    w: SkewShape,
    top_placement: frozenset[Cell],
    bottom_placement: frozenset[Cell],
) -> SkewShape:
    """Overlay a1 and a2 with the W copies identified.

    top_placement is a copy of w in the top of a1 (in a1's canonical
    frame): a translate of w inside a1 holding a1's NE box.
    bottom_placement is a copy in the bottom of a2, holding a2's SW box.
    The overlap of the two cell sets must be exactly the identified W.
    """
    if not (a1.cells and w.cells):
        raise ValueError("amalgamate needs a nonempty a1 and w")
    if not is_connected(w):
        raise DisconnectedError("placed shape must be connected")
    for placed, a, box, side in ((top_placement, a1, ne_box, "top of a1"),
                                 (bottom_placement, a2, sw_box, "bottom of a2")):
        if not (canonicalize_cells(placed) == w.cells and placed <= a.cells
                and box(a.cells) in placed):
            raise ValueError(f"w does not lie in the {side} at the given placement")
    (tr, tc), (br, bc) = min(top_placement), min(bottom_placement)
    moved = translate_cells(a2.cells, (tr - br, tc - bc))
    union = a1.cells | moved
    if a1.cells & moved != top_placement:
        raise NotSkewError("amalgamation overlap is not exactly the W copy")
    return skew_from_cells(union)


def dot_w(a1: SkewShape, a2: SkewShape, structure: WowStructure) -> SkewShape:
    """Shifted overlay of two copies of structure.gamma.

    The second copy's lower W lands one diagonal step beyond the first
    copy's upper W (northwest for RR, southeast for UU).  The union may
    legitimately overlap away from the W copies.
    """
    if a1 != structure.gamma or a2 != structure.gamma:
        raise ValueError("dot_w arguments must be copies of structure.gamma")
    moved = translate_cells(structure.gamma.cells, structure.dot_shift)
    return skew_from_cells(structure.gamma.cells | moved)


def compose_layout(
    alpha: SkewShape, structure: WowStructure
) -> tuple[SkewShape, dict[Cell, Cell]]:
    """Composition together with the frame of each gamma copy.

    Returns (shape, frames): frames maps each cell of alpha to the
    translation that carries gamma's cells onto that cell's copy inside
    shape.  gamma's cells start at row 0 and column 0, so the least copy
    offsets are the union's least row and column, and subtracting them
    puts every copy in shape's canonical frame.  Each row of shape is the
    union of the copies' row spans, which must be one interval.
    """
    acells = alpha.cells
    if not acells:
        raise ValueError("alpha must be nonempty")
    dr_e, dc_e = (
        structure.amalg_shift if structure.orientation == RR else structure.dot_shift
    )
    dr_n, dc_n = (
        structure.dot_shift if structure.orientation == RR else structure.amalg_shift
    )
    offsets = {(r, c): (c * dr_e - r * dr_n, c * dc_e - r * dc_n) for r, c in acells}
    min_r, min_c = map(min, zip(*offsets.values()))
    frames = {box: (dr - min_r, dc - min_c) for box, (dr, dc) in offsets.items()}
    rows = list(zip(structure.gamma.padded_inner, structure.gamma.outer))
    # each copy's half-open row spans, swept top down and left to right
    spans = sorted((r + dr, m + dc, lam + dc) for dr, dc in frames.values() for r, (m, lam) in enumerate(rows))
    lams, mus = [], []
    for r, a, b in spans:
        if r < len(lams):
            if a > lams[r]:
                raise NotSkewError(f"row {r} is not a contiguous interval")
            lams[r] = max(lams[r], b)
        else:  # a row left empty between copies is as long as the row above starts
            gap = mus[-1:] * (r - len(lams))
            lams += gap + [b]
            mus += gap + [a]
    try:
        return SkewShape(lams, mus), frames
    except ShapeError as exc:
        raise NotSkewError(f"cells are not a skew shape: {exc}") from exc


def compose(alpha: SkewShape, structure: WowStructure) -> SkewShape:
    """One gamma copy per box of alpha, overlapped by the two overlay rules."""
    shape, _ = compose_layout(alpha, structure)
    return shape


class KeyRibbons(Record):
    top: Composition
    bottom: Composition
    size: int
    top_footprint: frozenset[Cell]
    bottom_footprint: frozenset[Cell]


def key_ribbons(structure: WowStructure) -> KeyRibbons:
    """Key ribbons of gamma, read off the rows of gamma's own rims by diagonal.

    Here delta(r, c) = c - r.  Row r of the NW rim runs from mu_r to
    mu_(r-1) and of the SE rim from lambda_(r+1) - 1 (the end rows whole),
    and a rim meets each diagonal of a connected shape once.  The key ribbons
    are segments of the rims of the amalgam U = gamma || _W gamma between
    the two copies of O: for RR the top one runs along U's NW rim from
    just after the first copy's O through the end of the second's, and
    the bottom one along U's SE rim from the start of the first copy's O
    up to the start of the second's.  With (dr, dc) = amalg_shift,
    n = dc - dr and o0, o1 the least and greatest delta of O, that is, in
    gamma's frame:
      RR: top = NW rim on (o1 - n, o1], bottom = SE rim on [o0, o0 + n);
      UU: top = NW rim on [o0, o0 + n), bottom = SE rim on (o1 - n, o1].

    Proof for the RR top.  Let A = gamma and B = gamma + s for s =
    amalg_shift, so U = A | B and A & B = t, the upper W: a cell y of
    both lies on a diagonal of t, where Lemma 2 of detect_wow puts y in t
    or NW of it, and y - s in b or SE of it.  Let tau = max delta(A), the
    delta of gamma's NE box, which lies in t.
    (a) U's NW rim is A's on delta <= tau and B's beyond.  B has no cell
    below min delta(t), as its SW box lies in its lower W copy, which is
    t; and on t's diagonals A - t lies NW of t and B - t lies SE of t
    (Lemma 2 of detect_wow, for the top of A and the bottom of B).
    (b) O's NE box x lies on A's NW rim.  Its NW neighbour is not in O,
    as x is on O's top row; not in t, or x would lie SE of t on a
    diagonal of t; and not in b, as delta(x) >= min delta(t) - 1 >
    max delta(b) by the adjacency and the gap.  So x is U's rim at o1.
    (c) x + s lies on B's NW rim at o1 + n >= max delta(b) + 1 + n =
    tau + 1, so it is U's rim there.
    (d) On (o1, tau] A holds only cells of t, so U's rim on (o1, o1 + n]
    lies in B and is B's rim; shifting it back by s gives gamma's NW rim
    on (o1 - n, o1].
    The half-turn (rotate_structure keeps RR) gives the bottom, and
    transpose_structure gives UU.
    """
    gamma = structure.gamma
    dr, dc = structure.amalg_shift
    n = dc - dr
    rows, last, w = _rows(gamma), len(gamma.outer) - 1, _rows(structure.w_shape)
    # the lower W copy is W's rows from row -dr down, the upper one its rows moved dc right
    o = _cut(_cut(rows, -dr, w), 0, [(l + dc, h + dc) for l, h in w])
    sw, ne = _boxes(o)
    o0, o1 = diagonal(sw), diagonal(ne)
    nw = [(lo, min(hi, rows[r - 1][0]) if r else hi) for r, (lo, hi) in enumerate(rows)]
    se = [(max(lo, rows[r + 1][1]) if r < last else lo, hi) for r, (lo, hi) in enumerate(rows)]

    def segment(rim, lo: int) -> tuple[Composition, frozenset[Cell]]:
        """The rim's row lengths and cells on the diagonals [lo, lo + n)."""
        cut = [(r, max(a, lo + r), min(b, lo + n - 1 + r)) for r, (a, b) in enumerate(rim)]
        comp = tuple(b - a + 1 for _, a, b in cut if a <= b)
        if sum(comp) != n:
            raise StructureError("a key ribbon runs off gamma's rim")
        return comp, frozenset((r, c) for r, a, b in cut for c in range(a, b + 1))

    if structure.orientation == RR:
        (top, top_fp), (bottom, bottom_fp) = segment(nw, o1 - n + 1), segment(se, o0)
    else:
        (top, top_fp), (bottom, bottom_fp) = segment(nw, o0), segment(se, o1 - n + 1)
    if len(top) != len(bottom):
        raise StructureError("key ribbons disagree in row count")
    return KeyRibbons(top, bottom, n, top_fp, bottom_fp)


class LooseEnds(Record):
    found: bool
    witnesses: tuple[tuple[Composition, frozenset[Cell]], ...]


def has_loose_end_ribbons(structure: WowStructure) -> LooseEnds:
    """Removable key-size ribbons positioned beyond the key footprints.

    RR: a left-removable ribbon beginning strictly left of the top key
    footprint or a right-removable one ending strictly right of the bottom
    key footprint; UU mirrors the comparisons.  A left ribbon and the top
    footprint lie on gamma's NW rim, a right ribbon and the bottom one on
    its SE rim, and a rim runs in the order of the diagonals c - r.
    """
    keys = structure.keys

    def beyond(side, footprint, before):
        # a ribbon's least diagonal starts its bottom row, its greatest ends its top row
        deltas = [c - r for r, c in footprint]
        key_lo, key_hi = min(deltas), max(deltas)
        return hopf.ribbon_entries(
            rows for rows in hopf.ribbon_rows(structure.gamma, keys.size, side)
            if ((rows[-1][1] - rows[-1][0] < key_lo) if before else (rows[0][2] - rows[0][0] > key_hi))
        )

    rr = structure.orientation == RR
    witnesses = [
        *beyond("left", keys.top_footprint, rr),
        *beyond("right", keys.bottom_footprint, not rr),
    ]
    return LooseEnds(bool(witnesses), tuple(witnesses))


def rotate_structure(structure: WowStructure) -> WowStructure:
    """Half-turn of the whole structure; the W roles swap ends.

    It is built unchecked: the half-turn x -> k - x maps each axiom onto
    itself.  It keeps connectivity and reverses the product order, so
    skew sets stay skew, removals stay connected skew shapes and the W
    copies stay translates of one shape.  It swaps the NE and SW boxes,
    so upper and lower W swap; it maps diagonal d to k1 - k0 - d, which
    keeps the gap; and it carries O's SW box to its NE box and a left or
    lower neighbour to a right or upper one, so each adjacency maps onto
    its partner and the orientation is kept.

    Lemma: compose(alpha, S°) = rotate180(compose(rotate180(alpha), S)),
    and S° has S's key size and loose-end verdict.  The half-turn x -> k - x
    negates every translation and swaps the roles of the two W copies, so
    amalg_shift = min(upper) - min(lower) = max(upper) - max(lower) is
    kept, and with the orientation so is dot_shift.  compose puts a copy of
    gamma at c*e - r*n per box (r, c) of alpha; rotating gamma's copies and
    negating those offsets is the half-turn of the copies placed by -alpha,
    a translate of rotate180(alpha).  The key size n = dc - dr reads
    amalg_shift.  The half-turn swaps the NW and SE rims, the left- and
    right-removable ribbons and, reversing the diagonals, the top and
    bottom key footprints, so it maps loose ends onto loose ends.
    """
    return WowStructure(rotate180(structure.gamma), structure.orientation, rotate180(structure.w_shape))


def transpose_structure(structure: WowStructure) -> WowStructure:
    """Transpose of the whole structure; the W roles swap ends and RR and UU swap.

    It is built unchecked: the transpose T(r, c) = (c, r) maps each axiom
    onto itself.  It keeps connectivity and the product order, so skew
    sets stay skew, removals stay connected skew shapes and the W copies
    stay translates of one shape.  It swaps the NE and SW boxes, so upper
    and lower W swap; it maps diagonal d to -d, which keeps the gap; and
    it carries a left or right neighbour to an upper or lower one, so the
    horizontal adjacency of RR maps onto the vertical one of UU.

    Lemma: compose(alpha', S') = transpose(compose(alpha, S)) for alpha'
    the conjugate of alpha, and S' has S's key size and loose-end verdict.
    As upper = lower + s for s = amalg_shift = (dr, dc), the swap gives
    amalg_shift' = -T(s) = (-dc, -dr) and dot_shift' = -T(dot_shift), and
    RR's east and north steps are UU's north and east ones.  So the offset
    of box (c, r) of alpha' is T of the offset of box (r, c) of alpha, and
    each copy of gamma' is the transpose of a copy of gamma.  The key size
    n = dc - dr is kept.  T keeps the NW and SE rims and the left- and
    right-removable ribbons and reverses the diagonals, so the RR and UU
    key footprints map onto each other and so do the loose-end tests of
    the two orientations, which mirror each other's comparisons.

    As omega is a ring automorphism with omega s_A = s_A', beta on S' has
    the verdict of beta' on S.
    """
    orientation = UU if structure.orientation == RR else RR
    return WowStructure(transpose(structure.gamma), orientation, transpose(structure.w_shape))


def wow_catalog(max_size: int):
    """All structures on connected gammas with at most max_size cells."""
    out = []
    for n in range(1, max_size + 1):
        for gamma in sorted(connected_shapes(n), key=shape_sort_key):
            out.extend(detect_wow(gamma))
    return out
