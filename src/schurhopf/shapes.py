"""Cell-level geometry of partitions and skew shapes.

Shapes are identified up to translation: a `SkewShape` always holds the
minimal lambda/mu of its translation class, whose cells start at row and
column zero, so two shapes are equal exactly when they are translates of
each other.  Rows grow downward and columns grow rightward, so
"northeast" means up and to the right.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, index, lt

Cell = tuple[int, int]
Partition = tuple[int, ...]
Composition = tuple[int, ...]


class ShapeError(ValueError):
    """Base class for geometry errors."""


class NotSkewError(ShapeError):
    """A cell set that no partition pair lambda/mu realizes."""


class NotConnectedRibbonError(ShapeError):
    """Shape is not a connected ribbon."""


class DisconnectedError(ShapeError):
    """Operation requires a connected shape."""


def integers(values, error=ShapeError) -> tuple[int, ...]:
    """The values as ints; error, not truncation, for one with no __index__ (a float or a str)."""
    try:
        return tuple(map(index, values))
    except TypeError as exc:
        raise error(f"must be integers: {exc}") from None


def check_partition(parts) -> Partition:
    """Normalize an iterable of row lengths into a partition tuple.

    Trailing zeros are dropped; a part that is not an integer (no
    __index__, so no float or str), and anything non-monotone or
    negative, is rejected.
    """
    out = list(integers(parts))
    while out and out[-1] == 0:
        out.pop()
    for a, b in zip(out, out[1:]):
        if b > a:
            raise ShapeError(f"parts not weakly decreasing: {tuple(out)}")
    if out and out[-1] < 0:
        raise ShapeError(f"negative part {out[-1]!r}")
    return tuple(out)


def partitions_of(n: int, max_part: int | None = None):
    """Yield all partitions of n, largest part first, in descending lex order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_in_box(rows: int, cols: int):
    """Yield every partition fitting in a rows x cols box (including the empty one)."""

    def rec(row, bound):
        if row == rows:
            yield ()
            return
        for part in range(bound, -1, -1):
            if part == 0:
                yield ()
                continue
            for rest in rec(row + 1, part):
                yield (part,) + rest

    yield from rec(0, cols)


def canonicalize_cells(cells) -> frozenset[Cell]:
    """Translate a cell set so its minimal row and column are zero."""
    cells = frozenset(cells)
    if not cells:
        return cells
    dr = min(r for r, _ in cells)
    dc = min(c for _, c in cells)
    if dr == 0 and dc == 0:
        return cells
    return frozenset((r - dr, c - dc) for r, c in cells)


class Record:
    """An immutable value whose fields are its class's own annotations, in order.

    It does a frozen dataclass's job without importing dataclasses (and with
    it inspect, ast and dis: a third of the CLI's import).  Every field is
    required; cached_property fills, as it writes __dict__.
    """

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if names:
            cls._fields, cls._names, cls._key = names, frozenset(names), attrgetter(*names)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) == len(names) and not kwargs:  # the common call, with no merged dict
            self.__dict__.update(zip(names, args))
            return
        values = dict(zip(names, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != self._names:
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once")
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class SkewShape(Record):
    """A skew shape lambda/mu, held as the minimal pair of its translation class.

    The constructor replaces any valid pair by the one skew_from_cells
    recovers from its cells, so equality and hashing compare translation
    classes; they are written out, at half the cost of Record's.
    """

    outer: Partition
    inner: Partition

    def __init__(self, outer, inner=()):
        outer = check_partition(outer)
        inner = check_partition(inner)
        if len(inner) > len(outer):
            raise ShapeError(f"inner has more rows than outer: {inner} > {outer}")
        if len(inner) < len(outer) and all(map(lt, inner, outer)):
            # no empty row, and the bottom one starts at column zero: already minimal
            self.__dict__.update(outer=outer, inner=inner)
            return
        # one walk up the rows checks inner against outer and builds the
        # minimal pair: empty rows below the bottom cell and above the top
        # cell go, the bottom row moves to column zero, and each empty row in
        # between becomes as long as the row below it
        mu = inner + (0,) * (len(outer) - len(inner))
        lams, mus = [], []
        shift = zeros = kept = 0
        for i in range(len(outer) - 1, -1, -1):
            lam, m = outer[i], mu[i]
            if m > lam:
                raise ShapeError(f"inner exceeds outer in row {i}: {inner} vs {outer}")
            if m < lam:
                if not lams:
                    shift = m
                lams.append(lam - shift)
                mus.append(m - shift)
                zeros += m == shift  # inner's zeros are its bottom rows
                kept = len(lams)
            elif lams:
                lams.append(lams[-1])
                mus.append(lams[-1])
        outer, inner = tuple(reversed(lams[:kept])), tuple(reversed(mus[zeros:kept]))
        self.__dict__.update(outer=outer, inner=inner)  # one update keeps attribute reads fast

    def __eq__(self, other):
        if other.__class__ is not SkewShape:
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self):
        return hash((self.outer, self.inner))

    @cached_property
    def cells(self) -> frozenset[Cell]:
        return frozenset(row_cells(self.outer, self.padded_inner))

    @property
    def padded_inner(self) -> Partition:
        """inner with zeros appended up to the length of outer."""
        return self.inner + (0,) * (len(self.outer) - len(self.inner))

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def __repr__(self):
        return f"SkewShape({format_shape(self)!r})"


EMPTY_SHAPE = SkewShape((), ())


def row_cells(outer, inner):
    """Cells of outer/inner in the pair's frame, rows top down; inner padded to len(outer)."""
    return ((i, j) for i, (lam, m) in enumerate(zip(outer, inner)) for j in range(m, lam))


def shape_sort_key(shape: SkewShape):
    """Deterministic total order on shapes: by size, then by sorted cells."""
    return (shape.size, tuple(row_cells(shape.outer, shape.padded_inner)))


def skew_from_cells(cells) -> SkewShape:
    """Recover the minimal lambda/mu realizing a cell set, or raise NotSkewError.

    Each nonempty row r must be a contiguous column interval, read as
    [mu_r, lambda_r) after the least row and column are subtracted; an
    empty row takes the length of the row below.  The cells form a skew
    shape exactly when the lambda and mu read this way are partitions,
    which the SkewShape constructor checks.
    """
    by_row: dict[int, list[int]] = {}
    for r, c in cells:
        by_row.setdefault(r, []).append(c)
    if not by_row:
        return EMPTY_SHAPE
    top = min(by_row)
    left = min(map(min, by_row.values()))
    nrows = max(by_row) - top + 1
    lam = [0] * nrows
    mu = [0] * nrows
    for r in range(nrows - 1, -1, -1):
        cols = by_row.get(r + top)
        if cols is None:
            lam[r] = mu[r] = lam[r + 1]
            continue
        lo, hi = min(cols), max(cols)
        if hi - lo + 1 != len(cols):
            raise NotSkewError(f"row {r} is not a contiguous interval")
        lam[r], mu[r] = hi + 1 - left, lo - left
    try:
        return SkewShape(tuple(lam), tuple(mu))
    except ShapeError as exc:
        raise NotSkewError(f"cells are not a skew shape: {exc}") from exc


def is_connected_skew(cells) -> bool:
    """Whether a cell set is a connected skew shape, read from its row spans.

    The rows must be consecutive contiguous intervals, each starting and
    ending weakly right of the one below it and overlapping it in a column.
    No shape is built.
    """
    by_row: dict[int, list[int]] = {}
    for r, c in cells:
        by_row.setdefault(r, []).append(c)
    if not by_row:
        return True
    top = min(by_row)
    below_lo = below_hi = None
    for r in range(top + len(by_row) - 1, top - 1, -1):
        cols = by_row.get(r)
        if cols is None:
            return False
        lo, hi = min(cols), max(cols)
        if hi - lo + 1 != len(cols):
            return False
        if below_lo is not None and not below_lo <= lo <= below_hi <= hi:
            return False
        below_lo, below_hi = lo, hi
    return True


def rotate180(shape: SkewShape) -> SkewShape:
    """Rotate a shape half a turn; an involution on shapes."""
    width = shape.outer[0] if shape.outer else 0
    outer = tuple(width - m for m in reversed(shape.padded_inner))
    return SkewShape(outer, tuple(width - lam for lam in reversed(shape.outer)))


def half_turn(cells, shape: SkewShape) -> frozenset[Cell]:
    """Rotate cells half a turn in shape's bounding box, carrying shape onto rotate180(shape)."""
    mr, mc = len(shape.outer) - 1, shape.outer[0] - 1
    return frozenset((mr - r, mc - c) for r, c in cells)


def conjugate(part: Partition) -> Partition:
    """The partition of part's column lengths: column j counts the parts above j."""
    out, i = [], len(part)
    for j in range(part[0] if part else 0):
        while part[i - 1] <= j:
            i -= 1
        out.append(i)
    return tuple(out)


def transpose(shape: SkewShape) -> SkewShape:
    """Reflect a shape across the main diagonal: conjugate lambda and mu."""
    return SkewShape(conjugate(shape.outer), conjugate(shape.inner))


def neighbors(cell: Cell):
    """The four edge-adjacent cells."""
    r, c = cell
    return ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))


def components_of_cells(cells) -> list[frozenset[Cell]]:
    """Edge-adjacency components of a cell set, as uncanonicalized cell sets."""
    cells = set(cells)
    out = []
    while cells:
        seed = cells.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for nb in neighbors(cur):
                if nb in cells:
                    cells.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        out.append(frozenset(comp))
    return out


def component_pairs(shape: SkewShape) -> list:
    """Minimal pair (outer, padded inner) of each connected component, in shape_sort_key order.

    Rows i - 1 and i touch exactly when mu_(i-1) < lambda_i, so each
    component is a block of rows between cuts; a minimal pair's empty row
    is cut on both sides.  As lam >= mu part by part, lam[a:b] > mu[a:b]
    fails only on such an empty block, which is skipped.  A block's least
    column is its bottom row's mu, so subtracting it gives the minimal pair.
    hopf.shape_class relies on this order to make a class's shape canonical.
    """
    lam, mu = shape.outer, shape.padded_inner
    cuts = [0, *(i for i in range(1, len(lam)) if mu[i - 1] >= lam[i]), len(lam)]
    pairs = [(tuple(x - mu[b - 1] for x in lam[a:b]), tuple(x - mu[b - 1] for x in mu[a:b]))
             for a, b in zip(cuts, cuts[1:]) if lam[a:b] > mu[a:b]]
    return sorted(pairs, key=lambda p: (sum(p[0]) - sum(p[1]), tuple(row_cells(*p))))


def connected_components(shape: SkewShape) -> tuple[SkewShape, ...]:
    """Connected components as canonical shapes, in shape_sort_key order."""
    return tuple(SkewShape(*pair) for pair in component_pairs(shape))


def is_connected(shape: SkewShape) -> bool:
    """True when each row overlaps the row below it (mu_i < lambda_{i+1}).

    That also makes every row but the top one nonempty, and the top row
    of a minimal pair always is.
    """
    return all(m < a for m, a in zip(shape.padded_inner, shape.outer[1:]))


def is_ribbon(shape: SkewShape) -> bool:
    """True when no four cells form a 2x2 block."""
    return all(a - m <= 1 for m, a in zip(shape.padded_inner, shape.outer[1:]))


def ribbon_composition_of(shape: SkewShape) -> Composition:
    """Row lengths of a connected ribbon, top row first."""
    if shape.size == 0 or not is_connected(shape) or not is_ribbon(shape):
        raise NotConnectedRibbonError(f"not a connected ribbon: {shape!r}")
    return tuple(lam - m for lam, m in zip(shape.outer, shape.padded_inner))


def ribbon_shape(comp: Composition) -> SkewShape:
    """Canonical shape of a connected ribbon given by row lengths, top first.

    Consecutive rows overlap in exactly one column.
    """
    comp = integers(comp)
    if not comp or any(a <= 0 for a in comp):
        raise ShapeError(f"bad ribbon composition {comp!r}")
    lam, mu = [], []
    start = 0  # column where the current row begins, built bottom-up
    for a in reversed(comp):
        lam.append(start + a)
        mu.append(start)
        start += a - 1
    return SkewShape(tuple(reversed(lam)), tuple(reversed(mu)))


def diagonal(cell: Cell) -> int:
    """Diagonal index delta = col - row, constant along each diagonal."""
    return cell[1] - cell[0]


def rim_ribbon(shape: SkewShape, side: str) -> list[Cell]:
    """Boundary ribbon of a connected shape, ordered southwest to northeast.

    side "NW": cells whose upper-left diagonal neighbor is absent;
    side "SE": cells whose lower-right diagonal neighbor is absent.
    Either rim meets every diagonal of the shape exactly once.
    """
    if not is_connected(shape):
        raise DisconnectedError(f"rim of a disconnected shape: {shape!r}")
    cells = shape.cells
    if side == "NW":
        rim = [(r, c) for r, c in cells if (r - 1, c - 1) not in cells]
    elif side == "SE":
        rim = [(r, c) for r, c in cells if (r + 1, c + 1) not in cells]
    else:
        raise ValueError(f"side must be 'NW' or 'SE', got {side!r}")
    rim.sort(key=diagonal)
    return rim


def ne_box(cells) -> Cell:
    """Rightmost cell of the top row of a cell set, in its own frame."""
    if not cells:
        raise ShapeError("empty shape has no northeasternmost box")
    top = min(r for r, _ in cells)
    return (top, max(c for r, c in cells if r == top))


def sw_box(cells) -> Cell:
    """Bottom cell of the leftmost column of a cell set, in its own frame."""
    if not cells:
        raise ShapeError("empty shape has no southwesternmost box")
    left = min(c for _, c in cells)
    return (max(r for r, c in cells if c == left), left)


def translate_cells(cells, delta: Cell) -> frozenset[Cell]:
    dr, dc = delta
    return frozenset((r + dr, c + dc) for r, c in cells)


def direct_sum(shapes) -> SkewShape:
    """Place shapes from northeast to southwest, sharing no row or column.

    The first shape sits top right and each next one below and left of
    the last, so the skew Schur function of the result is the product of
    the pieces' skew Schur functions.
    """
    return pairs_sum((s.outer, s.padded_inner) for s in shapes)


def pairs_sum(pairs) -> SkewShape:
    """direct_sum of shapes given as pairs (outer, padded inner); one SkewShape is built."""
    pieces = [(outer, inner) for outer, inner in pairs if outer]
    col = sum(outer[0] for outer, _ in pieces)
    lams, mus = [], []
    for outer, inner in pieces:
        col -= outer[0]
        lams += [lam + col for lam in outer]
        mus += [m + col for m in inner]
    return SkewShape(tuple(lams), tuple(mus))


def parse_partition(text: str) -> Partition:
    """Parse "3,1", or "0" or "" for the empty partition."""
    text = text.strip()
    if text == "0" or text == "":
        return ()
    try:
        nums = tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise ShapeError(f"cannot parse partition {text!r}") from exc
    if any(n <= 0 for n in nums):
        raise ShapeError(f"parts must be positive in {text!r}")
    return check_partition(nums)


def parse_shape(text: str) -> SkewShape:
    """Parse "4,4,2,2/2,1", "3,1" or "0" (the empty partition)."""
    text = text.strip()
    if "/" in text:
        outer_text, inner_text = text.split("/", 1)
        return SkewShape(parse_partition(outer_text), parse_partition(inner_text))
    return SkewShape(parse_partition(text), ())


def format_shape(shape: SkewShape) -> str:
    """Inverse of parse_shape."""
    if not shape.outer:
        return "0"
    outer = ",".join(str(p) for p in shape.outer)
    if shape.inner:
        return f"{outer}/{','.join(str(p) for p in shape.inner)}"
    return outer


def connected_shapes(n: int):
    """Yield every connected skew shape with exactly n cells, canonically.

    Shapes are built as stacks of row intervals whose consecutive rows
    overlap in at least one column.
    """
    if n <= 0:
        return

    def rec(remaining, rows):
        # rows: list of (lo, hi) from top to bottom
        if remaining == 0:
            lo_min = min(lo for lo, _ in rows)
            yield tuple((lo - lo_min, hi - lo_min) for lo, hi in rows)
            return
        plo, phi = rows[-1]
        # next row: lo <= plo, hi <= phi, and overlap with the row above: hi >= plo
        for hi in range(plo, phi + 1):
            min_len = hi - plo + 1
            for length in range(min_len, remaining + 1):
                yield from rec(remaining - length, rows + [(hi - length + 1, hi)])

    for top_width in range(1, n + 1):
        for spans in rec(n - top_width, [(0, top_width - 1)]):
            yield SkewShape(tuple(hi + 1 for _, hi in spans), tuple(lo for lo, _ in spans))


def box_bounded_shapes(max_cells: int, box: int):
    """Distinct shapes lambda/mu with lambda in a box x box square, size <= max_cells.

    This is the finite family used by the exhaustive identity checks;
    translation classes of skew shapes are infinite in general because
    disconnected components admit arbitrarily wide gaps.  Each shape is
    built once, from its minimal pair, which fits in the box whenever any
    pair of the class does.
    """
    yield EMPTY_SHAPE
    for lam in partitions_in_box(box, box):
        if lam and lam[-1] <= max_cells:
            for mu in _minimal_inners(lam, max_cells - lam[-1]):
                yield SkewShape(lam, mu)


def _minimal_inners(lam: Partition, budget: int):
    """Partitions mu making lam/mu a minimal pair with <= budget cells above the last row.

    The bottom row keeps all of lam's last part, the top row keeps a cell,
    and an empty row in between is as long as the row below it.
    """
    last = len(lam) - 1

    def rec(i, bound, budget):
        if i == last:
            yield ()
            return
        empty_ok = i > 0 and lam[i] == lam[i + 1]
        top = min(bound, lam[i] if empty_ok else lam[i] - 1)
        for part in range(top, max(0, lam[i] - budget) - 1, -1):
            left = budget - (lam[i] - part)
            if part == 0:
                if sum(lam[i + 1 : last]) <= left:
                    yield ()
                continue
            for rest in rec(i + 1, part, left):
                yield (part,) + rest

    yield from rec(0, lam[0], budget)
