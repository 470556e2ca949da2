"""Dense matrices over one ring instance.

Row-major, immutable, sized matrices; zero-dimensional shapes are legal and
behave like the corresponding empty (co)products.  Entry arithmetic is exact,
so matrix products and determinants are exact too.

The kernels ``@``, ``det`` and ``kron`` compute on raw payloads with the
ring's primitives bound to locals on each call: they unwrap their inputs
once and wrap each output entry once, so no ``RingElement`` is built or
operated on in their inner loops.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import PreconditionError, ValidationError
from .rings import Ring, RingElement, _not_dividing, same_ring

__all__ = ["RingMatrix", "kron"]


class RingMatrix:
    """An m x n matrix of RingElement values from a single ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int,
                 entries: Sequence[RingElement]):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValidationError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        for e in entries:
            if not isinstance(e, RingElement) or e.ring != ring:
                raise ValidationError("matrix entries must share the matrix ring")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "RingMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        flat: list[RingElement] = []
        for r in rows:
            if len(r) != n:
                raise ValidationError("ragged rows")
            for e in r:
                flat.append(e if isinstance(e, RingElement) else ring.from_int(e))
        return cls(ring, m, n, flat)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, rows, cols, [ring.zero] * (rows * cols))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        z, o = ring.zero, ring.one
        return cls(ring, n, n,
                   [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, ring: Ring, diag: Sequence[RingElement],
                 rows: int | None = None, cols: int | None = None) -> "RingMatrix":
        k = len(diag)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        if k > min(rows, cols):
            raise ValidationError("diagonal longer than the matrix")
        z = ring.zero
        ent = [z] * (rows * cols)
        for i, d in enumerate(diag):
            ent[i * cols + i] = d
        return cls(ring, rows, cols, ent)

    @classmethod
    def block(cls, grid: Sequence[Sequence["RingMatrix"]]) -> "RingMatrix":
        """Assemble from a 2-d grid of blocks with consistent shapes."""
        if not grid or not grid[0]:
            raise PreconditionError("empty block grid")
        ring = grid[0][0].ring
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]]
        rows_out: list[list[RingElement]] = []
        for bi, row in enumerate(grid):
            if len(row) != len(col_widths):
                raise ValidationError("ragged block grid")
            for bj, blk in enumerate(row):
                if blk.ring != ring:
                    raise ValidationError("blocks over different rings")
                if blk.rows != row_heights[bi] or blk.cols != col_widths[bj]:
                    raise ValidationError("inconsistent block shapes")
            for r in range(row_heights[bi]):
                line: list[RingElement] = []
                for blk in row:
                    base = r * blk.cols
                    line.extend(blk.entries[base:base + blk.cols])
                rows_out.append(line)
        total_cols = sum(col_widths)
        flat = [e for line in rows_out for e in line]
        return cls(ring, sum(row_heights), total_cols, flat)

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[RingElement, ...]:
        return self.entries[j::self.cols] if self.cols else ()

    def to_lists(self) -> list[list[RingElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def _same_shape(self, other: "RingMatrix"):
        if not isinstance(other, RingMatrix):
            raise ValidationError("expected a RingMatrix")
        if other.ring != self.ring:
            raise ValidationError("matrices over different rings")
        if other.shape != self.shape:
            raise ValidationError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_shape(other)
        return RingMatrix(self.ring, self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_shape(other)
        return RingMatrix(self.ring, self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "RingMatrix":
        return RingMatrix(self.ring, self.rows, self.cols,
                          [-a for a in self.entries])

    def scale(self, s) -> "RingMatrix":
        s = s if isinstance(s, RingElement) else self.ring.from_int(s)
        same_ring(s, *(self.entries or [self.ring.zero]))
        return RingMatrix(self.ring, self.rows, self.cols,
                          [s * a for a in self.entries])

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            raise ValidationError("expected a RingMatrix")
        if other.ring != self.ring:
            raise ValidationError("matrices over different rings")
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        ring = self.ring
        add, mul = ring._add, ring._mul
        zero = ring._from_int(0)
        m, k, n = self.rows, self.cols, other.cols
        a = [e.payload for e in self.entries]
        b_cols = [[e.payload for e in other.entries[j::n]] for j in range(n)]
        out = []
        for i in range(m):
            arow = a[i * k:(i + 1) * k]
            for col in b_cols:
                acc = zero
                for p, q in zip(arow, col):
                    acc = add(acc, mul(p, q))
                out.append(RingElement(ring, acc))
        return RingMatrix(ring, m, n, out)

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.ring, self.cols, self.rows,
                          [self.entry(i, j)
                           for j in range(self.cols) for i in range(self.rows)])

    def map(self, fn: Callable[[RingElement], RingElement]) -> "RingMatrix":
        return RingMatrix(self.ring, self.rows, self.cols,
                          [fn(e) for e in self.entries])

    def det(self) -> RingElement:
        """Determinant by fraction-free (Bareiss) elimination; exact."""
        if not self.is_square():
            raise PreconditionError("determinant of a non-square matrix")
        ring = self.ring
        n = self.rows
        if n == 0:
            return ring.one
        sub, mul, divmod_ = ring._sub, ring._mul, ring._divmod
        zero = ring._from_int(0)
        pay = [e.payload for e in self.entries]
        m = [pay[i * n:(i + 1) * n] for i in range(n)]
        sign = 1
        prev = ring._from_int(1)
        for k in range(n - 1):
            if m[k][k] == zero:
                pivot_row = next(
                    (i for i in range(k + 1, n) if m[i][k] != zero), None)
                if pivot_row is None:
                    return ring.zero
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            mk = m[k]
            pivot = mk[k]
            for i in range(k + 1, n):
                mi = m[i]
                lead = mi[k]
                for j in range(k + 1, n):
                    num = sub(mul(mi[j], pivot), mul(lead, mk[j]))
                    q, r = divmod_(num, prev)
                    if r != zero:  # Bareiss divisions are exact
                        raise _not_dividing(ring, prev, num)
                    mi[j] = q
            prev = pivot
        d = m[n - 1][n - 1]
        return RingElement(ring, ring._neg(d) if sign < 0 else d)

    def is_unit_determinant(self) -> bool:
        return self.det().is_unit

    # -- comparisons and display ----------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RingMatrix) and other.ring == self.ring
                and other.shape == self.shape and other.entries == self.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __str__(self):
        rows = [[e.text() for e in self.row(i)] for i in range(self.rows)]
        widths = [max((len(r[j]) for r in rows), default=0)
                  for j in range(self.cols)]
        lines = ["[" + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + "]"
                 for r in rows]
        return "\n".join(lines) if lines else f"[] ({self.rows}x{self.cols})"

    def __repr__(self):
        return f"<RingMatrix {self.rows}x{self.cols} over {self.ring.name}>"


def kron(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Kronecker product; (a kron b)[(i*rb+r), (j*cb+s)] = a[i,j] * b[r,s]."""
    if a.ring != b.ring:
        raise ValidationError("matrices over different rings")
    ring = a.ring
    mul = ring._mul
    ap = [e.payload for e in a.entries]
    bp = [e.payload for e in b.entries]
    out = []
    for i in range(a.rows):
        arow = ap[i * a.cols:(i + 1) * a.cols]
        for r in range(b.rows):
            brow = bp[r * b.cols:(r + 1) * b.cols]
            for p in arow:
                out.extend(RingElement(ring, mul(p, q)) for q in brow)
    return RingMatrix(ring, a.rows * b.rows, a.cols * b.cols, out)
