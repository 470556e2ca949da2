"""Dense matrices over one ring instance.

Row-major, immutable, sized matrices; zero-dimensional shapes are legal and
behave like the corresponding empty (co)products.  Entry arithmetic is exact,
so matrix products and determinants are exact too.

A matrix stores its entries as one row-major tuple of raw payloads, and the
constructor checks only the shape.  Every kernel (``@``, ``det``, ``kron``,
the entrywise operations, ``block``, ``transpose``) computes on payloads
with the ring's primitives bound to locals, so the library's own results
are never re-checked or wrapped entry by entry.  ``RingElement`` appears
only at the edge: ``from_rows``, ``diagonal`` and ``scale`` accept elements
or ints and check each element's ring once, and ``entries``, ``entry``,
``row``, ``column`` and ``det`` wrap on the way out.  Rings are interned, so
every ring check here is an identity test.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PreconditionError, ValidationError
from .rings import Ring, RingElement, _not_dividing

__all__ = ["RingMatrix", "kron"]


def _payload(ring: Ring, e):
    """Payload of an element of ``ring`` or of an int: the entry check."""
    if isinstance(e, RingElement):
        if e.ring is not ring:
            raise ValidationError(
                f"mixed ring instances: {ring.name} vs {e.ring.name}")
        return e.payload
    if isinstance(e, int):
        return ring._from_int(e)
    raise ValidationError("matrix entries must be ring elements or integers")


class RingMatrix:
    """An m x n matrix over a single ring, stored as row-major payloads."""

    __slots__ = ("ring", "rows", "cols", "payloads")

    def __init__(self, ring: Ring, rows: int, cols: int, payloads: Iterable):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        payloads = tuple(payloads)
        if len(payloads) != rows * cols:
            raise ValidationError(
                f"expected {rows * cols} entries, got {len(payloads)}"
            )
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.payloads = payloads

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "RingMatrix":
        """From rows of elements of ``ring`` or ints."""
        m = len(rows)
        n = len(rows[0]) if m else 0
        flat = []
        for r in rows:
            if len(r) != n:
                raise ValidationError("ragged rows")
            flat.extend(_payload(ring, e) for e in r)
        return cls(ring, m, n, flat)

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, rows, cols, (ring._from_int(0),) * (rows * cols))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        z, o = ring._from_int(0), ring._from_int(1)
        return cls(ring, n, n,
                   [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, ring: Ring, diag: Sequence,
                 rows: int | None = None, cols: int | None = None) -> "RingMatrix":
        """Diagonal of elements of ``ring`` or ints, padded with zeros."""
        k = len(diag)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        if k > min(rows, cols):
            raise ValidationError("diagonal longer than the matrix")
        pay = [ring._from_int(0)] * (rows * cols)
        for i, d in enumerate(diag):
            pay[i * cols + i] = _payload(ring, d)
        return cls(ring, rows, cols, pay)

    @classmethod
    def block(cls, grid: Sequence[Sequence["RingMatrix"]]) -> "RingMatrix":
        """Assemble from a 2-d grid of blocks with consistent shapes."""
        if not grid or not grid[0]:
            raise PreconditionError("empty block grid")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValidationError("ragged block grid")
        ring = grid[0][0].ring
        row_heights = [row[0].rows for row in grid]
        col_widths = [b.cols for b in grid[0]]
        flat: list = []
        for bi, row in enumerate(grid):
            for bj, blk in enumerate(row):
                if blk.ring is not ring:
                    raise ValidationError("blocks over different rings")
                if blk.rows != row_heights[bi] or blk.cols != col_widths[bj]:
                    raise ValidationError("inconsistent block shapes")
            for r in range(row_heights[bi]):
                for blk in row:
                    base = r * blk.cols
                    flat.extend(blk.payloads[base:base + blk.cols])
        return cls(ring, sum(row_heights), sum(col_widths), flat)

    # -- access ---------------------------------------------------------------

    def _wrap(self, payloads) -> tuple[RingElement, ...]:
        ring = self.ring
        return tuple(RingElement(ring, p) for p in payloads)

    @property
    def entries(self) -> tuple[RingElement, ...]:
        return self._wrap(self.payloads)

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.payloads[i * self.cols + j])

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self._wrap(self.payloads[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int) -> tuple[RingElement, ...]:
        return self._wrap(self.payloads[j::self.cols]) if self.cols else ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        zero = self.ring._from_int(0)
        return all(p == zero for p in self.payloads)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------

    def _same_shape(self, other: "RingMatrix"):
        if not isinstance(other, RingMatrix):
            raise ValidationError("expected a RingMatrix")
        if other.ring is not self.ring:
            raise ValidationError("matrices over different rings")
        if other.shape != self.shape:
            raise ValidationError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_shape(other)
        return RingMatrix(self.ring, self.rows, self.cols,
                          map(self.ring._add, self.payloads, other.payloads))

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_shape(other)
        return RingMatrix(self.ring, self.rows, self.cols,
                          map(self.ring._sub, self.payloads, other.payloads))

    def __neg__(self) -> "RingMatrix":
        return RingMatrix(self.ring, self.rows, self.cols,
                          map(self.ring._neg, self.payloads))

    def scale(self, s) -> "RingMatrix":
        """s times every entry; s is an element of the matrix ring or an int."""
        s = _payload(self.ring, s)
        mul = self.ring._mul
        return RingMatrix(self.ring, self.rows, self.cols,
                          [mul(s, p) for p in self.payloads])

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            raise ValidationError("expected a RingMatrix")
        if other.ring is not self.ring:
            raise ValidationError("matrices over different rings")
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.shape} by {other.shape}")
        ring = self.ring
        add, mul = ring._add, ring._mul
        zero = ring._from_int(0)
        k, n = self.cols, other.cols
        ap, bp = self.payloads, other.payloads
        b_cols = [bp[j::n] for j in range(n)]
        out = []
        for i in range(self.rows):
            arow = ap[i * k:(i + 1) * k]
            for col in b_cols:
                acc = zero
                for p, q in zip(arow, col):
                    acc = add(acc, mul(p, q))
                out.append(acc)
        return RingMatrix(ring, self.rows, n, out)

    def transpose(self) -> "RingMatrix":
        c = self.cols
        return RingMatrix(self.ring, c, self.rows,
                          [p for j in range(c) for p in self.payloads[j::c]])

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
        pay = self.payloads
        m = [list(pay[i * n:(i + 1) * n]) for i in range(n)]
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
        return ring.element(ring._neg(d) if sign < 0 else d)

    def is_unit_determinant(self) -> bool:
        return self.det().is_unit

    # -- comparisons and display ----------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RingMatrix) and other.ring is self.ring
                and other.shape == self.shape
                and other.payloads == self.payloads)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.payloads))

    def __str__(self):
        fmt, n = self.ring._format, self.cols
        rows = [[fmt(p) for p in self.payloads[i * n:(i + 1) * n]]
                for i in range(self.rows)]
        widths = [max((len(r[j]) for r in rows), default=0)
                  for j in range(self.cols)]
        lines = ["[" + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + "]"
                 for r in rows]
        return "\n".join(lines) if lines else f"[] ({self.rows}x{self.cols})"

    def __repr__(self):
        return f"<RingMatrix {self.rows}x{self.cols} over {self.ring.name}>"


def kron(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Kronecker product; (a kron b)[(i*rb+r), (j*cb+s)] = a[i,j] * b[r,s]."""
    if a.ring is not b.ring:
        raise ValidationError("matrices over different rings")
    mul = a.ring._mul
    ap, bp = a.payloads, b.payloads
    out = []
    for i in range(a.rows):
        arow = ap[i * a.cols:(i + 1) * a.cols]
        for r in range(b.rows):
            brow = bp[r * b.cols:(r + 1) * b.cols]
            for p in arow:
                out.extend(mul(p, q) for q in brow)
    return RingMatrix(a.ring, a.rows * b.rows, a.cols * b.cols, out)
