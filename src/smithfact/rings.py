"""Exact arithmetic over the two supported coefficient domains.

Everything in this package computes over an effective principal ideal
domain, chosen per document: arbitrary-precision integers ("Z") or
univariate polynomials over a prime field ("GF(p)[x]").  Elements are
immutable wrappers around a raw payload (a Python int, or a tuple of
coefficients in ascending degree with no trailing zeros), and mixing
payloads from different ring instances is a hard error, never a coercion.
Both payload types are falsy exactly when they are zero (``0`` and ``()``),
so payload code tests zero by truth value.

Association classes are pinned to canonical representatives throughout:
non-negative integers and monic polynomials.  ``normalize``, ``gcd_bezout``
and ``factorize`` always return canonical values, which is what makes the
classification layers deterministic.

The multiplicity of a prime in an element is read by ``_valuation``, the
one divide-out loop on payloads.  Trial division factors GF(p)[x] only
(``_gf_trial_factor``), and refuses a degree with more than
``_GF_TRIAL_CANDIDATES`` candidates; Z has its own factorizer.

GF(p)[x] products use Kronecker substitution above a small size crossover:
each operand is packed into one integer, a fixed-width slot per
coefficient, so one built-in big-integer product does the work of the
double loop.  Small operands, and primes whose slots would need more than
8 bytes (e.g. GF(10**18+3)), keep the schoolbook loop.

Matrix products are a payload primitive too, ``_matmul``: the base class
keeps the schoolbook loop over ``_add`` and ``_mul``, Z sums built-in
products, and GF(p)[x] packs every entry of both operands once, so each
output entry is one big-integer dot product, unpacked once.  A slot then
holds k*min(la, lb) terms of at most (p-1)**2 (k the inner dimension, la
and lb the longest entries).  Products with an empty or all-zero operand,
and slots past 8 bytes, fall back to the loop.  A product of inner
dimension k = 1 has nothing to sum: each entry is one ``_mul``, with
nothing packed; these are most of the products of the 1x1 checks in
``MatrixFactorization`` and ``MfMorphism``.  This rule comes from the
product's shape, not its size.

Z's gcd is ``math.gcd``; the GF(p)[x] gcd is Euclid on remainders alone,
with no quotient built.  ``Ring`` itself has no gcd loop to inherit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from array import array
from typing import NamedTuple

from .errors import ParseError, PreconditionError, ValidationError

__all__ = [
    "Ring",
    "IntegerRing",
    "GFPolynomialRing",
    "ZZ",
    "gf_polynomial_ring",
    "ring_from_text",
    "RingElement",
    "CanonicalAssociate",
    "BezoutCertificate",
    "PrimeFactorization",
    "normalize",
    "gcd_bezout",
    "gcd",
    "exact_div",
    "divides",
    "factorize",
    "is_prime",
    "same_ring",
]


class Ring:
    """A supported coefficient domain.

    Subclasses implement arithmetic on raw payloads; user code works with
    :class:`RingElement` values obtained from ``element``, ``from_int`` or
    ``parse``.  The payload primitives each subclass defines:

    - ``_add(a, b)``, ``_sub(a, b)``, ``_neg(a)``, ``_mul(a, b)`` and
      ``_divmod(a, b)``;
    - ``_is_unit(a)`` and ``_unit_inv(a)``;
    - ``_canonical_unit(a)``: the unit u with u*a the canonical associate
      of a, and 1 for 0;
    - ``_sort_key(a)``: the key of the canonical total order used for
      pivoting and sorting;
    - ``_gcd(a, b)``: the canonical gcd, with gcd(0, 0) = 0;
    - ``_from_int(k)``, ``_format(a)`` and ``_parse_payload(text)``.

    ``_xgcd`` and ``_matmul`` are shared, built on those.
    """

    name = "?"

    # -- shared machinery -----------------------------------------------------

    @property
    def zero(self) -> "RingElement":
        return RingElement(self, self._from_int(0))

    @property
    def one(self) -> "RingElement":
        return RingElement(self, self._from_int(1))

    def element(self, payload) -> "RingElement":
        return RingElement(self, payload)

    def from_int(self, k: int) -> "RingElement":
        return RingElement(self, self._from_int(k))

    def parse(self, text: str) -> "RingElement":
        return RingElement(self, self._parse_payload(text))

    def _xgcd(self, a, b):
        """Extended Euclid on payloads: returns (g, x, y) with x*a + y*b = g,
        g canonical."""
        zero, one = self._from_int(0), self._from_int(1)
        r0, r1 = a, b
        x0, x1 = one, zero
        y0, y1 = zero, one
        while r1:
            q, r = self._divmod(r0, r1)
            r0, r1 = r1, r
            x0, x1 = x1, self._sub(x0, self._mul(q, x1))
            y0, y1 = y1, self._sub(y0, self._mul(q, y1))
        u = self._canonical_unit(r0)
        return self._mul(u, r0), self._mul(u, x0), self._mul(u, y0)

    def _matmul(self, ap, bp, rows: int, k: int, n: int) -> list:
        """Row-major payloads of the (rows x k) by (k x n) product of the
        row-major payload tuples ap and bp."""
        add, mul = self._add, self._mul
        zero = self._from_int(0)
        b_cols = [bp[j::n] for j in range(n)]
        out = []
        for i in range(rows):
            arow = ap[i * k:(i + 1) * k]
            for col in b_cols:
                acc = zero
                for p, q in zip(arow, col):
                    acc = add(acc, mul(p, q))
                out.append(acc)
        return out

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    """Arbitrary-precision integers; canonical associates are non-negative.

    There is one instance: ``IntegerRing()`` returns ``ZZ``.
    """

    name = "Z"

    def __new__(cls):
        return ZZ

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _divmod(self, a, b):
        return divmod(a, b)

    def _gcd(self, a, b):
        return math.gcd(a, b)  # non-negative: the canonical associate

    def _matmul(self, ap, bp, rows, k, n):
        b_cols = [bp[j::n] for j in range(n)]
        return [sum(map(operator.mul, ap[i * k:(i + 1) * k], col))
                for i in range(rows) for col in b_cols]

    def _is_unit(self, a):
        return a in (1, -1)

    def _unit_inv(self, a):
        return a  # +-1 are self-inverse

    def _canonical_unit(self, a):
        return -1 if a < 0 else 1

    def _sort_key(self, a):
        return (abs(a), 0 if a >= 0 else 1)

    def _from_int(self, k):
        return k

    def _format(self, a):
        try:  # str() refuses ints past the int-to-str digit limit
            return str(a)
        except ValueError as exc:
            raise PreconditionError(
                f"cannot print a {abs(a).bit_length()}-bit integer: it has "
                f"more digits than the int-to-str limit allows") from exc

    def _parse_payload(self, text):
        return _read_decimal(text)


def _kronecker_slots() -> dict[int, tuple[int, str]]:
    """Bytes a coefficient bound needs -> (itemsize, typecode) of the
    narrowest unsigned ``array`` item that holds it, for 1 to 8 bytes."""
    codes = {}
    for code in "BHILQ":  # typecodes are chosen by itemsize, not by letter
        codes.setdefault(array(code).itemsize, code)
    return {need: min((size, code) for size, code in codes.items()
                      if size >= need)
            for need in range(1, 9)}


_KRONECKER_SLOTS = _kronecker_slots()
# len(a)*len(b) below which _mul keeps the loop.  Short products run faster
# unpacked: replaying the benchmark's mf_classify products, mostly short,
# packing every one made _mul slower; on snf_certify's the two were level.
_KRONECKER_MIN_TERMS = 20
_BYTE_ORDER = sys.byteorder
_MAX_LITERAL_DEGREE = 100_000  # a literal's payload spans its top exponent
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _read_decimal(text: str) -> int:
    """The one reader of decimal literals: ASCII ``[+-]?[0-9]+`` once
    stripped (int() and ``\\d`` also take "1_000" and other scripts' digits),
    else ``ParseError``, as for a literal past the int-to-str digit limit."""
    s = text.strip()
    if not _DECIMAL.fullmatch(s):
        raise ParseError(f"not a decimal literal: {text!r}")
    try:
        return int(s)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


class GFPolynomialRing(Ring):
    """Univariate polynomials over GF(p), p any prime.

    Payloads are tuples of coefficients in ascending degree, reduced mod p,
    with no trailing zeros; the zero polynomial is the empty tuple.
    Canonical associates are monic.  There is one instance per p:
    ``GFPolynomialRing(p)`` returns the cached ``gf_polynomial_ring(p)``.
    Products pack coefficients into slots of at most 8 bytes; where a slot
    would be wider, as over GF(10**18+3), they keep the schoolbook loop.
    """

    def __new__(cls, p: int):
        return gf_polynomial_ring(p)

    def __reduce__(self):
        return gf_polynomial_ring, (self.p,)

    @staticmethod
    def _strip(coeffs) -> tuple:
        i = len(coeffs)
        while i > 0 and coeffs[i - 1] == 0:
            i -= 1
        return tuple(coeffs[:i])

    def _add(self, a, b):
        if not b:
            return a
        if not a:
            return b
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return self._strip(out) if len(a) == len(b) else tuple(out)

    def _neg(self, a):
        p = self.p
        return tuple((-c) % p for c in a)

    def _sub(self, a, b):
        p = self.p
        if len(a) < len(b):  # the leading coefficient is -b[-1], not zero
            out = [(-c) % p for c in b]
            for i, c in enumerate(a):
                out[i] = (c - b[i]) % p
            return tuple(out)
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % p
        return self._strip(out) if len(a) == len(b) else tuple(out)

    def _mul(self, a, b):
        # Over a field the leading coefficient a[-1]*b[-1] is not zero, so no
        # path strips its result.
        if len(a) < len(b):
            a, b = b, a
        n, p = len(b), self.p
        if n == 0:
            return ()
        if n == 1:
            c = b[0]
            return a if c == 1 else tuple([x * c % p for x in a])
        if len(a) * n >= _KRONECKER_MIN_TERMS:
            # Kronecker substitution: pack each operand into one integer, a
            # coefficient per slot, multiply, and read the product's exact
            # coefficients back from the slots.  Each is a sum of at most n
            # terms of at most (p-1)**2, so none overflows into the next.
            slot = _KRONECKER_SLOTS.get(
                (n * (p - 1) ** 2).bit_length() + 7 >> 3)
            if slot is not None:
                size, code = slot
                packed = (int.from_bytes(array(code, a), _BYTE_ORDER)
                          * int.from_bytes(array(code, b), _BYTE_ORDER))
                raw = packed.to_bytes((len(a) + n - 1) * size, _BYTE_ORDER)
                return tuple([c % p for c in memoryview(raw).cast(code)])
        out = [0] * (len(a) + n - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
        return tuple(out)

    def _matmul(self, ap, bp, rows, k, n):
        if k == 1:  # each entry is a single product: nothing to sum
            mul = self._mul
            return [mul(x, y) for x in ap for y in bp]
        # a slot holds a sum of k*min(la, lb) terms of at most (p-1)**2
        la = max(map(len, ap), default=0)
        lb = max(map(len, bp), default=0)
        p = self.p
        slot = _KRONECKER_SLOTS.get(
            (k * min(la, lb) * (p - 1) ** 2).bit_length() + 7 >> 3)
        if slot is None:  # an empty or all-zero operand, or too wide a slot
            return super()._matmul(ap, bp, rows, k, n)
        size, code = slot
        pa = [int.from_bytes(array(code, x), _BYTE_ORDER) for x in ap]
        pb = [int.from_bytes(array(code, x), _BYTE_ORDER) for x in bp]
        b_cols = [pb[j::n] for j in range(n)]
        width, strip = (la + lb - 1) * size, self._strip
        out = []
        for i in range(rows):
            arow = pa[i * k:(i + 1) * k]
            for col in b_cols:
                v = sum(map(operator.mul, arow, col))
                out.append(strip([c % p for c in memoryview(
                    v.to_bytes(width, _BYTE_ORDER)).cast(code)]) if v else ())
        return out

    def _divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        if len(a) < len(b):
            return (), a
        if len(b) == 1:  # b is a unit: the quotient is a scaled copy of a
            c = b[0]
            if c == 1:
                return a, ()
            c = pow(c, -1, p)
            return tuple([x * c % p for x in a]), ()
        # Each step reads rem[shift + top] and updates only the top lower
        # coefficients below it; the quotient's leading coefficient is
        # lead(a)/lead(b), not zero, so only the remainder is stripped.
        top = len(b) - 1
        inv_lead = 1 if b[top] == 1 else pow(b[top], -1, p)
        rem = list(a)
        quo = [0] * (len(a) - top)
        for shift in range(len(a) - len(b), -1, -1):
            c = rem[shift + top] * inv_lead % p
            if c:
                quo[shift] = c
                for k, bc in zip(range(shift, shift + top), b):
                    rem[k] = (rem[k] - c * bc) % p
        return tuple(quo), self._strip(rem[:top])

    def _gcd(self, a, b):
        # Euclid on remainders alone: each step reduces the longer list in
        # place by the shorter, with one inverse of the divisor's leading
        # coefficient, and builds no quotient.
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        r0, r1 = list(a), list(b)
        while r1:
            top = len(r1) - 1
            inv_lead = 1 if r1[top] == 1 else pow(r1[top], -1, p)
            for shift in range(len(r0) - 1 - top, -1, -1):
                c = r0[shift + top] * inv_lead % p
                if c:
                    for k, bc in zip(range(shift, shift + top), r1):
                        r0[k] = (r0[k] - c * bc) % p
            del r0[top:]
            while r0 and not r0[-1]:
                r0.pop()
            r0, r1 = r1, r0
        if not r0 or r0[-1] == 1:
            return tuple(r0)
        inv_lead = pow(r0[-1], -1, p)
        return tuple([c * inv_lead % p for c in r0])

    def _is_unit(self, a):
        return len(a) == 1

    def _unit_inv(self, a):
        return (pow(a[0], -1, self.p),)

    def _canonical_unit(self, a):
        if not a or a[-1] == 1:
            return (1,)
        return (pow(a[-1], -1, self.p),)

    def _sort_key(self, a):
        return (len(a), a)

    def _from_int(self, k):
        return self._strip([k % self.p])

    def _format(self, a):
        if not a:
            return "0"
        terms = []
        for e in range(len(a) - 1, -1, -1):
            c = a[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
        return "+".join(terms)

    _TERM = re.compile(r"([+-]?)([0-9]+)?(?:(\*)?x(?:\^([0-9]+))?)?")

    def _parse_payload(self, text):
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty polynomial literal")
        # split into signed terms; keep the sign attached to each term
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks) != s:
            raise ParseError(f"bad polynomial literal: {text!r}")
        coeffs: dict[int, int] = {}
        for chunk in chunks:
            m = self._TERM.fullmatch(chunk)
            if not m or (m.group(2) is None and "x" not in chunk):
                raise ParseError(f"bad polynomial term: {chunk!r}")
            sign = -1 if m.group(1) == "-" else 1
            coef = _read_decimal(m.group(2) or "1")
            exp = _read_decimal(m.group(4) or "1") if "x" in chunk else 0
            if exp > _MAX_LITERAL_DEGREE:
                raise ParseError(f"exponent exceeds the degree bound "
                                 f"{_MAX_LITERAL_DEGREE} in a {self.name} "
                                 f"literal")
            coeffs[exp] = coeffs.get(exp, 0) + sign * coef
        out = [0] * (max(coeffs) + 1 if coeffs else 0)
        for e, c in coeffs.items():
            out[e] = c % self.p
        return self._strip(out)


# Rings are interned, so they compare and hash by identity.  The instances
# are made with ``object.__new__`` because the constructors return them.
ZZ = object.__new__(IntegerRing)


@functools.lru_cache(maxsize=None)
def gf_polynomial_ring(p: int) -> GFPolynomialRing:
    if not _int_is_prime(p):
        raise ValidationError(f"modulus must be prime, got {p}")
    ring = object.__new__(GFPolynomialRing)
    ring.p = p
    ring.name = f"GF({p})[x]"
    return ring


_RING_TEXT = re.compile(r"GF\(([0-9]+)\)\[x\]")


def ring_from_text(text: str) -> Ring:
    """Parse a ring declaration: "Z" or "GF(p)[x]"."""
    s = text.strip()
    if s == "Z":
        return ZZ
    m = _RING_TEXT.fullmatch(s)
    if m:
        try:
            return gf_polynomial_ring(_read_decimal(m.group(1)))
        except (PreconditionError, ValidationError) as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown ring declaration: {text!r}")


class RingElement:
    """An immutable element of one specific ring instance.

    Arithmetic operators accept another element of the same ring or a plain
    int (coerced through the ring); anything else is a validation error.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise ValidationError(
                    f"mixed ring instances: {self.ring.name} vs {other.ring.name}"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._sub(self.payload, o.payload))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._sub(o.payload, self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.payload))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring is other.ring and self.payload == other.payload
        if isinstance(other, int):
            return self.payload == self.ring._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __bool__(self):
        return bool(self.payload)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.sort_key() < o.sort_key()

    def sort_key(self):
        return self.ring._sort_key(self.payload)

    @property
    def is_zero(self) -> bool:
        return not self.payload

    @property
    def is_unit(self) -> bool:
        return self.ring._is_unit(self.payload)

    def text(self) -> str:
        return self.ring._format(self.payload)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"<{self.ring.name}: {self.text()}>"


def same_ring(*elems: RingElement) -> Ring:
    """Return the common ring of the given elements, or raise."""
    if not elems:
        raise PreconditionError("no elements given")
    ring = elems[0].ring
    for e in elems[1:]:
        if e.ring is not ring:
            raise ValidationError(
                f"mixed ring instances: {ring.name} vs {e.ring.name}"
            )
    return ring


class CanonicalAssociate(NamedTuple):
    """canonical = unit * input; unit is invertible, canonical is pinned."""

    canonical: RingElement
    unit: RingElement


class BezoutCertificate(NamedTuple):
    """g = x*a + y*b with g the canonical gcd."""

    g: RingElement
    x: RingElement
    y: RingElement


class PrimeFactorization(NamedTuple):
    """unit * prod(p**e) is the factored element; primes canonical, strictly
    increasing."""

    unit: RingElement
    factors: tuple[tuple[RingElement, int], ...]


def normalize(a: RingElement) -> CanonicalAssociate:
    """Canonical associate with its certifying unit; normalize(0) = (0, 1)."""
    u = a.ring._canonical_unit(a.payload)
    return CanonicalAssociate(RingElement(a.ring, a.ring._mul(u, a.payload)),
                              RingElement(a.ring, u))


def gcd_bezout(a: RingElement, b: RingElement) -> BezoutCertificate:
    """Extended Euclid; x*a + y*b = g with g canonical, gcd(0, 0) = 0.
    ``smith`` requests one only for a pivot a that does not divide b."""
    ring = same_ring(a, b)
    g, x, y = ring._xgcd(a.payload, b.payload)
    return BezoutCertificate(RingElement(ring, g),
                             RingElement(ring, x),
                             RingElement(ring, y))


def gcd(a: RingElement, b: RingElement) -> RingElement:
    """Canonical gcd without the certificate (faster inner loops)."""
    ring = same_ring(a, b)
    return RingElement(ring, ring._gcd(a.payload, b.payload))


def divides(b: RingElement, a: RingElement) -> bool:
    """True when b | a; 0 divides only 0."""
    ring = same_ring(a, b)
    if b.is_zero:
        return a.is_zero
    return not ring._divmod(a.payload, b.payload)[1]


def exact_div(a: RingElement, b: RingElement) -> RingElement:
    """a / b when b | a; raises otherwise."""
    ring = same_ring(a, b)
    if b.is_zero:
        raise PreconditionError("exact division by zero")
    q, r = ring._divmod(a.payload, b.payload)
    if r:
        raise _not_dividing(ring, b.payload, a.payload)
    return RingElement(ring, q)


def _not_dividing(ring: Ring, b, a) -> PreconditionError:
    """The error of an exact division of payload a by payload b that left a
    remainder; shared with the payload kernels in ``matrices`` and
    ``smith``."""
    return PreconditionError(
        f"{ring._format(b)} does not divide {ring._format(a)} in {ring.name}")


def factorize(a: RingElement) -> PrimeFactorization:
    """Unit times prime powers, primes canonical and strictly increasing.

    Over Z: trial division by the primes below 1000, then a perfect-power
    check by integer k-th roots, then Brent's rho (Brent 1980) with the
    fixed constants c = 1, 2, ... on each composite cofactor.  Every prime
    returned is certified by deterministic Miller-Rabin on the 13 prime
    bases up to 41, which is exact below psi_13 = 3317044064679887385961981
    (Sorenson and Webster 2015).  A cofactor at or beyond psi_13 that is a
    strong probable prime to base 2, or that rho cannot split within a
    fixed step budget, raises ``PreconditionError`` (CLI exit code 4)
    rather than run on.

    Over GF(p)[x]: deterministic trial division by the monic polynomials in
    canonical order (``_gf_trial_factor``), so every divisor found is prime
    and the factor list comes out sorted.  A degree with more than
    ``_GF_TRIAL_CANDIDATES`` candidates raises ``PreconditionError``.
    """
    if a.is_zero:
        raise PreconditionError("cannot factor 0")
    ring = a.ring
    coa = normalize(a)
    rest = coa.canonical.payload
    unit = RingElement(ring, ring._unit_inv(coa.unit.payload))
    if ring._is_unit(rest):
        pairs = []
    elif isinstance(ring, IntegerRing):
        pairs = _int_factor(rest)
    else:
        pairs = _gf_trial_factor(ring, rest)
    return PrimeFactorization(
        unit=unit, factors=tuple((RingElement(ring, p), e) for p, e in pairs))


def _valuation(ring: Ring, p, a, cap: int | None = None) -> tuple:
    """(e, a / p**e) for the largest e, at most cap, with p**e dividing a.

    p and a are payloads, p neither zero nor a unit.  Each step is one
    ``_divmod``.  A zero a is divisible by every power of p, so it stops
    only at the cap.
    """
    e = 0
    while e != cap:
        q, r = ring._divmod(a, p)
        if r:
            break
        a = q
        e += 1
    return e, a


# -- factoring over Z -----------------------------------------------------------

def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = bytes(2)
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n, i)))
    return tuple(i for i in range(n) if flags[i])


_TRIAL_BOUND = 1000
_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
_MR_BASES = _SMALL_PRIMES[:13]              # 2, 3, 5, ..., 41
_MR_LIMIT = 3317044064679887385961981      # psi_13, Sorenson-Webster 2015
_RHO_BATCH = 128        # rho steps per gcd
_RHO_MAX_STEPS = 1 << 23  # beyond _MR_LIMIT only; see _rho_split


def _int_is_prime(n: int) -> bool:
    """Certified primality of an integer n >= 0.

    Deterministic Miller-Rabin on the bases ``_MR_BASES``, which no
    composite below ``_MR_LIMIT`` passes.  From ``_MR_LIMIT`` on no base set
    certifies n, so the test stops at the first base n passes, which is 2,
    and raises ``PreconditionError``: a composite there that is a strong
    pseudoprime to base 2 is refused rather than split.  A base that proves
    n composite still returns False.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n >= _MR_LIMIT:
            raise PreconditionError(
                f"cannot certify a {n.bit_length()}-bit strong probable "
                f"prime to base {a}: Miller-Rabin is exact only below "
                f"{_MR_LIMIT}")
    return True


def _int_factor(n: int) -> list[tuple[int, int]]:
    """Prime powers of an integer n >= 2, primes ascending (see factorize)."""
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e, n = _valuation(ZZ, p, n)
        if e:
            found[p] = e
    # every prime factor left is at least _TRIAL_BOUND, or n is 1 or prime
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, e = pending.pop()
        root, k = _perfect_power(m)
        if k > 1:
            pending.append((root, e * k))
        elif _int_is_prime(m):
            found[m] = found.get(m, 0) + e
        else:
            d = _rho_split(m)
            pending += [(d, e), (m // d, e)]
    return sorted(found.items())


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1 and k >= 2.

    Newton's method from a floating-point start just above the root, taken
    from the leading 64 or more bits of n, so it converges in a few steps.
    """
    t = max(0, (n.bit_length() - 64) // k)
    top = n >> (k * t)
    x = (int(2 ** (math.log2(top) / k) * (1 + 2 ** -40)) + 1) << t
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m and k >= 2 the least such prime, or (m, 1).

    m is prime or has no prime factor below _TRIAL_BOUND = 1000, so only k
    with 1000**k <= m can occur, and those satisfy 9*k < m.bit_length().
    """
    for k in _primes_below(m.bit_length() // 9 + 1):
        r = _iroot(m, k)
        if r ** k == m:
            return r, k
    return m, 1


def _rho_split(n: int) -> int:
    """A proper divisor of an odd composite n that is not a perfect power.

    Brent's rho on the walks x -> x*x + c from x = 2, for c = 1, 2, ... in
    turn, so the result is deterministic.  The differences are multiplied
    together and one gcd is taken per _RHO_BATCH steps; a batch that
    overshoots to gcd n is retraced one step at a time.

    Below _MR_LIMIT the smallest prime factor is below 1.9e12, which rho
    finds in about two million steps, so it runs to the end.  From
    _MR_LIMIT on it raises PreconditionError once a step budget has found
    no divisor: _RHO_MAX_STEPS, scaled down for large n by the cost of a
    step.
    """
    # a step costs about 1 + (bits // 256)**2 times a step on a small n
    budget = _RHO_MAX_STEPS // (1 + (n.bit_length() // 256) ** 2)
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget and n >= _MR_LIMIT:
                raise PreconditionError(
                    f"Pollard-Brent rho found no divisor of a "
                    f"{n.bit_length()}-bit composite within {budget} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def is_prime(a: RingElement) -> bool:
    """Prime (irreducible) in its ring instance.

    Over Z certified as in ``factorize``, with the same PreconditionError
    beyond psi_13; over GF(p)[x] by Rabin's irreducibility test, without
    factoring, which raises PreconditionError past its work budget.
    """
    if a.is_zero or a.is_unit:
        return False
    ring = a.ring
    if isinstance(ring, IntegerRing):
        return _int_is_prime(abs(a.payload))
    return _gf_irreducible(ring, normalize(a).canonical.payload)


_RABIN_MAX_WORK = 1 << 24  # coefficient operations; see _gf_irreducible


def _gf_irreducible(ring: GFPolynomialRing, f) -> bool:
    """Rabin's test (Rabin 1980) on a monic payload f of degree n >= 1.

    f is irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1
    for every prime q dividing n.  The powers x^(p^i) mod f come from n
    successive p-th powers, each by square-and-multiply mod f.

    A step of square-and-multiply costs about n*n*log2(p) coefficient
    operations, so the whole test about n**3 * log2(p)**2.  Once the steps
    taken pass _RABIN_MAX_WORK scaled down by the cost of a step, it raises
    PreconditionError (CLI exit code 4) rather than run on.
    """
    n, p = len(f) - 1, ring.p
    budget = _RABIN_MAX_WORK // (n * n * p.bit_length())
    steps = 0
    x = ring._divmod((0, 1), f)[1]
    checks = {n // q for q, _ in _int_factor(n)} if n > 1 else set()
    h = x
    for i in range(1, n + 1):
        base, e, h = h, p, (1,)
        while e:  # h = base^p mod f
            steps += 1
            if steps > budget:
                raise PreconditionError(
                    f"Rabin's test on a degree-{n} polynomial over "
                    f"{ring.name} needs more than {budget} steps")
            if e & 1:
                h = ring._divmod(ring._mul(h, base), f)[1]
            e >>= 1
            if e:
                base = ring._divmod(ring._mul(base, base), f)[1]
        if i in checks and ring._gcd(ring._sub(h, x), f) != (1,):
            return False
    return h == x


_GF_TRIAL_CANDIDATES = 100_000  # monic candidates of one degree, p**deg


def _gf_trial_factor(ring: GFPolynomialRing,
                     rest) -> list[tuple[tuple, int]]:
    """Prime powers of a monic non-unit payload by trial division.

    The candidates are the monic polynomials in increasing (degree, lex)
    order, so a candidate that divides is irreducible.  The search stops
    once twice the candidates' degree exceeds the cofactor's, and a
    non-unit cofactor left then is prime.  Quotients of monic payloads by
    monic divisors stay monic.  A degree with more than
    ``_GF_TRIAL_CANDIDATES`` candidates raises ``PreconditionError`` before
    any of them is tried.
    """
    factors = []
    deg = 1
    while 2 * deg < len(rest):
        if ring.p ** deg > _GF_TRIAL_CANDIDATES:
            raise PreconditionError(
                f"trial division over {ring.name} would try {ring.p}**{deg} "
                f"candidates of degree {deg}, over {_GF_TRIAL_CANDIDATES}")
        for low in itertools.product(range(ring.p), repeat=deg):
            d = low + (1,)
            e, rest = _valuation(ring, d, rest)
            if e:
                factors.append((d, e))
                if 2 * deg >= len(rest):
                    break
        deg += 1
    if len(rest) > 1:
        factors.append((rest, 1))
    return factors
