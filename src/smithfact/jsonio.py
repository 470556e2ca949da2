"""JSON encoding and decoding for the public object types.

Output dictionaries use a fixed key insertion order and canonical element
text, so serialized results are byte-stable for equal inputs.  Parsing is
permissive about redundancy (a nested matrix may omit the ring when the
enclosing object pins it) but strict about consistency: a nested part over
another ring (checked by the object constructors) or a morphism's top-level
W other than its source's is a ``ValidationError``.
"""

from __future__ import annotations

import json
from typing import Any

from .artinian import CyclicDecomposition
from .classify import MfClass, StrongDecomposition
from .errors import ParseError, ValidationError
from .factorizations import (MatrixFactorization, MfMorphism, elementary,
                             elementary_morphism)
from .matrices import RingMatrix
from .rings import Ring, RingElement, ring_from_text
from .smith import ModuleInvariants, SmithDecomposition

__all__ = [
    "dumps",
    "parse_ring",
    "parse_element",
    "matrix_to_json",
    "parse_matrix",
    "factorization_to_json",
    "parse_factorization",
    "morphism_to_json",
    "parse_morphism",
    "smith_to_json",
    "module_to_json",
    "class_to_json",
    "strong_to_json",
    "decomposition_to_json",
]


def dumps(obj: Any) -> str:
    """Stable two-space rendering with a trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _is_int(obj) -> bool:
    """A JSON integer; ``true``/``false`` are bools, not counts."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _as_object(obj, what: str) -> dict:
    _expect(isinstance(obj, dict), f"{what} must be a JSON object")
    return obj


def parse_ring(obj, fallback: Ring | None = None) -> Ring:
    """Ring from its text name ("Z", "GF(p)[x]").

    An explicit name wins; the fallback covers objects that omit it.
    Consistency between nested parts is enforced by the object constructors.
    """
    if obj is None:
        _expect(fallback is not None, "no ring given and none implied")
        return fallback
    _expect(isinstance(obj, str), "ring must be a string name")
    return ring_from_text(obj)


def _parse_payload(ring: Ring, obj):
    """Payload of an element literal: text syntax, or a bare integer taken
    as a constant.  The one element check of ``parse_element`` and of
    every matrix entry."""
    if isinstance(obj, bool):
        raise ParseError("booleans are not ring elements")
    if isinstance(obj, int):
        return ring._from_int(obj)
    _expect(isinstance(obj, str), "entries must be strings or integers")
    return ring._parse_payload(obj)


def parse_element(ring: Ring, obj) -> RingElement:
    """Element from text syntax; bare integers are accepted as constants."""
    return ring.element(_parse_payload(ring, obj))


def matrix_to_json(m: RingMatrix) -> dict:
    fmt, n = m.ring._format, m.cols
    return {
        "ring": m.ring.name,
        "rows": m.rows,
        "cols": n,
        "entries": [[fmt(p) for p in m.payloads[i * n:(i + 1) * n]]
                    for i in range(m.rows)],
    }


def _parse_grid(ring: Ring, grid, rows: int | None,
                cols: int | None) -> RingMatrix:
    _expect(isinstance(grid, list), "entries must be a list of rows")
    if rows is None:
        rows = len(grid)
    _expect(len(grid) == rows, f"expected {rows} rows, found {len(grid)}")
    payloads = []
    width = cols
    for row in grid:
        _expect(isinstance(row, list), "each row must be a list")
        if width is None:
            width = len(row)
        _expect(len(row) == width,
                f"ragged rows: expected width {width}, found {len(row)}")
        payloads.extend(_parse_payload(ring, e) for e in row)
    return RingMatrix(ring, rows, width or 0, payloads)


def parse_matrix(obj, ring: Ring | None = None) -> RingMatrix:
    """Accepts the full schema {ring, rows, cols, entries} or a bare grid
    (list of rows) when the ring is supplied out of band."""
    if isinstance(obj, list):
        _expect(ring is not None, "a bare grid needs a ring declaration")
        return _parse_grid(ring, obj, None, None)
    data = _as_object(obj, "matrix")
    _expect("entries" in data, "matrix object lacks \"entries\"")
    ring = parse_ring(data.get("ring"), ring)
    rows = data.get("rows")
    cols = data.get("cols")
    for k, v in (("rows", rows), ("cols", cols)):
        _expect(v is None or (_is_int(v) and v >= 0),
                f"\"{k}\" must be a non-negative integer")
    return _parse_grid(ring, data["entries"], rows, cols)


def factorization_to_json(a: MatrixFactorization) -> dict:
    return {
        "W": a.W.text(),
        "ring": a.ring.name,
        "u": matrix_to_json(a.u),
        "v": matrix_to_json(a.v),
    }


def parse_factorization(obj, ring: Ring | None = None) -> MatrixFactorization:
    """Full schema {W, ring, u, v}; or the rank-one shorthand
    {W, elementary: "d"} for the factorization with v = d, u = W/d."""
    data = _as_object(obj, "factorization")
    ring = parse_ring(data.get("ring"), ring)
    _expect("W" in data, "factorization lacks \"W\"")
    W = parse_element(ring, data["W"])
    if "elementary" in data:
        return elementary(parse_element(ring, data["elementary"]), W)
    for key in ("u", "v"):
        _expect(key in data, f"factorization lacks \"{key}\"")
    return MatrixFactorization(W, parse_matrix(data["u"], ring),
                               parse_matrix(data["v"], ring))


def morphism_to_json(f: MfMorphism) -> dict:
    return {
        "W": f.source.W.text(),
        "ring": f.ring.name,
        "source": factorization_to_json(f.source),
        "target": factorization_to_json(f.target),
        "f00": matrix_to_json(f.f00),
        "f11": matrix_to_json(f.f11),
    }


def parse_morphism(obj, ring: Ring | None = None) -> MfMorphism:
    """Full schema {W, ring, source, target, f00, f11}; or the elementary
    shorthand {W, v1, v2, r} for r times the standard map e_v1 -> e_v2."""
    data = _as_object(obj, "morphism")
    declared = data.get("ring")
    if "v1" in data or "v2" in data:
        ring = parse_ring(declared, ring)
        for key in ("W", "v1", "v2", "r"):
            _expect(key in data, f"elementary morphism lacks \"{key}\"")
        W = parse_element(ring, data["W"])
        src = elementary(parse_element(ring, data["v1"]), W)
        dst = elementary(parse_element(ring, data["v2"]), W)
        return elementary_morphism(src, dst, parse_element(ring, data["r"]))
    for key in ("source", "target", "f00", "f11"):
        _expect(key in data, f"morphism lacks \"{key}\"")
    if declared is not None:
        ring = parse_ring(declared, ring)
    src = parse_factorization(data["source"], ring)
    dst = parse_factorization(data["target"], ring)
    ring = src.ring
    if "W" in data and parse_element(ring, data["W"]) != src.W:
        raise ValidationError("top-level W disagrees with the source")
    return MfMorphism(src, dst, parse_matrix(data["f00"], ring),
                      parse_matrix(data["f11"], ring))


def smith_to_json(dec: SmithDecomposition) -> dict:
    return {
        "ring": dec.U.ring.name,
        "D": matrix_to_json(dec.D),
        "U": matrix_to_json(dec.U),
        "V": matrix_to_json(dec.V),
        "rank": dec.rank,
        "invariant_factors": [d.text() for d in dec.invariant_factors],
    }


def module_to_json(m: ModuleInvariants) -> dict:
    return {
        "ring": m.ring.name,
        "cyclic_factors": [f.text() for f in m.cyclic_factors],
        "free_rank": m.free_rank,
        "pretty": str(m),
    }


def class_to_json(c: MfClass) -> dict:
    return {
        "W": c.critical.W.text(),
        "ring": c.critical.W.ring.name,
        "labels": [[p.text(), i] for p, i in c.labels],
    }


def strong_to_json(dec: StrongDecomposition) -> dict:
    """Strong-isomorphism data: the invariant factors of v plus a flag for
    the availability of an explicit conjugating witness pair."""
    return {
        "W": dec.W.text(),
        "ring": dec.W.ring.name,
        "factors": [d.text() for d in dec.factors],
        "witness_available": True,
    }


def decomposition_to_json(dec: CyclicDecomposition) -> dict:
    return {
        "p": dec.context.p.text(),
        "ring": dec.context.p.ring.name,
        "n": dec.context.n,
        "mult": {str(i): c for i, c in dec.mult},
    }
