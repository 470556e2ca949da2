"""Batch command line front end.

Subcommands wrap the library one-to-one: snf, classify, iso, cone, hom,
quiver, plus a seeded demo walkthrough.  Inputs are inline JSON, a file
path, or "-" for standard input.  Output is byte-deterministic for a fixed
invocation.  Exit codes: 0 success, 2 parse error (every JSON decoding
failure included) or an unusable file argument (a missing, unreadable or
non-UTF-8 input, each "cannot read input", or an unwritable --out), 3
validation error (a ring or W that disagrees inside one document too), 4
precondition violation.  A diagnostic is one line, cut at 200 characters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from . import artinian, jsonio
from .classify import (MfClass, cone_split, critical_decompose,
                       critical_ideal_generator, elementary_sum, hmf_hom,
                       is_iso, is_zero_object, primary_decompose,
                       strong_factors, strong_iso)
from .errors import ParseError, PreconditionError, ValidationError
from .factorizations import (cone, elementary, elementary_morphism,
                             suspension)
from .matrices import RingMatrix
from .rings import (ZZ, Ring, _read_decimal, gf_polynomial_ring,
                    ring_from_text)
from .sampling import conjugate_factorization, random_label_multiset, \
    random_matrix
from .smith import smith

__all__ = ["main"]


def _read_text(source: str) -> str:
    """Inline JSON (starts with { or [), "-" for stdin, else a file path."""
    stripped = source.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return stripped
    try:
        if stripped == "-":
            return sys.stdin.read()
        return Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {source}: {exc}") from None


def _load_json(source: str):
    """Decode JSON; every decoding failure is a parse error.  Besides
    ``JSONDecodeError`` that is the plain ``ValueError`` of an integer
    literal past Python's int-to-str digit limit and the ``RecursionError``
    of arrays or objects nested too deeply."""
    text = _read_text(source)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {exc}") from None


def _default_ring(args, fallback: Ring | None = None) -> Ring | None:
    """Ring for inputs that carry no declaration: --ring, else fallback."""
    return fallback if args.ring is None else ring_from_text(args.ring)


def _matrix_lines(m: RingMatrix) -> list[str]:
    if m.rows == 0 or m.cols == 0:
        return [f"  ({m.rows} x {m.cols} empty)"]
    return ["  " + line for line in str(m).splitlines()]


# -- subcommand handlers ------------------------------------------------------


def _cmd_snf(args) -> str:
    a = jsonio.parse_matrix(_load_json(args.matrix), _default_ring(args, ZZ))
    dec = smith(a)
    if args.format == "json":
        return jsonio.dumps(jsonio.smith_to_json(dec))
    lines = [f"ring: {a.ring.name}", f"rank: {dec.rank}",
             "invariant factors: "
             + (", ".join(d.text() for d in dec.invariant_factors) or "(none)")]
    for name, m in (("D", dec.D), ("U", dec.U), ("V", dec.V)):
        lines.append(f"{name}:")
        lines.extend(_matrix_lines(m))
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> str:
    a = jsonio.parse_factorization(_load_json(args.factorization),
                                   _default_ring(args))
    factors = strong_factors(a)
    cls = primary_decompose(a)
    if args.format == "json":
        payload = jsonio.class_to_json(cls)
        payload["strong_factors"] = [d.text() for d in factors]
        payload["witness_available"] = True
        payload["is_zero_object"] = cls.is_zero
        return jsonio.dumps(payload)
    return (f"W: {a.W.text()} over {a.ring.name}\n"
            f"strong factors: "
            f"{', '.join(d.text() for d in factors) or '(rank zero)'}\n"
            f"class: {cls}\n")


def _cmd_iso(args) -> str:
    ring = _default_ring(args)
    a = jsonio.parse_factorization(_load_json(args.a), ring)
    b = jsonio.parse_factorization(_load_json(args.b), ring)
    zmf = strong_iso(a, b)
    cd = critical_decompose(a.W)
    hmf = primary_decompose(a, cd).labels == primary_decompose(b, cd).labels
    if args.format == "json":
        return jsonio.dumps({"zmf": zmf, "hmf": hmf})
    return f"strict isomorphism: {zmf}\nhomotopy isomorphism: {hmf}\n"


def _cmd_cone(args) -> str:
    f = jsonio.parse_morphism(_load_json(args.morphism), _default_ring(args))
    c = cone(f)
    # the suspension's v block is -u, so its strong factors are the cone's
    # u-block factors, and the zero test reads the same computation
    s = suspension(c)
    factors = strong_factors(s)
    iso = is_zero_object(s)
    split = None
    if f.source.is_elementary and f.target.is_elementary:
        split = cone_split(f)
    if args.format == "json":
        payload = {"W": c.W.text(), "ring": c.ring.name}
        if split is not None:
            payload["xi"] = split[0].text()
            payload["zeta"] = split[1].text()
        payload["u_factors"] = [d.text() for d in factors]
        payload["morphism_is_iso"] = iso
        payload["cone"] = jsonio.factorization_to_json(c)
        return jsonio.dumps(payload)
    lines = [f"W: {c.W.text()} over {c.ring.name}"]
    if split is not None:
        lines.append(f"splitting: xi = {split[0].text()}, "
                     f"zeta = {split[1].text()}")
    lines.append("u-block invariant factors: "
                 + ", ".join(d.text() for d in factors))
    lines.append(f"morphism is isomorphism: {iso}")
    lines.append("cone v block:")
    lines.extend(_matrix_lines(c.v))
    lines.append("cone u block:")
    lines.extend(_matrix_lines(c.u))
    return "\n".join(lines) + "\n"


def _cmd_hom(args) -> str:
    ring = _default_ring(args)
    a = jsonio.parse_factorization(_load_json(args.a), ring)
    b = jsonio.parse_factorization(_load_json(args.b), ring)
    hom = hmf_hom(a, b)
    if args.format == "json":
        return jsonio.dumps({"even": jsonio.module_to_json(hom.even),
                             "odd": jsonio.module_to_json(hom.odd)})
    return f"even: {hom.even}\nodd: {hom.odd}\n"


_QUIVER_MAX_N = 10_000  # the DOT output grows linearly in n


def _cmd_quiver(args) -> str:
    if args.n > _QUIVER_MAX_N:
        raise PreconditionError(f"n exceeds the quiver bound {_QUIVER_MAX_N}")
    ring = _default_ring(args, ZZ)
    p = jsonio.parse_element(ring, args.p)
    ctx = artinian.LambdaContext(p, args.n)
    q = artinian.ar_quiver(ctx, stable=args.stable)
    if args.format == "json":
        return jsonio.dumps({
            "p": ctx.p.text(),
            "ring": ring.name,
            "n": ctx.n,
            "stable": q.stable,
            "vertices": list(q.vertices),
            "arrows": [list(e) for e in q.arrows],
            "translation": [[v, tv] for v, tv in q.translation],
            "projectives": list(q.projectives),
        })
    return artinian.quiver_dot(q)


def _demo_smith_section(lines: list[str]):
    a = jsonio.parse_matrix([[2, 4], [6, 8]], ZZ)
    dec = smith(a)
    lines.append("== Smith normal form ==")
    lines.append("A = [[2, 4], [6, 8]] over Z")
    lines.append("invariant factors: "
                 + ", ".join(d.text() for d in dec.invariant_factors))
    lines.append(f"certificate U*A = D*V verified: {dec.verify(a)}")
    b = jsonio.parse_matrix([["x", "x^2"], ["0", "x"]],
                            gf_polynomial_ring(5))
    dec_b = smith(b)
    lines.append("B = [[x, x^2], [0, x]] over GF(5)[x]")
    lines.append("invariant factors: "
                 + ", ".join(d.text() for d in dec_b.invariant_factors))
    lines.append("")


def _demo_w12_section(lines: list[str]):
    W = ZZ.from_int(12)
    cd = critical_decompose(W)
    lines.append("== Factorizations of W = 12 over Z ==")
    for d in (1, 2, 3, 4, 6, 12):
        cls = primary_decompose(elementary(ZZ.from_int(d), W), cd)
        lines.append(f"class of e_{d}: {cls}")
    e2, e6 = elementary(ZZ.from_int(2), W), elementary(ZZ.from_int(6), W)
    zmf = strong_iso(e2, e6)
    hmf = primary_decompose(e2, cd).labels == primary_decompose(e6, cd).labels
    lines.append(f"strict iso e_2 ~ e_6: {zmf}")
    lines.append(f"homotopy iso e_2 ~ e_6: {hmf}")
    f = elementary_morphism(e2, e6, ZZ.one)
    xi, zeta = cone_split(f)
    lines.append(f"cone of the unit map e_2 -> e_6 splits as "
                 f"e_{xi.text()} + e_{zeta.text()}")
    lines.append(f"that map is invertible up to homotopy: {is_iso(f)}")
    lines.append("")


def _demo_w360_section(lines: list[str]):
    W = ZZ.from_int(360)
    cd = critical_decompose(W)
    lines.append("== W = 360 = 2^3 * 3^2 * 5 ==")
    crit = ", ".join(f"({p.text()}, {n})" for p, n in cd.critical)
    lines.append(f"critical primes with orders: {crit}")
    lines.append(f"critical ideal generator: "
                 f"{critical_ideal_generator(cd).text()}")
    e12 = elementary(ZZ.from_int(12), W)
    lines.append(f"class of e_12: {primary_decompose(e12, cd)}")
    hom = hmf_hom(e12, e12)
    lines.append(f"hom(e_12, e_12): even {hom.even}, odd {hom.odd}")
    lines.append("")


def _demo_artinian_section(lines: list[str]):
    ctx = artinian.LambdaContext(ZZ.from_int(2), 5)
    lines.append("== Modules over Z/2^5 ==")
    lines.append("stable hom sizes mu(i, j) for i, j in 1..4:")
    for i in range(1, 5):
        row = "  ".join(str(artinian.mu(5, i, j)) for j in range(1, 5))
        lines.append(f"  i={i}:  {row}")
    seq = artinian.ar_sequence(ctx, 2)
    lines.append(f"almost split sequence: 0 -> V_{seq.left} -> {seq.middle} "
                 f"-> V_{seq.right} -> 0")
    q = artinian.ar_quiver(ctx)
    qs = artinian.ar_quiver(ctx, stable=True)
    lines.append(f"quiver: {len(q.vertices)} vertices, {len(q.arrows)} arrows"
                 f"; stable: {len(qs.vertices)} vertices, "
                 f"{len(qs.arrows)} arrows")
    lines.append(f"Serre-type symmetry mu(i, j) = mu(j, n - i): "
                 f"{artinian.serre_identity(ctx)}")
    lines.append(f"socle generates in {artinian.generation_steps(ctx)} steps")
    m = artinian.mu(5, 2, 3)
    hom = hmf_hom(elementary(ZZ.from_int(4), ZZ.from_int(32)),
                  elementary(ZZ.from_int(8), ZZ.from_int(32)))
    lines.append(f"cross-check over W = 2^5: even hom annihilator 2^{m} "
                 f"matches the matrix computation: "
                 f"{[f.text() for f in hom.even.cyclic_factors] == [str(2 ** m)]}")
    lines.append("")


def _demo_selftest_section(lines: list[str], seed: int):
    rng = Random(seed)
    lines.append(f"== Seeded self-test (seed {seed}) ==")
    ok = 0
    rounds = 5
    W = ZZ.from_int(360)
    cd = critical_decompose(W)
    for _ in range(rounds):
        labels = random_label_multiset(cd, rng)
        expected = MfClass.from_labels(cd, labels).labels
        obj = elementary_sum(W, [p ** i for p, i in labels])
        got = primary_decompose(conjugate_factorization(obj, rng), cd).labels
        ok += got == expected
    lines.append(f"class recovered after random conjugation: "
                 f"{ok}/{rounds} rounds")
    checks = 0
    for _ in range(10):
        m = random_matrix(ZZ, rng, 3, 3, int_bound=20)
        checks += smith(m).verify(m)
    lines.append(f"random 3x3 Smith certificates verified: {checks}/10")


def _cmd_demo(args) -> str:
    lines: list[str] = []
    _demo_smith_section(lines)
    _demo_w12_section(lines)
    _demo_w360_section(lines)
    _demo_artinian_section(lines)
    _demo_selftest_section(lines, args.seed)
    return "\n".join(lines) + "\n"


# -- wiring -------------------------------------------------------------------


def _decimal(text: str) -> int:
    """argparse type of the integer arguments: ASCII decimal digits only, as
    in ring literals, so ``5`` passes and ``1_0``, ``٥`` or ``５`` is a usage
    error (exit 2) with argparse's own wording."""
    try:
        return _read_decimal(text)
    except ParseError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


# messages echo literals, paths and argument values whole
_MAX_DIAGNOSTIC = 200


def _cut(message: str) -> str:
    """At most ``_MAX_DIAGNOSTIC`` characters of a message, plus its length."""
    if len(message) <= _MAX_DIAGNOSTIC:
        return message
    return f"{message[:_MAX_DIAGNOSTIC]}…({len(message)} characters)"


class _Parser(argparse.ArgumentParser):
    """Usage errors cut like the others; subparsers are of this class too."""

    def error(self, message):
        super().error(_cut(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smithfact",
        description="Exact Smith forms and matrix-factorization "
                    "classification over Z and GF(p)[x].")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "text"), ring_falls_back=False):
        # only snf and quiver pass _default_ring a fallback
        sp.add_argument("--ring", default=None,
                        help="ring for inputs without a declaration (Z or "
                             "GF(p)[x]; " + ("default Z)" if ring_falls_back
                                             else "no default: such an "
                                                  "input exits 2)"))
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")

    sp = sub.add_parser("snf", help="Smith normal form with certificates")
    sp.add_argument("matrix", help="matrix JSON, file path, or -")
    common(sp, ring_falls_back=True)
    sp.set_defaults(handler=_cmd_snf)

    sp = sub.add_parser("classify",
                        help="strong factors and homotopy class")
    sp.add_argument("factorization", help="factorization JSON, path, or -")
    common(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("iso", help="strict and homotopy isomorphism tests")
    sp.add_argument("a", help="first factorization")
    sp.add_argument("b", help="second factorization")
    common(sp)
    sp.set_defaults(handler=_cmd_iso)

    sp = sub.add_parser("cone", help="mapping cone and its splitting")
    sp.add_argument("morphism", help="morphism JSON, path, or -")
    common(sp)
    sp.set_defaults(handler=_cmd_cone)

    sp = sub.add_parser("hom", help="hom modules in the homotopy category")
    sp.add_argument("a", help="source factorization")
    sp.add_argument("b", help="target factorization")
    common(sp)
    sp.set_defaults(handler=_cmd_hom)

    sp = sub.add_parser("quiver", help="Auslander-Reiten quiver as DOT")
    sp.add_argument("p", help="prime element text")
    sp.add_argument("n", type=_decimal, help="power of the prime, n >= 2")
    sp.add_argument("--stable", action="store_true",
                    help="stable quiver (projective vertex removed)")
    common(sp, formats=("dot", "json"), ring_falls_back=True)
    sp.set_defaults(handler=_cmd_quiver)

    sp = sub.add_parser("demo", help="guided walkthrough with self-tests")
    sp.add_argument("--seed", type=_decimal, default=0,
                    help="seed for the sampling self-test")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_demo, format="text")

    return parser


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write output {out}: {exc}") from None


_FAILURES = {ParseError: ("parse error", 2),
             ValidationError: ("invalid input", 3),
             PreconditionError: ("precondition violated", 4)}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage diagnostic
        code = exc.code or 0
        return code if isinstance(code, int) else 2
    try:
        _emit(args.handler(args), args.out)
    except tuple(_FAILURES) as exc:
        label, code = _FAILURES[type(exc)]
        print(f"{label}: {_cut(str(exc))}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
