"""Batch command line front end.

Subcommands wrap the library one-to-one: snf, classify, iso, cone, hom,
quiver, plus a seeded demo walkthrough.  Inputs are inline JSON, a file
path, or "-" for standard input.  Output is byte-deterministic for a fixed
invocation.  Exit codes: 0 success, 2 parse error or an unusable file
argument (unreadable or non-UTF-8 input, unwritable --out), 3 validation
error, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from . import artinian, jsonio
from .classify import (critical_decompose, critical_ideal_generator,
                       hmf_hom, hmf_iso, is_zero_object, primary_decompose,
                       strong_decompose, strong_iso)
from .errors import ParseError, PreconditionError, ValidationError
from .factorizations import cone, elementary, elementary_morphism
from .matrices import RingMatrix
from .rings import Ring, ring_from_text
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
        path = Path(source)
        if not path.exists():
            raise ParseError(f"input file not found: {source}")
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {source}: {exc}") from None


def _load_json(source: str):
    text = _read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None


def _default_ring(args) -> Ring | None:
    if getattr(args, "ring", None) is None:
        return None
    return ring_from_text(args.ring)


def _fallback_ring(args) -> Ring:
    """Ring for inputs that carry no declaration: --ring, else Z."""
    return _default_ring(args) or ring_from_text("Z")


def _matrix_lines(m: RingMatrix, indent: str = "  ") -> list[str]:
    if m.rows == 0 or m.cols == 0:
        return [f"{indent}({m.rows} x {m.cols} empty)"]
    return [indent + line for line in str(m).splitlines()]


# -- subcommand handlers ------------------------------------------------------


def _cmd_snf(args) -> str:
    a = jsonio.parse_matrix(_load_json(args.matrix), _fallback_ring(args))
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
    sd = strong_decompose(a)
    cls = primary_decompose(a)
    if args.format == "json":
        payload = jsonio.class_to_json(cls)
        payload["strong_factors"] = [d.text() for d in sd.factors]
        payload["witness_available"] = True
        payload["is_zero_object"] = cls.is_zero
        return jsonio.dumps(payload)
    return (f"W: {a.W.text()} over {a.ring.name}\n"
            f"strong factors: "
            f"{', '.join(d.text() for d in sd.factors) or '(rank zero)'}\n"
            f"class: {cls}\n")


def _cmd_iso(args) -> str:
    ring = _default_ring(args)
    a = jsonio.parse_factorization(_load_json(args.a), ring)
    b = jsonio.parse_factorization(_load_json(args.b), ring)
    zmf = strong_iso(a, b)
    hmf = hmf_iso(a, b)
    if args.format == "json":
        return jsonio.dumps({"zmf": zmf, "hmf": hmf})
    return f"strict isomorphism: {zmf}\nhomotopy isomorphism: {hmf}\n"


def _cmd_cone(args) -> str:
    f = jsonio.parse_morphism(_load_json(args.morphism), _default_ring(args))
    c = cone(f)
    factors = smith(c.u).invariant_factors
    iso = is_zero_object(c)
    split = None
    if f.source.is_elementary and f.target.is_elementary:
        from .classify import cone_split

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


def _cmd_quiver(args) -> str:
    ring = _fallback_ring(args)
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
    zz = ring_from_text("Z")
    a = jsonio.parse_matrix([[2, 4], [6, 8]], zz)
    dec = smith(a)
    lines.append("== Smith normal form ==")
    lines.append("A = [[2, 4], [6, 8]] over Z")
    lines.append("invariant factors: "
                 + ", ".join(d.text() for d in dec.invariant_factors))
    lines.append(f"certificate U*A = D*V verified: {dec.verify(a)}")
    gf5 = ring_from_text("GF(5)[x]")
    b = jsonio.parse_matrix([["x", "x^2"], ["0", "x"]], gf5)
    dec_b = smith(b)
    lines.append("B = [[x, x^2], [0, x]] over GF(5)[x]")
    lines.append("invariant factors: "
                 + ", ".join(d.text() for d in dec_b.invariant_factors))
    lines.append("")


def _demo_w12_section(lines: list[str]):
    zz = ring_from_text("Z")
    W = zz.from_int(12)
    lines.append("== Factorizations of W = 12 over Z ==")
    for d in (1, 2, 3, 4, 6, 12):
        cls = primary_decompose(elementary(zz.from_int(d), W))
        lines.append(f"class of e_{d}: {cls}")
    e2, e6 = elementary(zz.from_int(2), W), elementary(zz.from_int(6), W)
    lines.append(f"strict iso e_2 ~ e_6: {strong_iso(e2, e6)}")
    lines.append(f"homotopy iso e_2 ~ e_6: {hmf_iso(e2, e6)}")
    f = elementary_morphism(e2, e6, zz.one)
    from .classify import cone_split, is_iso

    xi, zeta = cone_split(f)
    lines.append(f"cone of the unit map e_2 -> e_6 splits as "
                 f"e_{xi.text()} + e_{zeta.text()}")
    lines.append(f"that map is invertible up to homotopy: {is_iso(f)}")
    lines.append("")


def _demo_w360_section(lines: list[str]):
    zz = ring_from_text("Z")
    W = zz.from_int(360)
    cd = critical_decompose(W)
    lines.append("== W = 360 = 2^3 * 3^2 * 5 ==")
    crit = ", ".join(f"({p.text()}, {n})" for p, n in cd.critical)
    lines.append(f"critical primes with orders: {crit}")
    lines.append(f"critical ideal generator: "
                 f"{critical_ideal_generator(cd).text()}")
    e12 = elementary(zz.from_int(12), W)
    lines.append(f"class of e_12: {primary_decompose(e12)}")
    hom = hmf_hom(e12, e12)
    lines.append(f"hom(e_12, e_12): even {hom.even}, odd {hom.odd}")
    lines.append("")


def _demo_artinian_section(lines: list[str]):
    zz = ring_from_text("Z")
    ctx = artinian.LambdaContext(zz.from_int(2), 5)
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
    hom = hmf_hom(elementary(zz.from_int(4), zz.from_int(32)),
                  elementary(zz.from_int(8), zz.from_int(32)))
    lines.append(f"cross-check over W = 2^5: even hom annihilator 2^{m} "
                 f"matches the matrix computation: "
                 f"{[f.text() for f in hom.even.cyclic_factors] == [str(2 ** m)]}")
    lines.append("")


def _demo_selftest_section(lines: list[str], seed: int):
    rng = Random(seed)
    zz = ring_from_text("Z")
    lines.append(f"== Seeded self-test (seed {seed}) ==")
    ok = 0
    rounds = 5
    W = zz.from_int(360)
    cd = critical_decompose(W)
    from .classify import MfClass, elementary_sum

    for _ in range(rounds):
        labels = random_label_multiset(cd, rng)
        expected = MfClass.from_labels(cd, labels).labels
        obj = elementary_sum(W, [p ** i for p, i in labels])
        got = primary_decompose(conjugate_factorization(obj, rng)).labels
        ok += got == expected
    lines.append(f"class recovered after random conjugation: "
                 f"{ok}/{rounds} rounds")
    checks = 0
    for _ in range(10):
        m = random_matrix(zz, rng, 3, 3, int_bound=20)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smithfact",
        description="Exact Smith forms and matrix-factorization "
                    "classification over Z and GF(p)[x].")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "text")):
        sp.add_argument("--ring", default=None,
                        help="default ring for inputs without a declaration "
                             "(Z or GF(p)[x]; default Z)")
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")

    sp = sub.add_parser("snf", help="Smith normal form with certificates")
    sp.add_argument("matrix", help="matrix JSON, file path, or -")
    common(sp)
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
    sp.add_argument("n", type=int, help="power of the prime, n >= 2")
    sp.add_argument("--stable", action="store_true",
                    help="stable quiver (projective vertex removed)")
    common(sp, formats=("dot", "json"))
    sp.set_defaults(handler=_cmd_quiver)

    sp = sub.add_parser("demo", help="guided walkthrough with self-tests")
    sp.add_argument("--seed", type=int, default=0,
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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
