"""Seeded operation lists for the three workloads, and the check of every
operation's output.

A workload's seed builds one *pass*: a list of rounds, each a fixed mix of
operations whose inputs come from the seed.  The mix (shapes, ranks,
subcommands) is the same for every seed, so a seed changes the inputs but
not the kind of work.  The timed loop repeats the pass; the traced run
replays it once.  See README.md for why each workload looks the way it does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from smithfact import jsonio
from smithfact.artinian import mu
from smithfact.classify import (MfClass, cone_split, critical_decompose,
                                critical_ideal_generator, elementary_sum,
                                hmf_hom, is_iso, is_zero_object,
                                primary_decompose, strong_decompose)
from smithfact.factorizations import cone, elementary, elementary_morphism
from smithfact.matrices import RingMatrix
from smithfact.rings import (ZZ, divides, factorize, gf_polynomial_ring,
                             normalize)
from smithfact.sampling import (conjugate_factorization, random_element,
                                random_matrix)
from smithfact.smith import smith

OK, ERROR, WRONG = "ok", "error", "wrong"
BENCH_DIR = Path(__file__).resolve().parent
POOL_FILE = BENCH_DIR / "cli_pool.json"
GF3, GF5 = gf_polynomial_ring(3), gf_polynomial_ring(5)
LIBRARY_LIMIT_S = 10.0   # per-op limits; the slowest ops take ~1 s
CLI_LIMIT_S = 30.0


@dataclass(frozen=True)
class Outcome:
    status: str          # OK, ERROR (raised, bad exit code, timeout), WRONG
    fingerprint: str     # equal results give equal fingerprints
    cert_bits: int       # largest certificate entry returned, 0 if none
    detail: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]             # the measured call
    check: Callable[[object], Outcome]    # judges what run (or replay) gave
    argv: list[str] | None = None         # CLI ops: arguments after "-m ..."

    def replay(self):
        """In-process equivalent of ``run``; differs only for CLI ops."""
        return run_cli_inprocess(self.argv) if self.argv else self.run()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Op]]     # seed -> one pass
    op_limit_s: float        # an op past this counts as failed
    warmup: Callable[[], object]   # one fixed, cheap op of the workload's kind


# -- certificate size ----------------------------------------------------------


def element_bits(ring, payload) -> int:
    """|x| in bits over Z; (degree + 1) * ceil(log2 p) over GF(p)[x]."""
    if ring == ZZ:
        return abs(payload).bit_length()
    return len(payload) * (ring.p - 1).bit_length()


def matrix_bits(m: RingMatrix) -> int:
    return max((element_bits(m.ring, e.payload) for e in m.entries), default=0)


def smith_bits(dec) -> int:
    return max(matrix_bits(dec.U), matrix_bits(dec.V), matrix_bits(dec.v_inv))


def digest(*parts) -> str:
    """Hash of nested tuples/lists of ints, strings and flags.  Ints go in
    as hex: decimal conversion of a large certificate entry would hit
    Python's int-to-str digit limit."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (tuple, list)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        elif isinstance(x, int) and not isinstance(x, bool):
            h.update(hex(x).encode() + b",")
        else:
            h.update(repr(x).encode() + b",")

    feed(parts)
    return h.hexdigest()[:32]


def _payloads(m: RingMatrix) -> tuple:
    return (m.rows, m.cols, tuple(e.payload for e in m.entries))


def _elems(xs) -> tuple:
    return tuple(e.payload for e in xs)


# -- snf_certify ---------------------------------------------------------------

# Z up to 16x16 and GF(p)[x] up to 8x8: beyond that the Smith cost (and the
# spread of it between seeds) explodes; see README.md.
Z_SHAPES = ([(n, n) for n in range(2, 17)]
            + [(n, n + 1) if n % 2 else (n + 1, n) for n in range(2, 16)])
GF_SHAPES = ([(n, n) for n in range(2, 9)]
             + [(n, n + 1) if n % 2 else (n + 1, n) for n in range(2, 8)])
SNF_ROUNDS = 4


def _snf_op(a: RingMatrix) -> Op:
    def run():
        dec = smith(a)
        return dec, dec.verify(a)

    def check(raw) -> Outcome:
        dec, verified = raw
        fp = digest(dec.rank, _elems(dec.invariant_factors), _payloads(dec.U),
                     _payloads(dec.V), _payloads(dec.v_inv), verified)
        return Outcome(OK if verified is True else WRONG, fp, smith_bits(dec),
                       "" if verified else f"verify() failed on {a!r}")

    return Op("snf", run, check)


def build_snf_certify(seed: int) -> list[Op]:
    rng = Random(f"snf_certify:{seed}")
    ops = []
    for _ in range(SNF_ROUNDS):
        rnd = [_snf_op(random_matrix(ZZ, rng, r, c, int_bound=50))
               for r, c in Z_SHAPES]
        for ring in (GF3, GF5):
            rnd += [_snf_op(random_matrix(ring, rng, r, c, max_degree=4))
                    for r, c in GF_SHAPES]
        rng.shuffle(rnd)
        ops += rnd
    return ops


# -- mf_classify ---------------------------------------------------------------

MF_ROUNDS = 2
# Cones are ~94% of the ops, so p50 and p90 both fall inside that one dense
# class; the few hom and classify ops still take most of the time.
CONES_PER_W = 190
LABEL_COUNTS = (1, 2, 3, 4, 5)
HOM_RANKS = ((1, 2), (2, 2), (2, 3), (3, 3), (4, 4))
PRIMARY_HOMS_PER_W = 2


def _mf_potentials():
    x = GF3.parse("x")
    return [ZZ.from_int(12), ZZ.from_int(32), ZZ.from_int(360),
            x ** 3 * (x + 1) ** 2]


def _divisors(W) -> list:
    divs = [W.ring.one]
    for p, e in factorize(W).factors:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs, key=lambda d: d.sort_key())


def _residue(W, rng: Random):
    if W.ring == ZZ:
        return ZZ.from_int(rng.randrange(int(W.payload)))
    return random_element(W.ring, rng, max_degree=len(W.payload) - 2)


def _cone_op(W, v1, v2, r) -> Op:
    def run():
        f = elementary_morphism(elementary(v1, W), elementary(v2, W), r)
        c = cone(f)
        xi, zeta = cone_split(f)
        dec = smith(c.u)
        return dec, xi, zeta, is_iso(f), is_zero_object(c)

    def check(raw) -> Outcome:
        dec, xi, zeta, iso, zero = raw
        fp = digest(_payloads(dec.U), _payloads(dec.V), _payloads(dec.v_inv),
                     _elems((xi, zeta)), iso, zero)
        ok = dec.invariant_factors == (xi, zeta) and iso == zero
        return Outcome(OK if ok else WRONG, fp, smith_bits(dec),
                       "" if ok else f"cone check failed: W={W} v1={v1} "
                                     f"v2={v2} r={r}")

    return Op("cone", run, check)


def _classify_op(twin, cd, expected) -> Op:
    def run():
        sd = strong_decompose(twin)
        return sd, sd.witness_holds(twin), primary_decompose(twin, cd)

    def check(raw) -> Outcome:
        sd, witness_ok, cls = raw
        ok = witness_ok is True and cls.labels == expected
        fp = digest(_elems(sd.factors), _payloads(sd.even_transform),
                     _payloads(sd.odd_transform), witness_ok,
                     [(p.payload, i) for p, i in cls.labels])
        bits = max(matrix_bits(sd.even_transform),
                   matrix_bits(sd.odd_transform))
        return Outcome(OK if ok else WRONG, fp, bits,
                       "" if ok else f"label round trip failed for {twin!r}")

    return Op("classify", run, check)


def _hom_op(a, b, g, closed_form) -> Op:
    """closed_form: the even hom factors for a primary pair, else None."""
    def run():
        return hmf_hom(a, b)

    def check(h) -> Outcome:
        ok = all(m.free_rank == 0 and all(divides(d, g)
                                          for d in m.cyclic_factors)
                 for m in (h.even, h.odd))
        if closed_form is not None:
            ok = ok and h.even.cyclic_factors == closed_form
        fp = digest(_elems(h.even.cyclic_factors),
                     _elems(h.odd.cyclic_factors))
        return Outcome(OK if ok else WRONG, fp, 0,
                       "" if ok else f"hom check failed for {a!r}, {b!r}")

    return Op("hom", run, check)


def build_mf_classify(seed: int) -> list[Op]:
    rng = Random(f"mf_classify:{seed}")
    setups = []
    for W in _mf_potentials():
        cd = critical_decompose(W)
        labels = [(p, i) for p, n in cd.critical for i in range(1, n)]
        setups.append((W, cd, _divisors(W), labels,
                       critical_ideal_generator(cd)))
    ops = []
    for _ in range(MF_ROUNDS):
        rnd = []
        for W, cd, divs, labels, g in setups:
            for _ in range(CONES_PER_W):
                rnd.append(_cone_op(W, rng.choice(divs), rng.choice(divs),
                                    _residue(W, rng)))
            for k in LABEL_COUNTS:
                picked = [rng.choice(labels) for _ in range(k)]
                base = elementary_sum(W, [p ** i for p, i in picked])
                twin = conjugate_factorization(base, rng)
                rnd.append(_classify_op(
                    twin, cd, MfClass.from_labels(cd, picked).labels))
            for _ in range(PRIMARY_HOMS_PER_W):
                p, n = rng.choice(cd.critical)
                i, j = rng.randint(1, n - 1), rng.randint(1, n - 1)
                m = mu(n, i, j)
                rnd.append(_hom_op(elementary(p ** i, W),
                                   elementary(p ** j, W), g,
                                   (p ** m,) if m else ()))
            for r1, r2 in HOM_RANKS:
                a = elementary_sum(W, [rng.choice(divs) for _ in range(r1)])
                b = elementary_sum(W, [rng.choice(divs) for _ in range(r2)])
                rnd.append(_hom_op(a, b, g, None))
        rng.shuffle(rnd)
        ops += rnd
    return ops


# -- cli_batch -----------------------------------------------------------------

# >= 100 distinct calls (>= 10 latencies beyond p90), and a pass longer than
# the usual run, so a run is one pass.
CLI_ROUNDS = 7
# (kind in the recorded pool, calls per round); the seed picks the entries.
CLI_PICKS = (("classify", 1), ("classify_big", 1), ("iso", 1), ("iso_big", 1),
             ("cone", 2), ("hom", 2), ("quiver", 2), ("demo", 1),
             ("malformed_2", 1), ("malformed_3", 1), ("malformed_4", 1))
CLI_SNF_SHAPES = ((ZZ, 4, 4), (ZZ, 4, 5), (ZZ, 5, 4), (GF3, 3, 3), (GF5, 3, 3))
# A fixed 24x24 Z input: its U/V entries pass Python's 4300-digit
# int-to-str limit, so `snf` exits 1 on it.  Kept on purpose (README.md).
SNF_LARGE_SEED, SNF_LARGE_N = 1, 24


def cli_env() -> dict:
    """The environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli_subprocess(argv: list[str]) -> tuple[int, str]:
    """One fresh ``python -m smithfact.cli`` call.  An exception raised while
    waiting (the per-op alarm) kills and reaps the child before it
    propagates."""
    proc = subprocess.run([sys.executable, "-m", "smithfact.cli", *argv],
                          capture_output=True, env=cli_env(),
                          cwd=BENCH_DIR.parent)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    """``smithfact.cli.main(argv)`` with output captured; an uncaught
    exception maps to exit code 1, as it does for the interpreter."""
    from smithfact import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # the interpreter would print it and exit 1
            code = 1
    return code, out.getvalue()


def matrix_json(a: RingMatrix) -> str:
    return json.dumps({"ring": a.ring.name,
                       "entries": [[e.text() for e in a.row(i)]
                                   for i in range(a.rows)]})


def snf_certificate_holds(a: RingMatrix, doc) -> tuple[bool, int]:
    """Re-check an ``snf`` JSON document against its input: U*A = D*V,
    unit determinants, D = diag(invariant factors), canonical divisibility
    chain.  Returns (holds, largest certificate entry in bits)."""
    ring = a.ring
    u = jsonio.parse_matrix(doc["U"], ring)
    v = jsonio.parse_matrix(doc["V"], ring)
    d = jsonio.parse_matrix(doc["D"], ring)
    factors = [jsonio.parse_element(ring, t) for t in doc["invariant_factors"]]
    bits = max(matrix_bits(u), matrix_bits(v))
    holds = (doc["ring"] == ring.name and doc["rank"] == len(factors)
             and u.shape == (a.rows, a.rows) and v.shape == (a.cols, a.cols)
             and d == RingMatrix.diagonal(ring, factors, a.rows, a.cols)
             and u @ a == d @ v
             and u.det().is_unit and v.det().is_unit
             and all(not f.is_zero and normalize(f).canonical == f
                     for f in factors)
             and all(divides(factors[i], factors[i + 1])
                     for i in range(len(factors) - 1)))
    return holds, bits


def _cli_snf_op(a: RingMatrix, kind: str) -> Op:
    argv = ["snf", matrix_json(a)]

    def check(raw) -> Outcome:
        code, stdout = raw
        fp = digest(code, stdout)
        if code != 0:
            return Outcome(ERROR, fp, 0, f"snf {a!r} exited {code}")
        try:
            holds, bits = snf_certificate_holds(a, json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(WRONG, fp, 0, f"snf {a!r}: unreadable output {exc}")
        return Outcome(OK if holds else WRONG, fp, bits,
                       "" if holds else f"snf {a!r}: certificate fails")

    return Op(kind, lambda: run_cli_subprocess(argv), check, argv)


def _cli_golden_op(entry: dict) -> Op:
    argv = entry["argv"]

    def check(raw) -> Outcome:
        code, stdout = raw
        fp = digest(code, stdout)
        if code != entry["code"]:
            return Outcome(ERROR, fp, 0, f"{argv[0]} exited {code}, "
                                         f"expected {entry['code']}")
        same = stdout == entry["stdout"]
        return Outcome(OK if same else WRONG, fp, 0,
                       "" if same else f"{argv[0]} output differs from the "
                                       f"recorded one")

    return Op(entry["kind"], lambda: run_cli_subprocess(argv),
              check, argv)


def load_pool() -> dict[str, list[dict]]:
    by_kind: dict[str, list[dict]] = {}
    for entry in json.loads(POOL_FILE.read_text(encoding="utf-8"))["entries"]:
        by_kind.setdefault(entry["kind"], []).append(entry)
    return by_kind


def snf_large_input() -> RingMatrix:
    return random_matrix(ZZ, Random(SNF_LARGE_SEED), SNF_LARGE_N, SNF_LARGE_N,
                         int_bound=50)


def build_cli_batch(seed: int) -> list[Op]:
    rng = Random(f"cli_batch:{seed}")
    # The small snf inputs are the same for every seed: 35 of them are too
    # few for their certificate sizes to agree between seeds (the quartile
    # spread of cert_bits_gmean was 0.12).  snf_certify covers Smith inputs.
    snf_rng = Random("cli_batch:snf")
    pool = load_pool()
    large = _cli_snf_op(snf_large_input(), "snf_large")
    ops = []
    for _ in range(CLI_ROUNDS):
        rnd = [large]
        for ring, r, c in CLI_SNF_SHAPES:
            a = random_matrix(ring, snf_rng, r, c, int_bound=50, max_degree=4)
            rnd.append(_cli_snf_op(a, "snf"))
        for kind, count in CLI_PICKS:
            rnd += [_cli_golden_op(e) for e in rng.sample(pool[kind], count)]
        rng.shuffle(rnd)
        ops += rnd
    return ops


def _warm_snf():
    return _snf_op(RingMatrix.from_rows(ZZ, [[2, 4, 4], [-6, 6, 12],
                                             [10, -4, -16]])).run()


def _warm_mf():
    W = ZZ.from_int(12)
    return _cone_op(W, ZZ.from_int(2), ZZ.from_int(6), ZZ.one).run()


def _warm_cli():
    return run_cli_subprocess(["quiver", "2", "3"])


WORKLOADS = {
    "snf_certify": Workload("snf_certify", build_snf_certify,
                            LIBRARY_LIMIT_S, _warm_snf),
    "mf_classify": Workload("mf_classify", build_mf_classify,
                            LIBRARY_LIMIT_S, _warm_mf),
    "cli_batch": Workload("cli_batch", build_cli_batch, CLI_LIMIT_S,
                          _warm_cli),
}
