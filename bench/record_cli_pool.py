"""Regenerate cli_pool.json: the fixed CLI inputs of the cli_batch workload
with the exit code and stdout each one gives.

Run from the repository root:  python3 bench/record_cli_pool.py

The recorded outputs are the byte-for-byte reference for every subcommand
except ``snf`` (whose certificate is re-checked instead, so a change that
shrinks certificates still passes).  Re-record only when an output change
is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from smithfact import jsonio  # noqa: E402
from smithfact.classify import elementary_sum  # noqa: E402
from smithfact.rings import ZZ, gf_polynomial_ring  # noqa: E402
from smithfact.sampling import conjugate_factorization  # noqa: E402

import workloads  # noqa: E402

# Trial division has to reach 1000003 to factor this W.
BIG_W = str(2 * 1000003 ** 2)
FMT = (["--format", "json"], ["--format", "text"])
EXPECTED_CODES = {"malformed_2": 2, "malformed_3": 3, "malformed_4": 4}


def _elem(W: str, d: str, ring: str = "Z") -> str:
    return json.dumps({"W": W, "ring": ring, "elementary": d})


def _conjugated(rng: Random, W, divisors) -> str:
    base = elementary_sum(W, [W.ring.parse(d) for d in divisors])
    twin = conjugate_factorization(base, rng)
    return json.dumps(jsonio.factorization_to_json(twin))


def pool_argvs() -> list[tuple[str, list[str]]]:
    rng = Random(0)
    gf3 = gf_polynomial_ring(3)
    w_gf = gf3.parse("x") ** 4 * gf3.parse("x+1") ** 2
    gf_w = w_gf.text()
    z = ZZ.from_int
    factorizations = [
        _elem("360", "12"), _elem("12", "2"), _elem("32", "4"),
        _elem(gf_w, "x^2+x", "GF(3)[x]"),
        _conjugated(rng, z(360), ["2", "12", "30"]),
        _conjugated(rng, z(36), ["6", "4"]),
        _conjugated(rng, z(32), ["2", "4", "8"]),
        _conjugated(rng, w_gf, ["x", "x^2+x", "x+1"]),
    ]
    out: list[tuple[str, list[str]]] = []
    for i, doc in enumerate(factorizations):
        out.append(("classify", ["classify", doc] + FMT[i % 2]))
    for d in ("1000003", "2", "2000006"):
        for fmt in FMT:
            out.append(("classify_big", ["classify", _elem(BIG_W, d)] + fmt))
    iso_pairs = [
        (_elem("12", "2"), _elem("12", "6")),
        (_elem("360", "12"), _elem("360", "30")),
        (factorizations[4], _elem("360", "2")),
        (_elem(gf_w, "x", "GF(3)[x]"), _elem(gf_w, "x^3", "GF(3)[x]")),
    ]
    for i, (a, b) in enumerate(iso_pairs):
        out.append(("iso", ["iso", a, b] + FMT[i % 2]))
    for a, b in (("1000003", "2000006"), ("2", "1000006000009"),
                 ("1000003", "1000003")):
        out.append(("iso_big", ["iso", _elem(BIG_W, a), _elem(BIG_W, b)]))
    cones = [("12", "2", "6", "1"), ("360", "12", "30", "5"),
             ("32", "4", "8", "3"), ("360", "8", "9", "0"),
             ("12", "3", "4", "7")]
    for i, (W, v1, v2, r) in enumerate(cones):
        doc = json.dumps({"W": W, "ring": "Z", "v1": v1, "v2": v2, "r": r})
        out.append(("cone", ["cone", doc] + FMT[i % 2]))
    doc = json.dumps({"W": gf_w, "ring": "GF(3)[x]", "v1": "x", "v2": "x^2",
                      "r": "x+2"})
    out.append(("cone", ["cone", doc, "--format", "text"]))
    homs = [(_elem("360", "12"), _elem("360", "6")),
            (_elem("32", "4"), _elem("32", "8")),
            (_elem(gf_w, "x", "GF(3)[x]"), _elem(gf_w, "x^2", "GF(3)[x]")),
            (factorizations[6], _elem("32", "2")),
            (_elem("360", "8"), _elem("360", "9"))]
    for i, (a, b) in enumerate(homs):
        out.append(("hom", ["hom", a, b] + FMT[i % 2]))
    for argv in (["2", "5"], ["2", "5", "--stable"],
                 ["3", "4", "--format", "json"],
                 ["x+1", "4", "--ring", "GF(3)[x]"],
                 ["x", "3", "--ring", "GF(5)[x]", "--stable",
                  "--format", "json"]):
        out.append(("quiver", ["quiver"] + argv))
    for seed in range(4):
        out.append(("demo", ["demo", "--seed", str(seed)]))
    out += [
        ("malformed_2", ["snf", "[[1, 2], [3"]),
        ("malformed_2", ["snf", '{"ring": "Z", "entries": [[1, 2], [3]]}']),
        ("malformed_2", ["classify", _elem("12", "2", "Q")]),
        ("malformed_2", ["snf", "bench/no-such-input.json"]),
        ("malformed_3", ["classify", json.dumps(
            {"W": "5", "ring": "Z", "u": [[2]], "v": [[2]]})]),
        ("malformed_3", ["quiver", "4", "3"]),
        ("malformed_3", ["quiver", "2", "1"]),
        ("malformed_4", ["classify", _elem("1", "1")]),
        ("malformed_4", ["cone", json.dumps(
            {"W": "12", "ring": "Z", "v1": "5", "v2": "2", "r": "1"})]),
        ("malformed_4", ["classify", _elem("7", "0")]),
    ]
    return out


def main() -> int:
    entries = []
    for kind, argv in pool_argvs():
        code, stdout = workloads.run_cli_subprocess(argv)
        want = EXPECTED_CODES.get(kind, 0)
        if code != want:
            print(f"{kind} {argv}: exit {code}, expected {want}",
                  file=sys.stderr)
            return 1
        entries.append({"kind": kind, "argv": argv, "code": code,
                        "stdout": stdout})
    workloads.POOL_FILE.write_text(
        json.dumps({"entries": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} CLI calls to {workloads.POOL_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
