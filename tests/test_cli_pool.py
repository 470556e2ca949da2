"""The recorded CLI pool (``bench/cli_pool.json``), replayed in-process.

Every call must give its recorded exit code and byte-identical stdout, so
CLI drift fails here before the benchmark's byte comparison sees it.  Each
successful subcommand call must also make the pinned number of Smith
decompositions and of factorizations.  The pool file is only read.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from smithfact import cli, jsonio

ROOT = Path(__file__).resolve().parent.parent
POOL = json.loads((ROOT / "bench" / "cli_pool.json")
                  .read_text(encoding="utf-8"))["entries"]

# Smith decompositions per successful call.  classify and iso read each
# object's strong factors once, and only an object of rank 3 or more needs a
# Smith call for them (below that they are quotients of determinantal
# divisors); cone reads the u-block factors and the zero test from the
# strong factors of the suspended cone, of rank rho_source + rho_target.
# hom runs one subquotient of two and reads the odd module off its Smith
# forms.  demo makes 16 (2 in the Smith section, 2 in each of its two hom
# calls, 10 in the self-test's certificates) plus one per self-test object
# of rank 3 or more, which the seed decides.
SMITH_KINDS = {"classify", "classify_big", "iso", "iso_big", "hom", "cone",
               "demo"}
HOM_SMITH_CALLS = 2
DEMO_SMITH_CALLS = {0: 18, 1: 19, 2: 20, 3: 21}
# Factorizations per successful call: classify and iso factor W once; demo
# once per W section (12, 360 and the self-test's 360); cone, hom and
# quiver never (over GF(p)[x] the primality test of p is Rabin's test).
FACTORIZE_CALLS = {"classify": 1, "classify_big": 1, "iso": 1, "iso_big": 1,
                   "demo": 3, "cone": 0, "hom": 0, "quiver": 0}


def _smith_calls(argv) -> int:
    """The pinned Smith count of one successful call, from its inputs."""
    args = cli._build_parser().parse_args(argv)
    if args.command == "hom":
        return HOM_SMITH_CALLS
    if args.command == "demo":
        return DEMO_SMITH_CALLS[args.seed]
    ring = cli._default_ring(args)
    if args.command == "cone":
        f = jsonio.parse_morphism(cli._load_json(args.morphism), ring)
        ranks = [f.source.rho + f.target.rho]
    else:
        inputs = ([args.factorization] if args.command == "classify"
                  else [args.a, args.b])
        ranks = [jsonio.parse_factorization(cli._load_json(x), ring).rho
                 for x in inputs]
    return sum(rho >= 3 for rho in ranks)


def _counter(monkeypatch, name, modules):
    """Count calls of ``name`` through every listed module binding of it."""
    modules = [sys.modules[f"smithfact.{m}"] for m in modules]
    real = getattr(modules[0], name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def smith_calls(monkeypatch):
    return _counter(monkeypatch, "smith", ("smith", "classify", "cli"))


@pytest.fixture
def factorize_calls(monkeypatch):
    return _counter(monkeypatch, "factorize", ("rings", "classify"))


def test_pool_covers_every_pinned_kind():
    kinds = {entry["kind"] for entry in POOL}
    assert SMITH_KINDS <= kinds and set(FACTORIZE_CALLS) <= kinds


def test_pool_pins_smith_calls_at_both_ranks():
    # the rank rule is exercised on both sides: some classify and iso
    # inputs need a Smith call and some do not
    kinds = ("classify", "iso")
    seen = {(entry["kind"], _smith_calls(entry["argv"]) > 0)
            for entry in POOL if entry["code"] == 0 and entry["kind"] in kinds}
    assert seen == {(kind, needs) for kind in kinds for needs in (True, False)}


@pytest.mark.parametrize("entry", POOL, ids=[
    f"{i}-{entry['kind']}" for i, entry in enumerate(POOL)])
def test_pool_entry_replays(entry, monkeypatch, smith_calls,
                            factorize_calls):
    monkeypatch.chdir(ROOT)  # one malformed entry names a relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(entry["argv"])
    assert code == entry["code"]
    assert out.getvalue() == entry["stdout"]
    if code == 0 and entry["kind"] in SMITH_KINDS:
        assert len(smith_calls) == _smith_calls(entry["argv"])
    if code == 0 and entry["kind"] in FACTORIZE_CALLS:
        assert len(factorize_calls) == FACTORIZE_CALLS[entry["kind"]]
