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

from smithfact import cli

ROOT = Path(__file__).resolve().parent.parent
POOL = json.loads((ROOT / "bench" / "cli_pool.json")
                  .read_text(encoding="utf-8"))["entries"]

# Smith decompositions per successful call, by pool kind: classify reads the
# strong factors and the class from one; iso needs one per object; hom runs
# one subquotient of two and reads the odd module off its Smith forms; cone
# reads the u-block factors and the zero test from one decomposition of the
# cone's u block; demo makes 30, two of them in each of its two hom calls.
SMITH_CALLS = {"classify": 1, "classify_big": 1, "iso": 2, "iso_big": 2,
               "hom": 2, "cone": 1, "demo": 30}
# Factorizations per successful call: classify and iso factor W once; demo
# once per W section (12, 360 and the self-test's 360); cone, hom and
# quiver never (over GF(p)[x] the primality test of p is Rabin's test).
FACTORIZE_CALLS = {"classify": 1, "classify_big": 1, "iso": 1, "iso_big": 1,
                   "demo": 3, "cone": 0, "hom": 0, "quiver": 0}


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
    assert set(SMITH_CALLS) <= kinds and set(FACTORIZE_CALLS) <= kinds


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
    if code == 0 and entry["kind"] in SMITH_CALLS:
        assert len(smith_calls) == SMITH_CALLS[entry["kind"]]
    if code == 0 and entry["kind"] in FACTORIZE_CALLS:
        assert len(factorize_calls) == FACTORIZE_CALLS[entry["kind"]]
