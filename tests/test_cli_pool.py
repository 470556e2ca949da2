"""The recorded CLI pool (``bench/cli_pool.json``), replayed in-process.

Every call must give its recorded exit code and byte-identical stdout, so
CLI drift fails here before the benchmark's byte comparison sees it.  Each
successful subcommand call must also make the pinned number of Smith
decompositions.  The pool file is only read.
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
# two subquotients of two each; cone decomposes the cone's u and v blocks.
SMITH_CALLS = {"classify": 1, "classify_big": 1, "iso": 2, "iso_big": 2,
               "hom": 4, "cone": 2}


@pytest.fixture
def smith_calls(monkeypatch):
    """Count ``smith`` calls through every module binding of it."""
    modules = [sys.modules[f"smithfact.{name}"]
               for name in ("smith", "classify", "cli")]
    real = modules[0].smith
    calls = []

    def counting(a):
        calls.append(a.shape)
        return real(a)

    for module in modules:
        monkeypatch.setattr(module, "smith", counting)
    return calls


def test_pool_covers_every_pinned_kind():
    assert set(SMITH_CALLS) <= {entry["kind"] for entry in POOL}


@pytest.mark.parametrize("entry", POOL, ids=[
    f"{i}-{entry['kind']}" for i, entry in enumerate(POOL)])
def test_pool_entry_replays(entry, monkeypatch, smith_calls):
    monkeypatch.chdir(ROOT)  # one malformed entry names a relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(entry["argv"])
    assert code == entry["code"]
    assert out.getvalue() == entry["stdout"]
    if code == 0 and entry["kind"] in SMITH_CALLS:
        assert len(smith_calls) == SMITH_CALLS[entry["kind"]]
