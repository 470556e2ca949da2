"""The package's records are NamedTuples: field-wise equality and hash,
``_replace``, pickling and copying, the checks of ``LambdaContext``, and an
import of the CLI that loads neither ``dataclasses`` nor ``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from smithfact import (RingMatrix, Triangle, ValidationError, ar_quiver,
                       ar_sequence, cone_triangle, critical_decompose,
                       decompose_module, elementary, factorize, gcd_bezout,
                       identity_morphism, image_cokernel_invariants,
                       normalize, primary_decompose, smith,
                       strong_decompose)
from smithfact.artinian import LambdaContext
from smithfact.smith import determinantal_invariants
from conftest import GF3, Z, z
from hom_reference import hom_subquotients

ROOT = Path(__file__).resolve().parent.parent


def _records():
    """One instance of each record, built through the public functions."""
    a = RingMatrix.from_rows(Z, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    obj = elementary(z(2), z(12))
    ctx = LambdaContext(z(3), 3)
    return [
        normalize(z(-6)),
        gcd_bezout(z(4), z(6)),
        factorize(z(-360)),
        smith(a),
        determinantal_invariants(a),
        image_cokernel_invariants(a),
        hom_subquotients(obj, obj)[0],
        cone_triangle(identity_morphism(obj)),
        critical_decompose(z(12)),
        strong_decompose(obj),
        primary_decompose(obj),
        ctx,
        decompose_module(ctx, [z(3), z(9), z(9)]),
        ar_sequence(ctx, 1),
        ar_quiver(ctx),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]


def test_every_record_is_a_distinct_named_tuple():
    assert len(set(IDS)) == 15
    for r in RECORDS:
        assert isinstance(r, tuple) and r._fields


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_equality_and_hash_are_field_wise(rec):
    twin = type(rec)(*rec)
    assert twin == rec and twin is not rec
    assert twin == tuple(rec)
    assert repr(twin) == repr(rec)
    assert repr(rec).startswith(f"{type(rec).__name__}({rec._fields[0]}=")
    if type(rec) is Triangle:
        # an MfMorphism field is unhashable, so the record is too
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_replace_changes_one_field(rec):
    assert rec._replace() == rec
    last = rec._fields[-1]
    other = next(r for r in RECORDS if r is not rec)
    if type(rec) is LambdaContext:
        changed = rec._replace(n=4)
    else:
        changed = rec._replace(**{last: other})
    assert type(changed) is type(rec)
    assert changed[:-1] == rec[:-1]
    assert changed != rec


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_survives_pickle_and_deepcopy(rec):
    for back in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec),
                 copy.copy(rec)):
        assert type(back) is type(rec)
        assert back == rec


@pytest.mark.parametrize("p, n, message", [
    (3, 1, "n must be an integer >= 2"),
    (3, 2.0, "n must be an integer >= 2"),
    (6, 2, "6 is not prime"),
    (0, 2, "0 is not prime"),
])
def test_lambda_context_still_validates(p, n, message):
    with pytest.raises(ValidationError, match=message):
        LambdaContext(z(p), n)


def test_lambda_context_pins_p_on_every_construction_path():
    ctx = LambdaContext(z(-3), 2)
    assert ctx.p == z(3) and ctx == (z(3), 2)
    assert LambdaContext(p=z(-3), n=2) == ctx
    assert ctx._replace(p=z(-5)).p == z(5)
    with pytest.raises(ValidationError, match="n must be an integer >= 2"):
        ctx._replace(n=1)
    gf = LambdaContext(GF3.parse("2x+1"), 2)
    assert gf.p == GF3.parse("x+2")
    with pytest.raises(ValidationError, match="is not prime"):
        LambdaContext(GF3.parse("x^2+2x+1"), 2)


def test_unpickling_a_lambda_context_goes_through_new(monkeypatch):
    blob = pickle.dumps(LambdaContext(z(3), 2))
    seen = []
    real = LambdaContext.__new__

    def spy(cls, p, n):
        seen.append((p, n))
        return real(cls, p, n)

    monkeypatch.setattr(LambdaContext, "__new__", spy)
    assert pickle.loads(blob) == (z(3), 2)
    assert copy.deepcopy(LambdaContext(z(3), 2)) == (z(3), 2)
    assert len(seen) == 3


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so modules this test session loaded do not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import smithfact.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "smithfact.cli" in added and "smithfact.artinian" in added
    assert not added & {"dataclasses", "inspect"}
