"""JSON schemas: round trips, shorthand forms, error paths."""

import json

import pytest

from smithfact import (
    LambdaContext,
    ParseError,
    RingMatrix,
    decompose_module,
    elementary,
    elementary_morphism,
    identity_morphism,
    primary_decompose,
    smith,
    strong_decompose,
)
from smithfact.jsonio import (
    class_to_json,
    decomposition_to_json,
    dumps,
    factorization_to_json,
    matrix_to_json,
    module_to_json,
    morphism_to_json,
    parse_class,
    parse_decomposition,
    parse_factorization,
    parse_matrix,
    parse_morphism,
    parse_ring,
    smith_to_json,
    strong_to_json,
)
from conftest import GF3, Z, z


def zmat(rows):
    return RingMatrix.from_rows(Z, rows)


def e(v, W):
    return elementary(z(v), z(W))


# ---------------------------------------------------------------------------
# rings and elements


def test_parse_ring_precedence():
    assert parse_ring("GF(3)[x]", fallback=Z) is GF3
    assert parse_ring(None, fallback=Z) is Z
    with pytest.raises(ParseError):
        parse_ring(None, fallback=None)
    with pytest.raises(ParseError):
        parse_ring(7, fallback=Z)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_roundtrip():
    a = zmat([[1, -2], [0, 5]])
    blob = matrix_to_json(a)
    assert blob == {
        "ring": "Z",
        "rows": 2,
        "cols": 2,
        "entries": [["1", "-2"], ["0", "5"]],
    }
    assert parse_matrix(blob) == a


def test_matrix_bare_grid():
    a = parse_matrix([[1, 2], [3, 4]], ring=Z)
    assert a == zmat([[1, 2], [3, 4]])
    with pytest.raises(ParseError):
        parse_matrix([[1, 2]])  # no ring anywhere


def test_matrix_gf_roundtrip():
    x = GF3.parse("x")
    a = RingMatrix.from_rows(GF3, [[x, x * x + GF3.one]])
    blob = matrix_to_json(a)
    assert blob["entries"] == [["x", "x^2+1"]]
    assert parse_matrix(blob) == a


def test_matrix_validation():
    with pytest.raises(ParseError):
        parse_matrix({"ring": "Z", "entries": [[1], [2, 3]]})
    with pytest.raises(ParseError):
        parse_matrix({"ring": "Z", "rows": 3, "entries": [[1]]})
    with pytest.raises(ParseError):
        parse_matrix({"ring": "Z", "entries": [[True]]})
    with pytest.raises(ParseError):
        parse_matrix({"ring": "Z"})


def test_matrix_ring_key_wins_over_flag_default():
    blob = {"ring": "GF(3)[x]", "rows": 1, "cols": 1, "entries": [["x"]]}
    a = parse_matrix(blob, ring=Z)
    assert a.ring is GF3


def test_documents_share_the_ring_instance():
    a = parse_matrix({"ring": "GF(7)[x]", "entries": [["x + 1", "3"]]})
    b = parse_matrix({"ring": " GF(7)[x]", "entries": [["1 + x", "10"]]})
    assert a.ring is b.ring
    assert a == b
    assert a @ b.transpose() == b @ a.transpose()


# ---------------------------------------------------------------------------
# factorizations


def test_factorization_roundtrip():
    a = e(2, 12)
    blob = factorization_to_json(a)
    assert blob["W"] == "12" and blob["ring"] == "Z"
    assert parse_factorization(blob) == a


def test_factorization_elementary_shorthand():
    a = parse_factorization({"W": "12", "ring": "Z", "elementary": "2"})
    assert a == e(2, 12)
    a = parse_factorization({"W": 12, "elementary": 2}, ring=Z)
    assert a == e(2, 12)


def test_factorization_bad_product():
    from smithfact import ValidationError

    blob = {
        "W": "5",
        "ring": "Z",
        "u": [[2]],
        "v": [[2]],
    }
    with pytest.raises(ValidationError):
        parse_factorization(blob)


# ---------------------------------------------------------------------------
# morphisms


def test_morphism_roundtrip():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    blob = morphism_to_json(f)
    g = parse_morphism(blob)
    assert g == f


def test_morphism_elementary_shorthand():
    f = parse_morphism({"W": "12", "v1": "2", "v2": "6", "r": "1"}, ring=Z)
    assert f == elementary_morphism(e(2, 12), e(6, 12), z(1))


def test_morphism_shorthand_needs_ring():
    with pytest.raises(ParseError):
        parse_morphism({"W": "12", "v1": "2", "v2": "6", "r": "1"})


def test_morphism_nested_ring_declaration():
    f = identity_morphism(e(4, 12))
    blob = morphism_to_json(f)
    # outer ring key removed: the nested source/target still declare it
    blob.pop("ring")
    assert parse_morphism(blob) == f


def test_morphism_w_consistency():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    blob = morphism_to_json(f)
    blob["W"] = "24"
    with pytest.raises(ParseError):
        parse_morphism(blob)


def test_morphism_noncocycle_rejected():
    from smithfact import ValidationError

    blob = {
        "W": "12",
        "ring": "Z",
        "source": factorization_to_json(e(2, 12)),
        "target": factorization_to_json(e(3, 12)),
        "f00": [[1]],
        "f11": [[1]],
    }
    with pytest.raises(ValidationError):
        parse_morphism(blob)


# ---------------------------------------------------------------------------
# results


def test_smith_to_json():
    a = zmat([[2, 4], [6, 8]])
    blob = smith_to_json(smith(a))
    assert blob["ring"] == "Z"
    assert blob["rank"] == 2
    assert blob["invariant_factors"] == ["2", "4"]
    assert parse_matrix(blob["U"]) @ a == parse_matrix(blob["D"]) @ parse_matrix(blob["V"])


def test_module_to_json():
    h = smith(zmat([[2, 0], [0, 3]]))
    from smithfact import image_cokernel_invariants

    m = image_cokernel_invariants(zmat([[2, 0], [0, 3]]))
    blob = module_to_json(m)
    assert blob["cyclic_factors"] == ["6"]
    assert blob["free_rank"] == 0
    assert isinstance(blob["pretty"], str)


def test_class_roundtrip():
    c = primary_decompose(e(12, 360))
    blob = class_to_json(c)
    assert blob == {"W": "360", "ring": "Z", "labels": [["2", 2], ["3", 1]]}
    back = parse_class(blob)
    assert back.labels == c.labels


def test_strong_to_json():
    sd = strong_decompose(e(2, 12))
    blob = strong_to_json(sd)
    assert blob["factors"] == ["2"]
    assert blob["witness_available"] is True


def test_decomposition_roundtrip():
    ctx = LambdaContext(z(2), 3)
    dec = decompose_module(ctx, [z(4), z(2), z(4)])
    blob = decomposition_to_json(dec)
    assert blob == {"p": "2", "ring": "Z", "n": 3, "mult": {"1": 1, "2": 2}}
    back = parse_decomposition(blob)
    assert back.mult == dec.mult


def test_decomposition_index_keys_are_canonical():
    # "01" next to "1" would name V_1 twice and the later count would
    # replace the earlier one, so only str(i) is read as index i
    for key in ("01", "+1", " 1", "1 ", "1_0", "\u0661"):
        doc = {"ring": "Z", "p": "2", "n": 12, "mult": {"1": 2, key: 3}}
        with pytest.raises(ParseError, match="bad index key"):
            parse_decomposition(doc)
    dec = parse_decomposition({"ring": "Z", "p": "2", "n": 12,
                               "mult": {"1": 2, "10": 3}})
    assert dec.counts() == {1: 2, 10: 3}
    assert decomposition_to_json(dec)["mult"] == {"1": 2, "10": 3}
    assert parse_decomposition(decomposition_to_json(dec)) == dec


@pytest.mark.parametrize("parse, doc", [
    (parse_matrix, {"ring": "Z", "rows": True, "entries": [[1]]}),
    (parse_matrix, {"ring": "Z", "cols": True, "entries": [[1]]}),
    (parse_matrix, {"ring": "Z", "rows": False, "cols": False,
                    "entries": []}),
    (parse_class, {"ring": "Z", "W": "360", "labels": [["2", True]]}),
    (parse_decomposition, {"ring": "Z", "p": "2", "n": True}),
    (parse_decomposition, {"ring": "Z", "p": "2", "n": 3,
                           "mult": {"1": True}}),
], ids=["rows", "cols", "empty", "label", "n", "mult"])
def test_booleans_are_not_counts(parse, doc):
    with pytest.raises(ParseError, match="integer"):
        parse(doc)


def test_dumps_stable_and_newline_terminated():
    blob = {"b": 1, "a": 2}
    text = dumps(blob)
    assert text.endswith("\n")
    assert json.loads(text) == blob
    # key order preserved as inserted, for byte stability
    assert text.index('"b"') < text.index('"a"')
