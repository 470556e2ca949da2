"""Command-line interface: subcommands, exit codes, determinism."""

import json
import time

import pytest

from smithfact.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# snf


def test_snf_inline_grid(capsys):
    blob = run_json(capsys, "snf", "--ring", "Z", "--format", "json",
                    "[[2,4],[6,8]]")
    assert blob["invariant_factors"] == ["2", "4"]
    assert blob["rank"] == 2


def test_snf_identity(capsys):
    blob = run_json(capsys, "snf", "--ring", "Z", "--format", "json",
                    "[[1,0],[0,1]]")
    assert blob["invariant_factors"] == ["1", "1"]
    assert blob["D"]["entries"] == [["1", "0"], ["0", "1"]]


def test_snf_gf(capsys):
    doc = json.dumps({"ring": "GF(5)[x]",
                      "entries": [["x", "x^2"], ["0", "x"]]})
    blob = run_json(capsys, "snf", "--format", "json", doc)
    assert blob["invariant_factors"] == ["x", "x"]


def test_snf_text_format(capsys):
    code, out, err = run(capsys, "snf", "--ring", "Z", "[[2,4],[6,8]]")
    assert code == 0
    assert "2" in out and "4" in out


def test_snf_malformed_json_exit_2(capsys):
    code, out, err = run(capsys, "snf", "--ring", "Z", "[[2,4")
    assert code == 2
    assert "parse error" in err


def test_snf_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "snf", "--ring", "Z", "/nonexistent.json")
    assert code == 2


# Past Python's int-to-str digit limit int() raises a plain ValueError; the
# ring layer turns it into a parse error.
HUGE = "1" * 5000


@pytest.mark.parametrize("argv", [
    ["--ring", f"GF({HUGE})[x]", "[[1]]"],
    [json.dumps({"ring": f"GF({HUGE})[x]", "entries": [["x"]]})],
    [json.dumps({"ring": "GF(5)[x]", "entries": [[f"{HUGE}*x+1"]]})],
], ids=["ring_flag", "ring_declaration", "gf_coefficient"])
def test_snf_huge_literal_exit_2(capsys, argv):
    code, out, err = run(capsys, "snf", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_snf_output_past_digit_limit_exit_4(capsys):
    # 3000-digit entries parse, but the second invariant factor, their
    # product, has 6000 digits and cannot be printed
    a, b = 10 ** 2999 + 1, 10 ** 2999 + 3
    doc = json.dumps({"ring": "Z", "entries": [[str(a), "0"], ["0", str(b)]]})
    code, out, err = run(capsys, "snf", doc)
    assert code == 4
    assert out == ""
    assert err.startswith("precondition violated:") and err.count("\n") == 1


def test_snf_large_prime_modulus(capsys):
    code, out, err, seconds = timed_run(
        capsys, "snf", "--ring", "GF(1000000000000000003)[x]", "[[1]]")
    assert code == 0, err
    assert json.loads(out)["invariant_factors"] == ["1"]
    assert seconds < 2


@pytest.mark.parametrize("modulus", [
    "1000000000000000001",          # 101 * 9901 * 999999000001
    "3317044064679887385961981",    # psi_13: passes Miller-Rabin to 41
], ids=["composite", "psi13"])
def test_snf_modulus_not_certified_prime_exit_2(capsys, modulus):
    code, out, err = run(capsys, "snf", "--ring", f"GF({modulus})[x]",
                         "[[1]]")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_snf_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[[6]]"))
    blob = run_json(capsys, "snf", "--ring", "Z", "--format", "json", "-")
    assert blob["invariant_factors"] == ["6"]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run(capsys, "snf", "--ring", "Z", "--format", "json",
                         "--out", str(target), "[[2]]")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["invariant_factors"] == ["2"]


def _file_argv(tmp_path, kind):
    if kind == "directory":
        return ["snf", str(tmp_path)]
    if kind == "non-utf8":
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe[[1]]")
        return ["snf", str(bad)]
    return ["snf", "[[1]]", "--out", str(tmp_path / "missing" / "x.json")]


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "unwritable-out"])
def test_unusable_file_argument_exit_2(capsys, tmp_path, kind):
    code, out, err = run(capsys, *_file_argv(tmp_path, kind))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# classify


def test_classify_elementary(capsys):
    doc = json.dumps({"W": "360", "ring": "Z", "elementary": "12"})
    blob = run_json(capsys, "classify", "--format", "json", doc)
    assert blob["labels"] == [["2", 2], ["3", 1]]
    assert blob["strong_factors"] == ["12"]
    assert blob["is_zero_object"] is False


def test_classify_zero_class(capsys):
    doc = json.dumps({"W": "12", "ring": "Z", "elementary": "1"})
    blob = run_json(capsys, "classify", "--format", "json", doc)
    assert blob["labels"] == []
    assert blob["is_zero_object"] is True


def test_classify_invalid_factorization_exit_3(capsys):
    doc = json.dumps({"W": "5", "ring": "Z", "u": [[2]], "v": [[2]]})
    code, out, err = run(capsys, "classify", doc)
    assert code == 3
    assert "invalid input" in err


def test_classify_precondition_exit_4(capsys):
    # unit W has no classification data
    doc = json.dumps({"W": "1", "ring": "Z", "elementary": "1"})
    code, out, err = run(capsys, "classify", doc)
    assert code == 4
    assert "precondition" in err


def timed_run(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    return code, out, err, time.perf_counter() - start


def test_classify_large_critical_prime(capsys):
    # W = 2 * p^2 with p = 10^12 + 39: trial division needs ~5*10^11 steps
    p = 10**12 + 39
    doc = json.dumps({"W": str(2 * p * p), "ring": "Z",
                      "elementary": str(p)})
    code, out, err, seconds = timed_run(capsys, "classify", "--format",
                                        "json", doc)
    assert code == 0, err
    assert json.loads(out)["labels"] == [[str(p), 1]]
    assert seconds < 2


def test_classify_uncertifiable_cofactor_exit_4(capsys):
    # 2^89 - 1 is prime but past the range where Miller-Rabin is exact
    doc = json.dumps({"W": str(2 * (2**89 - 1)), "ring": "Z",
                      "elementary": "2"})
    code, out, err = run(capsys, "classify", doc)
    assert code == 4
    assert out == ""
    assert err.startswith("precondition violated:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# iso


def test_iso_pair(capsys):
    a = json.dumps({"W": "12", "ring": "Z", "elementary": "2"})
    b = json.dumps({"W": "12", "ring": "Z", "elementary": "6"})
    blob = run_json(capsys, "iso", a, b)
    assert blob == {"zmf": False, "hmf": True}


def test_iso_same_object(capsys):
    a = json.dumps({"W": "12", "ring": "Z", "elementary": "2"})
    blob = run_json(capsys, "iso", a, a)
    assert blob == {"zmf": True, "hmf": True}


# ---------------------------------------------------------------------------
# cone


def test_cone_elementary(capsys):
    doc = json.dumps({"W": "12", "v1": "2", "v2": "6", "r": "1"})
    blob = run_json(capsys, "cone", "--ring", "Z", "--format", "json", doc)
    assert blob["xi"] == "1" and blob["zeta"] == "4"
    assert blob["u_factors"] == ["1", "4"]
    assert blob["morphism_is_iso"] is True
    assert blob["cone"]["W"] == "12"


def test_cone_zero_morphism(capsys):
    doc = json.dumps({"W": "9", "v1": "3", "v2": "3", "r": "0"})
    blob = run_json(capsys, "cone", "--ring", "Z", "--format", "json", doc)
    assert blob["xi"] == "3" and blob["zeta"] == "3"
    assert blob["morphism_is_iso"] is False


# ---------------------------------------------------------------------------
# hom


def test_hom_even_odd(capsys):
    a = json.dumps({"W": "12", "ring": "Z", "elementary": "2"})
    blob = run_json(capsys, "hom", a, a)
    assert blob["even"]["cyclic_factors"] == ["2"]
    assert blob["odd"]["cyclic_factors"] == ["2"]


def test_hom_orthogonal(capsys):
    a = json.dumps({"W": "36", "ring": "Z", "elementary": "2"})
    b = json.dumps({"W": "36", "ring": "Z", "elementary": "3"})
    blob = run_json(capsys, "hom", a, b)
    assert blob["even"]["cyclic_factors"] == []
    assert blob["even"]["free_rank"] == 0


# ---------------------------------------------------------------------------
# quiver


def test_quiver_dot_default(capsys):
    code, out, err = run(capsys, "quiver", "2", "5")
    assert code == 0
    assert out.startswith("digraph ar_quiver_module {")
    assert out.count("->") == 8 + 4  # arrows + tau loops
    assert 'V5 [label="V_5", style=filled, fillcolor=lightblue];' in out


def test_quiver_stable_dot(capsys):
    code, out, err = run(capsys, "quiver", "2", "5", "--stable")
    assert code == 0
    assert out.startswith("digraph ar_quiver_stable {")
    assert out.count("->") == 6 + 4


def test_quiver_json(capsys):
    blob = run_json(capsys, "quiver", "2", "5", "--format", "json")
    assert blob["vertices"] == [1, 2, 3, 4, 5]
    assert len(blob["arrows"]) == 8
    assert blob["projectives"] == [5]
    assert ["5", None] in blob["translation"] or [5, None] in blob["translation"]


def test_quiver_gf_prime(capsys):
    code, out, err = run(capsys, "quiver", "--ring", "GF(3)[x]", "x", "3")
    assert code == 0
    assert "V3" in out


def test_quiver_nonprime_exit(capsys):
    code, out, err = run(capsys, "quiver", "4", "3")
    assert code == 3


def test_quiver_bad_n_exit(capsys):
    code, out, err = run(capsys, "quiver", "2", "1")
    assert code == 3


def test_quiver_large_prime(capsys):
    code, out, err, seconds = timed_run(capsys, "quiver",
                                        "1000000000000000003", "2")
    assert code == 0, err
    assert "V2" in out
    assert seconds < 2


# ---------------------------------------------------------------------------
# demo


def test_demo_runs_and_mentions_core_results(capsys):
    code, out, err = run(capsys, "demo")
    assert code == 0
    assert "self-test" in out.lower() or "round" in out.lower()
    assert "mu" in out or "stable hom" in out


def test_demo_deterministic_for_seed(capsys):
    code1, out1, _ = run(capsys, "demo", "--seed", "3")
    code2, out2, _ = run(capsys, "demo", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_demo_seed_changes_sampling(capsys):
    _, out1, _ = run(capsys, "demo", "--seed", "1")
    _, out2, _ = run(capsys, "demo", "--seed", "2")
    assert out1 != out2


# ---------------------------------------------------------------------------
# byte determinism


def test_repeated_runs_byte_identical(capsys):
    doc = json.dumps({"W": "360", "ring": "Z", "elementary": "12"})
    outs = set()
    for _ in range(3):
        code, out, err = run(capsys, "classify", "--format", "json", doc)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_unknown_subcommand_exit_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
