"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from smithfact.cli import main

ROOT = Path(__file__).resolve().parent.parent


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


def test_snf_default_format_is_json(capsys):
    blob = run_json(capsys, "snf", "--ring", "Z", "[[2,4],[6,8]]")
    assert list(blob) == ["ring", "D", "U", "V", "rank", "invariant_factors"]
    assert blob["invariant_factors"] == ["2", "4"]


SNF_TEXT_CASES = [
    ("[[2,4],[6,8]]",
     "ring: Z\nrank: 2\ninvariant factors: 2, 4\n"
     "D:\n  [2  0]\n  [0  4]\n"
     "U:\n  [1   0]\n  [3  -1]\n"
     "V:\n  [1  2]\n  [0  1]\n"),
    (json.dumps({"ring": "GF(3)[x]",
                 "entries": [["x", "x^2+1"], ["x+1", "2"]]}),
     "ring: GF(3)[x]\nrank: 2\ninvariant factors: 1, x^3+x^2+2*x+1\n"
     "D:\n  [1              0]\n  [0  x^3+x^2+2*x+1]\n"
     "U:\n  [0      2]\n  [1  x^2+1]\n"
     "V:\n  [2*x+2  1]\n  [    1  0]\n"),
    (json.dumps({"ring": "Z", "rows": 0, "cols": 2, "entries": []}),
     "ring: Z\nrank: 0\ninvariant factors: (none)\n"
     "D:\n  (0 x 2 empty)\n"
     "U:\n  (0 x 0 empty)\n"
     "V:\n  [1  0]\n  [0  1]\n"),
]


@pytest.mark.parametrize("matrix, want", SNF_TEXT_CASES,
                         ids=["Z", "GF3", "0x2"])
def test_snf_text_output_is_pinned(capsys, matrix, want):
    assert run(capsys, "snf", "--format", "text", matrix) == (0, want, "")


def test_snf_malformed_json_exit_2(capsys):
    code, out, err = run(capsys, "snf", "--ring", "Z", "[[2,4")
    assert code == 2
    assert "parse error" in err


def test_snf_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "snf", "--ring", "Z", "/nonexistent.json")
    assert code == 2
    assert err.startswith("parse error: cannot read input /nonexistent.json")


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


# json.loads raises a plain ValueError for a bare integer past the digit
# limit and RecursionError for deep nesting; both are parse errors.
BARE_HUGE = "1" + "0" * 5000
DEEP = "[" * 20000 + "]" * 20000


@pytest.mark.parametrize("argv", [
    ["snf", f"[[{BARE_HUGE}]]"],
    ["snf", "--ring", "Z", DEEP],
    ["classify", '{"W": ' + BARE_HUGE + ', "elementary": "2"}'],
], ids=["bare_integer", "deep_nesting", "classify_bare_W"])
def test_json_decoding_failure_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1


# diagnostics echo literals, paths and argument values; the CLI cuts each
# message at 200 characters, so a line stays short whatever the input
LONG = "9" * 100_000
MAX_LINE_BYTES = 300


def short_lines(err: str) -> bool:
    return all(len(line.encode()) <= MAX_LINE_BYTES
               for line in err.splitlines())


@pytest.mark.parametrize("ring, p", [
    ("GF(1)[x]", "x"),
    ("GF(3)[x]", ""),
    ("GF(3)[x]", "x++1"),
    ("Z", "9" * 5000),
    ("Z", LONG),
    ("R" * 100_000, "2"),
], ids=["gf1", "gf_empty_literal", "gf_double_sign", "z_past_digit_limit",
        "z_long_literal", "long_ring"])
def test_malformed_ring_or_literal_exit_2(capsys, ring, p):
    code, out, err = run(capsys, "quiver", "--ring", ring, p, "2")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert short_lines(err)


def test_non_ascii_digits_exit_2(capsys):
    # int() alone read this as W = 360 and d = 12
    doc = {"W": "\u0663\u0666\u0660", "ring": "Z", "elementary": "1_2"}
    code, out, err = run(capsys, "classify", json.dumps(doc))
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
    if kind == "long-name":
        # not JSON, so read as a path; the error repeats the path
        return ["snf", "n" * 100_000]
    return ["snf", "[[1]]", "--out", str(tmp_path / "missing" / "x.json")]


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "long-name",
                                  "unwritable-out"])
def test_unusable_file_argument_exit_2(capsys, tmp_path, kind):
    code, out, err = run(capsys, *_file_argv(tmp_path, kind))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert short_lines(err)


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


def _limit_memory():
    # a regression that enumerates GF(p) as a tuple raises MemoryError in
    # the child instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize("p", [10**18 + 3, 10**9 + 7])
def test_classify_gf_trial_division_past_budget_exit_4(p):
    # degree-1 trial division over GF(p) would try p candidates
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "smithfact.cli", "classify",
            '{"W": "x^2+1", "elementary": "x^2+1"}', "--ring", f"GF({p})[x]"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=30, preexec_fn=_limit_memory)
    seconds = time.perf_counter() - start
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("precondition violated:")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert seconds < 1


def test_classify_gf_trial_division_past_budget_in_process(capsys):
    doc = '{"W": "x^2+1", "ring": "GF(1000000007)[x]", "elementary": "1"}'
    code, out, err, seconds = timed_run(capsys, "classify", doc)
    assert code == 4 and out == ""
    assert err.startswith("precondition violated: trial division over")
    assert seconds < 1


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


ELEMENTARY_MORPHISM = {
    "W": "12", "ring": "Z",
    "source": {"W": "12", "ring": "Z", "elementary": "2"},
    "target": {"W": "12", "ring": "Z", "elementary": "6"},
    "f00": [[3]], "f11": [[1]],
}
GF3_ONE = {"ring": "GF(3)[x]", "entries": [["1"]]}


@pytest.mark.parametrize("command, doc", [
    ("classify", {"W": "12", "ring": "Z", "u": GF3_ONE, "v": [[12]]}),
    ("cone", {**ELEMENTARY_MORPHISM, "f00": GF3_ONE}),
    ("cone", {**ELEMENTARY_MORPHISM,
              "target": {"W": "1", "ring": "GF(3)[x]", "elementary": "1"}}),
    ("cone", {**ELEMENTARY_MORPHISM, "W": "24"}),
], ids=["nested_u", "nested_f00", "endpoints", "top_level_W"])
def test_inconsistent_document_exit_3(capsys, command, doc):
    code, out, err = run(capsys, command, json.dumps(doc))
    assert code == 3 and out == ""
    assert err.startswith("invalid input:") and err.count("\n") == 1


def test_iso_different_W_exit_3(capsys):
    a = json.dumps({"W": "12", "ring": "Z", "elementary": "2"})
    b = json.dumps({"W": "8", "ring": "Z", "elementary": "2"})
    code, out, err = run(capsys, "iso", a, b)
    assert code == 3
    assert out == ""
    assert err == "invalid input: objects factor different elements\n"


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


@pytest.mark.parametrize("n", ["10001", "99999999999999999999999"])
def test_quiver_n_past_bound_exit_4(capsys, n):
    code, out, err = run(capsys, "quiver", "2", n)
    assert code == 4 and out == ""
    assert err == "precondition violated: n exceeds the quiver bound 10000\n"


@pytest.mark.parametrize("command", [
    ["quiver", "x^1000000000000", "2"],
    ["classify", '{"W": "x^1000000000000", "elementary": "x"}'],
])
def test_gf_exponent_past_degree_bound_exit_2(capsys, command):
    code, out, err = run(capsys, *command, "--ring", "GF(3)[x]")
    assert code == 2 and out == ""
    assert "degree bound 100000" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["quiver", "2", "\u0665"],
                                  ["quiver", "2", "1_0"],
                                  ["quiver", "2", "\uff15"],
                                  ["demo", "--seed", "\u0663"]],
                         ids=["arabic-indic", "underscore", "fullwidth",
                              "demo-seed"])
def test_integer_arguments_take_ascii_digits_only(capsys, argv):
    # int() reads these as 5, 10, 5 and 3
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: smithfact ")
    assert err.endswith(f"invalid int value: {argv[-1]!r}\n")


def test_quiver_large_prime(capsys):
    code, out, err, seconds = timed_run(capsys, "quiver",
                                        "1000000000000000003", "2")
    assert code == 0, err
    assert "V2" in out
    assert seconds < 2


def test_quiver_rabin_past_budget_exit_4(capsys):
    # Rabin's test of a degree-1000 modulus takes about 1000**3 operations
    code, out, err, seconds = timed_run(capsys, "quiver", "x^1000+x+2", "2",
                                        "--ring", "GF(3)[x]")
    assert code == 4 and out == ""
    assert err.startswith("precondition violated: Rabin's test")
    assert err.count("\n") == 1
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


@pytest.mark.parametrize("argv", [
    ["demo", "--seed", HUGE],
    ["snf", "--format", LONG, "[[1]]"],
    ["snf", "[[1]]", LONG],
    [LONG],
], ids=["seed_past_digit_limit", "long_format",
        "extra_argument", "long_subcommand"])
def test_usage_errors_are_cut_to_short_lines(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: smithfact")
    assert err.endswith(" characters)\n") and short_lines(err)


# ---------------------------------------------------------------------------
# --ring: the help text says which subcommands fall back to Z

ELEMENTARY_DOC = '{"W": "12", "elementary": "2"}'
RINGLESS_ARGS = {
    "snf": (["[[2,4],[6,8]]"], True),
    "quiver": (["2", "3"], True),
    "classify": ([ELEMENTARY_DOC], False),
    "iso": ([ELEMENTARY_DOC, ELEMENTARY_DOC], False),
    "cone": (['{"W": "12", "v1": "2", "v2": "6", "r": "1"}'], False),
    "hom": ([ELEMENTARY_DOC, ELEMENTARY_DOC], False),
}


@pytest.mark.parametrize("command", sorted(RINGLESS_ARGS))
def test_ring_help_matches_fallback(capsys, command):
    args, falls_back = RINGLESS_ARGS[command]
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    ring_help = " ".join(out.split()).partition("--ring RING ")[2]
    assert ring_help.startswith("ring for inputs without a declaration")
    assert ("default Z" in ring_help) == falls_back
    assert ("no default: such an input exits 2" in ring_help) != falls_back
    code, out, err = run(capsys, command, *args)
    if falls_back:
        assert (code, err) == (0, "")
        return
    assert (code, out) == (2, "")
    assert err == "parse error: no ring given and none implied\n"
    code, _, err = run(capsys, command, "--ring", "Z", *args)
    assert code == 0, err
