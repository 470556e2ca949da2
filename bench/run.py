"""Seeded benchmark for smithfact: certified Smith forms (snf_certify),
factorization classification (mf_classify) and the batch CLI (cli_batch).

    python3 bench/run.py --workload snf_certify --seed 1 --seconds 30 --trace 0

Each workload runs in a closed loop: one caller, one process, no threads;
the next operation starts when the previous one has returned and been
checked.  With ``--trace 0`` no wrapper is installed: the seeded pass of ops
is repeated for about ``--seconds``, each op's latency is its fastest
repeat, and the end-to-end metrics are printed.  With ``--trace 1`` the pass
runs once untraced, then again under the span/counter wrappers of
tracing.py, and the per-layer metrics are printed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

``correct`` is false when any operation returned a wrong answer or a
certificate that does not verify, or (traced run) when a traced result
differs from the untraced one or a layer's call count contradicts README.md.
Raised errors, unexpected exit codes and timeouts count in ``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5       # setup_s is the median of this many fresh set-ups
INTERP_REPEATS = 5      # samples behind cli.interp_s and cli.import_s
RULER_EVERY_S = 0.25    # re-measure the machine's speed this often
RULER_REF_S = 0.0006    # times are reported for a ruler() of this length


class OpTimeout(BaseException):
    """Raised by the per-op alarm; BaseException so no library handler
    swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


class _Cell:
    __slots__ = ("v", "w")

    def __init__(self, v, w):
        self.v = v
        self.w = w

    def mix(self, other):
        return _Cell(self.v * other.w + other.v, (self.w + 1) % 97)


def ruler() -> float:
    """Seconds for a fixed pure-Python computation that uses nothing from
    smithfact (best of three): small objects, attribute access, ints,
    tuples and a dict, like the library's inner loops.  It tracks how fast
    the shared machine runs Python right now, not how fast the program is."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cells = [_Cell(i % 89, i % 7) for i in range(120)]
        table = {}
        for rep in range(4):
            acc = _Cell(1, 1)
            for c in cells:
                acc = acc.mix(c)
                table[(c.w, rep)] = acc.v % 1009
            cells = [_Cell(table.get((c.w, rep), 0), c.v % 13) for c in cells]
        best = min(best, time.perf_counter() - start)
    return best


def run_one(call, limit_s: float):
    """(seconds, raw result or None, error name or None) for one op."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            raw = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return time.perf_counter() - start, None, "timeout"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, type(exc).__name__
    return time.perf_counter() - start, raw, None


class Tally:
    """Outcomes and latencies of the ops run so far, per position in the
    pass."""

    def __init__(self, n_ops: int):
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.cert_bits = [0] * n_ops
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def add(self, i: int, op, seconds: float, raw, error, scale=1.0):
        """Record one run of op ``i``; its latency counts as
        ``seconds * scale``."""
        from workloads import ERROR, OK, WRONG, Outcome, digest

        if error is not None:
            outcome = Outcome(ERROR, digest("error", error), 0,
                              f"{op.kind}: {error}")
        else:
            try:
                outcome = op.check(raw)
            except Exception as exc:  # a result the check cannot read
                outcome = Outcome(WRONG, digest("unreadable"), 0,
                                  f"{op.kind}: check raised {exc!r}")
        self.latencies[i].append(seconds * scale)
        self.cert_bits[i] = max(self.cert_bits[i], outcome.cert_bits)
        self.attempted += 1
        if outcome.status != OK:
            self.failed += 1
            self.wrong += outcome.status == WRONG
            self.note(outcome.detail)
        return outcome

    def note(self, text: str):
        if len(self.notes) < 20 and text not in self.notes:
            self.notes.append(text)

    def best(self) -> list[float]:
        """Each op's fastest repeat: a slow repeat measures interference
        from other work on the machine, not the op."""
        return [min(lat) for lat in self.latencies]

    def wall(self) -> float:
        return sum(sum(lat) for lat in self.latencies)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def prepare(workload, seed: int):
    """Seeded inputs plus warm-up: everything before the timed loop."""
    ops = workload.build(seed)
    run_one(workload.warmup, workload.op_limit_s)
    return ops


def timed_loop(workload, ops, seconds: float) -> Tally:
    """As many whole passes as fit ``seconds`` best, judged by the first.

    The ruler is taken before the first op and then whenever RULER_EVERY_S
    has gone by; each latency is scaled by RULER_REF_S over the mean of the
    rulers just before and just after it.  A stretch in which the shared
    machine runs slow (by up to 1.5x, for tens of seconds) then does not
    read as a slower program.
    """
    tally = Tally(len(ops))
    pending: list[tuple] = []   # ops run since the last ruler
    before = ruler()
    last = time.perf_counter()

    def settle():
        nonlocal before, last
        after = ruler()
        scale = RULER_REF_S / ((before + after) / 2)
        for i, op, outcome in pending:
            tally.add(i, op, *outcome, scale)
        pending.clear()
        before, last = after, time.perf_counter()

    passes, done = 1, 0
    start = time.perf_counter()
    while done < passes:
        for i, op in enumerate(ops):
            pending.append((i, op, run_one(op.run, workload.op_limit_s)))
            if time.perf_counter() - last > RULER_EVERY_S:
                settle()
        done += 1
        if done == 1:
            passes = max(1, round(seconds / (time.perf_counter() - start)))
    settle()
    return tally


def median_child_seconds(argv: list[str], repeats: int,
                         scaled: bool = False) -> float:
    """Median wall time of fresh child processes; with ``scaled``, each is
    scaled by the ruler taken just before it, as in timed_loop."""
    from workloads import cli_env

    times = []
    for _ in range(repeats):
        scale = RULER_REF_S / ruler() if scaled else 1.0
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, env=cli_env(),
                       stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * scale)
    return statistics.median(times)


def end_to_end(args, workload) -> dict:
    ops = prepare(workload, args.seed)
    tally = timed_loop(workload, ops, args.seconds)
    rss = peak_rss_mb(children=workload.name == "cli_batch")
    setup_s = median_child_seconds(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         workload.name, "--seed", str(args.seed), "--setup-only"],
        SETUP_REPEATS, scaled=True)
    best = tally.best()
    certs = [math.log(b) for b in tally.cert_bits if b]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": (p90(best) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted,
                          "1"),
        "cert_bits_gmean": (math.exp(statistics.fmean(certs)), "bits"),
    }
    return result(tally, metrics)


def traced(args, workload) -> dict:
    import tracing
    import workloads
    from layers import check_expectations, layer_calls, layer_metrics

    ops = prepare(workload, args.seed)
    limit = workload.op_limit_s
    base = Tally(len(ops))
    base_fps = [base.add(i, op, *run_one(op.run, limit)).fingerprint
                for i, op in enumerate(ops)]
    if workload.name == "cli_batch":
        # The measured calls are subprocesses; spans need the same calls
        # in-process through smithfact.cli.main, untraced and traced.
        plain = Tally(len(ops))
        plain_fps = [plain.add(i, op, *run_one(op.replay, limit)).fingerprint
                     for i, op in enumerate(ops)]
    else:
        plain, plain_fps = base, base_fps
    tracer = tracing.Tracer()
    bits = [0]

    def note_smith(dec):
        bits[0] = max(bits[0], workloads.smith_bits(dec))

    inst = tracing.install(tracer, extra_modules=[workloads],
                           posts={"smith.smith": note_smith})
    raws = []
    try:
        for op in ops:
            raws.append(run_one(op.replay, limit))
    finally:
        inst.remove()
    traced_tally = Tally(len(ops))
    mismatches = 0
    for i, (op, raw, want, plain_fp) in enumerate(zip(ops, raws, base_fps,
                                                      plain_fps)):
        got = traced_tally.add(i, op, *raw).fingerprint
        if got != want or plain_fp != want:
            mismatches += 1
            traced_tally.note(f"{op.kind}: traced result differs from the "
                              f"untraced one")
    interp_s = median_child_seconds([sys.executable, "-c", "pass"],
                                    INTERP_REPEATS)
    import_s = median_child_seconds(
        [sys.executable, "-c", "import smithfact.cli"], INTERP_REPEATS)
    metrics = layer_metrics(tracer,
                            exit_nonzero=sum(1 for op, r in zip(ops, raws)
                                             if op.argv and r[1] is not None
                                             and r[1][0] != 0),
                            entry_bits_max=bits[0],
                            interp_s=interp_s, import_s=import_s - interp_s,
                            overhead=traced_tally.wall() / plain.wall())
    violations = check_expectations(layer_calls(tracer), workload.name)
    for v in violations:
        traced_tally.note(v)
    tracing.write_spans(BENCH_DIR / "out" / f"spans-{workload.name}-"
                        f"{args.seed}.json", tracer.spans)
    traced_tally.wrong += mismatches + len(violations) + base.wrong
    return result(traced_tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    for note in tally.notes:
        print(f"bench: {note}", file=sys.stderr)
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("snf_certify", "mf_classify", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and warm up, then exit "
                             "(one sample of setup_s)")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "smithfact" / "__init__.py").is_file():
        print(f"bench: no smithfact sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _on_alarm)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        prepare(workload, args.seed)
        return 0
    out = traced(args, workload) if args.trace else end_to_end(args, workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
