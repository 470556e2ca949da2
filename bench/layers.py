"""Per-layer metrics of a traced pass, and the call-count expectations that
README.md states for each layer and workload."""

from __future__ import annotations

import tracing

# (metric, unit); the order is the order of the report.
LAYER_METRICS = [
    ("rings.element_new.calls", "count"),
    ("rings.payload_mul.calls", "count"),
    ("rings.payload_divmod.calls", "count"),
    ("rings.payload_xgcd.calls", "count"),
    ("rings.gcd_bezout.calls", "count"),
    ("rings.factorize.calls", "count"),
    ("rings.factorize.total_s", "s"),
    ("matrices.new.calls", "count"),
    ("matrices.matmul.calls", "count"),
    ("matrices.matmul.self_s", "s"),
    ("matrices.det.calls", "count"),
    ("matrices.det.self_s", "s"),
    ("matrices.kron.calls", "count"),
    ("smith.smith.calls", "count"),
    ("smith.smith.self_s", "s"),
    ("smith.verify.calls", "count"),
    ("smith.verify.self_s", "s"),
    ("smith.subquotient.calls", "count"),
    ("smith.subquotient.total_s", "s"),
    ("smith.calls_per_hom", "1"),
    ("smith.entry_bits_max", "bits"),
    ("factorizations.mf_new.calls", "count"),
    ("factorizations.mf_new.self_s", "s"),
    ("factorizations.morphism_new.calls", "count"),
    ("factorizations.morphism_new.self_s", "s"),
    ("factorizations.cone.calls", "count"),
    ("factorizations.hom_differentials.self_s", "s"),
    ("classify.cone_split.self_s", "s"),
    ("classify.is_iso.self_s", "s"),
    ("classify.strong_decompose.self_s", "s"),
    ("classify.primary_decompose.self_s", "s"),
    ("classify.hmf_hom.calls", "count"),
    ("classify.hmf_hom.total_s", "s"),
    ("classify.critical_decompose.total_s", "s"),
    ("artinian.ar_quiver.total_s", "s"),
    ("jsonio.parse.calls", "count"),
    ("jsonio.parse.self_s", "s"),
    ("jsonio.dump.self_s", "s"),
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.handler.self_s", "s"),
    ("cli.exit_nonzero.calls", "count"),
    ("trace_overhead", "1"),
]

SNF, MF, CLI = "snf_certify", "mf_classify", "cli_batch"
LIBRARY = (SNF, MF)

# Wrapped layer -> (workloads where it must record >= 1 call,
#                   workloads where it must record 0 calls).
EXPECTED_CALLS = {
    "rings.element_new": (LIBRARY, ()),
    "rings.payload_mul": (LIBRARY, ()),
    "rings.payload_divmod": (LIBRARY, ()),
    "rings.payload_xgcd": (LIBRARY, ()),
    "rings.gcd_bezout": (LIBRARY, ()),
    "rings.factorize": ((CLI,), (SNF,)),
    "matrices.new": (LIBRARY, ()),
    "matrices.matmul": (LIBRARY, ()),
    "matrices.det": (LIBRARY, ()),
    "matrices.kron": ((MF,), ()),
    "smith.smith": (LIBRARY, ()),
    "smith.verify": ((SNF,), ()),
    "smith.subquotient": ((MF,), ()),
    "factorizations.mf_new": ((MF,), (SNF,)),
    "factorizations.morphism_new": ((MF,), (SNF,)),
    "factorizations.cone": ((MF,), (SNF,)),
    "factorizations.hom_differentials": ((MF,), (SNF,)),
    "classify.cone_split": ((MF,), ()),
    "classify.is_iso": ((MF,), ()),
    "classify.strong_decompose": ((MF,), ()),
    "classify.primary_decompose": ((MF,), ()),
    "classify.hmf_hom": ((MF,), ()),
    "classify.critical_decompose": ((CLI,), ()),
    "artinian.ar_quiver": ((CLI,), ()),
    "jsonio.parse": ((CLI,), LIBRARY),
    "jsonio.dump": ((CLI,), LIBRARY),
    "cli.handler": ((CLI,), LIBRARY),
}


def layer_metrics(tracer: tracing.Tracer, *, exit_nonzero: int,
                  entry_bits_max: int, interp_s: float, import_s: float,
                  overhead: float) -> dict[str, tuple[float, str]]:
    stats = tracing.span_stats(tracer.spans)
    values: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if layer in stats:
            values[name] = stats[layer].get(field, 0)
        elif field == "calls":
            values[name] = tracer.counts.get(layer, 0)
    values.update({
        "smith.calls_per_hom": tracing.smith_calls_per_hom(tracer.spans),
        "smith.entry_bits_max": entry_bits_max,
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.exit_nonzero.calls": exit_nonzero,
        "trace_overhead": overhead,
    })
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in LAYER_METRICS}


def layer_calls(tracer: tracing.Tracer) -> dict[str, int]:
    stats = tracing.span_stats(tracer.spans)
    calls = {layer: int(s["calls"]) for layer, s in stats.items()}
    calls.update(tracer.counts)
    return calls


def check_expectations(calls: dict[str, int], workload: str) -> list[str]:
    """One line per layer whose call count contradicts EXPECTED_CALLS."""
    out = []
    for layer, (busy, idle) in EXPECTED_CALLS.items():
        n = calls.get(layer, 0)
        if workload in busy and n < 1:
            out.append(f"{layer}: no calls on {workload}, expected some")
        if workload in idle and n != 0:
            out.append(f"{layer}: {n} calls on {workload}, expected none")
    return out
