"""Spans and counters recorded from wrappers around the library's public
functions, installed and removed by the benchmark itself.

Nothing under ``src/`` knows about tracing.  ``install`` swaps each target
function for a wrapper everywhere it is bound: on its owner (module or
class) and under every module global in ``smithfact.*`` (and any extra
module passed in) that *is* the original object.  This matters because
``from .smith import smith`` leaves separate bindings in ``smith``,
``classify``, ``cli`` and the package, and the package attribute
``smithfact.smith`` is the function, not the submodule, so modules are
reached through ``importlib.import_module``.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1).  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

SPAN, COUNT = "span", "count"


@dataclass(frozen=True)
class Target:
    module: str
    attr: str          # "name" on the module, or "Class.name"
    metric: str        # layer metric prefix, e.g. "matrices.matmul"
    kind: str          # SPAN or COUNT


def _targets() -> list[Target]:
    t = []

    def add(module, attrs, metric, kind):
        t.extend(Target(f"smithfact.{module}", a, metric, kind) for a in attrs)

    add("rings", ["RingElement.__init__"], "rings.element_new", COUNT)
    add("rings", ["IntegerRing._mul", "GFPolynomialRing._mul"],
        "rings.payload_mul", COUNT)
    add("rings", ["IntegerRing._divmod", "GFPolynomialRing._divmod"],
        "rings.payload_divmod", COUNT)
    add("rings", ["Ring._xgcd"], "rings.payload_xgcd", COUNT)
    add("rings", ["gcd_bezout"], "rings.gcd_bezout", COUNT)
    add("rings", ["factorize"], "rings.factorize", SPAN)
    add("matrices", ["RingMatrix.__init__"], "matrices.new", COUNT)
    add("matrices", ["RingMatrix.__matmul__"], "matrices.matmul", SPAN)
    add("matrices", ["RingMatrix.det"], "matrices.det", SPAN)
    add("matrices", ["kron"], "matrices.kron", COUNT)
    add("smith", ["smith"], "smith.smith", SPAN)
    add("smith", ["SmithDecomposition.verify"], "smith.verify", SPAN)
    add("smith", ["subquotient"], "smith.subquotient", SPAN)
    add("factorizations", ["MatrixFactorization.__init__"],
        "factorizations.mf_new", SPAN)
    add("factorizations", ["MfMorphism.__init__"],
        "factorizations.morphism_new", SPAN)
    add("factorizations", ["cone"], "factorizations.cone", COUNT)
    add("factorizations", ["hom_differentials"],
        "factorizations.hom_differentials", SPAN)
    for name in ("cone_split", "is_iso", "strong_decompose",
                 "primary_decompose", "hmf_hom", "critical_decompose"):
        add("classify", [name], f"classify.{name}", SPAN)
    add("artinian", ["ar_quiver"], "artinian.ar_quiver", SPAN)
    add("jsonio", ["parse_matrix", "parse_factorization", "parse_morphism",
                   "parse_element"], "jsonio.parse", SPAN)
    add("jsonio", ["dumps", "matrix_to_json", "factorization_to_json",
                   "morphism_to_json", "smith_to_json", "module_to_json",
                   "class_to_json", "strong_to_json",
                   "decomposition_to_json"], "jsonio.dump", SPAN)
    add("cli", ["_cmd_snf", "_cmd_classify", "_cmd_iso", "_cmd_cone",
                "_cmd_hom", "_cmd_quiver", "_cmd_demo"], "cli.handler", SPAN)
    return t


TARGETS = _targets()


class Tracer:
    """In-memory span list and call counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []

    def span_wrapper(self, fn: Callable, name: str,
                     post: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return wrapper

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _scanned_modules(extra) -> list:
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "smithfact"
                                  or name.startswith("smithfact."))]
    return mods + [m for m in extra if m not in mods]


class Installation:
    """Every binding swapped by ``install``, so ``remove`` can restore it."""

    def __init__(self):
        self.swaps: list[tuple[object, str, object, object]] = []
        self.originals: list[object] = []

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self.swaps):
            setattr(owner, attr, original)
        self.swaps.clear()


def install(tracer: Tracer, extra_modules=(),
            posts: dict[str, Callable] | None = None) -> Installation:
    """Wrap every target; raise if any original is still bound afterwards.

    ``posts`` maps a span metric to a hook called with each result.
    """
    posts = posts or {}
    inst = Installation()
    modules = _scanned_modules(extra_modules)
    for t in TARGETS:
        owner = importlib.import_module(t.module)
        owner_attr = t.attr
        if "." in t.attr:
            cls_name, owner_attr = t.attr.split(".")
            owner = getattr(owner, cls_name)
            original = vars(owner)[owner_attr]
        else:
            original = getattr(owner, owner_attr)
        if t.kind == SPAN:
            wrapper = tracer.span_wrapper(original, t.metric,
                                          posts.get(t.metric))
        else:
            wrapper = tracer.count_wrapper(original, t.metric)
        inst.originals.append(original)
        inst.swaps.append((owner, owner_attr, original, wrapper))
        setattr(owner, owner_attr, wrapper)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    inst.swaps.append((mod, name, original, wrapper))
                    setattr(mod, name, wrapper)
    _assert_no_original_bound(inst, modules)
    return inst


def _assert_no_original_bound(inst: Installation, modules) -> None:
    ids = {id(o) for o in inst.originals}
    left = [f"{mod.__name__}.{name}" for mod in modules
            for name, value in vars(mod).items() if id(value) in ids]
    for owner, attr, original, wrapper in inst.swaps:
        if vars(owner).get(attr) is not wrapper:
            left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    if left:
        inst.remove()
        raise RuntimeError("tracing left originals bound: " + ", ".join(left))


# -- per-layer figures from spans ---------------------------------------------


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, total_s (outermost spans of a name only) and self_s (duration
    minus the time covered by direct children) for each span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            s["total_s"] += end - start
    return stats


def _has_ancestor(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def smith_calls_per_hom(spans: list[list]) -> float:
    homs = sum(1 for s in spans if s[0] == "classify.hmf_hom")
    if not homs:
        return 0.0
    inside = sum(1 for s in spans if s[0] == "smith.smith"
                 and _has_ancestor(spans, s[3], "classify.hmf_hom"))
    return inside / homs


def write_spans(path, spans: list[list]) -> None:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": [[index[n], a, b, p] for n, a, b, p in spans]},
                  fh, separators=(",", ":"))
