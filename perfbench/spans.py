"""Spans recorded around the program's public functions, and the per-layer
metrics computed from them.

The traced run wraps each function below from outside the program: the
wrapper replaces the name in every `pdotq` module that bound it (and in
module-level dicts such as `verify.SUITES` and `cli._COUNTERS`, which
hold the function objects themselves).  A span is
[name, start, end, parent, coeffs, outcome]; spans stay in memory until
the run ends.  A span's self time is its duration minus the part of it
that its direct child spans cover.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time
from collections import defaultdict

SUITES = ("dissection", "sturm", "genfun", "divisibility", "coexistence",
          "prime-family", "intermediate", "certificates", "powers-of-two")

# residue products by order: below 4096, below 32768, the rest
MUL_BUCKETS = (("small", 4096), ("mid", 32768), ("large", None))

NAME, START, END, PARENT, COEFFS, OUTCOME = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, describe=None, outcome=None):
        """Wrap fn in a span.  describe(args) gives (name, coeffs), or None
        to call fn without a span; outcome(result, exc) labels the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, coeffs = name, None
            if describe is not None:
                described = describe(args)
                if described is None:
                    return fn(*args, **kwargs)
                label, coeffs = described
            span = [label, self.clock(), None,
                    self._stack[-1] if self._stack else None, coeffs, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if outcome is not None:
                    span[OUTCOME] = outcome(None, exc)
                raise
            finally:
                span[END] = self.clock()
                self._stack.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(result, None)
            return result

        return wrapper


def _domain(series) -> str:
    return "exact" if series.modulus is None else "residue"


def _describe_mul(args):
    self, other = args
    if not hasattr(other, "coeffs"):
        return None  # scalar multiple, not a product of series
    return (f"series.mul.{_domain(self)}",
            min(self.order, other.order))


def _describe_invert(args):
    return f"series.invert.{_domain(args[0])}", args[0].order


def install(tracer: Tracer):
    """Wrap the traced functions of the `pdotq` package; return a function
    that puts every original back."""
    mods = {name: importlib.import_module(f"pdotq.{name}")
            for name in ("series", "partitions", "verify", "modforms",
                         "radu", "cli")}
    undo = []

    def replace(original, wrapper):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((setattr, mod, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            undo.append((dict.__setitem__, value, key,
                                         original))

    def verdict(result, exc):
        if exc is None:
            return "pass" if result.verdict else "fail"
        if isinstance(exc, mods["radu"].CriterionNotApplicable):
            return "not_applicable"
        return "error"

    # (module, function, index of the argument giving the order, outcome)
    targets = [
        ("series", "euler_factor", None, None),
        ("partitions", "pdo_t_series", 0, None),
        ("partitions", "pdo_t", None, None),
        ("verify", "master_series", None, None),
        ("verify", "f_product", None, None),
        ("modforms", "q_expansion", None, None),
        ("modforms", "modularity_check", None, None),
        ("radu", "radu_verify", None, verdict),
        ("radu", "c_r_series", 1, None),
        ("radu", "nu_bound", None, None),
        ("cli", "main", None, None),
    ]
    for mod, attr, order_arg, outcome in targets:
        name = f"{mod}.{attr}"
        describe = None
        if order_arg is not None:
            def describe(args, name=name, k=order_arg):
                return name, args[k]
        original = getattr(mods[mod], attr)
        replace(original, tracer.wrap(original, name, describe, outcome))
    for key, fn in list(mods["verify"].SUITES.items()):
        replace(fn, tracer.wrap(fn, f"verify.suite.{key}"))

    series_cls = mods["series"].TruncSeries
    mul = tracer.wrap(series_cls.__mul__, "series.mul", _describe_mul)
    invert = tracer.wrap(series_cls.invert, "series.invert", _describe_invert)
    for attr, wrapper in (("__mul__", mul), ("__rmul__", mul),
                          ("invert", invert)):
        undo.append((setattr, series_cls, attr, vars(series_cls)[attr]))
        setattr(series_cls, attr, wrapper)

    def uninstall():
        for put, where, key, value in reversed(undo):
            put(where, key, value)

    return uninstall


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def _metric_table():
    """(metric name, unit, better) for every per-layer metric, in order."""
    rows = []

    def family(prefix, stats):
        for stat in stats:
            unit = "s" if stat.endswith("_s") else "count"
            rows.append((f"{prefix}.{stat}", unit, "lower"))

    family("series.mul.residue", ("calls", "coeffs", "self_s"))
    for bucket, _ in MUL_BUCKETS:
        family(f"series.mul.residue.{bucket}", ("self_s",))
    family("series.mul.exact", ("calls", "coeffs", "self_s"))
    family("series.invert.residue", ("calls", "coeffs", "self_s"))
    family("series.invert.exact", ("calls", "coeffs", "self_s"))
    family("series.euler_factor", ("calls", "self_s"))
    family("partitions.pdo_t_series", ("calls", "coeffs", "total_s"))
    family("partitions.pdo_t", ("calls", "self_s"))
    family("verify.master_series", ("calls", "fresh"))
    rows.append(("verify.master_series.served", "count", "higher"))
    rows.append(("verify.master_series.reuse_ratio", "ratio", "higher"))
    family("verify.master_series", ("total_s",))
    for suite in SUITES:
        family(f"verify.suite.{suite}", ("total_s",))
    family("verify.f_product", ("calls", "total_s"))
    family("modforms.q_expansion", ("calls", "total_s"))
    family("modforms.modularity_check", ("calls", "self_s"))
    family("radu.radu_verify", ("calls", "self_s", "total_s"))
    family("radu.c_r_series", ("calls", "coeffs", "total_s"))
    family("radu.nu_bound", ("calls", "self_s"))
    rows.append(("radu.verdict.pass", "count", "higher"))
    family("radu.verdict", ("fail", "not_applicable"))
    family("cli.main", ("calls", "self_s"))
    family("trace", ("overhead_s",))
    return rows


PER_LAYER = _metric_table()


def with_calibration(spans, samples):
    """The spans plus one "calibration" span per calibration sample, as a
    child of the innermost span around it, so that the samples count in
    no layer's self time.  Spans are in start order and properly nested."""
    starts = [span[START] for span in spans]
    out = list(spans)
    for lo, hi in samples:
        i = bisect.bisect_right(starts, lo) - 1
        parent = i if i >= 0 else None
        while parent is not None and spans[parent][END] < hi:
            parent = spans[parent][PARENT]
        out.append(["calibration", lo, hi, parent, None, None])
    return out


def layer_metrics(spans, samples=(), scale=1.0, overhead_s=0.0):
    """Every per-layer metric of one traced pass; times are multiplied by
    `scale`, which brings them to reference seconds."""
    spans = with_calibration(spans, samples)
    selfs = self_times(spans)
    values = defaultdict(float)
    fresh_parents = {span[PARENT] for span in spans
                     if span[NAME] == "partitions.pdo_t_series"}
    for i, (span, own) in enumerate(zip(spans, selfs)):
        name = span[NAME]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own
        values[f"{name}.total_s"] += span[END] - span[START]
        if span[COEFFS] is not None:
            values[f"{name}.coeffs"] += span[COEFFS]
        if name == "series.mul.residue":
            bucket = next(b for b, top in MUL_BUCKETS
                          if top is None or span[COEFFS] < top)
            values[f"{name}.{bucket}.self_s"] += own
        elif name == "verify.master_series":
            fresh = i in fresh_parents
            values[f"{name}.{'fresh' if fresh else 'served'}"] += 1
        elif name == "radu.radu_verify":
            values[f"radu.verdict.{span[OUTCOME]}"] += 1
    calls = values["verify.master_series.calls"]
    values["verify.master_series.reuse_ratio"] = (
        values["verify.master_series.served"] / calls if calls else 0.0)
    out = {name: values[name] * (scale if unit == "s" else 1)
           for name, unit, _ in PER_LAYER}
    out["trace.overhead_s"] = overhead_s
    return out
