"""Per-layer metrics computed from the spans of one traced pass.

A layer's ``calls`` are its outermost spans: spans whose parent belongs to
another layer.  Times are the layer's share of the partitioned wall time
(see :mod:`tracer`).  Random draws consumed by the ragged samplers are
computed from their outputs with the paper's construction, not from the
implementation, so ``rng.draw_efficiency`` shows how many generated uniforms
the samplers threw away.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import numpy as np

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("rng.calls", "count", "lower"),
    ("rng.uniforms", "count", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("rng.ns_per_uniform", "ns", "lower"),
    ("rng.draw_efficiency", "1", "higher"),
    ("tail_models.inverse_values", "count", "lower"),
    ("tail_models.busy_s", "s", "lower"),
    ("tail_models.ns_per_inverse", "ns", "lower"),
    ("tail_models.tail_evals_per_inverse", "1", "lower"),
    ("samplers.calls", "count", "lower"),
    ("samplers.trials", "count", "higher"),
    ("samplers.self_s", "s", "lower"),
    ("samplers.rounds_per_call", "1", "lower"),
    ("limit_laws.calls", "count", "lower"),
    ("limit_laws.busy_s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.values", "count", "higher"),
    ("verify.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows_written", "count", "higher"),
    ("cli.bytes_written", "B", "lower"),
    ("cli.rows_per_s", "1/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)

# Counters that must read the same in every traced pass at one seed.
REPEATABLE = ("rng.uniforms", "samplers.rounds_per_call",
              "tail_models.tail_evals_per_inverse", "cli.rows_written",
              "cli.bytes_written")


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _negbin_consumed(a: dict, result) -> int:
    # limit_ratios: n gamma draws, one per point, one crossing arrival;
    # mixed_poisson additionally places each counted point with one uniform
    counts = result[0]
    per_point = 2 if a["method"] == "mixed_poisson" else 1
    return int(counts.size * (a["n"] + 1) + per_point * counts.sum())


def _ratio_configuration_consumed(a: dict, result) -> int:
    # r + n head arrivals, one per below ratio, one crossing arrival
    counts = result[2]
    return int(counts.size * (a["r"] + a["n"] + 1) + counts.sum())


CONSUMED = {
    "negbin_batch": _negbin_consumed,
    "ratio_configuration_batch": _ratio_configuration_consumed,
}

# Samples entering each goodness-of-fit statistic.
SAMPLES = {
    "ks_distance": lambda a: a["emp"].n_samples,
    "two_sample_ks": lambda a: np.size(a["x"]) + np.size(a["y"]),
    "chi_square_counts": lambda a: float(np.sum(a["observed"])),
    "chi_square_independence": lambda a: np.size(a["u"]),
}


def _rows(result) -> int:
    first = result[0] if isinstance(result, tuple) else result
    return int(np.shape(first)[0]) if np.ndim(first) >= 1 else 1


def summarize(span, fn, args, kwargs, result) -> dict:
    """Counts recorded on a closed span; see :class:`tracer.Tracer`."""
    if result is None:
        return {}
    if span.layer in ("rng", "tail_models"):
        return {"values": int(np.size(result))}
    if span.layer == "samplers":
        summary = {"trials": _rows(result)}
        if span.name in CONSUMED:
            summary["consumed"] = CONSUMED[span.name](_arguments(fn, args, kwargs), result)
        return summary
    if span.layer == "verify" and span.name in SAMPLES:
        return {"values": SAMPLES[span.name](_arguments(fn, args, kwargs))}
    return {}


def _outermost(span) -> bool:
    return span.parent is None or span.parent.layer != span.layer


def _ancestor(span, test):
    node = span.parent
    while node is not None and not test(node):
        node = node.parent
    return node


def layer_metrics(spans, partition, cli_rows: int, cli_bytes: int) -> dict:
    """Every per-layer metric for one traced pass, as ``{name: value}``.

    ``partition`` is :meth:`tracer.Tracer.partition` of the pass.
    """
    self_by_span, unattributed, wall = partition
    busy = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        busy[span.layer] += self_by_span.get(span.id, 0.0)
        calls[span.layer] += _outermost(span)

    outer_rng = [s for s in spans if s.layer == "rng" and _outermost(s)]
    uniforms = sum(s.summary.get("values", 0) for s in outer_rng)
    # draws under a sampler with a consumption rule are counted by the rule;
    # every other draw is dense and fully used
    consumed = 0
    ruled = set()
    for s in spans:
        if "consumed" in s.summary:
            consumed += s.summary["consumed"]
            ruled.add(s.id)
    for s in outer_rng:
        if _ancestor(s, lambda p: p.id in ruled) is None:
            consumed += s.summary.get("values", 0)

    outer_samplers = [s for s in spans if s.layer == "samplers" and _outermost(s)]
    outer_ids = {s.id for s in outer_samplers}
    rounds = sum(1 for s in outer_rng
                 if _ancestor(s, lambda p: p.id in outer_ids) is not None)

    def is_inverse(s):
        return s.layer == "tail_models" and "inverse" in s.name

    inverses = sum(s.summary.get("values", 0) for s in spans
                   if is_inverse(s) and _outermost(s))
    tail_evals = sum(s.summary.get("values", 0) for s in spans
                     if s.layer == "tail_models" and not is_inverse(s)
                     and _ancestor(s, is_inverse) is not None)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "rng.calls": calls["rng"],
        "rng.uniforms": uniforms,
        "rng.busy_s": busy["rng"],
        "rng.ns_per_uniform": ratio(busy["rng"], uniforms, 1e9),
        "rng.draw_efficiency": ratio(consumed, uniforms),
        "tail_models.inverse_values": inverses,
        "tail_models.busy_s": busy["tail_models"],
        "tail_models.ns_per_inverse": ratio(busy["tail_models"], inverses, 1e9),
        "tail_models.tail_evals_per_inverse": ratio(tail_evals, inverses),
        "samplers.calls": calls["samplers"],
        "samplers.trials": sum(s.summary.get("trials", 0) for s in outer_samplers),
        "samplers.self_s": busy["samplers"],
        "samplers.rounds_per_call": ratio(rounds, len(outer_samplers)),
        "limit_laws.calls": calls["limit_laws"],
        "limit_laws.busy_s": busy["limit_laws"],
        "verify.calls": calls["verify"],
        "verify.values": int(sum(s.summary.get("values", 0) for s in spans
                                 if s.layer == "verify")),
        "verify.self_s": busy["verify"],
        "cli.calls": calls["cli"],
        "cli.self_s": busy["cli"],
        "cli.rows_written": cli_rows,
        "cli.bytes_written": cli_bytes,
        "cli.rows_per_s": ratio(cli_rows, busy["cli"]),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
    }


def top_functions(spans, partition, limit: int = 12) -> list:
    """``[(layer.function, self seconds, spans)]``, largest self time first."""
    self_by_span = partition[0]
    totals = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[f"{span.layer}.{span.name}"]
        entry[0] += self_by_span.get(span.id, 0.0)
        entry[1] += 1
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
    return [(name, secs, count) for name, (secs, count) in ranked[:limit]]
