"""Per-layer metrics from the spans of a traced run.

Layers are steinlab modules. Times are sums of span durations in seconds,
so a layer that runs on two worker threads can report more busy time than
wall time. A metric is 0 when its layer did no work on the workload, and is
left out when the entry point it is built from no longer exists.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import STATS_SPANS

MB = float(1 << 20)

# name: (unit, better, hooks it is built from); "stats" stands for the
# workload's own statistics entry point, which splits stats from gap passes.
PER_LAYER = {
    "harness.stats_pass_s": ("s", "lower", ("harness.parallel_mc", "stats")),
    "harness.gap_pass_s": ("s", "lower", ("harness.parallel_mc", "stats")),
    "harness.chunks": ("count", "lower", ("harness.parallel_mc",)),
    "harness.chunk_busy_s": ("s", "lower", ("harness.parallel_mc",)),
    "harness.worker_util": ("ratio", "higher", ("harness.parallel_mc",)),
    "harness.speedup_1t": ("ratio", "higher", ()),
    "degrees.stats_s": ("s", "lower", ("degrees.stats",)),
    "degrees.stats_items_per_s": ("1/s", "higher", ("degrees.stats",)),
    "degrees.gap_items_per_s": ("1/s", "higher",
                                ("harness.parallel_mc", "stats")),
    "degrees.stats_peak_mb": ("MB", "lower", ("degrees.stats",)),
    "nonlinear.stats_s": ("s", "lower", ("nonlinear.stats",)),
    "nonlinear.stats_peak_mb": ("MB", "lower", ("nonlinear.stats",)),
    "nonlinear.cond_exp_calls": ("count", "lower", ("nonlinear.cond_exp",)),
    "nonlinear.cond_exp_s": ("s", "lower", ("nonlinear.cond_exp",)),
    "nonlinear.survival_calls": ("count", "lower", ("nonlinear.survival",)),
    "nonlinear.survival_points": ("count", "lower", ("nonlinear.survival",)),
    "nonlinear.survival_s": ("s", "lower", ("nonlinear.survival",)),
    "nonlinear.tilted_init_s": ("s", "lower", ("nonlinear.tilted_init",)),
    "nonlinear.couple_rows": ("count", "lower", ("nonlinear.couple",)),
    "nonlinear.couplings_per_sample": ("ratio", "lower",
                                       ("nonlinear.couple",)),
    "nonlinear.couple_s": ("s", "lower", ("nonlinear.couple",)),
    "testfuncs.phi_h_s": ("s", "lower", ("testfuncs.phi_h",)),
    "testfuncs.derivative_norms_s": ("s", "lower",
                                     ("testfuncs.derivative_norms",)),
    "testfuncs.h_points": ("count", "lower", ("testfuncs.h_eval",)),
    "testfuncs.h_eval_s": ("s", "lower", ("testfuncs.h_eval",)),
    "testfuncs.tensor_nodes": ("count", "lower", ("testfuncs.tensor_rule",)),
    "stein.g_calls": ("count", "lower", ("stein.g",)),
    "stein.g_points": ("count", "lower", ("stein.g",)),
    "stein.g_s": ("s", "lower", ("stein.g",)),
    "stein.legendre_nodes": ("count", "lower", ("stein.g",)),
    "stein.residual_s": ("s", "lower", ("stein.residual",)),
    "stein.violation_s": ("s", "lower", ("stein.violation",)),
    # Read from the report, not timed: a change that alters RNG use should
    # leave these statistically where they were.
    "bounds.total": ("value", "lower", ()),
    "bounds.gap": ("value", "lower", ()),
    "bounds.bound_to_gap": ("ratio", "lower", ()),
    "bounds.term_share.conditional-variance": ("ratio", "lower", ()),
    "bounds.term_share.mean-square-difference": ("ratio", "lower", ()),
    "bounds.term_share.absolute-cross-moment": ("ratio", "lower", ()),
    "trace.wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.hooks_missing": ("count", "lower", ()),
    "bench.fail_rate": ("ratio", "lower", ()),
}


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans):
    """``{name: [calls, total_s, self_s]}``; self time is the span minus the
    union of its child spans' intervals (children may overlap on threads)."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        covered, reach = 0.0, span["start"]
        for lo, hi in sorted(children[span["id"]]):
            lo, hi = max(lo, reach), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = out[span["name"]]
        row[0] += 1
        row[1] += _duration(span)
        row[2] += _duration(span) - covered
    return dict(out)


def bound_readout(report: dict) -> dict:
    """Bound total, gap, bound ÷ gap and each term's share of the total."""
    out = {name: 0.0 for name in PER_LAYER if name.startswith("bounds.")}
    bound = report.get("bound")
    if not isinstance(bound, dict):
        return out
    total, gap = float(bound["total"]), float(report["gap"])
    out["bounds.total"] = total
    out["bounds.gap"] = gap
    out["bounds.bound_to_gap"] = total / gap if gap > 0 else 0.0
    for term in bound["terms"]:
        share = float(term["value"]) / total if total > 0 else 0.0
        out[f"bounds.term_share.{term['name']}"] = share
    return out


def layer_metrics(spans, missing, items: int, layer: str) -> dict:
    """Metrics built from spans; ``layer`` is the module the workload
    exercises (``degrees``, ``nonlinear`` or ``stein``)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    ids = {span["id"]: span for span in spans}

    def total(name):
        return sum(_duration(s) for s in by_name[name])

    def points(name):
        return sum(s.get("points", 0) for s in by_name[name])

    def peak_mb(name):
        return max((s.get("peak_bytes", 0) for s in by_name[name]),
                   default=0) / MB

    def in_stats(span):
        while span["parent"] in ids:
            span = ids[span["parent"]]
            if span["name"] in STATS_SPANS:
                return True
        return False

    passes = by_name["harness.parallel_mc"]
    chunks_of = defaultdict(list)
    for chunk in by_name["harness.chunk"]:
        chunks_of[chunk["parent"]].append(chunk)
    stats_s = sum(_duration(p) for p in passes if in_stats(p))
    gap_s = sum(_duration(p) for p in passes if not in_stats(p))
    busy = total("harness.chunk")
    workers = {p["id"]: len({c["thread"] for c in chunks_of[p["id"]]})
               for p in passes}
    capacity = sum(_duration(p) * workers[p["id"]] for p in passes)
    degree_stats_s = total("degrees.stats")
    couple_rows = points("nonlinear.couple")
    g_spans = by_name["stein.g"]

    out = {
        "harness.stats_pass_s": stats_s,
        "harness.gap_pass_s": gap_s,
        "harness.chunks": len(by_name["harness.chunk"]),
        "harness.chunk_busy_s": busy,
        "harness.worker_util": busy / capacity if capacity > 0 else 0.0,
        "degrees.stats_s": degree_stats_s,
        "degrees.stats_items_per_s":
            items / degree_stats_s if degree_stats_s > 0 else 0.0,
        "degrees.gap_items_per_s":
            items / gap_s if layer == "degrees" and gap_s > 0 else 0.0,
        "degrees.stats_peak_mb": peak_mb("degrees.stats"),
        "nonlinear.stats_s": total("nonlinear.stats"),
        "nonlinear.stats_peak_mb": peak_mb("nonlinear.stats"),
        "nonlinear.cond_exp_calls": len(by_name["nonlinear.cond_exp"]),
        "nonlinear.cond_exp_s": total("nonlinear.cond_exp"),
        "nonlinear.survival_calls": len(by_name["nonlinear.survival"]),
        "nonlinear.survival_points": points("nonlinear.survival"),
        "nonlinear.survival_s": total("nonlinear.survival"),
        "nonlinear.tilted_init_s": total("nonlinear.tilted_init"),
        "nonlinear.couple_rows": couple_rows,
        "nonlinear.couplings_per_sample":
            couple_rows / items if layer == "nonlinear" else 0.0,
        "nonlinear.couple_s": total("nonlinear.couple"),
        "testfuncs.phi_h_s": total("testfuncs.phi_h"),
        "testfuncs.derivative_norms_s": total("testfuncs.derivative_norms"),
        "testfuncs.h_points": points("testfuncs.h_eval"),
        "testfuncs.h_eval_s": total("testfuncs.h_eval"),
        "testfuncs.tensor_nodes": max(
            (s["nodes"] for s in by_name["testfuncs.tensor_rule"]), default=0),
        "stein.g_calls": len(g_spans),
        "stein.g_points": points("stein.g"),
        "stein.g_s": total("stein.g"),
        "stein.legendre_nodes":
            max(g_spans, key=lambda s: s["end"])["legendre_nodes"]
            if g_spans else 0,
        "stein.residual_s": total("stein.residual"),
        "stein.violation_s": total("stein.violation"),
    }
    gone = set(missing)
    if f"{layer}.stats" in gone:
        gone.add("stats")
    return {name: value for name, value in out.items()
            if not gone.intersection(PER_LAYER[name][2])}
