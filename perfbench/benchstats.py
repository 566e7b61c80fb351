"""Arithmetic of the benchmark: tail percentiles and span self times.

Spans are dicts with ``id``, ``parent``, ``name``, ``start``, ``end`` and an
optional ``counts`` dict, as written by ``hook/perfbench_trace.py``.  A span
name is ``<layer>.<function>``; the layer is the stormfields module.
"""

from __future__ import annotations

from collections import defaultdict

# Percentiles tried for the tail, highest first, in tenths of a percent.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """Highest percentile with at least ``min_beyond`` samples above it.

    Uses the nearest-rank percentile: the p-th percentile of n sorted
    samples is the sample at rank ceil(p n / 100), and the samples above it
    number n minus that rank.  Returns ``(percentile, value, beyond)``, or
    None when even the median has fewer than ``min_beyond`` samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for permille in _TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= min_beyond:
            return permille / 10, ordered[rank - 1], n - rank
    return None


def _children(spans):
    ids = {s["id"] for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] in ids:
            children[s["parent"]].append(s)
    return children


def _covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap (pool workers run side by side); the part they
    cover is the union of their intervals, counted once.
    """
    children = _children(spans)
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], [(c["start"], c["end"]) for c in children[s["id"]]])
        for s in spans
    }


def wall_shares(spans):
    """Split wall time among spans so that the shares add up to the wall.

    At each instant the time goes to the running spans that have no running
    child; when several run side by side in different processes, they split
    it evenly.  Within one process this equals ``self_times``.  The shares
    of all spans add up to the length of the union of all spans, which for
    a traced command is its root span.
    """
    parent_of = {s["id"]: s["parent"] for s in spans}
    depth = {}
    for span_id in parent_of:
        chain = []
        while span_id in parent_of and span_id not in depth:
            chain.append(span_id)
            span_id = parent_of[span_id]
        base = depth.get(span_id, -1)
        for offset, item in enumerate(reversed(chain), start=1):
            depth[item] = base + offset
    # At equal times, spans close before others open, children close before
    # their parents and parents open before their children.
    events = []
    for s in spans:
        events.append((s["start"], 1, depth[s["id"]], s["id"]))
        events.append((s["end"], 0, -depth[s["id"]], s["id"]))
    events.sort()
    shares = dict.fromkeys(parent_of, 0.0)
    running = defaultdict(int)  # running children per running span
    active, leaves = set(), set()
    previous = None
    for when, opening, _, span_id in events:
        if leaves and when > previous:
            part = (when - previous) / len(leaves)
            for leaf in leaves:
                shares[leaf] += part
        previous = when
        parent = parent_of[span_id]
        if opening:
            active.add(span_id)
            leaves.add(span_id)
            if parent in active:
                running[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                running[parent] -= 1
                if running[parent] == 0:
                    leaves.add(parent)
    return shares


def _subtree_ids(roots, children):
    seen = set()
    stack = [s["id"] for s in roots]
    while stack:
        span_id = stack.pop()
        if span_id not in seen:
            seen.add(span_id)
            stack.extend(c["id"] for c in children[span_id])
    return seen


def trace_metrics(spans, workers: int):
    """Per-layer metrics of one traced command, plus its layer totals.

    Times named ``*_s`` are wall shares (see ``wall_shares``) of the named
    functions' own time, except ``maxstable.rescaled_factor_s``,
    ``maxstable.storm_field_s`` and ``extremal.closed_form_s``, which also
    include everything those functions call.  Returns ``(metrics, layers,
    root_s)`` where ``layers`` maps each layer to its wall share.
    """
    children = _children(spans)
    shares = wall_shares(spans)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root_s = roots[0]["end"] - roots[0]["start"]

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def share(group):
        return sum((shares[s["id"]] for s in group), 0.0)

    def inclusive(group):
        return sum((shares[i] for i in _subtree_ids(group, children)), 0.0)

    def total(group, key):
        return sum(s.get("counts", {}).get(key, 0) for s in group)

    rho = [s for s in spans if s["name"].startswith("covmodels.") and s["name"].endswith(".rho")]
    rho_ids = {s["id"] for s in rho}
    cholesky = named("gaussfield.cholesky")
    samples = named("gaussfield.sample_replications", "gaussfield.sample_field")
    substreams = named("streams.substream")
    cdf = named("numerics.std_normal_cdf")
    cdf_values = total(cdf, "values")
    storms = named("maxstable.simulate_storm_field")
    closed = named("extremal.bivariate_cdf_hr", "extremal.bivariate_cdf_smith")
    tasks = named("cli.task")

    layers = defaultdict(float)
    for s in spans:
        layers[s["name"].split(".", 1)[0]] += shares[s["id"]]

    metrics = {
        "config.load_s": layers["config"],
        "covmodels.rho_s": share(rho),
        "covmodels.rho_evals": total([s for s in rho if s["parent"] not in rho_ids], "evals"),
        "gaussfield.build_covariance_s": share(named("gaussfield.build_covariance_matrix")),
        "gaussfield.cholesky_s": share(cholesky),
        "gaussfield.jitter_used": max((s["counts"]["jitter"] for s in cholesky), default=0.0),
        "gaussfield.factor_bytes": total(cholesky, "factor_bytes"),
        "gaussfield.sample_s": share(samples),
        "gaussfield.sample_calls": len(samples),
        "gaussfield.normals_drawn": total(samples, "normals"),
        "gaussfield.draw_flops": total(samples, "flops"),
        "streams.substream_s": share(substreams),
        "streams.substreams": len(substreams),
        "numerics.cdf_s": share(cdf),
        "numerics.cdf_values": cdf_values,
        "numerics.cdf_ns_per_value": (
            1e9 * sum(selfs[s["id"]] for s in cdf) / cdf_values if cdf_values else 0.0
        ),
        "maxstable.transform_self_s": share(named("maxstable.transform_marginal")),
        "maxstable.hr_field_self_s": share(named("maxstable.husler_reiss_field")),
        "maxstable.rescaled_factor_s": inclusive(named("maxstable.rescaled_factor")),
        "maxstable.storm_field_s": inclusive(storms),
        "maxstable.storm_fields": len(storms),
        "extremal.closed_form_s": inclusive(closed),
        "extremal.closed_form_calls": len(closed),
        "cli.self_s": layers["cli"],
        "cli.worker_busy_frac": (
            sum(s["end"] - s["start"] for s in tasks) / (workers * root_s) if root_s > 0 else 0.0
        ),
    }
    return metrics, dict(layers), root_s
