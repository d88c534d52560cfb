"""Arithmetic of the benchmark: percentiles, span self time, wall-time
attribution and SLO accounting. Pure functions over plain lists, tested by
test_stats.py."""

import math


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals, overlaps
    counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. Children may run on other threads and overlap each other;
    the covered part is the union of their intervals clipped to the span.

    `spans` maps id -> (parent_id, start, end). Returns id -> self time."""
    children = {}
    for sid, (parent, start, end) in spans.items():
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (parent, start, end) in spans.items():
        clipped = [(max(start, s), min(end, e)) for s, e in children.get(sid, [])]
        out[sid] = (end - start) - union_length(clipped)
    return out


def wall_shares(spans, layer_of):
    """Split the wall time of the root spans among layers.

    At every instant while a root span is open, the time goes to the spans
    that are open and have no open child, in equal parts (several threads
    may be inside layer calls at once). A root with no open child keeps the
    time itself. `spans` maps id -> (parent_id, start, end); roots have
    parent 0. `layer_of(id)` names a span's layer. Returns layer -> seconds;
    the values sum to the total root duration."""
    events = []
    for sid, (parent, start, end) in spans.items():
        if end > start:
            events.append((start, 1, sid))
            events.append((end, 0, sid))
    events.sort()
    open_children = {}
    active = set()
    roots_open = 0
    shares = {}
    last_t = None
    for t, is_start, sid in events:
        if last_t is not None and t > last_t and roots_open > 0:
            leaves = [s for s in active if open_children.get(s, 0) == 0]
            dt = (t - last_t) / len(leaves)
            for s in leaves:
                layer = layer_of(s)
                shares[layer] = shares.get(layer, 0.0) + dt
        last_t = t
        parent = spans[sid][0]
        if is_start:
            active.add(sid)
            if parent == 0:
                roots_open += 1
            elif parent in active:
                open_children[parent] = open_children.get(parent, 0) + 1
        else:
            active.discard(sid)
            if parent == 0:
                roots_open -= 1
            elif parent in active:
                open_children[parent] -= 1
    return shares


def slo_ok_frac(ops, ttfc_limit_ms, gap_limit_ms):
    """Share of issued operations that ended OK with time to first chunk and
    every chunk gap within the limits. `ops` holds (ok, ttfc_ms, max_gap_ms)
    for every operation issued; failed or refused ones are misses."""
    if not ops:
        return None
    met = sum(1 for ok, ttfc, gap in ops if ok and ttfc <= ttfc_limit_ms and gap <= gap_limit_ms)
    return met / len(ops)
