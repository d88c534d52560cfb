#!/usr/bin/env python3
"""Compare a fresh google-benchmark JSON run against a committed baseline.

Guards the perf trajectory tracked in BENCH_micro_perf.json: a benchmark
whose time regressed by more than the threshold (default 25%) versus the
baseline fails the run. The gated time is cpu_time, except for benchmarks
registered with UseRealTime() (google-benchmark names them `*/real_time`):
their work runs on other threads, so the main thread's cpu_time says
nothing and real_time is gated instead. Benchmarks present on only one side are reported but
never fail — renames and new benchmarks must not break CI, and a retired
benchmark must not pin its baseline entry forever.

Aggregate rows (BigO/RMS/mean/...) are skipped: only per-iteration timings
are comparable run to run. Times are normalized to nanoseconds before
comparing, so a benchmark switching time_unit doesn't fake a regression.

Usage:
  tools/bench_compare.py [--threshold PCT] BASELINE.json FRESH.json
  tools/bench_compare.py --self-test

Exit code 0 = within threshold, 1 = regression(s), 2 = usage/bad input.
"""

import argparse
import json
import os
import sys
import tempfile

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def check_build_type(doc, path):
    """Hard-fail on timings from a debug build.

    Debug numbers are noise for the perf trajectory: comparing against (or
    committing) them would either mask real regressions or manufacture fake
    ones. The field is optional — hand-rolled contexts (BENCH_serve_replay's
    emitter) don't carry it, and absence is fine; an explicit "debug" is not.
    """
    build = doc.get("context", {}).get("library_build_type")
    if build == "debug":
        print(f"bench_compare: {path} was produced by a debug build "
              "(context.library_build_type == \"debug\") — rerun the "
              "benchmark from a Release build", file=sys.stderr)
        sys.exit(2)


def gated_time(bench):
    """The timing a benchmark entry is gated on (None when absent)."""
    key = "real_time" if bench.get("name", "").endswith("/real_time") else "cpu_time"
    return bench.get(key)


def load_timings(path):
    """Return {benchmark name: gated time in ns} for per-iteration entries."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    check_build_type(doc, path)
    timings = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        time = gated_time(bench)
        unit = bench.get("time_unit", "ns")
        name = bench.get("name")
        if name is None or time is None or unit not in _NS_PER_UNIT:
            continue
        timings[name] = float(time) * _NS_PER_UNIT[unit]
    return timings


def compare(baseline, fresh, threshold_pct):
    """Return (regressions, warnings, report lines).

    A regression is >threshold slower. Warnings cover names present on only
    one side: never fatal (exit stays 0), but loud on stderr so a PR adding
    benchmarks knows the baseline wants regenerating.
    """
    regressions = []
    warnings = []
    lines = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            warnings.append(f"'{name}' is only in the baseline (retired or "
                            "renamed?) — not compared")
            lines.append(f"  only-baseline  {name} (retired or renamed — ignored)")
            continue
        if name not in baseline:
            warnings.append(f"'{name}' is new (absent from the baseline) — "
                            "not compared; regenerate the baseline to track it")
            lines.append(f"  only-fresh     {name} (new benchmark — ignored)")
            continue
        base, cur = baseline[name], fresh[name]
        if base <= 0.0:
            lines.append(f"  skipped        {name} (non-positive baseline)")
            continue
        delta_pct = 100.0 * (cur - base) / base
        tag = "ok"
        if delta_pct > threshold_pct:
            tag = "REGRESSION"
            regressions.append(name)
        lines.append(
            f"  {tag:<14} {name}: {base:.0f}ns -> {cur:.0f}ns ({delta_pct:+.1f}%)")
    return regressions, warnings, lines


def self_test():
    baseline = {"a": 100.0, "b": 100.0, "gone": 50.0}
    fresh = {"a": 120.0, "b": 130.0, "new": 10.0}
    regressions, warnings, _ = compare(baseline, fresh, 25.0)
    ok = regressions == ["b"]  # +20% passes, +30% fails, new/retired ignored
    # One-sided names warn (loudly, on stderr in main) but never fail.
    ok = ok and len(warnings) == 2
    ok = ok and any("'gone'" in w and "baseline" in w for w in warnings)
    ok = ok and any("'new'" in w and "new" in w for w in warnings)
    regressions, warnings, _ = compare(baseline, fresh, 35.0)
    ok = ok and regressions == [] and len(warnings) == 2
    # A fresh run that only ADDS benchmarks is clean: no regressions, and the
    # additions surface as warnings only.
    regressions, warnings, _ = compare({"a": 100.0}, {"a": 100.0, "x": 1.0}, 25.0)
    ok = ok and regressions == [] and warnings and "'x'" in warnings[0]
    # Debug-built results are rejected outright; a missing or release build
    # type passes (BENCH_serve_replay's hand-rolled context has no such field).
    try:
        check_build_type({"context": {"library_build_type": "debug"}}, "x.json")
        ok = False
    except SystemExit as e:
        ok = ok and e.code == 2
    for clean in ({}, {"context": {}}, {"context": {"library_build_type": "release"}}):
        try:
            check_build_type(clean, "x.json")
        except SystemExit:
            ok = False
    # Threaded benches (`*/real_time`) are gated on wall time: a tiny
    # main-thread cpu_time must not hide a real_time regression.
    def threaded(real_ms):
        return {"benchmarks": [
            {"name": "BM_T/1/real_time", "cpu_time": 0.03, "real_time": real_ms,
             "time_unit": "ms"},
            {"name": "BM_S/1", "cpu_time": 2.0, "real_time": real_ms, "time_unit": "ms"}]}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, real_ms in enumerate((17.5, 30.0)):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as f:
                json.dump(threaded(real_ms), f)
        base, cur = load_timings(paths[0]), load_timings(paths[1])
    ok = ok and base == {"BM_T/1/real_time": 17.5e6, "BM_S/1": 2.0e6}
    regressions, _, _ = compare(base, cur, 25.0)
    ok = ok and regressions == ["BM_T/1/real_time"]
    print("bench_compare self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 2


def main(argv):
    if "--self-test" in argv:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="max allowed gated-time increase in percent")
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    args = parser.parse_args(argv)

    baseline = load_timings(args.baseline)
    fresh = load_timings(args.fresh)
    if not baseline or not fresh:
        print("bench_compare: no comparable per-iteration timings found",
              file=sys.stderr)
        return 2

    regressions, warnings, lines = compare(baseline, fresh, args.threshold)
    print(f"bench_compare: {args.fresh} vs baseline {args.baseline} "
          f"(threshold +{args.threshold:g}%)")
    for line in lines:
        print(line)
    for warning in warnings:
        print(f"bench_compare: warning: {warning}", file=sys.stderr)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"+{args.threshold:g}%: {', '.join(regressions)}")
        return 1
    print("bench_compare: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
