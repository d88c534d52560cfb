#!/usr/bin/env python3
"""GenDT end-to-end benchmark.

    python3 perfbench/run.py --workload covermap|serve-batch|stream|all
                             --seed N --seconds S --trace 0|1 [--corrupt]

Builds the runner (perfbench/CMakeLists.txt, against the repository's
sources) under .bench_build/, runs each workload in its own process, checks
its outputs and prints every metric by name with unit and sample count. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. The exit code is non-zero when an output check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("covermap", "serve-batch", "stream")

# SLO limits behind slo_ok_frac, per workload: (time to first chunk, largest
# chunk gap), in ms. They sit several times above the typical values, so the
# fraction reads 1.0 on a healthy build and drops on stalls and failures.
SLO_LIMITS_MS = {
    "covermap": (150.0, 150.0),
    "serve-batch": (2500.0, 1000.0),
    "stream": (250.0, 150.0),
}

END_TO_END = [
    ("windows_per_s", "windows/s"),
    ("cpu_ms_per_window", "ms"),
    ("ttfc_p50_ms", "ms"),
    ("ttfc_p90_ms", "ms"),
    ("chunk_gap_p50_ms", "ms"),
    ("chunk_gap_p90_ms", "ms"),
    ("slo_ok_frac", "frac"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Layer names: a span's layer is its name up to the last dot.
LAYERS = ("core", "context", "runtime", "serve", "serve.stream", "baselines")


def median(values):
    return statistics.median(values) if values else None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally. Returns the runner path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    with open(logfile, "w") as fh:
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode != 0:
            return None
    runner = out / "perfbench"
    return runner if runner.exists() else None


def run_workload(runner, workload, seed, seconds, trace, corrupt):
    workdir = build_dir().parent / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    cmd = [str(runner), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(result),
           "--workdir", os.path.relpath(workdir, ROOT)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=seconds + 120)
        if proc.returncode != 0 or not result.exists():
            log(f"perfbench: {workload} runner exited with {proc.returncode}")
            return None
        with open(result) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} runner timed out")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def mflop_per_window(raw):
    """MFLOP of one generated window from the model's weight shapes (a
    multiply-add is two): the node LSTM runs once per visible cell per step,
    every other generator weight once per step. Biases and activations are
    not counted."""
    per_cell = per_step = 0
    for name, rows, cols in raw["params"]:
        if rows == 1:
            continue
        if ".node." in name:
            per_cell += rows * cols
        else:
            per_step += rows * cols
    cells = raw["counters"].get("cells_per_window", 0.0)
    steps = raw["counters"].get("window_len", 0.0)
    return 2.0 * steps * (cells * per_cell + per_step) / 1e6


def end_to_end(raw, workload):
    """name -> (value, unit, samples)."""
    ttfc_limit, gap_limit = SLO_LIMITS_MS[workload]
    units = raw["units"]
    windows = raw["windows"]
    m = {
        "windows_per_s": (windows / raw["wall_s"] if raw["wall_s"] > 0 else 0.0, windows),
        "cpu_ms_per_window": (1e3 * raw["cpu_s"] / windows if windows else 0.0, windows),
        "ttfc_p50_ms": (stats.percentile(raw["ttfc_ms"], 50), len(raw["ttfc_ms"])),
        "ttfc_p90_ms": (stats.percentile(raw["ttfc_ms"], 90), len(raw["ttfc_ms"])),
        "chunk_gap_p50_ms": (stats.percentile(raw["gap_ms"], 50), len(raw["gap_ms"])),
        "chunk_gap_p90_ms": (stats.percentile(raw["gap_ms"], 90), len(raw["gap_ms"])),
        "slo_ok_frac": (stats.slo_ok_frac(raw["ops"], ttfc_limit, gap_limit), len(raw["ops"])),
        "ok_frac": (raw["units_ok"] / units if units else 0.0, units),
        "setup_s": (median(raw["setup_s"]), len(raw["setup_s"])),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }
    units_of = dict(END_TO_END)
    return {k: (float(v or 0.0), units_of[k], n) for k, (v, n) in m.items()}


def per_layer(raw):
    """name -> (value, unit, samples) from the traced run."""
    names = raw["span_names"]
    spans = {s[0]: (s[1], s[7], s[8]) for s in raw["spans"]}
    name_of = {s[0]: names[s[2]] for s in raw["spans"]}

    def layer(sid):
        return name_of[sid].rsplit(".", 1)[0]

    selfs = stats.self_times(spans)
    by_name = {}
    for s in raw["spans"]:
        by_name.setdefault(names[s[2]], []).append(s)

    def dur(name):
        return [s[8] - s[7] for s in by_name.get(name, [])]

    def layer_sum(lay, field):
        return sum(s[field] for s in raw["spans"] if layer(s[0]) == lay)

    def layer_self(lay):
        return sum(v for sid, v in selfs.items() if layer(sid) == lay)

    c = raw["counters"]
    m = {}
    m["sim.dataset_s"] = (median(raw["dataset_s"]), "s", len(raw["dataset_s"]))
    m["nn.pack_load_ms"] = (median(raw["pack_load_ms"]), "ms", len(raw["pack_load_ms"]))
    m["baselines.fdas_fit_ms"] = (median(raw["fdas_fit_ms"]), "ms", len(raw["fdas_fit_ms"]))

    mflop = mflop_per_window(raw)
    m["nn.mflop_per_window"] = (mflop, "MFLOP", 1)
    core_self, core_windows = layer_self("core"), layer_sum("core", 6)
    core_calls = sum(1 for sid in name_of if layer(sid) == "core")
    m["nn.gflops_achieved"] = (mflop * core_windows / core_self / 1e3 if core_self else 0.0,
                               "GFLOP/s", core_windows)
    ctx_self, ctx_windows = layer_self("context"), layer_sum("context", 6)
    m["context.ms_per_window"] = (1e3 * ctx_self / ctx_windows if ctx_windows else 0.0, "ms",
                                  ctx_windows)
    m["core.ms_per_window"] = (1e3 * core_self / core_windows if core_windows else 0.0, "ms",
                               core_windows)
    m["core.lanes_per_call"] = (layer_sum("core", 5) / core_calls if core_calls else 0.0, "count",
                                core_calls)
    m["core.warm_peak_kib"] = (c.get("warm_peak_bytes", 0.0) / 1024.0, "KiB", 1)

    threads = c.get("threads", 1.0)
    tasks, rollout = dur("runtime.task"), dur("runtime.parallel_tasks")
    m["runtime.pool_busy_frac"] = (sum(tasks) / (threads * sum(rollout)) if rollout else 0.0,
                                   "frac", len(tasks))
    gens = dur("core.generate") + dur("baselines.generate")
    router = dur("serve.router_serve")
    m["serve.worker_busy_frac"] = (sum(gens) / (threads * sum(router)) if router else 0.0,
                                   "frac", len(gens))
    req_ms = [1e3 * d for d in dur("core.generate")]
    m["serve.request_ms_p50"] = (stats.percentile(req_ms, 50), "ms", len(req_ms))
    m["serve.request_ms_p90"] = (stats.percentile(req_ms, 90), "ms", len(req_ms))
    for k in ("retries", "degraded", "shed"):
        m["serve." + k] = (c.get(k, 0.0), "count", 1)

    open_ms = [1e3 * d for d in dur("serve.stream.open")]
    m["serve.stream.open_ms_p50"] = (stats.percentile(open_ms, 50), "ms", len(open_ms))
    gen_ms = [1e3 * d for d in dur("core.next_chunk")]
    m["serve.stream.gen_ms_per_chunk"] = (sum(gen_ms) / len(gen_ms) if gen_ms else 0.0, "ms",
                                          len(gen_ms))
    snap_us = [1e6 * d for d in dur("serve.stream.snapshot")]
    m["serve.stream.snapshot_us"] = (sum(snap_us) / len(snap_us) if snap_us else 0.0, "us",
                                     len(snap_us))
    gen_of = {(s[3], s[4]): 1e3 * (s[8] - s[7]) for s in by_name.get("core.next_chunk", [])}
    waits = [gap - gen_of[(sess, idx)] for sess, idx, gap, _ in raw["chunks"]
             if (sess, idx) in gen_of]
    m["serve.stream.wait_ms_p50"] = (stats.percentile(waits, 50), "ms", len(waits))
    m["serve.stream.wait_ms_p90"] = (stats.percentile(waits, 90), "ms", len(waits))
    m["serve.stream.bad_frames"] = (c.get("bad_frames", 0.0), "count", 1)
    m["serve.stream.resumes"] = (c.get("resumes", 0.0), "count", 1)
    wire = [b for _, _, _, b in raw["chunks"] if b > 0]
    m["net.kib_per_chunk"] = (sum(wire) / len(wire) / 1024.0 if wire else 0.0, "KiB", len(wire))

    traced = raw["traced_windows"] / raw["traced_wall_s"] if raw["traced_wall_s"] > 0 else 0.0
    untraced = raw["windows"] / raw["wall_s"] if raw["wall_s"] > 0 else 0.0
    m["trace.windows_per_s_traced"] = (traced, "windows/s", raw["traced_windows"])
    m["trace.windows_per_s_untraced"] = (untraced, "windows/s", raw["windows"])
    m["trace.overhead_frac"] = (1.0 - traced / untraced if untraced else 0.0, "frac", 2)

    shares = stats.wall_shares(spans, lambda sid: layer(sid))
    wall = sum(e - s for p, s, e in spans.values() if p == 0)
    for lay in LAYERS:
        m["wall_frac." + lay] = (shares.get(lay, 0.0) / wall if wall else 0.0, "frac", len(spans))
    m["wall_frac.unattributed"] = (shares.get("bench", 0.0) / wall if wall else 0.0, "frac",
                                   len(spans))
    accounted = sum(shares.values())
    return {k: (float(v or 0.0), u, n) for k, (v, u, n) in m.items()}, wall, accounted


def evaluate(raw, workload, trace):
    """Returns (correct, attempted, failed, metrics, problems)."""
    problems = list(raw["problems"])
    if raw["mismatched"]:
        problems.append(f"{raw['mismatched']} of {raw['checked']} checked outputs differ")
    if trace:
        metrics, wall, accounted = per_layer(raw)
        if wall <= 0 or abs(accounted - wall) > 1e-6 * max(1.0, wall):
            problems.append(f"layer shares account for {accounted:.6f} s of {wall:.6f} s traced")
    else:
        metrics = end_to_end(raw, workload)
    attempted = raw["units"]
    failed = attempted - raw["units_ok"]
    correct = not problems and attempted > 0
    return correct, attempted, failed, metrics, problems


def report(raw, workload, trace, correct, attempted, failed, metrics, problems):
    print(f"== {workload} ({'traced, per-layer' if trace else 'end-to-end'})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:10s} n={n}")
    print(f"  ops attempted={attempted} failed={failed} correct={correct}")
    oracle = "bit for bit" if raw["counters"].get("oracle_bitwise") else "SIMD rollout tolerance"
    print(f"  checked {raw['checked']} outputs: re-run bit for bit, sample_windows {oracle} "
          f"(max |dev| {raw['counters'].get('oracle_max_abs_dev', 0.0):.3g})")
    for p in problems:
        print(f"  problem: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one bit of one checked output; the run must then fail")
    args = ap.parse_args()

    runner = build()
    if runner is None:
        log(f"perfbench: build failed; see {build_dir() / 'build.log'}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        raw = run_workload(runner, w, args.seed, args.seconds, args.trace, args.corrupt)
        if raw is None:
            return 1
        correct, attempted, failed, metrics, problems = evaluate(raw, w, args.trace)
        report(raw, w, args.trace, correct, attempted, failed, metrics, problems)
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = "" if len(workloads) == 1 else w + "/"
        for name, (value, unit, _) in metrics.items():
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
