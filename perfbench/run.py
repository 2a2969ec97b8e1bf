"""chowkit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload table-cold --seed 1 --seconds 25 --trace 0

Run from the root of a chowkit checkout (it imports ``src/chowkit``).  The
inputs are generated from ``--seed``; each phase runs in a fresh interpreter
(perfbench/worker.py), one at a time.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs a fixed number of ops untraced and then traced
and prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-op wall-clock limit (s): a safety net far above the slowest op of any
# workload (the inputs keep every op below about a second), so no op can flip
# between ok and timeout from run to run.
LIMIT = 10.0
# Generated ops per second of --seconds; ample for the fastest expected code.
OPS_PER_SECOND = {"table-cold": 80, "principal-warm": 400, "declared-chow": 100}
# Traced runs process a fixed number of ops per second of --seconds, so the
# per-layer counts repeat exactly for a seed.
TRACE_OPS_PER_SECOND = {"table-cold": 5, "principal-warm": 10, "declared-chow": 6}
# peak_rss_mb is read before this op, so it does not grow with the number of
# ops a faster program completes in --seconds (every table-cold row adds a
# class group to the library's cache)
RSS_OPS = {"table-cold": 800, "principal-warm": 2000, "declared-chow": 200}
SETUP_SPAWNS = 6
TAIL_BEYOND = 10       # samples beyond the reported tail percentile

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def generate(workload, seed, n_ops, workdir):
    if workload == "table-cold":
        return workloads.table_cold(seed, n_ops)
    if workload == "principal-warm":
        return workloads.principal_warm(seed, n_ops)
    return workloads.declared_chow(seed, n_ops, workdir)


def spawn(workload, workdir, mode, deadline, **opts):
    """Run the worker once, wait for it, and return its result document."""
    out = os.path.join(workdir, f"result-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--inputs", os.path.join(workdir, "inputs.json"), "--out", out,
           "--mode", mode]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    cmd += ["--spawn-time", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def failed_latencies(statuses, latencies, limit):
    """Per-op latencies in s; an op that did not pass counts at least at the limit."""
    return [t if s == "ok" else max(t, limit) for s, t in zip(statuses, latencies)]


def spawn_scaled(workload, workdir, mode, deadline, **opts):
    """spawn(), with the worker's set-up time scaled by calibrations taken
    just before the spawn and just after the set-up."""
    ref = speed.calibrate()
    res = spawn(workload, workdir, mode, deadline, **opts)
    return res, speed.scale(res["setup_s"], (ref + res["setup_ref_s"]) / 2)


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def machine_note(root):
    src = os.path.join(root, "src", "chowkit")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": h.hexdigest()[:16]}


def count_statuses(statuses):
    return {k: statuses.count(k) for k in ("ok", "timeout", "error", "wrong")}


def end_to_end(args, workdir, deadline):
    # set-up samples before and after the timed phase, so that a slow or fast
    # stretch of the machine does not set the median alone
    setups = [spawn_scaled(args.workload, workdir, "setup", deadline)[1]
              for _ in range(SETUP_SPAWNS // 2)]
    res, setup_s = spawn_scaled(args.workload, workdir, "timed", deadline,
                                seconds=args.seconds, limit=LIMIT,
                                rss_ops=RSS_OPS[args.workload])
    setups.append(setup_s)
    setups += [spawn_scaled(args.workload, workdir, "setup", deadline)[1]
               for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
    lat = failed_latencies(res["statuses"], res["scaled"], LIMIT)
    wall = failed_latencies(res["statuses"], res["latencies"], LIMIT)
    counts = count_statuses(res["statuses"])
    n = len(lat)
    tail_value, tail_pct = tail(lat)
    metrics = {
        "ops_per_s": counts["ok"] / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"ops: {n} attempted, {counts['ok']} ok, {counts['timeout']} timeout "
          f"(limit {LIMIT} s), {counts['error']} error, {counts['wrong']} wrong "
          f"in {res['elapsed_s']:.2f} s")
    print(f"failed_frac: {1 - counts['ok'] / n:.4f}; slowest op {max(res['latencies']):.3f} s")
    print(f"latency_tail_ms is p{tail_pct:.2f} of {n} samples")
    print(f"times scaled to the reference speed (perfbench/speed.py); the host ran at "
          f"{sum(res['scaled']) / sum(res['latencies']):.3f} of it; unscaled: "
          f"ops_per_s {counts['ok'] / sum(wall):.4g}, latency_p50_ms "
          f"{1000 * statistics.median(wall):.4g}, latency_tail_ms {1000 * tail(wall)[0]:.4g}")
    print(f"peak_rss_mb read before op {res['rss_ops']}")
    print(f"setup_s samples (scaled): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"output digest: {res['digest']}")
    if res["exhausted"]:
        print("warning: the generated op list ran out before --seconds")
    correct = counts["wrong"] == 0 and counts["error"] == 0
    return correct, n, n - counts["ok"], res["problems"], {
        name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(args, workdir, deadline):
    count = TRACE_OPS_PER_SECOND[args.workload] * args.seconds
    plain = spawn(args.workload, workdir, "count", deadline, count=count, limit=LIMIT)
    trace_dir = os.path.join(os.getcwd(), ".perfbench")
    trace_file = os.path.join(trace_dir, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    traced = spawn(args.workload, workdir, "count", deadline, count=count, limit=LIMIT,
                   trace_file=trace_file)
    both = [k for k, (a, b) in enumerate(zip(plain["statuses"], traced["statuses"]))
            if a == b == "ok"]
    t_plain = sum(plain["scaled"][k] for k in both)
    t_traced = sum(traced["scaled"][k] for k in both)
    layers = traced["layers"]
    layers["trace.overhead_frac"] = t_traced / t_plain - 1 if t_plain else 0.0
    same = plain["digest"] == traced["digest"]
    for k, (a, b) in enumerate(zip(plain["statuses"], traced["statuses"])):
        if a != b:
            print(f"op {k}: {a} in {plain['latencies'][k]:.4f} s untraced, "
                  f"{b} in {traced['latencies'][k]:.4f} s traced")
    counts = count_statuses(traced["statuses"])
    print(f"traced ops: {count} ({counts['ok']} ok, {counts['timeout']} timeout, "
          f"{counts['error']} error, {counts['wrong']} wrong); {traced['spans']} spans "
          f"written to {os.path.relpath(trace_file)}")
    print(f"output digest untraced {plain['digest']}")
    print(f"output digest traced   {traced['digest']} ({'identical' if same else 'DIFFERENT'})")
    print(f"trace.overhead_frac: {layers['trace.overhead_frac']:.4f}")
    correct = same and counts["wrong"] == 0 and counts["error"] == 0
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _ in tracing.metric_specs()}
    return correct, count, count - counts["ok"], traced["problems"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + 170
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chowkit", "__init__.py")):
        print("error: run from the root of a chowkit checkout (src/chowkit not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        n_ops = OPS_PER_SECOND[args.workload] * args.seconds
        inputs = generate(args.workload, args.seed, n_ops, workdir)
        with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as handle:
            json.dump(inputs, handle)
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
              f"trace {args.trace}; closed loop, 1 client, 1 process, 1 thread")
        print("machine: " + json.dumps(machine_note(root)))
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, problems, metrics = run(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"check failed: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
