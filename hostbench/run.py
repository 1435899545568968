#!/usr/bin/env python3
"""Run one workload of the host-cost benchmark and print its result.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `hostbench` binary
from source (into $CARGO_TARGET_DIR, default `.bench_build`), then starts
one process per measured universe until `--seconds` have passed (at least
three), so that each process's peak memory belongs to one universe. Every
process runs the same seed; their deterministic digests must agree, and a
process that disagrees counts all its operations as failed.

With `--trace 0` the result's metrics are the medians of the end-to-end
metrics over those processes. With `--trace 1` one more process runs the
universe with the event trace and the scheduler profile on; the result's
metrics are that run's per-layer metrics, compared against the untraced
medians, and its digest must match theirs too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("jquick", "comm_create", "wildcard_storm")
END_TO_END = ("wall_s", "setup_s", "peak_rss_kb_per_rank", "virtual_makespan_us")
MIN_RUNS = 3
# Every invocation must end well within three minutes.
BUDGET_S = 165.0


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the release binary; return its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    exe = target / "release" / "hostbench"
    if done.returncode != 0 or not exe.is_file():
        log("build failed")
        return None
    return exe


def run_universe(exe, args, timeout):
    """Run one measured universe; its JSON report, or None if it crashed."""
    try:
        done = subprocess.run([str(exe), *args], capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log(f"universe {' '.join(args)} timed out")
        return None
    if done.returncode != 0:
        log(f"universe {' '.join(args)} exited {done.returncode}: {done.stderr[-500:]}")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"universe {' '.join(args)} printed no report")
        return None


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this mode, name -> unit, or
    None when there is no BENCHMARK.json in the working directory."""
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except FileNotFoundError:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def medians(reports, names):
    """Per metric name, the median value over reports, with its unit."""
    out = {}
    for name in names:
        values = [r["end_to_end"][name]["value"] for r in reports]
        out[name] = {"value": statistics.median(values),
                     "unit": reports[0]["end_to_end"][name]["unit"]}
    return out


def tally(reports, crashed):
    """(attempted, failed) over all reports. A report whose digest differs
    from the first report's fails all its operations, and so does a crashed
    process (counted at the size of a completed one)."""
    per_run = max((r["attempted"] for r in reports), default=1)
    attempted = sum(r["attempted"] for r in reports) + crashed * per_run
    failed = crashed * per_run
    for r in reports:
        if r["digest"] != reports[0]["digest"]:
            log(f"digest {r['digest']} differs from {reports[0]['digest']} (traced={r['traced']})")
            failed += r["attempted"]
        else:
            failed += r["failed"]
        for e in r["errors"]:
            log(f"failure: {e}")
    return attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so that the running child is killed
    # and waited for before the script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    exe = build()
    if exe is None:
        return 1
    start = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    reports, crashed, longest = [], 0, 0.0
    measure_start = time.monotonic()
    while len(reports) + crashed < MIN_RUNS or time.monotonic() - measure_start < args.seconds:
        left = BUDGET_S - (time.monotonic() - start) - (2.0 * longest if args.trace else 0.0)
        if len(reports) + crashed >= MIN_RUNS and left < 1.5 * longest:
            break
        t0 = time.monotonic()
        report = run_universe(exe, base, left)
        longest = max(longest, time.monotonic() - t0)
        if report is None:
            crashed += 1
        else:
            reports.append(report)
    if not reports:
        log("no universe completed")
        return 1
    untraced = medians(reports, END_TO_END)
    log(f"{len(reports)} untraced runs: " + ", ".join(
        f"{k}={v['value']:.6g}" for k, v in untraced.items()))
    log("wall_s of each run: " + " ".join(f"{r['end_to_end']['wall_s']['value']:.3f}" for r in reports))

    metrics = untraced
    if args.trace:
        ref = ["--ref-wall-s", repr(untraced["wall_s"]["value"]),
               "--ref-rss-kb-per-rank", repr(untraced["peak_rss_kb_per_rank"]["value"])]
        left = BUDGET_S - (time.monotonic() - start)
        traced = run_universe(exe, base + ["--traced", *ref], left)
        if traced is None:
            crashed += 1
        else:
            reports.append(traced)
            metrics = traced["per_layer"]

    attempted, failed = tally(reports, crashed)
    if args.trace and metrics is untraced:
        log("the traced run did not complete")
        return 1
    declared = declared_metrics(args.trace)
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if declared is not None and declared != emitted:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(declared.keys() - emitted.keys())}, "
            f"undeclared {sorted(emitted.keys() - declared.keys())}, "
            f"units {sorted(n for n in declared.keys() & emitted.keys() if declared[n] != emitted[n])}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
