#!/usr/bin/env python3
"""Performance gate: perfbench on a base and a head checkout, same host.

Run from the root of the head checkout:

    python3 tools/perf_gate.py --base ../base

For every workload in head's BENCHMARK.json it runs perfbench's
end-to-end mode (--trace 0) on both checkouts in PAIRS alternating pairs:
pair i passes --seed i to both sides, odd pairs run base first and even
pairs head first, so host drift lands on both sides alike. Each side
builds its own perfbench_tool into its own .bench_build/.

It exits 1, naming the side, workload and pair, when a run exits non-zero,
prints no result or reports correct=false; when a workload's pooled
failed/attempted is larger on head than on base; or when head's median
of an end-to-end metric is worse than base's by more than the metric's
bound in BENCHMARK.json. Otherwise it exits 0. Each run's raw result line
and a table of base median, head median, ratio and verdict per workload
and metric go to stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
PAIRS = 5
# A run's first build takes about a minute and a measured run well under
# one; this only stops a wedged run from holding the gate forever.
RUN_TIMEOUT_S = 1800


class GateError(Exception):
    pass


def run_once(command, checkout, workload, seed, seconds, metric_names):
    """Runs perfbench once in `checkout` and returns its result object."""
    env = dict(os.environ)
    # perfbench builds into $CARGO_TARGET_DIR when it is set; shared by both
    # sides, one build would be timed against itself.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=checkout, env=env,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError(f"timed out after {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise GateError(f"exited {done.returncode}")
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            not {"correct", "attempted", "failed"} <= result.keys() or
            not set(metric_names) <= result.get("metrics", {}).keys()):
        raise GateError("its last stdout line is not a result")
    if result["correct"] is not True:
        raise GateError("reported correct=false")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="root of the base checkout")
    base = parser.parse_args().base.resolve()
    config = json.loads((HEAD / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]
    seconds = config["run_seconds"]
    sides = {"base": base, "head": HEAD}
    print(f"perf_gate: base {base}, head {HEAD}; {PAIRS} pairs x "
          f"{len(workloads)} workloads, {seconds} s per run", flush=True)

    results = {(side, w): [] for side in sides for w in workloads}
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            order = ("base", "head") if pair % 2 == 1 else ("head", "base")
            for side in order:
                try:
                    result = run_once(config["command"], sides[side],
                                      workload, pair, seconds,
                                      [m["name"] for m in metrics])
                except GateError as e:
                    print(f"perf_gate: FAIL: {side} {workload} pair {pair}: "
                          f"{e}", flush=True)
                    return 1
                results[(side, workload)].append(result)
                print(f"{side} {workload} pair {pair}: {json.dumps(result)}",
                      flush=True)

    failures = []
    for workload in workloads:
        rate = {}
        for side in sides:
            runs = results[(side, workload)]
            attempted = sum(r["attempted"] for r in runs)
            rate[side] = sum(r["failed"] for r in runs) / max(attempted, 1)
        if rate["head"] > rate["base"]:
            failures.append(f"{workload}: head failed {rate['head']:.3%} of "
                            f"operations, base {rate['base']:.3%}")

    print(f"\n{'workload':<16} {'metric':<16} {'base':>12} {'head':>12} "
          f"{'ratio':>7}  verdict")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            median = {side: statistics.median(
                          r["metrics"][name]["value"]
                          for r in results[(side, workload)])
                      for side in sides}
            b, h = median["base"], median["head"]
            if metric["better"] == "lower":
                worse = h > b * (1 + metric["bound"])
            else:
                worse = h < b * (1 - metric["bound"])
            ratio = f"{h / b:7.3f}" if b else f"{'n/a':>7}"
            verdict = "WORSE" if worse else "ok"
            print(f"{workload:<16} {name:<16} {b:>12.6g} {h:>12.6g} {ratio}  "
                  f"{verdict} (bound {metric['bound']:.0%}, "
                  f"{metric['better']} is better)")
            if worse:
                failures.append(f"{workload}: {name} median {h:.6g} against "
                                f"base {b:.6g}, beyond its "
                                f"{metric['bound']:.0%} bound")
    for failure in failures:
        print(f"perf_gate: FAIL: {failure}")
    if failures:
        return 1
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
