#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/check.py [--seconds S]

1. BENCHMARK.json names exactly the metrics the benchmark prints: the
   end-to-end metrics untraced, the per-layer metrics traced.
2. Count determinism: two traced runs of the default seed report identical
   core.bnb.nodes and core.bnb.lp_evaluations on `exact`, and identical
   net.shm.frames_*, net.shm.bytes_* and service.cache.hits on `sharded`.
3. Layer loading: core.bnb self time is the majority on `exact` and zero on
   `sharded`; on `sharded`, shard/net self time (the router call minus the
   busiest shard's in-process work) is at least a quarter of all self time
   and more than every solver layer together, and it is zero on `exact`;
   no worker fell back off the shm data plane.
4. Held-out seed: every workload runs once on the held-out seed of
   perfbench/config.json with every output check passing (success_ratio 1).

Exits non-zero and names the failed check when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PINNED_COUNTS = {
    "exact": ["core.bnb.nodes", "core.bnb.lp_evaluations"],
    "sharded": ["net.shm.frames_out", "net.shm.frames_in",
                "net.shm.bytes_out", "net.shm.bytes_in",
                "service.cache.hits"],
}


SOLVER_LAYERS = ["core.bnb", "core.enumeration", "core.water_filling", "sim"]


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("FAIL: %s seed %d trace %d exited %d"
                         % (workload, seed, trace, done.returncode))
    return json.loads(lines[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="window of the held-out untraced runs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    failures = []

    traced = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        first = run(workload, config["default_seed"], 1, 1)
        second = run(workload, config["default_seed"], 1, 1)
        traced[workload] = first
        if set(first["metrics"]) != per_layer:
            failures.append("%s traced metrics differ from BENCHMARK.json"
                            % workload)
        for name in PINNED_COUNTS.get(workload, []):
            if value(first, name) != value(second, name):
                failures.append("%s: %s not deterministic (%s vs %s)"
                                % (workload, name, value(first, name),
                                   value(second, name)))

        held_out = run(workload, config["held_out_seed"], args.seconds, 0)
        if set(held_out["metrics"]) != end_to_end:
            failures.append("%s untraced metrics differ from BENCHMARK.json"
                            % workload)
        if not held_out["correct"] or value(held_out, "success_ratio") != 1:
            failures.append("%s failed on the held-out seed" % workload)
        print("%s: held-out seed %d ok, %d requests"
              % (workload, config["held_out_seed"], held_out["attempted"]))

    exact, sharded = traced["exact"], traced["sharded"]
    if not value(exact, "trace.core.bnb.self_share") > 0.5:
        failures.append("core.bnb is not the majority of exact self time")
    if value(sharded, "trace.core.bnb.self_share") != 0:
        failures.append("core.bnb self time on sharded")
    shard_net = value(sharded, "trace.shard_net.self_share")
    solvers = sum(value(sharded, "trace.%s.self_share" % layer)
                  for layer in SOLVER_LAYERS)
    if not (shard_net >= 0.25 and shard_net > solvers):
        failures.append("shard/net self time on sharded is %.3f, solvers %.3f"
                        % (shard_net, solvers))
    print("self shares: core.bnb %.3f of exact; shard/net %.3f and solvers "
          "%.3f of sharded" % (value(exact, "trace.core.bnb.self_share"),
                               shard_net, solvers))
    if value(exact, "trace.shard_net.self_share") != 0:
        failures.append("shard/net self time on exact")
    if value(sharded, "shard.transport.shm_fallbacks") != 0:
        failures.append("a sharded worker fell back to the socketpair")

    for failure in failures:
        print("FAIL: " + failure)
    print("perfbench checks: %s" % ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
