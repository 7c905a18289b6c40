#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the benchmark binary
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or .bench_build, runs the
workload with its constants from perfbench/workloads.json, and prints the
run's noise stamp and then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list. A traced
run fails unless the binary emitted exactly the per-layer metrics named in the
workload's per_layer list in workloads.json; the others are reported as 0 and
listed in the stamp's not_applicable. Spans of a traced run are written to the
build directory.

--set key=value overrides one workload constant (the self-test uses it to
shrink the workloads); a run with overrides is not comparable to one without.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = os.path.join(build_dir(), "perfbench")
    exe = os.path.join(out, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return exe


def run(exe, workload, seed, seconds, trace, constants):
    if workload == "sim_grid":
        constants["jobs"] = min(int(constants["jobs"]), os.cpu_count() or 1)
    args = [exe, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
            f"--trace={trace}", f"--work_dir={build_dir()}"]
    args += [f"--{k}={v}" for k, v in constants.items()]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: run timed out")
    finally:
        # Daemons exit when their stdin closes; anything left in the process
        # group is stopped here.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: benchmark binary exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    stamp = next((json.loads(l[6:]) for l in lines if l.startswith("STAMP ")), {})
    return stamp, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {a.workload}")
    overrides = dict(kv.split("=", 1) for kv in a.set)
    with open(os.path.join(HERE, "workloads.json")) as f:
        constants = json.load(f)["workloads"][a.workload]
    layers = set(constants.pop("per_layer"))
    constants.update(overrides)

    exe = build()
    stamp, result = run(exe, a.workload, a.seed, a.seconds, a.trace, constants)

    wanted = spec["per_layer" if a.trace else "end_to_end"]
    measured = result["metrics"]
    metrics, not_applicable = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if a.trace and m["name"] not in layers:
            # A layer this workload does not exercise (workloads.json).
            if got is not None:
                raise SystemExit(f"perfbench: {a.workload} emitted {m['name']}, "
                                 "which its per_layer list leaves out")
            not_applicable.append(m["name"])
            got = {"value": 0.0}
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            raise SystemExit(f"perfbench: metric {m['name']} missing or not finite")
        if got.get("unit", m["unit"]) != m["unit"]:
            raise SystemExit(f"perfbench: metric {m['name']} in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not_applicable:
        stamp["not_applicable"] = ",".join(not_applicable)
    stamp["workload"] = a.workload
    stamp["seed"] = a.seed
    if overrides:
        stamp["overrides"] = overrides
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
