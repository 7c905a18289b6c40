#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that
  - an untraced run emits every end_to_end metric, and a traced run every
    per_layer metric, each with the unit BENCHMARK.json gives it;
  - the run is correct with no failed operation (error ratio 0);
  - the same seed reproduces the same request sequence (daemon workloads)
    or the same cell digest (sim_grid), and another seed does not.
It also runs coop_mix with 2% origin modifies, which the gated workload
leaves out, and checks that no stale or wrong body was served. That check
fails while the daemons' stale-read defect stands (perfbench/NOTES.md).
Exits non-zero if any check failed; every check is run and reported.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TINY = {
    "sim_grid": {"scale": "0.0005", "setup_repeats": "1"},
    "hot_get": {"objects": "256", "rate": "400", "closed_ops_per_client": "2048",
                "closed_warm_s": "0.25", "setup_repeats": "1"},
    "coop_mix": {"objects": "512", "rate": "200", "warm_requests_per_client": "128",
                 "closed_ops_per_client": "2048", "closed_warm_s": "0.25", "ram_bytes": "1048576",
                 "disk_bytes": "8388608", "setup_repeats": "1"},
}
DIGEST = {"sim_grid": "sim_digest", "hot_get": "request_digest", "coop_mix": "request_digest"}


def run(workload, seed, trace, extra=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace)]
    for k, v in {**TINY[workload], **(extra or {})}.items():
        cmd += ["--set", f"{k}={v}"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload}: run.py exited {out.returncode}\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2][len("stamp "):]), json.loads(lines[-1])


FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
        print(f"FAIL {msg}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        stamp_a, res_a = run(name, 7, 0)
        stamp_b, res_b = run(name, 7, 0)
        stamp_c, _ = run(name, 8, 0)
        _, traced = run(name, 7, 1)
        for res, section in ((res_a, "end_to_end"), (traced, "per_layer")):
            for m in spec[section]:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{name}: {section} metric {m['name']} missing or not in {m['unit']}")
            check(res["correct"] and res["failed"] == 0,
                  f"{name}: {res['failed']} of {res['attempted']} operations failed")
        key = DIGEST[name]
        check(stamp_a[key] == stamp_b[key], f"{name}: seed 7 gave {stamp_a[key]} then {stamp_b[key]}")
        check(stamp_a[key] != stamp_c[key], f"{name}: seeds 7 and 8 gave the same {key}")
        print(f"done {name}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics, {key} {stamp_a[key]}", flush=True)
    _, res = run("coop_mix", 7, 0, {"modify_share": "0.02"})
    check(res["correct"] and res["failed"] == 0,
          f"coop_mix with modifies: {res['failed']} of {res['attempted']} operations failed")
    print("done coop_mix with modifies", flush=True)
    if FAILURES:
        sys.exit(f"selftest: {len(FAILURES)} check(s) failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
