#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

Usage (from the root of a checkout):

    python3 perfbench/smoke_test.py

For every workload listed in BENCHMARK.json it runs the benchmark in smoke
mode (tiny inputs, one round) and checks that

  - an untraced run prints every end-to-end metric and a traced run every
    per-layer metric, each with the unit BENCHMARK.json gives it, as a
    finite number, on a last line with exactly the keys correct, attempted,
    failed and metrics, and that the run is correct and exits 0;
  - the line before it stamps the host facts;
  - a run with a seeded wrong reference (--inject-wrong) is caught: it
    exits 1 and reports correct false with at least one failed operation.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = {"simd_isa", "nproc", "l2_per_core", "llc", "build_type"}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2:
        return p.returncode, None, None, p.stderr
    return p.returncode, json.loads(lines[-2]), json.loads(lines[-1]), p.stderr


def check_result(label, rc, details, result, expected, errors):
    def fail(why):
        errors.append("%s: %s" % (label, why))

    if result is None:
        fail("no result line (exit %d)" % rc)
        return
    if rc != 0:
        fail("exit code %d" % rc)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
        return
    if result["correct"] is not True or result["failed"] != 0:
        fail("run not correct: %s" % {k: result[k] for k in ("correct", "failed")})
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted %r" % result["attempted"])
    got = result["metrics"]
    if set(got) != set(expected):
        fail("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            fail("%s unit %r, want %r" % (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail("%s value %r" % (name, v))
    if details is None or not HOST_KEYS <= set(details.get("host", {})):
        fail("host facts missing from the details line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, expected in ((0, e2e), (1, layer)):
            rc, details, result, _ = run(name, trace)
            check_result("%s trace=%d" % (name, trace), rc, details, result,
                         expected, errors)
        rc, _, result, _ = run(name, 0, "--inject-wrong")
        if rc != 1 or result is None or result["correct"] is not False \
                or result["failed"] < 1:
            errors.append("%s: seeded wrong answer not caught (exit %d, %s)" % (
                name, rc, result and {k: result[k] for k in ("correct", "failed")}))
        print("%s: %s" % (name, "checked"), flush=True)
    for e in errors:
        print("FAIL " + e)
    print("smoke test %s" % ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
