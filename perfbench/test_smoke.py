#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at smoke size, untraced and traced.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py

Each case runs perfbench/run.py with --smoke (tiny graphs, one second) and
checks the contract of the result line: the exact top-level keys, every
metric BENCHMARK.json lists for that mode with its unit, finite numbers, no
failed gate, and that a traced run left a Chrome trace file that parses.
Exits non-zero on the first broken case.
"""

import json
import math
import os
import subprocess
import sys


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            name = "%s trace=%d" % (w["name"], trace)
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True, timeout=600)
            check(r.returncode == 0, "%s exited %d" % (name, r.returncode))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (name, sorted(res)))
            check(res["correct"] is True and res["failed"] == 0,
                  "%s: a correctness gate failed" % name)
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
                  "%s: attempted %r" % (name, res["attempted"]))
            wanted = spec["per_layer" if trace else "end_to_end"]
            check(sorted(res["metrics"]) == sorted(m["name"] for m in wanted),
                  "%s: metric names differ from BENCHMARK.json" % name)
            for m in wanted:
                got = res["metrics"][m["name"]]
                check(got["unit"] == m["unit"], "%s: unit of %s" % (name, m["name"]))
                check(isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      "%s: value of %s" % (name, m["name"]))
            if trace:
                path = os.path.join(".bench_build", "traces",
                                    "%s-seed3.json" % w["name"])
                with open(path) as f:
                    doc = json.load(f)
                check(len(doc["traceEvents"]) > 0 and
                      all(e["ph"] == "X" for e in doc["traceEvents"]),
                      "%s: trace file has no complete events" % name)
            print("ok   " + name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
