#!/usr/bin/env python3
"""The repo benchmark: builds parhop_perfbench from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build-road --seed 1 --seconds 16 --trace 0

The first run configures and builds the library and the parhop_perfbench
binary into .bench_build/perfbench (Release); later runs reuse that tree. The
binary's metric table goes to standard output as it is produced; the last line
is one JSON object with exactly the keys correct, attempted, failed and metrics,
where metrics holds every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1). A traced run also writes its spans in
Chrome trace-event format to .bench_build/traces/<workload>-seed<seed>.json.

Exit status: 0 when every correctness gate passed; non-zero, without a result
line, when the sources are missing, the build fails or a run breaks; 1 with a
result line whose "correct" is false when a gate failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "parhop_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the binary up to date (a no-op when it is)."""
    for need in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            fail("missing %s: run from the root of a parhop checkout" % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "parhop_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (default 1; 104729 is the held-out seed)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs: checks the pipeline, measures nothing")
    args = ap.parse_args()

    if not os.path.exists("BENCHMARK.json"):
        fail("BENCHMARK.json not found: run from the root of the checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    workdir = os.path.join(".bench_build", "work-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("parhop_perfbench exited %d without a result line" % proc.returncode)
    if proc.returncode not in (0, 1):
        fail("parhop_perfbench exited %d" % proc.returncode)

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail("parhop_perfbench did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print("# %s seed=%d trace=%d: %.1f s" % (args.workload, args.seed, args.trace,
                                             time.monotonic() - start))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
