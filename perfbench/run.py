#!/usr/bin/env python3
"""Builds the benchmark and runs one workload against a fresh aqua_serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all four workloads, tiny inputs
    python3 perfbench/run.py --selftest   # each correctness check must fail
                                          # on deliberately wrong answers

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build), the server logs and traces to .bench_out.  The
last line of a benchmark run's stdout is its result as one JSON object.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["ingest", "read_cached", "read_uncached", "read_write"]
ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; the client itself finishes long before.
RUN_TIMEOUT_S = 170


def build():
    """Configures once and builds incrementally; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def client(workload, seed, seconds, trace, extra=()):
    """Runs perf_client in its own process group and returns (code, stdout).

    Whatever the client leaves behind (it stops its server itself) is
    killed with the group and waited for before returning.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perf_client"),
           "--server", os.path.join(BUILD_DIR, "aqua", "server", "aqua_serve"),
           "--out", OUT_DIR, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = -1
        sys.stderr.write("perfbench: %s timed out\n" % workload)
    reap_group(proc.pid)
    return code, out


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def smoke(selftest):
    ok = True
    caught = {}
    for workload in WORKLOADS:
        extra = ["--smoke"] + (["--selftest"] if selftest else [])
        code, out = client(workload, 1, 1, False, extra)
        sys.stdout.write(out)
        if code != 0:
            ok = False
        for line in out.splitlines():
            parts = line.split()
            if selftest and len(parts) == 3 and parts[0] == "selftest":
                caught.setdefault(parts[1], []).append(parts[2])
        lines = out.strip().splitlines()
        if not selftest and (not lines or '"correct": true' not in lines[-1]):
            ok = False
    if selftest:
        for check, results in sorted(caught.items()):
            # Each check must catch its corruption on some workload and
            # miss it on none.
            good = "caught" in results and "MISSED" not in results
            ok = ok and good
            print("selftest %-24s %s" % (check, "ok" if good else "FAILED"))
    print("perfbench %s %s" % ("selftest" if selftest else "smoke",
                               "passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.selftest or args.workload):
        parser.error("one of --workload, --smoke or --selftest is required")
    if not build():
        return 1
    if args.smoke or args.selftest:
        return smoke(args.selftest)
    code, out = client(args.workload, args.seed, args.seconds, args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
