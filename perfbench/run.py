#!/usr/bin/env python3
"""Run one workload of the SEPAR benchmark of record.

    python3 perfbench/run.py --workload audit|serve|enforce --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/bench.exe with dune (the first run builds the libraries too),
runs it, measures the run's peak resident memory from outside, checks
that the metric names and units match BENCHMARK.json, and prints two
lines: the run's provenance and figures, then the result object
{"correct", "attempted", "failed", "metrics"}.  It exits non-zero,
without a result, when the checkout, the build or the run is broken.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import threading

WORKLOADS = ("audit", "serve", "enforce")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_bench(args):
    """Run bench.exe; return its stdout lines and peak RSS in MB."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 rather than wait: its rusage is the benchmark process's own
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        fail("%s exited with %d" % (EXE, proc.returncode))
    lines = out.decode().strip().splitlines()
    if len(lines) < 2:
        fail("%s printed no result" % EXE)
    return lines, rusage.ru_maxrss / 1024.0  # kB on Linux


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            for f in files if "__pycache__" not in d)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv):
    args = parse_args(argv)
    for need in ("dune-project", "lib", "perfbench/dune", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail("not a SEPAR source checkout (missing %s); run from its root" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    lines, peak_rss_mb = run_bench(args)
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        fail("metrics %s do not match BENCHMARK.json" % sorted(got))
    info.update(nproc=os.cpu_count(), hostname=socket.gethostname(),
                commit=commit(), source_sha256=source_digest())
    if not args.trace:
        info["peak_rss_mb"] = peak_rss_mb
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
