#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build tree, scratch directories and span
files go under $CARGO_TARGET_DIR (default .bench_build). The last line of
stdout is the run's JSON result; everything before it is diagnostics. The
exit code is non-zero, and no result is printed, when the build, the run or
the result's shape fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("photo_search", "text_search", "recipe_bulk", "live_ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("build step failed (%d): %s" % (done.returncode, " ".join(cmd)))
            return False
    return True


def source_id():
    """The git commit when the tree is a git checkout, plus a digest of the
    sources the benchmark builds, so runs of different code never compare
    silently."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "commit=%s,sources=%s" % (commit, digest.hexdigest()[:16])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """The result line's shape: exactly the keys and metrics promised."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s is not an integer" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics %s, expected %s" % (got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise ValueError("%s is not a number" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")

    if args.selftest:
        if not build(build_dir, "harness_test"):
            return 1
        return subprocess.run([os.path.join(build_dir, "harness_test")],
                              cwd=ROOT).returncode

    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None or args.seed < 0 or args.seconds <= 0):
        parser.error("--workload, --seed >= 0, --seconds > 0 and --trace "
                     "are required")
    try:
        expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as err:
        log("cannot read BENCHMARK.json: %s" % err)
        return 1
    if not build(build_dir, "serve_bench"):
        return 1

    tmp = os.path.join(build_dir, "tmp")
    traces = os.path.join(build_dir, "traces")
    # A run killed earlier may have left its corpus directories behind.
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [os.path.join(build_dir, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--source", source_id()]
    if args.trace:
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, TMPDIR=tmp))
    except subprocess.TimeoutExpired as err:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        if err.stdout:
            log(err.stdout if isinstance(err.stdout, str)
                else err.stdout.decode(errors="replace"))
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(done.stdout)
        log("benchmark exited with %d" % done.returncode)
        return 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as err:
        log(done.stdout)
        log("malformed result: %s" % err)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
