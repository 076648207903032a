#!/usr/bin/env python3
"""Build and run the repository benchmark (zi_bench).

One workload:

    python3 zi_bench/run.py --workload train_nvme_b1 --seed 1 --seconds 20 --trace 0

builds zi_bench from the sources beside this directory (into .bench_build/,
on first use), runs the workload in a child process and prints its output;
the last line is the result object {"correct", "attempted", "failed",
"metrics"}. --trace 1 reports the per-layer metrics of a traced run instead
of the end-to-end ones. --out FILE appends {"workload", "seed", "trace",
"host", "result"} to FILE as one JSON line, which compare.py reads.

    python3 zi_bench/run.py --all [--seeds 1,2] [--out-dir DIR]

runs every workload, untraced and traced, for each seed, and fails when the
two serving workloads disagree on the token streams of the prompts they
share.

    python3 zi_bench/run.py --smoke [--binary PATH]

runs every workload for half a second, untraced and traced, and checks the
gate, that every metric BENCHMARK.json names appears with its unit, and that
no trace event was dropped.

Only the standard library is used. Everything the benchmark writes stays
under .bench_build/ in the repository root.
"""
import argparse
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "zi_bench")
BINARY = os.path.join(BUILD_DIR, "zi_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures --seconds, then checks correctness; nothing may outlive this.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally, under a lock so concurrent
    runs in one checkout never interleave builds."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "zi_bench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log_path = os.path.join(BUILD_ROOT, "zi_bench-build.log")
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            steps.append(["cmake", "--build", BUILD_DIR, "--target", "zi_bench",
                          "-j", str(min(4, os.cpu_count() or 1))])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed")
    return BINARY


def run_workload(binary, workload, seed, seconds, trace, trace_dir=None):
    """Run one workload in a child process; returns (exit code, stdout lines,
    parsed result or None)."""
    scratch = os.path.join(BUILD_ROOT, f"run-{os.getpid()}-{workload}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, lines, result


def host_of(lines):
    for line in lines:
        if line.startswith("host: "):
            return json.loads(line[len("host: "):])
    return {}


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                           "--abbrev=40"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or None


def record(path, workload, seed, trace, lines, result):
    host = host_of(lines)
    host["rev"] = revision()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                            "host": host, "result": result}) + "\n")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(bench, workload, trace, result):
    """Problems with one result against BENCHMARK.json, as strings."""
    if result is None:
        return [f"{workload} trace={int(trace)}: no result line"]
    problems = []
    tag = f"{workload} trace={int(trace)}"
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{tag}: correctness gate failed")
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in want:
        if m["name"] not in got:
            problems.append(f"{tag}: missing metric {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{tag}: {m['name']} unit {got[m['name']]['unit']}"
                            f" != {m['unit']}")
    extra = set(got) - {m["name"] for m in want}
    if extra:
        problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace and got.get("obs.trace_events_dropped", {}).get("value") != 0:
        problems.append(f"{tag}: trace events dropped")
    return problems


def smoke(binary):
    bench = load_benchmark()
    problems = []
    start = time.monotonic()
    for w in bench["workloads"]:
        for trace in (False, True):
            _, _, result = run_workload(binary, w["name"], 1, 0.5, trace)
            problems += check_result(bench, w["name"], trace, result)
    for p in problems:
        print(p, file=sys.stderr)
    print(f"smoke: {len(bench['workloads'])} workloads, "
          f"{time.monotonic() - start:.1f} s, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def run_all(binary, seeds, seconds, out_dir):
    bench = load_benchmark()
    problems = []
    for seed in seeds:
        hashes = {}
        for w in bench["workloads"]:
            for trace in (False, True):
                trace_dir = os.path.join(out_dir, f"trace-seed{seed}") if trace else None
                code, lines, result = run_workload(binary, w["name"], seed,
                                                   seconds, trace, trace_dir)
                for line in lines[:-1]:
                    print(f"[{w['name']} seed={seed} trace={int(trace)}] {line}")
                problems += check_result(bench, w["name"], trace, result)
                if result is not None:
                    record(os.path.join(out_dir, "results.jsonl"), w["name"],
                           seed, int(trace), lines, result)
                    for k, m in result["metrics"].items():
                        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
                for line in lines:
                    match = re.match(r"tokens_hash=(\w+) over=(\d+)", line)
                    if match:
                        hashes.setdefault(match.group(2), set()).add(match.group(1))
        for covered, seen in hashes.items():
            if len(seen) > 1:
                problems.append(f"seed {seed}: serving token streams differ "
                                f"over the first {covered} requests")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir")
    ap.add_argument("--out", help="append the result as one JSON line")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--out-dir", default=os.path.join(BUILD_ROOT, "results"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this zi_bench instead of building")
    args = ap.parse_args()

    set_vars = sorted(k for k in os.environ if k.startswith("ZI_"))
    if set_vars:
        fail(f"refusing to run with {', '.join(set_vars)} set: ZI_* variables "
             "change what is measured", 2)
    binary = args.binary or build()
    if args.smoke:
        sys.exit(smoke(binary))
    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.all:
        seeds = [int(s) for s in args.seeds.split(",")]
        sys.exit(run_all(binary, seeds, seconds, args.out_dir))
    if not args.workload:
        fail("--workload, --all or --smoke is required", 2)

    code, lines, result = run_workload(binary, args.workload, args.seed,
                                       seconds, bool(args.trace), args.trace_dir)
    if result is None:
        print("\n".join(lines))
        fail(f"{args.workload} printed no result (exit {code})")
    if args.out:
        record(args.out, args.workload, args.seed, args.trace, lines, result)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
