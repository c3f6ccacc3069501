#!/usr/bin/env python3
"""Benchmark entry point for the CSRL model checker.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench program and the checker library from source (CMake,
into $CARGO_TARGET_DIR or .bench_build/), probes the environment in its own
process, runs the workload in another, and prints two lines on stdout: the
full record (environment, models, per-layer self times) and, last,
the result object {"correct", "attempted", "failed", "metrics"}. Exits
non-zero when the build fails, a metric named in BENCHMARK.json is missing,
or any answer disagrees with perfbench/golden/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-1 over the checker's sources: identifies the code measured, since
    the checkout need not be a git repository."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git repository (git is pointed at
    its .git so it never searches parent directories)."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unknown (checkout is not a git repository)"
    result = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                            capture_output=True, text=True, cwd=ROOT)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace == 1)
    binary = build()
    scratch = ".bench_out"
    os.makedirs(os.path.join(ROOT, scratch), exist_ok=True)

    # The environment probe touches ~4x L3 of memory; its own process keeps
    # that out of the workload's peak RSS.
    env = last_json_line(subprocess.run([binary, "env"], check=True, capture_output=True,
                                        text=True, cwd=ROOT, timeout=60).stdout)
    env["source_sha1"] = source_digest()
    env["commit"] = git_commit()

    command = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ".",
               "--scratch", scratch]
    # Every checker call already asks for one thread; the process default
    # covers the paths that do not pass CheckerOptions::threads through (the
    # per-state reward series of R[C] uses the default pool otherwise).
    run = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                         timeout=RUN_TIMEOUT_S, env={**os.environ, "CSRLMRM_THREADS": "1"})
    sys.stderr.write(run.stderr)
    record = last_json_line(run.stdout)
    record["environment"] = env

    metrics = record["metrics"]
    problems = [f"missing metric {name}" for name in expected if name not in metrics]
    problems += [f"metric {name} has unit {metrics[name]['unit']}, expected {unit}"
                 for name, unit in expected.items()
                 if name in metrics and metrics[name]["unit"] != unit]
    problems += [f"unexpected metric {name}" for name in metrics if name not in expected]
    for failure in record["detail"]["failures"]:
        problems.append(f"wrong answer: {failure}")
    for problem in problems:
        log(problem)

    correct = bool(record["correct"]) and run.returncode == 0 and not problems
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as error:
        log(f"failed: {error}")
        sys.exit(1)
