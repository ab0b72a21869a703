#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, report.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]

The first form builds perfbench/ (Release, into $CARGO_TARGET_DIR/perfbench
or .bench_build/perfbench) and runs one workload. Its last stdout line is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics untraced, the per-layer metrics with --trace 1. Human
readable reports and span dumps go to .bench_out/. The exit code is 0 only
if every output check passed.

--all runs every workload listed in BENCHMARK.json and prints the six
end-to-end metrics of each with their units.
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
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "pacds_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "pacds_perfbench")


def revision():
    """git rev when the checkout has git metadata, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--rev", revision(), *extra]
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)


def run_all(binary, seed, seconds, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = False
    rows = []
    for name in workloads:
        stem = f"{name}-seed{seed}" + ("-trace" if trace else "")
        path = os.path.join(ROOT, ".bench_out", stem + ".report.json")
        if os.path.exists(path):
            os.remove(path)
        sys.stdout.flush()
        failed |= run_workload(binary, name, seed, seconds, trace).returncode != 0
        if not os.path.exists(path):
            print(f"perfbench: {name} wrote no report", file=sys.stderr)
            failed = True
            continue
        with open(path) as f:
            rows.append((name, json.load(f)))
    print("\nsummary (seed %d, %ss per workload):" % (seed, seconds))
    for name, report in rows:
        print(f"  {name}: correct={str(report['correct']).lower()} "
              f"tail=p{report['notes']['step_ms_tail.percentile']} "
              f"steps={report['notes']['steps.samples']}")
        for metric, value in report["end_to_end"].items():
            print(f"    {metric} = {value['value']:.6g} {value['unit']}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload <name> or --all")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        if args.all:
            return run_all(binary, args.seed, args.seconds, args.trace)
        return run_workload(binary, args.workload, args.seed, args.seconds,
                            args.trace).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
