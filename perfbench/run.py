#!/usr/bin/env python3
"""simdflat's wall-clock benchmark: build it from source, run one workload.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

Workloads are kernels and serve_cold (see perfbench/README.md);
`--workload all` runs both in turn. The program and the benchmark
harness are built with CMake into $CARGO_TARGET_DIR (default .bench_build)
on first use. The last line of stdout is the JSON verdict
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernels", "serve_cold")
# One run must end within 180 s; the harness sizes its own phases well
# inside this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else Path.cwd() / target


def build():
    """Configures and builds the harness; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simdflat sources at {ROOT / 'src'}; nothing to measure")
        return None
    build_dir = target_dir() / "perfbench-build"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--parallel",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the verdict.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    exe = build_dir / "perfbench"
    return exe if exe.is_file() else None


def run_workload(exe, workload, args):
    out_dir = target_dir() / "perfbench"
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no verdict within {RUN_TIMEOUT_S} s")
        return None, 1
    lines = proc.stdout.splitlines()
    verdict = None
    if lines:
        try:
            verdict = json.loads(lines[-1])
        except ValueError:
            verdict = None
    if not isinstance(verdict, dict) or set(verdict) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: the harness printed no verdict "
            f"(exit {proc.returncode})")
        return None, proc.returncode or 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return verdict, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    if args.workload != "all":
        verdict, code = run_workload(exe, args.workload, args)
        if verdict is None:
            return code
        print(json.dumps(verdict), flush=True)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        verdict, code = run_workload(exe, workload, args)
        if verdict is None:
            return code
        worst = worst or code
        merged["correct"] = merged["correct"] and verdict["correct"]
        merged["attempted"] += verdict["attempted"]
        merged["failed"] += verdict["failed"]
        for name, metric in verdict["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
