#!/usr/bin/env python3
"""Build and run the psched benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--inject-fault]

Run from the root of a checkout. Builds perfbench/ (which compiles psched
from ../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload in its own process. The binary's summary goes to
stderr; the last line of stdout is the JSON result. Exits non-zero, printing
no result, when the build fails or the result does not match BENCHMARK.json;
exits non-zero after the result when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "psbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return build_dir / "psbench"


def check_result(line, trace):
    """The result must carry exactly the metric set BENCHMARK.json names."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    spec_path = Path("BENCHMARK.json")
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        table = spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in table}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want != got:
            raise ValueError("metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             "or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise ValueError(f"metric {name} has no numeric value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_suite", "engine_stream", "tenant_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale, for the benchmark's own tests")
    ap.add_argument("--inject-fault", action="store_true",
                    help="break the workload's correctness check on purpose")
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target / "perfbench"
    binary = build(build_dir)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--trace-dir", str(trace_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})", 3)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"malformed result: {e}", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
