#!/usr/bin/env python3
"""Build the vfpga benchmark program from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/CMakeLists.txt (the vfpga library from
src/ plus vfpga_perf) into .bench_build/perfbench under the checkout
root, then runs vfpga_perf. Build output goes to stderr; its
report goes to stdout, and its last line is the result object. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("virtio_echo", "xdma_rw", "blk_qd32")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 60


def build_dir() -> Path:
    return ROOT / ".bench_build" / "perfbench"


def build() -> Path:
    """Configure and build (incrementally after the first run). Returns
    the vfpga_perf binary."""
    out = build_dir()
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", "2"]]
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return out / "vfpga_perf"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--ops", type=int, default=0,
                    help="measured ops per pass (0 = workload default)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.trace:
        trace_file = build_dir() / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: vfpga_perf exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
