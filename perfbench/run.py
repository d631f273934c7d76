#!/usr/bin/env python3
"""Wall-clock benchmark of the GraphM reproduction.

Builds the harness and the program (from ../src) into the build directory,
runs the harness's self-tests, then runs one workload and prints its metrics
as the last line of standard output:

    python3 perfbench/run.py --workload ooc-batch-shared --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
README.md). --workload all runs every workload both ways and prints every
metric by name with its unit. --holdout draws the inputs from the holdout
seed stream instead. The build directory is $CARGO_TARGET_DIR, or
.bench_build/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ooc-batch-shared", "ooc-batch-isolated", "inmem-service-isolated")
RUN_TIMEOUT_S = 170


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root() -> pathlib.Path:
    configured = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build(build_dir: pathlib.Path) -> None:
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(exe: pathlib.Path, data_dir: pathlib.Path, args: argparse.Namespace,
                workload: str, trace: bool, deadline: float) -> dict:
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--data-dir", str(data_dir)]
    if args.holdout:
        cmd.append("--holdout")
    # The harness and its RSS probe process share a new process group, which
    # is stopped and reaped however this function is left.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode} on {workload}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"harness printed nothing on {workload}")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise RuntimeError(f"metrics of {workload} do not match BENCHMARK.json: "
                           f"missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}")
    return result


def main() -> int:
    # A termination request unwinds through the cleanup above.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="draw inputs from the holdout seed stream")
    args = parser.parse_args()

    build_dir = build_root() / "perfbench"
    data_dir = build_root() / "perfbench-data"
    try:
        build(build_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        selftest = subprocess.run([str(build_dir / "perfbench_selftest"), "--data-dir",
                                   str(data_dir)], stdout=sys.stderr, stderr=sys.stderr)
        if selftest.returncode != 0:
            raise RuntimeError("harness self-tests failed")
        exe = build_dir / "perfbench_harness"
        if args.workload != "all":
            result = run_harness(exe, data_dir, args, args.workload, bool(args.trace),
                                 time.monotonic() + RUN_TIMEOUT_S)
            print(json.dumps(result))
            return 0

        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_harness(exe, data_dir, args, workload, trace,
                                     time.monotonic() + RUN_TIMEOUT_S)
                print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}, "
                      f"{result['attempted']} jobs checked, {result['failed']} failed)")
                for name, metric in result["metrics"].items():
                    print(f"  {name:<36} {metric['value']:>18.6g} {metric['unit']}")
                    combined["metrics"][f"{workload}/{name}"] = metric
                combined["correct"] = combined["correct"] and result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
        print(json.dumps(combined))
        return 0
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
