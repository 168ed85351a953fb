"""Print every metric of every workload in one table: the end-to-end
metrics of an untraced run, then the per-layer metrics and the tracing
overhead of a traced run.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each run is a separate ``run.py`` process, so peak memory is per
workload.  ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    args = parser.parse_args()
    ok = True
    for name in WORKLOADS:
        plain, plain_result = run_one(name, args.seed, args.seconds, 0)
        traced, traced_result = run_one(name, args.seed, args.seconds, 1)
        print(f"== {name}  seed {args.seed}  {plain['environment']}")
        for res, label in ((plain_result, "untraced"), (traced_result, "traced")):
            print(
                f"   {label}: correct={res['correct']} attempted={res['attempted']} "
                f"failed={res['failed']}"
            )
            ok = ok and res["correct"]
        print(
            f"   samples={plain['samples']} pool={plain['pool_requests']} "
            f"tail percentile={plain['solve_tail_percentile']}"
        )
        for title, metrics in (
            ("end to end, untraced run", plain["end_to_end"]),
            ("per layer, traced run (span times: mean seconds per request)", traced["per_layer"]),
        ):
            print(f"   -- {title}")
            for key, metric in metrics.items():
                print(f"   {key:34s} {_fmt(metric['value']):>14s} {metric['unit']}")
        overhead = traced["trace_overhead"]
        print(
            f"   tracing overhead: traced {overhead['traced_s']:.3f} s - untraced "
            f"{overhead['untraced_s']:.3f} s = {overhead['overhead_s']:.3f} s "
            f"over {overhead['requests']} requests"
        )
        for line in plain["failures"] + traced["failures"]:
            print(f"   failed: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
