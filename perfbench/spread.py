"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ota_sweep --seeds 1-10 --trace 0 1

For every end-to-end metric: its median and the distance between the first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json (the spread should stay below a third of it).  With
both ``--trace 0 1`` it also prints the tracing overhead, the traced minus
the untraced median ``wall_s``.  Runs are sequential; nothing is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spans import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    medians = {}
    for trace in args.trace:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(args.workload, seed, bench["run_seconds"], trace)
            runs.append(result)
            print(f"trace={trace} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        print(f"# {args.workload} trace={trace}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            medians[(trace, name)] = median
            spread = quartile_spread(values) if len(values) > 1 and median else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            )
            print(f"{name:<32} median {median:>14.6g}  spread {spread:7.4f}  "
                  f"bound {bound if bound is not None else '-':>5}  {verdict}")
            print(f"    {[round(v, 6) for v in values]}")
    if (0, "wall_s") in medians and (1, "trace.wall_s") in medians:
        overhead = medians[(1, "trace.wall_s")] - medians[(0, "wall_s")]
        print(f"tracing overhead: {overhead:.4g} s "
              f"({overhead / medians[(0, 'wall_s')]:.2%} of the untraced median wall_s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
