"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fc_moheco --seed 1 --seconds 30 --trace 0

Prints a table of every metric with its unit (and, for ``ota_sweep``, the
paired per-seed method block), then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same workload with every layer
wrapped and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics and their units (the ``end_to_end`` list of
#: BENCHMARK.json, in the same order).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sims_per_s": "1/s",
    "charged_sims": "count",
    "final_yield": "ratio",
    "ref_yield": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
}


def end_to_end(outcome, failed: int) -> dict:
    from spans import percentile, tail_percentile

    wall = statistics.median(outcome.unit_walls)
    jobs = len(outcome.latencies) / len(outcome.unit_walls)
    return {
        "setup_s": statistics.median(outcome.setup),
        "wall_s": wall,
        "sims_per_s": outcome.charged_rows / wall,
        "charged_sims": outcome.charged_sims,
        "final_yield": statistics.fmean(outcome.final_yields),
        "ref_yield": statistics.fmean(outcome.ref_yields),
        "success_rate": 1.0 - failed / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
        "job_p50_s": percentile(outcome.latencies, 0.5),
        "job_p90_s": tail_percentile(outcome.latencies, 0.9)[0],
        "jobs_per_s": jobs / wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from spans import tail_percentile

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    shutil.rmtree(workloads.WORK, ignore_errors=True)
    (workloads.WORK / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workloads.WORK / "tmp")

    outcome, layers = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for problem in outcome.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    failed = min(len(outcome.failures), outcome.attempted)
    e2e = end_to_end(outcome, failed)
    n_jobs = len(outcome.latencies)
    print(f"# {args.workload} seed={args.seed} units={len(outcome.unit_walls)} jobs={n_jobs}")
    for name, value in e2e.items():
        print(f"{name:<28} {value:>16.6g} {END_TO_END[name]}")
    print(f"{'error_rate':<28} {failed / outcome.attempted:>16.6g} ratio")
    used = tail_percentile(outcome.latencies, 0.9)[1]
    print(
        f"# job_p90_s is the p{used * 100:.0f} of {n_jobs} job latencies, "
        "the highest percentile (up to p90) with 10 jobs beyond it, else the median"
    )
    if outcome.method_block is not None:
        print("# paired per-seed block vs moheco (reported, not gated):")
        print(json.dumps(outcome.method_block))
    if layers is not None:
        from layers import PER_LAYER

        for name, value in layers.items():
            print(f"{name:<32} {value:>16.6g} {PER_LAYER[name]}")
        metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
