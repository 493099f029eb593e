"""Recompute ``golden.json``: the input panels and their identity hashes.

    python3 perfbench/make_golden.py [--only fc_moheco,ota_sweep,svc_remote]

Runs every panel input in process on the serial engine without a cache
and stores the identity hash of each result.  The benchmark compares every
run it makes (traced or not, on any engine) with these hashes, so rerun
this only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402

#: ``fc_moheco``: seed 1 stops on 100% yield after ~27 s on a 2-CPU host;
#: seeds 2-6 were below 90% yield after 30 generations and run on towards
#: the 200-generation cap, far past the 180 s a benchmark run may take.
FC_SEEDS = (1,)
#: ``ota_sweep``: the three sweep base seeds out of 1-16 whose total charged
#: sims lie closest to the median of the 16 (see README.md).
OTA_BASE_SEEDS = (6, 7, 8)
#: ``svc_remote``: job seeds; each run submits every one of them.
SVC_SEEDS = tuple(range(1000, 1075))


def golden_fc() -> dict:
    from repro.api import optimize
    from repro.api.driver import resolve_problem
    from repro.yieldsim import reference_yield

    problem = resolve_problem("folded_cascode")
    runs = {}
    for seed in FC_SEEDS:
        result = optimize(problem, "moheco", seed=seed, engine="serial")
        reference = reference_yield(problem, result.best_x, n=workloads.FC_REFERENCE_N)
        runs[str(seed)] = {
            "hash": verify.identity_hash(result.identity_dict()),
            "n_simulations": result.n_simulations,
            "ref_yield": reference.value,
        }
        print(f"fc_moheco seed={seed}: {result.n_simulations} sims", flush=True)
    return {"seeds": list(FC_SEEDS), "runs": runs}


def golden_ota() -> dict:
    from repro.sweep import run_sweep

    records, totals = {}, {}
    for base_seed in OTA_BASE_SEEDS:
        sweep = run_sweep(workloads.ota_spec(base_seed), workers=1)
        records[str(base_seed)] = [
            verify.record_identity_hash(record.to_dict()) for record in sweep.records
        ]
        totals[str(base_seed)] = sum(record.n_simulations for record in sweep.records)
        print(f"ota_sweep base_seed={base_seed}: {totals[str(base_seed)]} sims", flush=True)
    return {
        "base_seeds": list(OTA_BASE_SEEDS),
        "runs": workloads.OTA_RUNS,
        "reference_n": workloads.OTA_REFERENCE_N,
        "charged_sims": totals,
        "records": records,
    }


def golden_svc() -> dict:
    from repro.api import optimize

    hashes = {}
    for seed in SVC_SEEDS:
        result = optimize("netlist_ota", "moheco", seed=seed)
        hashes[str(seed)] = verify.identity_hash(result.identity_dict())
    print(f"svc_remote: {len(hashes)} job seeds", flush=True)
    return {"seeds": list(SVC_SEEDS), "hashes": hashes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    builders = {"fc_moheco": golden_fc, "ota_sweep": golden_ota, "svc_remote": golden_svc}
    for name in args.only.split(","):
        start = time.perf_counter()
        golden[name] = builders[name]()
        print(f"{name}: {time.perf_counter() - start:.1f}s", flush=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
