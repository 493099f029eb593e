"""End-to-end benchmark: paper-scale ``moheco`` runs, wall-clock and sims/s.

Runs ``optimize(p, "moheco", seed=1)`` on the serial engine without a
cache for the three circuit problems (``folded_cascode``, ``telescopic``,
``netlist_ota``) and writes ``BENCH_e2e.json`` at the repo root: per
problem, the median wall-clock of ``REPEATS`` runs, the charged
simulations and sims/s, with the host's CPU count and numpy/scipy
versions.

The file's ``baseline`` section holds the same numbers for an earlier
commit measured on the same host (see its ``source``); every run carries
it over unchanged and reports ``speedup`` = baseline wall / wall, so the
ratio is always a same-host comparison.  At full scale the charged
simulations must equal the baseline's wherever numpy/scipy match its
recorded versions (seeded runs are bit-identical per host).

``REPRO_BENCH_SMOKE=1`` (the CI smoke job) caps ``max_generations`` and
runs each problem once; the baseline comparison is skipped.
"""

import json
import os
import statistics
import time

import numpy as np
import scipy

from repro.api import optimize

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
PROBLEMS = ("folded_cascode", "telescopic", "netlist_ota")
SEED = 1
REPEATS = 1 if SMOKE else 3
OVERRIDES = {"max_generations": 10} if SMOKE else {}
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_e2e.json")


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _measure(problem: str) -> dict:
    walls, sims = [], set()
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = optimize(problem, "moheco", seed=SEED, engine="serial", **OVERRIDES)
        walls.append(time.perf_counter() - start)
        sims.add(result.n_simulations)
    assert len(sims) == 1, f"{problem}: repeated seeded runs charged {sims}"
    wall = statistics.median(walls)
    charged = sims.pop()
    return {
        "wall_s": round(wall, 4),
        "wall_s_runs": [round(w, 4) for w in walls],
        "charged_sims": charged,
        "sims_per_s": round(charged / wall, 1),
    }


def test_e2e_moheco_runs():
    previous = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as handle:
            previous = json.load(handle)
    baseline = previous.get("baseline")

    runs = {problem: _measure(problem) for problem in PROBLEMS}
    payload = {
        "method": "moheco",
        "seed": SEED,
        "engine": "serial",
        "smoke": SMOKE,
        "overrides": OVERRIDES,
        "repeats": REPEATS,
        "cpus": os.cpu_count(),
        "versions": _versions(),
        "runs": runs,
    }
    if baseline is not None:
        payload["baseline"] = baseline
        if not SMOKE:
            before = baseline["runs"]
            payload["speedup"] = {
                problem: round(before[problem]["wall_s"] / runs[problem]["wall_s"], 2)
                for problem in PROBLEMS
            }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    for problem, run in runs.items():
        print(
            f"{problem:15s} {run['wall_s']:8.2f} s  {run['charged_sims']:7d} sims  "
            f"{run['sims_per_s']:9.0f} sims/s"
        )
        assert run["charged_sims"] > 0
    if baseline is not None and not SMOKE and baseline["versions"] == _versions():
        for problem in PROBLEMS:
            expected = baseline["runs"][problem]["charged_sims"]
            assert runs[problem]["charged_sims"] == expected, (
                f"{problem}: the seeded run no longer charges the baseline's sims"
            )
