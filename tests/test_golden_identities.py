"""Golden result identities of every built-in method on ``sphere``.

``tests/golden_identities.json`` stores the SHA-256 of the canonical-JSON
``identity_dict()`` of each built-in method x 3 seeds, recorded on the
default serial engine.  A refactor of the method or engine layer must
leave every hash unchanged: the engine is one more input, and a few rows
are re-run on every other backend (and on a warm cache) against the same
serial hashes.

Bit-identity is promised per host (numpy/scipy versions decide the float
bits), so the hashes are compared only when the installed numpy and scipy
match the versions recorded in the fixture; otherwise the comparison is
skipped, naming both versions.  The slot checks (local search fires,
ladders climb, screeners prune) hold on any host.

Regenerate the fixture — only when results are *meant* to change — with::

    PYTHONPATH=src python tests/test_golden_identities.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.api import optimize
from repro.engine import make_cache

FIXTURE = Path(__file__).with_name("golden_identities.json")

PROBLEM = "sphere"
#: sigma 0.4 caps the optimum's yield at Phi(2.5) ~ 0.994, so no run stops
#: on a 100 % estimate in its first generation and every slot gets used.
PROBLEM_PARAMS = {"sigma": 0.4}
SEEDS = (1, 2, 3)
OVERRIDES = {"pop_size": 10, "max_generations": 20}
#: Per-method overrides on top of OVERRIDES.
METHOD_OVERRIDES = {"pswcd": {"n_train": 50}}
METHODS = (
    "moheco",
    "oo_only",
    "fixed_budget",
    "moheco_mf",
    "moheco_screened",
    "moheco_lineasy",
    "fixed_budget_screened",
    "pswcd",
)
#: Method rows re-run (seed 1) on every entry of ENGINE_RUNS.
ENGINE_METHODS = ("moheco", "moheco_mf", "moheco_screened")
#: Engine settings that must reproduce the serial hashes.  Zero IPC costs
#: put the auto engine's crossover at 0, so it commits to the pool.
ENGINE_RUNS = {
    "legacy": {"engine": "legacy"},
    "process": {"engine": "process", "engine_params": {"workers": 2}},
    "auto_pool": {
        "engine": "auto",
        "engine_params": {
            "workers": 2,
            "ipc_row_cost_seconds": 0.0,
            "round_overhead_seconds": 0.0,
        },
    },
    "serial_warm_lru": {"engine": "serial", "cache": "warm"},
}


def identity_hash(result) -> str:
    text = json.dumps(result.identity_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(method: str, seed: int, engine: str = "serial"):
    """One golden run; ``engine`` names an ENGINE_RUNS entry (or serial).

    The warm-cache entry runs twice on one LRU cache and returns the
    second, fully replayed run.
    """
    settings = dict(ENGINE_RUNS.get(engine, {"engine": "serial"}))
    warm = settings.pop("cache", None) == "warm"
    if warm:
        settings["cache"] = make_cache("lru")

    def once():
        return optimize(
            PROBLEM,
            method,
            seed=seed,
            problem_params=PROBLEM_PARAMS,
            **settings,
            **OVERRIDES,
            **METHOD_OVERRIDES.get(method, {}),
        )

    if warm:
        once()
        result = once()
        assert result.cache_stats["misses"] == 0
        return result
    return once()


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def results() -> dict:
    return {(m, s): run(m, s) for m in METHODS for s in SEEDS}


def test_fixture_covers_every_method_and_seed(golden):
    assert golden["problem"] == PROBLEM
    assert golden["problem_params"] == PROBLEM_PARAMS
    assert golden["overrides"] == OVERRIDES
    assert sorted(golden["identities"]) == sorted(METHODS)
    for method in METHODS:
        assert sorted(golden["identities"][method]) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("method", METHODS)
def test_identity_matches_golden(method, golden, results):
    if golden["versions"] != versions():
        pytest.skip(
            f"fixture recorded with {golden['versions']}, this host has "
            f"{versions()}; bit-identity is only promised per host"
        )
    for seed in SEEDS:
        assert identity_hash(results[method, seed]) == (
            golden["identities"][method][str(seed)]
        ), f"{method} seed {seed} changed its result identity"


@pytest.mark.parametrize("engine", sorted(ENGINE_RUNS))
@pytest.mark.parametrize("method", ENGINE_METHODS)
def test_identity_is_engine_invariant(method, engine, golden):
    if golden["versions"] != versions():
        pytest.skip(
            f"fixture recorded with {golden['versions']}, this host has "
            f"{versions()}; bit-identity is only promised per host"
        )
    result = run(method, 1, engine)
    if engine == "auto_pool":
        assert result.engine_decision["chosen"] == "process"
    assert identity_hash(result) == golden["identities"][method]["1"], (
        f"{method} seed 1 on {engine} left the serial result identity"
    )


def test_runs_exercise_their_slot(results):
    for seed in SEEDS:
        moheco = results["moheco", seed]
        assert any(record.local_search_fired for record in moheco.history)
        ladder = results["moheco_mf", seed].fidelity_trace
        assert any(len(entry["rungs"]) >= 2 for entry in ladder)
        for method in ("moheco_screened", "fixed_budget_screened"):
            screened = results[method, seed]
            assert screened.ledger.pruned >= 1
            assert screened.ledger.pruned == sum(
                len(entry["pruned"]) for entry in screened.screen_trace
            )


def write_fixture() -> None:
    payload = {
        "versions": versions(),
        "problem": PROBLEM,
        "problem_params": PROBLEM_PARAMS,
        "overrides": OVERRIDES,
        "method_overrides": METHOD_OVERRIDES,
        "identities": {
            method: {str(seed): identity_hash(run(method, seed)) for seed in SEEDS}
            for method in METHODS
        },
    }
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_fixture()
    print(f"wrote {FIXTURE}")
