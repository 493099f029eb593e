"""Golden result identities of every built-in method on ``sphere``, and of
the paper's circuits at the evaluator and the driver.

``tests/golden_identities.json`` stores the SHA-256 of the canonical-JSON
``identity_dict()`` of each built-in method x 3 seeds, recorded on the
default serial engine.  A refactor of the method or engine layer must
leave every hash unchanged: the engine is one more input, and a few rows
are re-run on every other backend (and on a warm cache) against the same
serial hashes.

The ``circuits`` block pins the circuit problems the sphere rows never
reach: per topology, the SHA-256 of ``evaluate`` on a fixed panel
(designs drawn from the design space x LHS process samples) and of the
batched nominal-feasibility gate, plus the ``identity_dict()`` hash of a
``moheco`` run on each paper circuit.  An evaluator refactor (batching,
vectorisation) must leave every one of them unchanged.

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
from repro.api.driver import resolve_problem
from repro.engine import make_cache
from repro.sampling import LatinHypercubeSampler

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


#: Topologies whose evaluator outputs are pinned on a fixed panel.
CIRCUITS = ("folded_cascode", "telescopic", "netlist_ota")
#: ``design_space().sample`` designs x LHS samples for ``evaluate``, and the
#: design count of the batched feasibility gate; one RNG seeds all three.
PANEL = {"designs": 32, "samples": 64, "gate": 50, "seed": 20100}
#: Paper circuits whose ``moheco`` run (seed 1) is pinned; 30 generations
#: reach stage 1, stage 2 and AS screening on both.
CIRCUIT_RUNS = ("folded_cascode", "telescopic")
CIRCUIT_RUN_OVERRIDES = {"max_generations": 30}


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


def digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode("utf-8"))
        sha.update(array.tobytes())
    return sha.hexdigest()


def circuit_panel(name: str) -> dict:
    """Hashes of ``evaluate`` (one call per design) and of the gate."""
    problem = resolve_problem(name)
    rng = np.random.default_rng(PANEL["seed"])
    designs = problem.space.sample(PANEL["designs"], rng)
    samples = LatinHypercubeSampler(problem.variation).draw(PANEL["samples"], rng)
    performance = np.stack([problem.evaluator.evaluate(x, samples) for x in designs])
    feasible, violation = problem.nominal_feasibility_batch(
        problem.space.sample(PANEL["gate"], rng)
    )
    return {
        "evaluate": digest(designs, samples, performance),
        "feasibility": digest(feasible, violation),
    }


def circuit_run(name: str):
    return optimize(name, "moheco", seed=1, **CIRCUIT_RUN_OVERRIDES)


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def skip_off_host(golden) -> None:
    if golden["versions"] != versions():
        pytest.skip(
            f"fixture recorded with {golden['versions']}, this host has "
            f"{versions()}; bit-identity is only promised per host"
        )


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
    skip_off_host(golden)
    for seed in SEEDS:
        assert identity_hash(results[method, seed]) == (
            golden["identities"][method][str(seed)]
        ), f"{method} seed {seed} changed its result identity"


@pytest.mark.parametrize("engine", sorted(ENGINE_RUNS))
@pytest.mark.parametrize("method", ENGINE_METHODS)
def test_identity_is_engine_invariant(method, engine, golden):
    skip_off_host(golden)
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


@pytest.fixture(scope="module")
def circuit_results() -> dict:
    return {name: circuit_run(name) for name in CIRCUIT_RUNS}


def test_fixture_covers_every_circuit(golden):
    circuits = golden["circuits"]
    assert circuits["panel"] == PANEL
    assert circuits["run_overrides"] == CIRCUIT_RUN_OVERRIDES
    assert sorted(circuits["evaluate"]) == sorted(CIRCUITS)
    assert sorted(circuits["runs"]) == sorted(CIRCUIT_RUNS)


@pytest.mark.parametrize("name", CIRCUITS)
def test_circuit_panel_matches_golden(name, golden):
    skip_off_host(golden)
    assert circuit_panel(name) == golden["circuits"]["evaluate"][name], (
        f"{name}: evaluate or the feasibility gate changed its outputs"
    )


@pytest.mark.parametrize("name", CIRCUIT_RUNS)
def test_circuit_run_matches_golden(name, golden, circuit_results):
    skip_off_host(golden)
    assert identity_hash(circuit_results[name]) == golden["circuits"]["runs"][name], (
        f"{name} moheco seed 1 changed its result identity"
    )


@pytest.mark.parametrize("name", CIRCUIT_RUNS)
def test_circuit_runs_reach_every_stage(name, circuit_results):
    ledger = circuit_results[name].ledger
    assert ledger.count("stage1") > 0
    assert ledger.count("stage2") > 0
    assert ledger.screened_out > 0


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
        "circuits": {
            "panel": PANEL,
            "run_overrides": CIRCUIT_RUN_OVERRIDES,
            "evaluate": {name: circuit_panel(name) for name in CIRCUITS},
            "runs": {name: identity_hash(circuit_run(name)) for name in CIRCUIT_RUNS},
        },
    }
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_fixture()
    print(f"wrote {FIXTURE}")
