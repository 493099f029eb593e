"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import time

import pytest

import verify
import workloads
from spans import Tracer, percentile, quartile_spread, self_times, tail_percentile


# -- spans ------------------------------------------------------------------
def test_self_time_subtracts_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        (2, "a", 1.0, 4.0, 1, 0),
        (3, "b", 2.0, 3.0, 2, 0),
        (4, "c", 5.0, 9.0, 1, 0),
        (1, "root", 0.0, 10.0, None, 0),
    ]
    assert self_times(spans) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}


def test_self_times_of_wrapped_calls_sum_to_the_root():
    class Layer:
        def outer(self):
            time.sleep(0.002)
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.003)

    tracer = Tracer(timing=True)
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    try:
        with tracer.span("root"):
            Layer().outer()
    finally:
        tracer.uninstall()
    assert not hasattr(Layer.inner, "__wrapped__")
    selfs = self_times(tracer.spans)
    root = next(end - start for _, name, start, end, _, _ in tracer.spans if name == "root")
    assert sum(selfs.values()) == pytest.approx(root, rel=1e-9)
    assert selfs["inner"] >= 0.006
    assert tracer.counts["inner.calls"] == 2
    parents = {span[0]: span for span in tracer.spans}
    for span_id, name, _, _, parent, _ in tracer.spans:
        if name == "inner":
            assert parents[parent][1] == "outer"


def test_same_name_nesting_counts_the_outermost_call_once():
    class Evaluator:
        def batch(self, rows):
            return [self.one(r) for r in range(rows)]

        def one(self, rows):
            return rows

    tracer = Tracer(timing=False)
    tracer.wrap(Evaluator, "batch", "eval", rows=lambda args, kwargs: args[1])
    tracer.wrap(Evaluator, "one", "eval", rows=lambda args, kwargs: 1)
    try:
        Evaluator().batch(4)
    finally:
        tracer.uninstall()
    assert tracer.counts["eval.calls"] == 1
    assert tracer.counts["eval.rows"] == 4
    assert tracer.spans == []


# -- percentiles --------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0], 0.9) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_tail_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101), 0.9) == (90.0, 0.9)
    # 99 samples: p90 would have 9 beyond it, so rank 89 (10 beyond) is used.
    assert tail_percentile(range(1, 100), 0.9) == (89.0, 89 / 99)
    # 24 samples: rank 14 is the highest with 10 beyond it.
    assert tail_percentile(range(1, 25), 0.9) == (14.0, 14 / 24)
    # Too few for any tail: the median.
    assert tail_percentile(range(1, 13), 0.9) == (6.0, 0.5)
    assert tail_percentile([7.0], 0.9) == (7.0, 1.0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


# -- correctness checks ----------------------------------------------------------
@pytest.fixture(scope="module")
def clean_result():
    from repro.api import optimize

    result = optimize("sphere", "moheco", seed=7, pop_size=10, max_generations=5)
    return result.to_dict()


def _simulated(result: dict) -> int:
    return sum(result["ledger"]["by_category"].values())


def test_clean_result_passes_every_check(clean_result):
    golden = verify.result_identity_hash(clean_result)
    assert verify.check_identity("run", verify.result_identity_hash(clean_result), golden) == []
    assert verify.check_conservation("run", [clean_result], _simulated(clean_result)) == []
    gated = clean_result["ledger"]["by_category"]["feasibility"]
    assert verify.check_pruned("run", [clean_result], 10, gated, 0) == []


def test_corrupted_result_is_caught(clean_result):
    golden = verify.result_identity_hash(clean_result)
    simulated = _simulated(clean_result)

    wrong_yield = copy.deepcopy(clean_result)
    wrong_yield["best_yield"] = wrong_yield["best_yield"] - 0.01
    assert verify.check_identity("run", verify.result_identity_hash(wrong_yield), golden)

    overcharged = copy.deepcopy(clean_result)
    overcharged["ledger"]["by_category"]["stage1"] += 5
    assert verify.check_identity("run", verify.result_identity_hash(overcharged), golden)
    problems = verify.check_conservation("run", [overcharged], simulated)
    assert any("charged" in p for p in problems)
    assert any("n_simulations" in p for p in problems)

    # A pruned candidate that was charged a feasibility sim anyway.
    gated = clean_result["ledger"]["by_category"]["feasibility"]
    charged_pruned = copy.deepcopy(clean_result)
    charged_pruned["ledger"]["pruned"] = 1
    charged_pruned["screen_trace"] = [{"keep": list(range(9)), "pruned": [9]}]
    assert verify.check_pruned("run", [charged_pruned], 10, gated, 0)

    untraced_prune = copy.deepcopy(clean_result)
    untraced_prune["ledger"]["pruned"] = 2
    assert verify.check_pruned("run", [untraced_prune], 10, gated - 2, 0)


def test_remote_conservation():
    result = {
        "ledger": {"by_category": {"feasibility": 50, "stage1": 300, "stage2": 100}, "cached": 40},
        "engine_decision": {"engine": "remote", "rows": 300, "local_rows": 60},
    }
    assert verify.check_remote_conservation("job", result) == []
    result["ledger"]["cached"] = 0
    assert verify.check_remote_conservation("job", result)


# -- inputs -----------------------------------------------------------------------
def test_workload_inputs_are_deterministic_in_the_seed():
    golden = workloads.load_golden()
    assert workloads.svc_input(3, golden) == workloads.svc_input(3, golden)
    assert workloads.svc_input(3, golden) != workloads.svc_input(4, golden)
    for seed in range(5):
        assert workloads.fc_input(seed, golden) == workloads.fc_input(seed, golden)
        assert workloads.ota_input(seed, golden) in golden["ota_sweep"]["base_seeds"]
        assert workloads.fc_input(seed, golden) in golden["fc_moheco"]["seeds"]


def test_svc_jobs_repeat_a_fixed_share():
    golden = workloads.load_golden()
    jobs = workloads.svc_input(11, golden)
    assert len(jobs) == workloads.SVC_JOBS
    assert set(jobs) == set(golden["svc_remote"]["seeds"])
    repeats = workloads.SVC_JOBS - len(set(jobs))
    assert repeats == round(workloads.SVC_REPEAT_SHARE * workloads.SVC_JOBS)
    assert max(jobs.count(s) for s in set(jobs)) == 2
    assert sorted(workloads.svc_input(12, golden)) == sorted(jobs)


def test_every_input_has_a_golden_hash():
    golden = workloads.load_golden()
    for seed in golden["fc_moheco"]["seeds"]:
        assert str(seed) in golden["fc_moheco"]["runs"]
    ota = golden["ota_sweep"]
    for base_seed in ota["base_seeds"]:
        assert len(ota["records"][str(base_seed)]) == ota["runs"] * len(workloads.OTA_METHODS)
    assert set(map(str, golden["svc_remote"]["seeds"])) == set(golden["svc_remote"]["hashes"])


def test_benchmark_json_lists_every_metric_the_runs_print():
    import json

    import run
    from layers import PER_LAYER

    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_method_block_pairs_runs_by_seed():
    records = [
        {"method": "moheco", "run_index": 0, "n_simulations": 100, "reference_yield": 0.9},
        {"method": "moheco", "run_index": 1, "n_simulations": 200, "reference_yield": 1.0},
        {"method": "moheco_mf", "run_index": 0, "n_simulations": 50, "reference_yield": 0.9},
        {"method": "moheco_mf", "run_index": 1, "n_simulations": 400, "reference_yield": 0.99},
        {"method": "moheco_screened", "run_index": 0, "n_simulations": 100, "reference_yield": 1.0},
        {"method": "moheco_screened", "run_index": 1, "n_simulations": 100, "reference_yield": 1.0},
    ]
    block = workloads.method_block(records)
    mf = block["moheco_mf"]
    assert mf["charged_sims_ratio"] == [0.5, 2.0]
    assert mf["charged_sims_geomean"] == pytest.approx(1.0)
    assert mf["charged_sims_wins"] == 1
    assert mf["ref_yield_ties"] == 1
    assert block["moheco_screened"]["charged_sims_ties"] == 1
