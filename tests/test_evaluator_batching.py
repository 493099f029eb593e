"""Batched evaluation is bit-identical to the one-design, one-column paths.

The topologies evaluate row-aligned ``evaluate_pairs(X, samples)`` with
each design variable as an ``(N,)`` column, and ``from_uniform`` maps each
distribution family in one call.  Every formula stays elementwise, so the
batched results must equal the per-design / per-column results bit for
bit — ``np.array_equal``, not a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.api.driver import resolve_problem
from repro.circuit.tech import C035Technology, N90Technology
from repro.ledger import SimulationLedger
from repro.process.distributions import (
    LognormalDistribution,
    NormalDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
)
from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.sampling import LatinHypercubeSampler

CIRCUITS = ("folded_cascode", "telescopic", "netlist_ota")


@pytest.fixture(scope="module", params=CIRCUITS)
def problem(request):
    return resolve_problem(request.param)


def mixed_panel(problem, n_designs=5, n_rows=40, seed=3):
    """Shuffled pairs: each sample row belongs to one of a few designs."""
    rng = np.random.default_rng(seed)
    designs = problem.space.sample(n_designs, rng)
    samples = LatinHypercubeSampler(problem.variation).draw(n_rows, rng)
    X = designs[rng.integers(0, n_designs, size=n_rows)]
    return designs, X, samples


class TestTopologyPairs:
    def test_pairs_equal_per_row_evaluate(self, problem):
        _, X, samples = mixed_panel(problem)
        evaluator = problem.evaluator
        pairs = evaluator.evaluate_pairs(X, samples)
        rows = np.concatenate(
            [evaluator.evaluate(x, s[None, :]) for x, s in zip(X, samples)]
        )
        assert pairs.shape == (X.shape[0], len(evaluator.metric_names()))
        assert np.array_equal(pairs, rows, equal_nan=True)

    def test_evaluate_batch_equals_per_design_simulate(self, problem):
        designs, _, samples = mixed_panel(problem)
        ledger = SimulationLedger()
        batch = problem.evaluate_batch(designs, samples, ledger)
        assert ledger.total == designs.shape[0] * samples.shape[0]
        for i, x in enumerate(designs):
            single = problem.simulate(x, samples)
            assert np.array_equal(batch[i], single, equal_nan=True)

    def test_feasibility_gate_is_one_evaluator_call(self, problem, monkeypatch):
        designs, _, _ = mixed_panel(problem, n_designs=12)
        evaluator = problem.evaluator
        calls = []
        original = type(evaluator).evaluate_pairs

        def counting(self, X, samples):
            calls.append(X.shape[0])
            return original(self, X, samples)

        monkeypatch.setattr(type(evaluator), "evaluate_pairs", counting)
        feasible, violation = problem.nominal_feasibility_batch(designs)
        assert calls == [12]
        for i, x in enumerate(designs):
            ok, v = problem.nominal_feasibility(x)
            assert (bool(feasible[i]), float(violation[i])) == (ok, v)


class TestVectorizedInverseCDF:
    @pytest.fixture
    def group(self):
        # Families interleaved so the per-family scatter is exercised.
        return ParameterGroup(
            [
                StatisticalParameter("a", NormalDistribution(1.0, 0.02)),
                StatisticalParameter("b", LognormalDistribution(-0.1, 0.3)),
                StatisticalParameter("c", UniformDistribution(-2.0, 3.0)),
                StatisticalParameter(
                    "d", TruncatedNormalDistribution(0.0, 1.0, -1.5, 2.0)
                ),
                StatisticalParameter("e", NormalDistribution(0.0, 1.0)),
                StatisticalParameter("f", UniformDistribution(0.5, 0.75)),
                StatisticalParameter("g", LognormalDistribution(0.2, 0.05)),
                StatisticalParameter("h", NormalDistribution(-3.0, 4e-9)),
            ]
        )

    @pytest.fixture
    def uniforms(self, group):
        rng = np.random.default_rng(11)
        edges = np.array([0.0, 1.0, 1e-13, 1.0 - 1e-13, 1e-12, 0.5])
        u = rng.uniform(size=(30, len(group)))
        u[: len(edges)] = edges[:, None]
        return u

    def test_from_uniform_equals_per_column_ppf(self, group, uniforms):
        per_column = np.column_stack(
            [p.distribution.ppf(uniforms[:, j]) for j, p in enumerate(group)]
        )
        assert np.array_equal(group.from_uniform(uniforms), per_column)

    def test_normal_ppf_matches_scipy_stats(self, uniforms):
        # The ndtri kernel reproduces scipy.stats.norm.ppf bit for bit.
        u = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
        normal = NormalDistribution(0.3, 1.7)
        assert np.array_equal(normal.ppf(uniforms), 0.3 + 1.7 * stats.norm.ppf(u))


@pytest.mark.parametrize(
    "tech", [C035Technology(), N90Technology()], ids=["c035", "n90"]
)
@pytest.mark.parametrize("polarity", ["n", "p"])
def test_device_arrays_with_array_geometry_match_scalar_builds(tech, polarity):
    rng = np.random.default_rng(5)
    n = 12
    w = rng.uniform(1e-6, 100e-6, size=n)
    l = rng.uniform(0.35e-6, 2e-6, size=n)
    variation = tech.variation_model(["M1"])
    samples = variation.sample(n, rng)
    scores = variation.mismatch_scores(samples, "M1")
    ids = rng.uniform(1e-6, 1e-4, size=n)
    batch = tech.realize(polarity, w, l, variation.inter_values(samples), scores)
    for i in range(n):
        row = samples[i : i + 1]
        single = tech.realize(
            polarity,
            float(w[i]),
            float(l[i]),
            variation.inter_values(row),
            scores[i : i + 1],
        )
        for attr in ("vth", "kp", "beta", "lam", "theta", "weff", "leff", "cox",
                     "cj_scale", "cg_scale", "gamma"):
            assert np.array_equal(
                np.broadcast_to(getattr(batch, attr), (n,))[i],
                np.broadcast_to(getattr(single, attr), (1,))[0],
            ), attr
        for helper in ("vov_for_current", "gm", "vdsat", "vgs_for_current"):
            got = getattr(batch, helper)(ids)[i]
            want = getattr(single, helper)(ids[i : i + 1])[0]
            assert np.array_equal(got, want), helper
        assert batch.area()[i] == single.area()
