"""Zero-copy process engine: shared-memory staging and bit-identity.

PR 6 replaced the process pool's per-round ``(designs, samples)`` pickling
with one :class:`multiprocessing.shared_memory` block per round.  These
tests pin the staging mechanics (:class:`~repro.engine.process.ShmRound`),
the pickled-chunk fallback for platforms without POSIX shared memory, and
the engine contract that matters: results are bit-identical to
:class:`~repro.engine.serial.SerialEngine` for any worker count, with and
without a warm-start cache — on the circuit-priced ``netlist_ota`` problem
whose per-row cost is what the pool exists for.
"""

import numpy as np
import pytest
from multiprocessing import shared_memory

import repro.engine.process as process_module
from repro.api import optimize
from repro.engine.cache import make_cache
from repro.engine.process import ShmRound, _evaluate_shm_chunk
from repro.yieldsim.estimator import PendingRefinement


class _Shell:
    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)


def _block(x, samples, category="stage1"):
    return PendingRefinement(_Shell(x), np.asarray(samples, dtype=float), category)


class TestShmRound:
    def test_round_trip_and_descriptors(self):
        rng = np.random.default_rng(0)
        blocks = [
            _block([1.0, 2.0], rng.normal(size=(5, 3))),
            _block([3.0, 4.0], rng.normal(size=(2, 3)), category="stage2"),
            _block([5.0, 6.0], rng.normal(size=(7, 3))),
        ]
        with ShmRound(blocks) as staged:
            name, d_shape, s_shape, rows = staged.chunk_descriptor(blocks)
            assert d_shape == (3, 2)
            assert s_shape == (14, 3)
            assert rows == [
                (0, 0, 5, "stage1"),
                (1, 5, 7, "stage2"),
                (2, 7, 14, "stage1"),
            ]
            # A reader attached by name sees the exact bytes.
            shm = shared_memory.SharedMemory(name=name)
            designs = np.ndarray(d_shape, np.float64, buffer=shm.buf)
            samples = np.ndarray(
                s_shape, np.float64, buffer=shm.buf, offset=designs.nbytes
            )
            np.testing.assert_array_equal(designs[1], [3.0, 4.0])
            np.testing.assert_array_equal(samples[5:7], blocks[1].samples)
            del designs, samples
            shm.close()

    def test_close_unlinks_segment(self):
        staged = ShmRound([_block([1.0], np.zeros((2, 2)))])
        name = staged.name
        staged.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_worker_chunk_evaluates_against_views(self):
        # Drive the worker entry point in-process: attach, rebuild views,
        # evaluate, detach — no pool needed to pin the descriptor protocol.
        from repro.engine.base import evaluate_pending
        from repro.problems import make_problem

        problem = make_problem("sphere")
        rng = np.random.default_rng(1)
        x = problem.space.clip(np.zeros(problem.space.dimension) + 0.5)
        samples = rng.normal(size=(6, problem.variation.dimension))
        blocks = [_block(x, samples[:4]), _block(x, samples[4:])]
        expected = evaluate_pending(problem, blocks)
        old = process_module._WORKER_PROBLEM
        process_module._WORKER_PROBLEM = problem
        try:
            with ShmRound(blocks) as staged:
                got = _evaluate_shm_chunk(staged.chunk_descriptor(blocks))
        finally:
            process_module._WORKER_PROBLEM = old
        np.testing.assert_array_equal(got, expected)


class TestNoSharedMemoryFallback:
    def test_pickled_chunks_match_serial(self, monkeypatch):
        # Where POSIX shm cannot be allocated, rounds ship (x, samples)
        # chunks through the call pickle — with the same results.
        def no_shm(blocks):
            raise OSError("no POSIX shared memory")

        stripped = []
        strip = process_module._strip

        def counting_strip(block):
            stripped.append(block.n_samples)
            return strip(block)

        monkeypatch.setattr(process_module, "ShmRound", no_shm)
        monkeypatch.setattr(process_module, "_strip", counting_strip)
        config = dict(problem="sphere", seed=5, max_generations=3, pop_size=8)
        serial = optimize(engine="serial", **config)
        pooled = optimize(
            engine="process",
            engine_params={"workers": 2, "min_dispatch_rows": 1},
            **config,
        )
        assert pooled.identity_dict() == serial.identity_dict()
        assert sum(stripped) > 0, "the pickled chunk path must have run"


@pytest.mark.slow
class TestCircuitPricedBitIdentity:
    """Serial vs process{1,2,4} on the netlist OTA."""

    CONFIG = dict(
        problem="netlist_ota",
        seed=3,
        max_generations=3,
        pop_size=8,
        n0=20,
        n_max=120,
    )

    @pytest.fixture(scope="class")
    def serial_identity(self):
        return optimize(engine="serial", **self.CONFIG).identity_dict()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shm_transfer_matches_serial(self, serial_identity, workers):
        result = optimize(
            engine="process",
            engine_params={"workers": workers},
            **self.CONFIG,
        )
        assert result.identity_dict() == serial_identity

    @pytest.mark.parametrize("workers", [2, 4])
    def test_shm_with_cache_matches_serial(self, serial_identity, workers):
        # Cold cache run first, then a warm re-run replaying hits: both
        # must land on the serial identity (ledger-faithful accounting).
        cache = make_cache("lru")
        cold = optimize(
            engine="process",
            engine_params={"workers": workers},
            cache=cache,
            **self.CONFIG,
        )
        assert cold.identity_dict() == serial_identity
        warm = optimize(
            engine="process",
            engine_params={"workers": workers},
            cache=cache,
            **self.CONFIG,
        )
        assert warm.identity_dict() == serial_identity
        assert warm.cache_stats["hits"] > 0  # the re-run actually replayed


class TestAutoEngineDecision:
    def test_cheap_problem_commits_serial_with_record(self):
        result = optimize(
            problem="sphere",
            seed=5,
            engine="auto",
            engine_params={"workers": 4},
            max_generations=3,
            pop_size=10,
        )
        decision = result.engine_decision
        assert decision is not None
        assert decision["chosen"] == "serial"
        assert decision["pilot_cost_seconds"] < decision["crossover_cost_seconds"]
        assert decision["workers"] == 4

    @pytest.mark.slow
    def test_circuit_priced_problem_commits_process(self):
        result = optimize(
            problem="netlist_ota",
            seed=3,
            engine="auto",
            engine_params={"workers": 4, "pilot_rows": 16},
            max_generations=3,
            pop_size=8,
            n0=20,
            n_max=120,
        )
        decision = result.engine_decision
        assert decision is not None
        assert decision["chosen"] == "process"
        assert decision["pilot_cost_seconds"] >= decision["crossover_cost_seconds"]

    def test_cli_prints_the_commit_record(self, capsys):
        from repro.api.cli import main

        args = ["run", "--problem", "sphere", "--seed", "5", "--engine", "auto"]
        args += ["--set", "pop_size=8", "--set", "max_generations=2"]
        assert main(args) == 0
        assert "engine[auto]: chose serial (measured " in capsys.readouterr().out

    def test_decision_outside_result_identity(self):
        result = optimize(
            problem="sphere",
            seed=5,
            engine="auto",
            engine_params={"workers": 2},
            max_generations=2,
            pop_size=8,
        )
        assert result.engine_decision is not None
        assert "engine_decision" in result.to_dict()
        assert "engine_decision" not in result.identity_dict()
