"""Which ``repro`` functions each layer span wraps, and the per-layer metrics.

Names are wrapped where callers look them up: a module-level function
imported by name into another module (``ocba_sequential`` in
``repro.core.moheco``) is replaced in that module, a method on the class
that defines it, and for open class families (topologies, samplers,
engines, screeners, proposers) on every subclass that defines it.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer, self_times

#: Every per-layer metric, with its unit (the ``per_layer`` list of
#: BENCHMARK.json, in the same order).
PER_LAYER = {
    "problems.feasibility_s": "s",
    "problems.feasibility_total_s": "s",
    "problems.feasibility_calls": "count",
    "problems.feasibility_rows": "count",
    "process.from_uniform_s": "s",
    "process.from_uniform_calls": "count",
    "circuit.evaluate_s": "s",
    "circuit.evaluate_calls": "count",
    "circuit.evaluate_rows": "count",
    "circuit.rows_per_call": "rows/call",
    "problems.pairs_s": "s",
    "problems.pairs_total_s": "s",
    "problems.pairs_rows": "count",
    "sampling.draw_s": "s",
    "sampling.as_screened_ratio": "ratio",
    "yieldsim.prepare_s": "s",
    "yieldsim.absorb_s": "s",
    "yieldsim.reference_s": "s",
    "yieldsim.reference_rows": "count",
    "ocba.self_s": "s",
    "ocba.rounds": "count",
    "mf.rungs": "count",
    "compose.screen_s": "s",
    "compose.keep_ratio": "ratio",
    "sweep.execute_run_s": "s",
    "sweep.store_append_s": "s",
    "optim.propose_s": "s",
    "optim.local_search_s": "s",
    "optim.local_search_calls": "count",
    "core.self_s": "s",
    "engine.refine_s": "s",
    "engine.rounds": "count",
    "engine.rows_per_round": "rows/round",
    "engine.cache_hit_ratio": "ratio",
    "engine.remote_chunks": "count",
    "engine.remote_rows": "count",
    "engine.remote_local_rows": "count",
    "engine.remote_redispatched": "count",
    "engine.remote_worker_failures": "count",
    "engine.worker_cache_rows": "count",
    "service.submit_s": "s",
    "service.result_s": "s",
    "service.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_est_s": "s",
}


def _n_rows(array) -> int:
    return int(np.atleast_2d(np.asarray(array)).shape[0])


def _evaluate_rows(args, kwargs) -> int:
    return _n_rows(args[2] if len(args) > 2 else kwargs["samples"])


def _evaluate_batch_rows(args, kwargs) -> int:
    designs = args[1] if len(args) > 1 else kwargs["X"]
    return _n_rows(designs) * _evaluate_rows(args, kwargs)


def _first_rows(args, kwargs) -> int:
    return _n_rows(args[1] if len(args) > 1 else kwargs["X"])


def _one(args, kwargs) -> int:
    return 1


def _draw_rows(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _reference_rows(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs.get("n", 50_000))


def _scalar_gate(tracer: Tracer, result) -> None:
    tracer.counts["problems.feasibility.scalar_calls"] += 1


def _ocba_rounds(tracer: Tracer, report) -> None:
    tracer.counts["ocba.rounds"] += int(report.rounds)


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _wrap_family(tracer: Tracer, base, attr: str, name: str, rows=None) -> None:
    for klass in _subclasses(base):
        if attr in klass.__dict__:
            tracer.wrap(klass, attr, name, rows)


def install_checks(tracer: Tracer) -> None:
    """The counters the correctness checks read: simulated and gated rows."""
    from repro.circuit.topologies.base import AmplifierTopology
    from repro.problems.base import YieldProblem

    _wrap_family(tracer, AmplifierTopology, "evaluate", "circuit.evaluate", _evaluate_rows)
    _wrap_family(
        tracer, AmplifierTopology, "evaluate_batch", "circuit.evaluate", _evaluate_batch_rows
    )
    _wrap_family(
        tracer, AmplifierTopology, "evaluate_pairs", "circuit.evaluate", _first_rows
    )
    tracer.wrap(
        YieldProblem, "nominal_feasibility", "problems.feasibility", _one, _scalar_gate
    )
    tracer.wrap(
        YieldProblem, "nominal_feasibility_batch", "problems.feasibility", _first_rows
    )


def install_layers(tracer: Tracer) -> None:
    """Every layer span of a traced run (includes :func:`install_checks`)."""
    import repro.core.moheco as moheco
    import repro.sweep.executor as executor
    import repro.yieldsim as yieldsim_pkg
    import repro.yieldsim.reference as reference
    from repro.compose import proposers, screeners
    from repro.engine.base import EvaluationEngine
    from repro.optim.de import DifferentialEvolution
    from repro.problems.base import YieldProblem
    from repro.process.parameters import ParameterGroup
    from repro.process.variation import ProcessVariationModel
    from repro.sampling.base import Sampler
    from repro.service.client import ServiceClient
    from repro.sweep.store import ResultStore
    from repro.yieldsim.estimator import CandidateYieldState

    install_checks(tracer)
    tracer.wrap(moheco.MOHECO, "run", "core")
    tracer.wrap(moheco, "ocba_sequential", "ocba", after=_ocba_rounds)
    tracer.wrap(moheco, "nelder_mead_maximize", "optim.local_search")
    tracer.wrap(DifferentialEvolution, "propose", "optim.propose")
    tracer.wrap(proposers.DEProposer, "propose", "optim.propose")
    tracer.wrap(proposers.LineSubspaceProposer, "propose", "optim.propose")
    tracer.wrap(screeners.NullScreener, "screen", "compose.screen")
    tracer.wrap(screeners.SurrogateScreener, "screen", "compose.screen")
    _wrap_family(tracer, EvaluationEngine, "refine_round", "engine.refine")
    tracer.wrap(YieldProblem, "evaluate_pairs", "problems.pairs", _first_rows)
    _wrap_family(tracer, Sampler, "draw", "sampling.draw", _draw_rows)
    tracer.wrap(ProcessVariationModel, "from_uniform", "process.from_uniform")
    tracer.wrap(ParameterGroup, "from_uniform", "process.from_uniform")
    tracer.wrap(CandidateYieldState, "prepare", "yieldsim.prepare")
    tracer.wrap(CandidateYieldState, "absorb", "yieldsim.absorb")
    tracer.wrap(yieldsim_pkg, "reference_yield", "yieldsim.reference", _reference_rows)
    tracer.wrap(reference, "reference_yield", "yieldsim.reference", _reference_rows)
    tracer.wrap(executor, "run_sweep", "sweep.run")
    tracer.wrap(executor, "execute_run", "sweep.execute_run")
    tracer.wrap(ResultStore, "append", "sweep.store_append")
    tracer.wrap(ServiceClient, "submit_run", "service.submit")
    tracer.wrap(ServiceClient, "wait", "service.wait")
    tracer.wrap(ServiceClient, "result", "service.result")


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(tracer: Tracer, units: int, roots: tuple, facts: dict) -> dict:
    """Per-layer metrics of a traced run, per unit of work.

    ``roots`` names the benchmark's own root spans; their self time is the
    part of ``wall_s`` no layer accounts for.  ``facts`` carries totals
    read off the results (ledger, traces, engine and cache records) and
    the client-side job timings.
    """
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    per = 1.0 / max(units, 1)

    def s(name: str) -> float:
        return selfs.get(name, 0.0) * per

    def c(name: str) -> float:
        return counts.get(name, 0.0) * per

    def f(name: str) -> float:
        return float(facts.get(name, 0)) * per

    names = {span[0]: span[1] for span in tracer.spans}

    def inclusive(name: str) -> float:
        """Time inside the outermost spans of ``name``, children included."""
        return sum(
            end - start
            for _, span_name, start, end, parent, _ in tracer.spans
            if span_name == name and names.get(parent) != name
        )

    def total(name: str) -> float:
        return inclusive(name) * per

    root_time = sum(inclusive(name) for name in roots)
    unaccounted = sum(selfs.get(name, 0.0) for name in roots)
    evaluate_calls = counts.get("circuit.evaluate.calls", 0.0)
    refine_calls = counts.get("engine.refine.calls", 0.0)
    drawn = counts.get("sampling.draw.rows", 0.0)
    values = {
        "problems.feasibility_s": s("problems.feasibility"),
        "problems.feasibility_total_s": total("problems.feasibility"),
        "problems.feasibility_calls": c("problems.feasibility.calls"),
        "problems.feasibility_rows": c("problems.feasibility.rows"),
        "process.from_uniform_s": s("process.from_uniform"),
        "process.from_uniform_calls": c("process.from_uniform.calls"),
        "circuit.evaluate_s": s("circuit.evaluate"),
        "circuit.evaluate_calls": c("circuit.evaluate.calls"),
        "circuit.evaluate_rows": c("circuit.evaluate.rows"),
        "circuit.rows_per_call": _ratio(
            counts.get("circuit.evaluate.rows", 0.0), evaluate_calls
        ),
        "problems.pairs_s": s("problems.pairs"),
        "problems.pairs_total_s": total("problems.pairs"),
        "problems.pairs_rows": c("problems.pairs.rows"),
        "sampling.draw_s": s("sampling.draw"),
        "sampling.as_screened_ratio": _ratio(facts.get("screened", 0), drawn),
        "yieldsim.prepare_s": s("yieldsim.prepare"),
        "yieldsim.absorb_s": s("yieldsim.absorb"),
        "yieldsim.reference_s": s("yieldsim.reference"),
        "yieldsim.reference_rows": c("yieldsim.reference.rows"),
        "ocba.self_s": s("ocba"),
        "ocba.rounds": c("ocba.rounds"),
        "mf.rungs": f("rungs"),
        "compose.screen_s": s("compose.screen"),
        "compose.keep_ratio": _ratio(facts.get("kept", 0), facts.get("screened_trials", 0)),
        "sweep.execute_run_s": s("sweep.execute_run"),
        "sweep.store_append_s": s("sweep.store_append"),
        "optim.propose_s": s("optim.propose"),
        "optim.local_search_s": s("optim.local_search"),
        "optim.local_search_calls": c("optim.local_search.calls"),
        "core.self_s": s("core"),
        "engine.refine_s": s("engine.refine"),
        "engine.rounds": c("engine.refine.calls") or f("engine_rounds"),
        "engine.rows_per_round": (
            _ratio(counts.get("problems.pairs.rows", 0.0), refine_calls)
            if refine_calls
            else _ratio(facts.get("engine_rows", 0), facts.get("engine_rounds", 0))
        ),
        "engine.cache_hit_ratio": _ratio(
            facts.get("cache_hit_rows", 0),
            facts.get("cache_hit_rows", 0) + facts.get("cache_miss_rows", 0),
        ),
        "engine.remote_chunks": f("remote_chunks"),
        "engine.remote_rows": f("remote_rows"),
        "engine.remote_local_rows": f("remote_local_rows"),
        "engine.remote_redispatched": f("remote_redispatched"),
        "engine.remote_worker_failures": f("remote_worker_failures"),
        "engine.worker_cache_rows": f("worker_cache_rows"),
        "service.submit_s": s("service.submit"),
        "service.result_s": s("service.result"),
        "service.overhead_s": f("service_overhead_s"),
        "trace.wall_s": float(facts.get("wall_s", 0.0)),
        "trace.unaccounted_share": _ratio(unaccounted, root_time),
        "trace.overhead_est_s": f("overhead_est_s"),
    }
    return values
