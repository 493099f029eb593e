"""The three workloads: inputs made from the workload seed, and their runs.

* ``fc_moheco`` — one paper-scale ``optimize("folded_cascode", "moheco")``
  in process on the serial engine, no cache (the paper's Example 1).
* ``ota_sweep`` — one ``run_sweep`` over ``netlist_ota`` x {moheco,
  moheco_mf, moheco_screened} x a seed set, in one process, into a
  ``ResultStore``, with reference-MC scoring.
* ``svc_remote`` — ``repro serve`` and one ``repro worker`` as
  subprocesses; two closed-loop clients submit ``netlist_ota`` ``moheco``
  jobs with ``engine="remote"``, a fixed share of them repeats.

Every input comes from a panel stored in ``golden.json`` together with the
identity hash its result must have; the workload seed picks from the panel
(see README.md for how the panels were chosen).
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

import verify
from layers import install_checks, install_layers, layer_metrics
from spans import Tracer, wrapper_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3
#: Trials per generation in every method's default config.
POP_SIZE = 50
#: Reference-MC sample counts (the sweep default is 20 000; on
#: ``netlist_ota`` that is ~93% of a sweep's time, so the sweep uses less).
FC_REFERENCE_N = 20_000
OTA_REFERENCE_N = 2_000
OTA_RUNS = 8
OTA_METHODS = ("moheco", "moheco_mf", "moheco_screened")
#: The fewest jobs whose 90th-percentile latency has ten jobs beyond it.
SVC_JOBS = 100
SVC_CLIENTS = 2
#: Share of ``svc_remote`` jobs that repeat an earlier job's seed.
SVC_REPEAT_SHARE = 0.25
#: ``svc_remote`` jobs re-run in process and compared with the service.
SVC_CHECKED = 3
SVC_JOB_TIMEOUT = 120.0

WORKLOADS = ("fc_moheco", "ota_sweep", "svc_remote")


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- inputs ---------------------------------------------------------------
def fc_input(seed: int, golden: dict) -> int:
    """The optimizer seed of one ``fc_moheco`` run."""
    panel = golden["fc_moheco"]["seeds"]
    return int(panel[seed % len(panel)])


def ota_input(seed: int, golden: dict) -> int:
    """The sweep ``base_seed`` of one ``ota_sweep`` run."""
    panel = golden["ota_sweep"]["base_seeds"]
    return int(panel[seed % len(panel)])


def svc_input(seed: int, golden: dict) -> list[int]:
    """The job seeds of one ``svc_remote`` run, in submission order.

    Every panel seed is submitted once and the first ``SVC_REPEAT_SHARE``
    of ``SVC_JOBS`` of them a second time; the workload seed shuffles the
    order, which decides how far apart, and how concurrent, each repeated
    pair runs.  The job multiset is the same for every seed, so the counts
    do not move with it.
    """
    panel = [int(s) for s in golden["svc_remote"]["seeds"]]
    n_repeat = int(round(SVC_REPEAT_SHARE * SVC_JOBS))
    if len(panel) + n_repeat != SVC_JOBS:
        raise ValueError(f"the panel must hold {SVC_JOBS - n_repeat} seeds, not {len(panel)}")
    jobs = panel + panel[:n_repeat]
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


def ota_spec(base_seed: int):
    from repro.sweep import MethodSpec, ProblemSpec, SweepSpec

    return SweepSpec(
        methods=tuple(MethodSpec(m) for m in OTA_METHODS),
        problems=(ProblemSpec("netlist_ota"),),
        runs=OTA_RUNS,
        base_seed=base_seed,
        reference_n=OTA_REFERENCE_N,
    )


# -- shared pieces --------------------------------------------------------
def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def measure_import_setup(problem: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``repro`` imported and
    ``problem`` built, ``SETUP_REPEATS`` times."""
    code = (
        "import repro\n"
        "from repro.api.driver import resolve_problem\n"
        f"resolve_problem({problem!r})\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            env=subprocess_env(),
            cwd=ROOT,
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return samples


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What one workload run measured, before it becomes the JSON line."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.unit_walls: list[float] = []
        self.latencies: list[float] = []
        self.charged_sims = 0
        self.charged_rows = 0
        self.final_yields: list[float] = []
        self.ref_yields: list[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict = {}
        self.units = 0
        #: ``ota_sweep`` only: the paired per-seed block of :func:`method_block`.
        self.method_block: dict | None = None

    def fail(self, problems: list[str]) -> None:
        self.failures.extend(problems)


def _repeat_units(seconds: float, unit) -> None:
    """Run ``unit(index)`` until ``seconds`` are spent; at least once, and
    never start one that would not fit by the last one's duration."""
    started = time.perf_counter()
    index = 0
    while True:
        unit_start = time.perf_counter()
        unit(index)
        index += 1
        now = time.perf_counter()
        if now - started + (now - unit_start) > seconds:
            return


#: Counters the in-process ledger checks read (see ``layers.install_checks``).
_CHECKED = (
    "circuit.evaluate.rows",
    "problems.feasibility.rows",
    "problems.feasibility.scalar_calls",
)


def _counts(tracer: Tracer) -> dict:
    return {name: int(tracer.counts.get(name, 0)) for name in _CHECKED}


def _check_ledgers(outcome: "Outcome", label: str, payloads: list[dict], before: dict, after: dict) -> None:
    """Conservation and pruned-charge checks for one unit's results."""
    simulated, gated, scalar = (after[name] - before[name] for name in _CHECKED)
    outcome.fail(verify.check_conservation(label, payloads, simulated))
    outcome.fail(verify.check_pruned(label, payloads, POP_SIZE, gated - scalar, scalar))


def _trace_facts(outcome: Outcome, results: list[dict]) -> None:
    """Totals read off result payloads: AS, ladder, screener, cache, remote."""
    facts = outcome.facts
    for result in results:
        ledger = result.get("ledger", {})
        facts["screened"] = facts.get("screened", 0) + int(ledger.get("screened_out", 0))
        for entry in result.get("fidelity_trace") or []:
            facts["rungs"] = facts.get("rungs", 0) + len(entry.get("rungs", []))
        for entry in result.get("screen_trace") or []:
            facts["kept"] = facts.get("kept", 0) + len(entry.get("keep", []))
            facts["screened_trials"] = (
                facts.get("screened_trials", 0)
                + len(entry.get("keep", []))
                + len(entry.get("pruned", []))
            )
        stats = result.get("cache_stats") or {}
        facts["cache_hit_rows"] = facts.get("cache_hit_rows", 0) + int(stats.get("hit_rows", 0))
        facts["cache_miss_rows"] = facts.get("cache_miss_rows", 0) + int(stats.get("miss_rows", 0))
        decision = result.get("engine_decision") or {}
        if decision.get("engine") == "remote":
            for fact, key in (
                ("engine_rounds", "rounds"),
                ("engine_rows", "rows"),
                ("remote_chunks", "chunks"),
                ("remote_rows", "rows"),
                ("remote_local_rows", "local_rows"),
                ("remote_redispatched", "re_dispatched"),
                ("remote_worker_failures", "worker_failures"),
                ("worker_cache_rows", "worker_cache_rows"),
            ):
                facts[fact] = facts.get(fact, 0) + int(decision.get(key, 0))


def _grand_total(result: dict) -> int:
    return sum(result.get("ledger", {}).get("by_category", {}).values())


# -- fc_moheco ------------------------------------------------------------
def run_fc(seed: int, seconds: float, tracer: Tracer, golden: dict) -> Outcome:
    import repro.yieldsim as yieldsim
    from repro.api import optimize
    from repro.api.driver import resolve_problem

    outcome = Outcome()
    outcome.setup = measure_import_setup("folded_cascode")
    optimizer_seed = fc_input(seed, golden)
    expected = golden["fc_moheco"]["runs"][str(optimizer_seed)]
    problem = resolve_problem("folded_cascode")
    results: list[dict] = []

    def unit(index: int) -> None:
        before = _counts(tracer)
        tracer.run_id = index
        start = time.perf_counter()
        with tracer.span("bench.unit"):
            result = optimize(problem, "moheco", seed=optimizer_seed, engine="serial")
        outcome.unit_walls.append(time.perf_counter() - start)
        outcome.latencies.append(outcome.unit_walls[-1])
        outcome.attempted += 1
        payload = result.to_dict()
        results.append(payload)
        label = f"fc_moheco seed={optimizer_seed} rep={index}"
        outcome.fail(
            verify.check_identity(label, verify.result_identity_hash(payload), expected["hash"])
        )
        _check_ledgers(outcome, label, [payload], before, _counts(tracer))

    _repeat_units(seconds, unit)
    tracer.uninstall()
    outcome.units = len(results)
    outcome.peak_rss_mb = self_peak_rss_mb()
    first = results[0]
    outcome.charged_sims = int(first["n_simulations"])
    outcome.charged_rows = _grand_total(first)
    outcome.final_yields = [float(first["best_yield"])]
    reference = yieldsim.reference_yield(
        problem, np.asarray(first["best_x"]), n=FC_REFERENCE_N
    )
    outcome.ref_yields = [reference.value]
    if reference.value != expected["ref_yield"]:
        outcome.fail([f"fc_moheco: reference yield {reference.value} != {expected['ref_yield']}"])
    _trace_facts(outcome, results)
    return outcome


# -- ota_sweep ------------------------------------------------------------
def run_ota(seed: int, seconds: float, tracer: Tracer, golden: dict) -> Outcome:
    import repro.sweep.executor as executor

    outcome = Outcome()
    outcome.setup = measure_import_setup("netlist_ota")
    base_seed = ota_input(seed, golden)
    expected = golden["ota_sweep"]["records"][str(base_seed)]
    spec = ota_spec(base_seed)
    latencies: list[float] = []
    execute_run = executor.execute_run

    def timed_execute_run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return execute_run(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    units: list[list[dict]] = []

    def unit(index: int) -> None:
        store = WORK / f"ota-store-{index}.jsonl"
        before = _counts(tracer)
        tracer.run_id = index
        start = time.perf_counter()
        with tracer.span("bench.unit"):
            sweep = executor.run_sweep(spec, workers=1, store=str(store))
        outcome.unit_walls.append(time.perf_counter() - start)
        outcome.attempted += len(sweep.records)
        records = [record.to_dict() for record in sweep.records]
        units.append(records)
        label = f"ota_sweep base_seed={base_seed} rep={index}"
        if len(records) != len(expected):
            outcome.fail([f"{label}: {len(records)} records, expected {len(expected)}"])
        for i, (record, want) in enumerate(zip(records, expected)):
            got = verify.record_identity_hash(record)
            outcome.fail(verify.check_identity(f"{label} run={i}", got, want))
        payloads = [record["result"] for record in records]
        _check_ledgers(outcome, label, payloads, before, _counts(tracer))

    executor.execute_run = timed_execute_run
    try:
        _repeat_units(seconds, unit)
    finally:
        executor.execute_run = execute_run
        tracer.uninstall()
    outcome.units = len(units)
    outcome.latencies = latencies
    outcome.peak_rss_mb = self_peak_rss_mb()
    records = units[0]
    outcome.charged_sims = sum(int(record["n_simulations"]) for record in records)
    outcome.charged_rows = sum(_grand_total(record["result"]) for record in records)
    outcome.final_yields = [float(record["reported_yield"]) for record in records]
    outcome.ref_yields = [float(record["reference_yield"]) for record in records]
    outcome.method_block = method_block(records)
    _trace_facts(outcome, [record["result"] for unit_records in units for record in unit_records])
    return outcome


def _geomean(values: list[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else float("nan")


def method_block(records: list[dict]) -> dict:
    """Paired per-seed ratios of each method against ``moheco``.

    A sims ratio below 1 (fewer charged sims) and a reference-yield ratio
    above 1 count as wins for the method; equal values are ties.
    """
    by_key = {(r["method"], int(r["run_index"])): r for r in records}
    seeds = sorted({int(r["run_index"]) for r in records})
    block = {}
    for method in OTA_METHODS[1:]:
        sims, refs = [], []
        for i in seeds:
            base, other = by_key[("moheco", i)], by_key[(method, i)]
            sims.append(other["n_simulations"] / base["n_simulations"])
            refs.append(other["reference_yield"] / base["reference_yield"])
        block[method] = {
            "charged_sims_ratio": [round(x, 4) for x in sims],
            "charged_sims_geomean": round(_geomean(sims), 4),
            "charged_sims_wins": sum(x < 1 for x in sims),
            "charged_sims_ties": sum(x == 1 for x in sims),
            "ref_yield_ratio": [round(x, 6) for x in refs],
            "ref_yield_geomean": round(_geomean(refs), 6),
            "ref_yield_wins": sum(x > 1 for x in refs),
            "ref_yield_ties": sum(x == 1 for x in refs),
            "seeds": len(seeds),
        }
    return block


# -- svc_remote -----------------------------------------------------------
class _Daemon:
    """One ``python -m repro ...`` subprocess with its output in a log file."""

    def __init__(self, name: str, args: list[str]) -> None:
        self.log_path = WORK / f"{name}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=subprocess_env(),
            cwd=ROOT,
        )

    def wait_for(self, pattern: str, timeout: float = 60.0) -> re.Match:
        deadline = time.monotonic() + timeout
        regex = re.compile(pattern)
        while time.monotonic() < deadline:
            match = regex.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                return match
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"{self.log_path.name}: no {pattern!r} in time:\n"
            + self.log_path.read_text(encoding="utf-8")
        )

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started from a background shell
        # inherits an ignored SIGINT and would never see KeyboardInterrupt.
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._log.close()


def start_fleet(index: int) -> tuple[_Daemon, _Daemon, str, float]:
    """Spawn the service and one registered worker; returns their set-up time."""
    from repro.service.client import ServiceClient

    data_dir = WORK / f"service-{index}"
    start = time.perf_counter()
    service = _Daemon(
        f"service-{index}",
        ["serve", "--port", "0", "--workers", str(SVC_CLIENTS), "--data-dir", str(data_dir)],
    )
    worker = None
    try:
        url = service.wait_for(r"listening on (http://\S+)").group(1)
        # `repro worker --register` registers before it starts serving, so
        # the service's health probe of the worker times out; register
        # from here once the worker is up instead.
        worker = _Daemon(f"worker-{index}", ["worker", "--port", "0"])
        worker_url = worker.wait_for(r"listening on (http://\S+)").group(1)
        ServiceClient(url).register_worker(worker_url)
        with urllib.request.urlopen(f"{url}/v1/health", timeout=10) as response:
            if not json.loads(response.read()).get("ok"):
                raise RuntimeError("service health check failed")
        with urllib.request.urlopen(f"{url}/v1/workers", timeout=10) as response:
            if len(json.loads(response.read())["workers"]) != 1:
                raise RuntimeError("worker did not register")
    except BaseException:
        if worker is not None:
            worker.stop()
        service.stop()
        raise
    return service, worker, url, time.perf_counter() - start


def run_svc(seed: int, seconds: float, tracer: Tracer, golden: dict) -> Outcome:
    import repro.yieldsim as yieldsim
    from repro.api import optimize
    from repro.api.driver import resolve_problem
    from repro.service.client import ServiceClient

    outcome = Outcome()
    problem = resolve_problem("netlist_ota")
    job_seeds = svc_input(seed, golden)
    expected = golden["svc_remote"]["hashes"]
    fleet = None
    try:
        for index in range(SETUP_REPEATS):
            if fleet is not None:
                fleet[0].stop()
                fleet[1].stop()
            fleet = start_fleet(index)
            outcome.setup.append(fleet[3])
        service, worker, url, _ = fleet

        jobs: list[dict | None] = [None] * len(job_seeds)
        cursor = iter(range(len(job_seeds)))
        cursor_lock = threading.Lock()

        def client_loop() -> None:
            client = ServiceClient(url, timeout=SVC_JOB_TIMEOUT)
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                jobs[index] = _one_job(tracer, client, index, job_seeds[index])

        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(SVC_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.unit_walls.append(time.perf_counter() - start)
        tracer.uninstall()
        outcome.peak_rss_mb = service.peak_rss_mb() + worker.peak_rss_mb()
    finally:
        if fleet is not None:
            fleet[0].stop()
            fleet[1].stop()

    outcome.units = len(jobs)
    outcome.attempted = len(jobs)
    done = []
    for index, job in enumerate(jobs):
        label = f"svc_remote job={index} seed={job_seeds[index]}"
        if job is None or job.get("error"):
            outcome.fail([f"{label}: {job.get('error') if job else 'not run'}"])
            continue
        result = job["result"]
        outcome.fail(
            verify.check_identity(
                label, verify.result_identity_hash(result), expected.get(str(job_seeds[index]))
            )
        )
        outcome.fail(verify.check_remote_conservation(label, result))
        outcome.latencies.append(job["latency"])
        done.append(job)
    results = [job["result"] for job in done]
    outcome.charged_sims = sum(int(r["n_simulations"]) for r in results)
    outcome.charged_rows = sum(_grand_total(r) for r in results)
    outcome.final_yields = [float(r["best_yield"]) for r in results]
    overheads = [job["latency"] - job["result"]["elapsed_seconds"] for job in done]
    outcome.facts["service_overhead_s"] = float(sum(overheads))

    # A sample of the jobs, re-run in process: the service must return what
    # a direct optimize() returns.  Their reference MC gives ref_yield.
    rng = np.random.default_rng([seed, 1])
    for index in sorted(rng.choice(len(done), size=min(SVC_CHECKED, len(done)), replace=False)):
        job = done[int(index)]
        direct = optimize("netlist_ota", "moheco", seed=job["seed"])
        outcome.fail(
            verify.check_identity(
                f"svc_remote direct seed={job['seed']}",
                verify.identity_hash(direct.identity_dict()),
                verify.result_identity_hash(job["result"]),
            )
        )
        reference = yieldsim.reference_yield(
            problem, np.asarray(job["result"]["best_x"]), n=OTA_REFERENCE_N
        )
        outcome.ref_yields.append(reference.value)
    _trace_facts(outcome, results)
    return outcome


def _one_job(tracer: Tracer, client, index: int, job_seed: int) -> dict:
    spec = {"problem": "netlist_ota", "method": "moheco", "seed": job_seed, "engine": "remote"}
    tracer.run_id = index
    start = time.perf_counter()
    try:
        with tracer.span("bench.job"):
            status = client.submit_run(spec)
            final = client.wait(status["id"], timeout=SVC_JOB_TIMEOUT)
            if final["state"] != "succeeded":
                return {"seed": job_seed, "error": f"job ended {final['state']}"}
            payload = client.result(status["id"])
    except Exception as error:  # noqa: BLE001 - every failure counts, none stops the loop
        return {"seed": job_seed, "error": f"{type(error).__name__}: {error}"}
    return {
        "seed": job_seed,
        "latency": time.perf_counter() - start,
        "result": payload["result"]["result"],
    }


RUNNERS = {"fc_moheco": run_fc, "ota_sweep": run_ota, "svc_remote": run_svc}
ROOTS = {"fc_moheco": ("bench.unit",), "ota_sweep": ("bench.unit",), "svc_remote": ("bench.job",)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, dict | None]:
    """Run one workload; with ``trace`` also return its per-layer metrics."""
    golden = load_golden()
    tracer = Tracer(timing=trace)
    if trace:
        install_layers(tracer)
    else:
        install_checks(tracer)
    try:
        outcome = RUNNERS[name](seed, seconds, tracer, golden)
    finally:
        tracer.uninstall()
    layers = None
    if trace:
        outcome.facts["overhead_est_s"] = len(tracer.spans) * wrapper_cost()
        outcome.facts["wall_s"] = statistics.median(outcome.unit_walls)
        layers = layer_metrics(tracer, outcome.units, ROOTS[name], outcome.facts)
        tracer.dump(WORK / f"spans-{name}-{seed}.jsonl")
    return outcome, layers

