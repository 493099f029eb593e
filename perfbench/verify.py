"""Correctness checks run inside the benchmark, on results seen from outside.

* **Identity.** Every run's ``identity_dict()`` is hashed and compared with
  the golden hash stored for its input in ``golden.json`` (and, when a run
  is repeated, with the hash of the repetition).
* **Conservation.** The ledger must balance against what the benchmark
  counted itself: rows charged (reference included) equal rows the circuit
  simulated plus rows replayed from a cache, and candidates a screener
  pruned never reach the feasibility gate, so they are charged nothing.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "identity_hash",
    "result_identity_hash",
    "record_identity_hash",
    "check_identity",
    "check_conservation",
    "check_pruned",
    "check_remote_conservation",
]

#: Ledger categories charged by the feasibility gate and the reference MC;
#: everything else is charged by the engine's refinement rounds.
FEASIBILITY = "feasibility"
REFERENCE = "reference"


def identity_hash(identity: dict) -> str:
    """SHA-256 of an identity dict in canonical JSON."""
    text = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_identity_hash(result_dict: dict) -> str:
    """Identity hash of a ``MOHECOResult.to_dict()`` payload."""
    from repro.core.moheco import MOHECOResult

    return identity_hash(MOHECOResult.from_dict(result_dict).identity_dict())


def record_identity_hash(record_dict: dict) -> str:
    """Identity hash of a sweep ``RunRecord.to_dict()`` payload."""
    from repro.sweep.records import RunRecord

    return identity_hash(RunRecord.from_dict(record_dict).identity_dict())


def check_identity(label: str, got: str, expected: str | None) -> list[str]:
    """Compare one hash with its golden (or earlier) value."""
    if expected is None:
        return [f"{label}: no golden identity hash stored"]
    if got != expected:
        return [f"{label}: identity hash {got[:12]} != expected {expected[:12]}"]
    return []


def _ledger(result_dict: dict) -> tuple[dict, int]:
    ledger = result_dict.get("ledger", {})
    return dict(ledger.get("by_category", {})), int(ledger.get("cached", 0))


def check_conservation(
    label: str, result_dicts: list[dict], simulated_rows: int
) -> list[str]:
    """Charged rows (reference included) == simulated rows + cached rows.

    ``simulated_rows`` is what the circuit evaluators processed while the
    runs executed, counted by the benchmark's own wrappers.  The ledger's
    ``total`` must also equal the reported ``n_simulations``.
    """
    problems = []
    charged = cached = 0
    for result in result_dicts:
        by_category, run_cached = _ledger(result)
        charged += sum(by_category.values())
        cached += run_cached
        total = sum(v for k, v in by_category.items() if k != REFERENCE)
        if total != int(result.get("n_simulations", -1)):
            problems.append(
                f"{label}: ledger total {total} != n_simulations "
                f"{result.get('n_simulations')}"
            )
    if charged != simulated_rows + cached:
        problems.append(
            f"{label}: charged {charged} != simulated {simulated_rows} + "
            f"cached {cached}"
        )
    return problems


def check_pruned(
    label: str,
    result_dicts: list[dict],
    pop_size: int,
    batch_rows: int,
    scalar_calls: int,
) -> list[str]:
    """Pruned candidates are charged nothing.

    Every generation proposes ``pop_size`` trials.  The initial population
    and the unpruned trials enter the batched feasibility gate
    (``batch_rows`` designs, as the benchmark counted them); local-search
    points enter the scalar gate (``scalar_calls``).  Each gated design is
    charged one feasibility simulation, and nothing else is.
    """
    problems = []
    unpruned = 0
    charged = 0
    for result in result_dicts:
        by_category, _ = _ledger(result)
        pruned = int(result.get("ledger", {}).get("pruned", 0))
        traced = sum(
            len(entry.get("pruned", [])) for entry in result.get("screen_trace") or []
        )
        if pruned != traced:
            problems.append(
                f"{label}: ledger pruned {pruned} != screen trace pruned {traced}"
            )
        unpruned += pop_size * (1 + int(result["generations"])) - pruned
        charged += int(by_category.get(FEASIBILITY, 0))
    if batch_rows != unpruned:
        problems.append(
            f"{label}: {batch_rows} designs entered the gate, but "
            f"{unpruned} trials were left unpruned"
        )
    if batch_rows + scalar_calls != charged:
        problems.append(
            f"{label}: {batch_rows + scalar_calls} designs gated but "
            f"{charged} feasibility sims charged"
        )
    return problems


def check_remote_conservation(label: str, result_dict: dict) -> list[str]:
    """For a run on the remote engine: engine-charged rows == simulated + cached.

    The engine's record counts the rows its rounds sent out in chunks
    (``rows``) and the rows it simulated in the parent (``local_rows``):
    rounds too small to dispatch, and chunks whose workers failed, which
    are in both counts.  Rows replayed from the parent's cache are in the
    ledger's ``cached`` column.  Without worker failures the balance is
    exact; with them it is bounded by the double-counted fallback rows.
    """
    by_category, cached = _ledger(result_dict)
    engine_charged = sum(
        v for k, v in by_category.items() if k not in (FEASIBILITY, REFERENCE)
    )
    decision = result_dict.get("engine_decision") or {}
    dispatched = int(decision.get("rows", -1))
    local = int(decision.get("local_rows", 0))
    high = dispatched + local + cached
    if decision.get("worker_failures", 0):
        balanced = dispatched + cached <= engine_charged <= high
    else:
        balanced = engine_charged == high
    if not balanced:
        return [
            f"{label}: engine charged {engine_charged} != dispatched "
            f"{dispatched} + local {local} + cached {cached}"
        ]
    return []
