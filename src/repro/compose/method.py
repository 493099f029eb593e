"""Method rows: every MOHECO-family method is one config row.

A method is declared, not written: a config row names its parts and
:func:`register_composed_method` turns it into a full method-registry
entry —

::

    register_composed_method(
        "moheco_screened",
        {
            "screener": "surrogate",
            "proposer": "de",
            "selection": "one_to_one",
            "backbone": "moheco",
        },
        description="...",
    )

``proposer`` and ``selection`` resolve by name from
:mod:`repro.compose.parts`; ``screener`` does too, or is ``None`` for a
row without a screening stage.  The ``backbone`` names a
:class:`~repro.core.config.MOHECOConfig` factory, so every config override
the backbone accepts (``pop_size``, ``n_max``, ...) works unchanged.  An
optional ``estimation`` (``"ocba"``, ``"fixed"``, ``"ladder"``) replaces
the backbone's stage-1 policy and an optional ``proposer_params`` dict
configures the proposer statically.

Every row runs on the one driver, :class:`~repro.core.moheco.MOHECO`.
Which per-run inputs a run accepts follows from the resolved row: the
``screen_params`` dict exactly when the row has a screener, the
``mf_params`` ladder knobs exactly when the estimation is ``"ladder"``
(which also makes sample-level cache keying the default).  Screening
happens *before* the step-3 feasibility check, so a pruned trial charges
zero simulations; the ledger's ``pruned`` column counts them, and every
decision is appended to ``MOHECOResult.screen_trace`` (part of the result
identity, bit-identical across engines and caches).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api.registries import register_method
from repro.compose.parts import register_selection
from repro.core.config import MOHECOConfig
from repro.core.moheco import MOHECO, resolve_parts
from repro.core.state import Individual
from repro.optim.constraints import deb_better

# Part implementations register themselves on import.
import repro.compose.proposers  # noqa: F401
import repro.compose.screeners  # noqa: F401

__all__ = ["BACKBONES", "register_composed_method"]

#: Backbone name -> (MOHECOConfig factory, its budget-argument name).
BACKBONES = {
    "moheco": (MOHECOConfig.moheco, "n_max"),
    "oo_only": (MOHECOConfig.oo_only, "n_max"),
    "fixed_budget": (MOHECOConfig.fixed_budget, "n_fixed"),
}

COMPOSE_FIELDS = ("screener", "proposer", "selection", "backbone")
OPTIONAL_FIELDS = ("estimation", "proposer_params")
#: Per-run inputs a row's parts take (accepted only when the part exists).
PART_INPUTS = ("mf_params", "screen_params")


# -- built-in selection rules ----------------------------------------------
@register_selection("one_to_one")
def select_one_to_one(population: list[Individual], trials: list[Individual]) -> None:
    """Standard DE one-to-one replacement; the trial wins ties."""
    for i, trial in enumerate(trials):
        if not deb_better(population[i].fitness(), trial.fitness()):
            population[i] = trial


@register_selection("greedy")
def select_greedy(population: list[Individual], trials: list[Individual]) -> None:
    """Parent-biased replacement: the trial must *strictly* beat it."""
    for i, trial in enumerate(trials):
        if deb_better(trial.fitness(), population[i].fitness()):
            population[i] = trial


def _normalize_compose(compose: dict) -> dict:
    compose = dict(compose or {})
    unknown = set(compose) - set(COMPOSE_FIELDS) - set(OPTIONAL_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown compose field(s) {sorted(unknown)}; valid: "
            f"{', '.join(COMPOSE_FIELDS + OPTIONAL_FIELDS)}"
        )
    missing = [field for field in COMPOSE_FIELDS if field not in compose]
    if missing:
        raise ValueError(f"compose config is missing field(s) {missing}")
    if compose["backbone"] not in BACKBONES:
        raise ValueError(
            f"unknown backbone {compose['backbone']!r}; valid: "
            f"{', '.join(sorted(BACKBONES))}"
        )
    # The resolved row always names its estimation (the backbone's unless
    # the row overrides it), in one canonical field order.
    config_factory, _ = BACKBONES[compose["backbone"]]
    compose.setdefault("estimation", config_factory().estimation)
    return {
        field: compose[field]
        for field in COMPOSE_FIELDS + OPTIONAL_FIELDS
        if field in compose
    }


def _config_builder(compose: dict):
    """Overrides-dict -> ``(MOHECOConfig, per-run part inputs)`` for a row.

    The backbone's budget alias (``n_max``/``n_fixed``) routes to the
    factory, so a config-field override that shadows the alias (e.g.
    ``n_fixed=50, n_max=60``) wins instead of colliding; the row's
    ``estimation`` and then every other override go through
    ``with_overrides``.  ``mf_params`` and ``screen_params`` are split off
    as the part inputs.  Bad overrides — unknown names, or values the
    config rejects (e.g. a stage-1 budget that cannot cover the pilot
    samples) — raise ``ValueError``, which spec validation
    (:func:`repro.api.errors.validate_run_spec`) surfaces as a structured
    :class:`~repro.api.errors.SpecError` at submission time.
    """
    config_factory, budget_arg = BACKBONES[compose["backbone"]]
    config_fields = {field.name for field in dataclasses.fields(MOHECOConfig)}

    def build(overrides: dict) -> tuple[MOHECOConfig, dict]:
        overrides = dict(overrides)
        inputs = {key: overrides.pop(key) for key in PART_INPUTS if key in overrides}
        factory_kwargs = (
            {budget_arg: overrides.pop(budget_arg)} if budget_arg in overrides else {}
        )
        unknown = set(overrides) - config_fields
        if unknown:
            raise ValueError(
                f"unknown config override(s) {sorted(unknown)}; valid fields: "
                f"{', '.join(sorted(config_fields | {budget_arg}))}"
            )
        config = config_factory(**factory_kwargs).with_overrides(
            **{"estimation": compose["estimation"], **overrides}
        )
        return config, inputs

    return build


def register_composed_method(
    name: str, compose: dict, description: str, *, overwrite: bool = False
):
    """Turn a method row into a registered method.

    The produced runner carries the standard method-registry extras:

    * ``validate_overrides`` — builds the config *and* the run's parts
      with its ``mf_params``/``screen_params``, so bad knobs fail at
      submission time as structured ``SpecError``s;
    * ``cache_defaults`` — ``overrides -> dict`` of factory defaults for a
      name-resolved cache: sample-level keying under the ladder, whose
      promoted candidates replay their low-rung rows;
    * ``description`` — the one-liner ``repro list methods`` prints;
    * ``compose_config`` — the row itself, for introspection and the
      CLI's method table.
    """
    compose = _normalize_compose(compose)
    build = _config_builder(compose)

    def validate_overrides(overrides: dict) -> None:
        config, inputs = build(overrides)
        resolve_parts(compose, config, rng=np.random.default_rng(0), **inputs)

    # Fail at registration time (not first run) if a part name is unknown,
    # the static proposer params are bad, or the row's config is.
    validate_overrides({})

    def runner(
        problem,
        *,
        rng=None,
        ledger=None,
        callbacks=None,
        engine=None,
        cache=None,
        **overrides,
    ):
        config, inputs = build(overrides)
        return MOHECO(
            problem,
            config,
            ledger=ledger,
            rng=rng,
            callbacks=callbacks,
            engine=engine,
            cache=cache,
            method=compose,
            **inputs,
        ).run()

    def cache_defaults(overrides: dict) -> dict:
        config, _ = build(overrides)
        return {"key": "sample"} if config.estimation == "ladder" else {}

    runner.validate_overrides = validate_overrides
    runner.cache_defaults = cache_defaults
    runner.description = str(description)
    runner.compose_config = compose
    register_method(name, runner, overwrite=overwrite)
    return runner
