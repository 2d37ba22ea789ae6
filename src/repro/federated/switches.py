"""Declarative registry of the user-facing engine switches.

Every engine switch used to be mirrored by hand across four surfaces:
:class:`~repro.federated.config.FederatedConfig` (declaration + a literal
membership check in ``validate``),
:class:`~repro.experiments.config.ExperimentConfig` (the experiment-layer
mirror field), ``repro.cli`` (the ``--flag``) and the README engine table —
with repro-lint R2/R5 policing the drift after the fact.  This module is the
consolidation: one :class:`SwitchSpec` per switch, declaring its name, kind,
default, choices and documentation, from which

* ``FederatedConfig.validate`` derives the per-switch value checks,
* ``ExperimentConfig.to_federated_config`` forwards the switch fields,
* the CLI builds its ``--flag`` arguments
  (:func:`repro.cli.add_switch_arguments`),
* repro-lint R2/R5 extract the switch names, realizations and defaults
  statically (which is why every ``SwitchSpec(...)`` call below uses only
  literal keyword arguments — the analyzer reads this file without
  importing it).

Cross-switch constraints (e.g. ``workers > 1`` with the vectorized engine
rejecting the MLP scorer) stay in ``FederatedConfig.validate``: they relate
*several* fields and are not per-switch facts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["SwitchSpec", "SWITCH_REGISTRY", "switch_names", "registry_defaults"]


@dataclass(frozen=True)
class SwitchSpec:
    """One user-facing switch: declaration, validation and documentation.

    Attributes
    ----------
    name:
        The field name on both config dataclasses (``engine``, ``workers``,
        ...).
    kind:
        ``"choice"`` (a string drawn from :attr:`choices`), ``"int"`` (an
        integer bounded below by :attr:`minimum`), ``"float"`` (a positive
        float, optionally ``None`` — see :attr:`optional`) or ``"rate"`` (a
        probability in ``[0, 1]``, zero allowed — the dynamics rates).
    default:
        The default value; must equal the dataclass field default on
        ``FederatedConfig`` and ``ExperimentConfig`` (repro-lint R5 checks
        the parity statically).
    choices:
        The realization tuple of a ``"choice"`` switch (``None`` otherwise).
        These are the literals repro-lint R2 demands dispatch, equivalence
        and golden coverage for.
    minimum:
        Inclusive lower bound of an ``"int"`` switch (``None`` otherwise).
    optional:
        Whether ``None`` is a valid value (only ``worker_timeout``).
    help:
        One-line CLI help text (also the registry's doc row).
    """

    name: str
    kind: str
    default: str | int | float | None
    choices: tuple[str, ...] | None = None
    minimum: int | None = None
    optional: bool = False
    help: str = ""

    @property
    def cli_flag(self) -> str:
        """The CLI flag registered for this switch (``--eval-engine`` style)."""
        return "--" + self.name.replace("_", "-")

    @property
    def cli_type(self) -> type:
        """The argparse ``type`` callable parsing this switch's values."""
        if self.kind == "int":
            return int
        if self.kind in ("float", "rate"):
            return float
        return str

    def validate_value(self, value: object) -> None:
        """Raise :class:`ConfigurationError` when ``value`` is invalid."""
        if value is None:
            if self.optional:
                return
            raise ConfigurationError(f"{self.name} must not be None")
        if self.kind == "choice":
            assert self.choices is not None
            if value not in self.choices:
                rendered = " or ".join(repr(choice) for choice in self.choices)
                raise ConfigurationError(
                    f"{self.name} must be {rendered}, got {value!r}"
                )
            return
        if self.kind == "int":
            assert self.minimum is not None
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"{self.name} must be an integer, got {value!r}"
                )
            if int(value) < self.minimum:
                raise ConfigurationError(
                    f"{self.name} must be at least {self.minimum}"
                )
            return
        if self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{self.name} must be a number, got {value!r}")
            if float(value) <= 0:
                raise ConfigurationError(
                    f"{self.name} must be positive"
                    + (" (or None to wait forever)" if self.optional else "")
                )
            return
        if self.kind == "rate":
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{self.name} must be a number, got {value!r}")
            if not 0.0 <= float(value) <= 1.0:
                raise ConfigurationError(f"{self.name} must be in [0, 1]")
            return
        raise ConfigurationError(f"unknown switch kind {self.kind!r} for {self.name!r}")


#: The single source of truth for the switch surface.  Order matters only
#: for presentation (CLI flag order follows it).  Every keyword argument is
#: a literal so repro-lint can extract the registry without importing it.
SWITCH_REGISTRY: tuple[SwitchSpec, ...] = (
    SwitchSpec(
        name="engine",
        kind="choice",
        default="vectorized",
        choices=("loop", "vectorized"),
        help="round engine: 'vectorized' (default) or 'loop'",
    ),
    SwitchSpec(
        name="eval_engine",
        kind="choice",
        default="vectorized",
        choices=("loop", "vectorized"),
        help="evaluation engine: 'vectorized' (default) or 'loop'",
    ),
    SwitchSpec(
        name="eval_path",
        kind="choice",
        default="block",
        choices=("block", "candidates"),
        help=(
            "sampled-protocol scoring route: 'block' (default, full "
            "score-block product) or 'candidates' (gathered candidate "
            "scoring, no catalog GEMM; same draws, same realization)"
        ),
    ),
    SwitchSpec(
        name="workers",
        kind="int",
        default=1,
        minimum=1,
        help="worker processes sharding each round (bit-identical to 1)",
    ),
    SwitchSpec(
        name="worker_timeout",
        kind="float",
        default=None,
        optional=True,
        help="seconds to wait for a sharded round before aborting (default: forever)",
    ),
    SwitchSpec(
        name="dropout_rate",
        kind="rate",
        default=0.0,
        help="per-round probability that a sampled client drops out and never reports",
    ),
    SwitchSpec(
        name="crash_rate",
        kind="rate",
        default=0.0,
        help="per-round probability that a sampled client crashes mid-update (trains, upload lost)",
    ),
    SwitchSpec(
        name="straggler_rate",
        kind="rate",
        default=0.0,
        help="per-round probability that a sampled client straggles (reports late)",
    ),
    SwitchSpec(
        name="straggler_policy",
        kind="choice",
        default="wait",
        choices=("wait", "discard", "stale-merge"),
        help=(
            "what the round does with straggler reports: 'wait' (default, the "
            "round waits), 'discard' (late updates dropped) or 'stale-merge' "
            "(late updates merged in the round they arrive)"
        ),
    ),
    SwitchSpec(
        name="min_reporters",
        kind="int",
        default=0,
        minimum=0,
        help="reporter quorum: a round below it aborts and redraws its fault schedule (0: disabled)",
    ),
    SwitchSpec(
        name="shard_retries",
        kind="int",
        default=0,
        minimum=0,
        help="retries per shard for transient worker failures (exponential backoff)",
    ),
    SwitchSpec(
        name="shard_backoff",
        kind="float",
        default=0.05,
        help="base backoff seconds between shard retries (doubles per attempt)",
    ),
    SwitchSpec(
        name="degradation",
        kind="choice",
        default="strict",
        choices=("strict", "quorum"),
        help=(
            "sharded-round failure policy: 'strict' (default, any failed shard "
            "aborts the round) or 'quorum' (surviving shards merge iff the "
            "reporter quorum holds, logged as a RoundIncident)"
        ),
    ),
)


def switch_names() -> tuple[str, ...]:
    """The registered switch names, in registry order."""
    return tuple(spec.name for spec in SWITCH_REGISTRY)


def registry_defaults() -> dict[str, str | int | float | None]:
    """Mapping of switch name to registry default (one per spec)."""
    return {spec.name: spec.default for spec in SWITCH_REGISTRY}
