"""Experiment orchestration: configs, the runner, matrices, sweep engines.

The sweepable vocabulary — which knobs a :class:`ScenarioMatrix` can
grid over — lives in the :mod:`~repro.orchestration.axes` registry;
register an :class:`~repro.orchestration.axes.Axis` to add a dimension
without touching the matrix, the store or the CLI.

Beyond one machine, :mod:`~repro.orchestration.dispatch` turns a matrix
into a filesystem work queue: :func:`plan_dispatch` writes a manifest
of leased shard units, :func:`run_claims` is the worker loop, and the
incremental collector in :mod:`repro.store.collector` folds the
resulting shards as they land (``docs/sweeps.md`` walks it through).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .axes import (
        AXES, SCHEMA_VERSION, Axis, AxisRegistry, adversary_from_name,
        normalize_topology, topology_from_name,
    )
    from .kernel import KernelContext, default_context
    from .config import RunConfig
    from .dispatch import (
        DispatchError, DispatchPlan, ShardUnit, plan_dispatch,
        run_claims,
    )
    from .matrix import (
        ScenarioMatrix, ScenarioOutcome, ScenarioSpec, build_config,
        outcome_from_record, run_scenario,
    )
    from .parallel import (
        SweepResult, default_workers, shard_slice, sweep_parallel,
        sweep_serial,
    )
    from .runner import (
        ConsensusRunResult, RandomizedRunResult, default_topology,
        run_consensus, run_randomized,
    )
    from .sweeps import (
        PROPOSAL_PROFILES, proposal_profile, standard_proposals,
    )
    from ..analysis.tables import format_table

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".axes": (
        "AXES", "SCHEMA_VERSION", "Axis", "AxisRegistry",
        "adversary_from_name", "normalize_topology",
        "topology_from_name",
    ),
    ".kernel": ("KernelContext", "default_context"),
    ".config": ("RunConfig",),
    ".dispatch": (
        "DispatchError", "DispatchPlan", "ShardUnit", "plan_dispatch",
        "run_claims",
    ),
    ".matrix": (
        "ScenarioMatrix", "ScenarioOutcome", "ScenarioSpec",
        "build_config", "outcome_from_record", "run_scenario",
    ),
    ".parallel": (
        "SweepResult", "default_workers", "shard_slice",
        "sweep_parallel", "sweep_serial",
    ),
    ".runner": (
        "ConsensusRunResult", "RandomizedRunResult",
        "default_topology", "run_consensus", "run_randomized",
    ),
    ".sweeps": (
        "PROPOSAL_PROFILES", "proposal_profile", "standard_proposals",
    ),
    "..analysis.tables": ("format_table",),
})
