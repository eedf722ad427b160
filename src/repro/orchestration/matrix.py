"""Declarative scenario matrices for batch consensus experiments.

A :class:`ScenarioMatrix` describes a grid over scenario axes and
expands it into a list of :class:`ScenarioSpec` cells.  The *vocabulary*
of axes lives in :mod:`repro.orchestration.axes`: every sweepable knob
(system size, topology, adversary, value diversity, per-cell fault
count and placement, proposal profile, the Section 5.4 ``k`` knob,
timing budgets, plus any user-registered axis) is an
:class:`~repro.orchestration.axes.Axis` with its own parser, validator,
feasibility hook and canonical codec.  The matrix takes the cross
product of whatever axes are present — the classic field-based
constructor still works, and the open ``axes={"k": [0, 1], ...}``
mapping grids over anything registered.

Specs are deliberately *light*: plain picklable data (ints and strings,
no live objects), so a spec can cross a process boundary and be
reconstructed into a full :class:`~repro.orchestration.config.RunConfig`
on the worker side via :func:`build_config`.  :func:`run_scenario`
executes one spec and boils the heavyweight
:class:`~repro.orchestration.runner.ConsensusRunResult` down to a
picklable :class:`ScenarioOutcome`.

Expansion applies the paper's feasibility conditions through the axis
hooks (:mod:`repro.analysis.feasibility`): requested value diversity is
clamped to ``max_values(n, t)`` for the standard variant (the ⊥ variant
tolerates any diversity), and cells violating the resilience bound, the
``k <= t`` knob bound or the fault-count bounds are filtered out.

Seed derivation is deterministic and *structural*: every scenario's
master seed is derived from the matrix ``base_seed`` plus the cell key
and the seed index, so the same cell gets the same seed no matter how
the surrounding grid is shaped, and serial and parallel execution are
bit-identical by construction.  Cells using only pre-registry axes keep
their historical seeds, serialized records and cache digests exactly
(see the schema-versioning notes in :mod:`repro.orchestration.axes`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from ..adversary import strategies
from ..adversary.strategies import AdversarySpec
from ..instrumentation import (
    PHASE_BUILD_CONFIG,
    PHASE_CACHE_PUT,
    PHASE_EXPAND,
    PHASE_REPORT,
    PHASE_SIMULATE,
)
from ..sim.random import derive_seed
from . import axes as axes_mod
from .axes import (
    ADVERSARY_KINDS,
    AXES,
    SCHEMA_VERSION,
    TOPOLOGY_KINDS,
    adversary_from_name,
    normalize_topology,
    topology_from_name,
)
from .config import RunConfig
from .kernel import KernelContext, default_context
from .sweeps import proposal_profile

if TYPE_CHECKING:  # pragma: no cover
    from ..store.cache import ResultCache
    from .runner import ConsensusRunResult

__all__ = [
    "TOPOLOGY_KINDS",
    "ADVERSARY_KINDS",
    "adversary_from_name",
    "normalize_topology",
    "topology_from_name",
    "ScenarioSpec",
    "ScenarioOutcome",
    "ScenarioMatrix",
    "as_specs",
    "build_config",
    "execute",
    "outcome_from_record",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully determined scenario: picklable data, no live objects.

    ``seed`` is the run's master seed (already derived); ``seed_index``
    records which ensemble slot it came from.  ``index`` is the spec's
    position in its matrix expansion, used to keep parallel results in
    deterministic order.  ``extras`` carries the values of any
    user-registered (non-built-in) axes as sorted ``(name, value)``
    pairs, so custom dimensions survive pickling, JSONL and the cache
    without new dataclass fields.
    """

    n: int
    t: int
    topology: str
    adversary: str
    num_values: int
    seed: int
    seed_index: int = 0
    #: Explicit proposal values (first ``num_values`` are used);
    #: ``None`` generates the generic ``v0..v(num_values-1)``.
    values: tuple[str, ...] | None = None
    faults: int | None = None
    variant: str = "standard"
    k: int = 0
    placement: str = "tail"
    proposals: str = "round_robin"
    extras: tuple[tuple[str, Any], ...] = ()
    max_time: float = 1_000_000.0
    max_events: int = 20_000_000
    index: int = 0

    @property
    def cell(self) -> tuple[Any, ...]:
        """The grid cell this scenario belongs to (everything but seed)."""
        return (
            self.n, self.t, self.topology, self.adversary, self.num_values,
            self.values, self.faults, self.variant, self.k,
            self.placement, self.proposals, self.extras,
        )

    @cached_property
    def cell_id(self) -> str:
        """Human-readable cell label, stable across runs.

        Legacy axes keep their historical fragments; non-legacy axes
        (placement, proposal profile, custom extras) contribute a
        fragment only at non-default values, so pre-registry cells keep
        their pre-registry ids.

        Cached per instance (``cached_property`` writes straight into
        ``__dict__``, bypassing the frozen ``__setattr__``): the label
        is pure spec data, and :meth:`to_dict` embeds it in every cache
        key, JSONL record and report row.
        """
        faults = self.t if self.faults is None else self.faults
        parts = [
            f"n{self.n}", f"t{self.t}", self.topology, self.adversary,
            f"m{self.num_values}", f"f{faults}",
        ]
        if self.variant != "standard":
            parts.append(self.variant)
        if self.k:
            parts.append(f"k{self.k}")
        parts.extend(axes_mod.spec_extra_labels(self))
        return "/".join(parts)

    def with_seed(self, seed: int, seed_index: int = 0) -> "ScenarioSpec":
        """A copy of this spec with a different master seed."""
        return replace(self, seed=seed, seed_index=seed_index)

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-ready representation (JSONL persistence).

        Schema-versioned: the legacy (schema-1) fields are always
        present; non-legacy axes appear only at non-default values,
        together with a ``"schema"`` marker — so a spec that uses no
        new axis serializes byte-for-byte like pre-registry code did,
        and its cache digest is unchanged.
        """
        data = {
            "n": self.n, "t": self.t, "topology": self.topology,
            "adversary": self.adversary, "num_values": self.num_values,
            "values": list(self.values) if self.values is not None else None,
            "seed": self.seed, "seed_index": self.seed_index,
            "faults": self.faults, "variant": self.variant, "k": self.k,
            "max_time": self.max_time, "max_events": self.max_events,
            "cell_id": self.cell_id, "index": self.index,
        }
        extra = axes_mod.spec_schema2_fields(self)
        if extra:
            data["schema"] = SCHEMA_VERSION
            data.update(extra)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (extra keys, e.g. outcome fields in
        a flat JSONL record, are ignored).

        This is also the migration shim: schema-1 (pre-registry) records
        carry no ``schema`` key and no non-legacy fields, which decode
        to the axes' defaults — the exact spec the old code built.
        Records from a *newer* schema than this code raise ``ValueError``
        rather than silently dropping dimensions, and ``extras`` entries
        of axes this process never registered are preserved verbatim for
        the same reason (they are part of the scenario's identity).
        """
        schema = int(data.get("schema", 1))
        if schema > SCHEMA_VERSION:
            raise ValueError(
                f"record schema {schema} is newer than supported "
                f"schema {SCHEMA_VERSION}"
            )
        values = data.get("values")
        faults = data.get("faults")
        extras = axes_mod.decode_extras(data.get("extras") or {})
        kwargs: dict[str, Any] = {}
        for axis in AXES:
            if axis.legacy or not axis.fields or axis.name not in data:
                continue
            kwargs[axis.fields[0]] = axis.canonical(axis.decode(data[axis.name]))
        return cls(
            n=int(data["n"]),
            t=int(data["t"]),
            topology=str(data["topology"]),
            adversary=str(data["adversary"]),
            num_values=int(data["num_values"]),
            seed=int(data["seed"]),
            seed_index=int(data.get("seed_index", 0)),
            values=tuple(values) if values is not None else None,
            faults=None if faults is None else int(faults),
            variant=str(data.get("variant", "standard")),
            k=int(data.get("k", 0)),
            extras=axes_mod.canonical_extras(extras),
            max_time=float(data.get("max_time", 1_000_000.0)),
            max_events=int(data.get("max_events", 20_000_000)),
            index=int(data.get("index", 0)),
            **kwargs,
        )


@dataclass(frozen=True)
class ScenarioOutcome:
    """Picklable digest of one executed scenario.

    Values are rendered with ``repr`` (⊥ included) so outcomes survive a
    process boundary and a JSONL round-trip without the value objects.
    """

    spec: ScenarioSpec
    decided: bool
    decisions: dict[int, str]
    decided_value: str | None
    rounds: dict[int, int]
    max_round: int
    messages_sent: int
    events_processed: int
    finished_at: float
    timed_out: bool
    invariants_ok: bool
    violations: tuple[str, ...] = ()
    error: str | None = None

    def to_record(self) -> dict[str, Any]:
        """One flat JSONL record (scenario fields inlined)."""
        record = self.spec.to_dict()
        record.update({
            "decided": self.decided,
            "decisions": {str(pid): v for pid, v in self.decisions.items()},
            "decided_value": self.decided_value,
            "rounds": {str(pid): r for pid, r in self.rounds.items()},
            "max_round": self.max_round,
            "messages_sent": self.messages_sent,
            "events_processed": self.events_processed,
            "finished_at": self.finished_at,
            "timed_out": self.timed_out,
            "invariants_ok": self.invariants_ok,
            "violations": list(self.violations),
            "error": self.error,
        })
        return record


def outcome_from_record(
    record: dict[str, Any], spec: ScenarioSpec | None = None
) -> ScenarioOutcome:
    """Inverse of :meth:`ScenarioOutcome.to_record`.

    Passing ``spec`` reattaches a live spec instead of reconstructing one
    from the record — the result store uses this so a cache hit returns
    an outcome carrying the *caller's* spec (same matrix index and all),
    which keeps resumed sweeps bit-identical to fresh ones.
    """
    if spec is None:
        spec = ScenarioSpec.from_dict(record)
    return ScenarioOutcome(
        spec=spec,
        decided=bool(record["decided"]),
        decisions={int(pid): v for pid, v in record["decisions"].items()},
        decided_value=record["decided_value"],
        rounds={int(pid): int(r) for pid, r in record["rounds"].items()},
        max_round=int(record["max_round"]),
        messages_sent=int(record["messages_sent"]),
        events_processed=int(record["events_processed"]),
        finished_at=float(record["finished_at"]),
        timed_out=bool(record["timed_out"]),
        invariants_ok=bool(record["invariants_ok"]),
        violations=tuple(record.get("violations", ())),
        error=record.get("error"),
    )


@dataclass
class ScenarioMatrix:
    """A declarative grid of consensus scenarios.

    The classic field-based surface (``sizes`` / ``topologies`` /
    ``adversaries`` / ``value_counts`` plus scalar knobs) is unchanged;
    the ``axes`` mapping grids over *any* registered axis by name —
    including the scalar knobs (``axes={"k": [0, 1, 2]}`` overrides
    ``k``) and user-registered custom axes.

    Attributes:
        sizes: ``(n, t)`` pairs; pairs violating ``n > 3t`` are dropped.
        topologies: Topology names (``single_bisource`` / ``fully_timely``
            / ``fully_asynchronous``, CLI aliases accepted).
        adversaries: Adversary names (``"kind"`` / ``"kind:arg"`` /
            ``"none"``).
        value_counts: Requested distinct-proposal counts; clamped to the
            feasibility bound ``max_values(n, t)`` for the standard
            variant (duplicate cells after clamping are dropped).
        value_pool: Explicit proposal values; each cell uses the first
            ``m`` of them (``None``: generic ``v0..v(m-1)``).
        seeds: Seed *indices*; each scenario's master seed is derived
            from ``base_seed``, the cell key and the index.
        faults: Byzantine process count (``None``: ``t``).
        variant: ``"standard"`` or ``"bot"``.
        k: Section 5.4 knob; cells with ``k > t`` are dropped.
        placement: Fault placement (``tail`` / ``head`` / ``spread``).
        proposals: Proposal profile (``round_robin`` / ``block`` /
            ``skewed`` / ``unanimous``).
        base_seed: Root of the deterministic seed derivation.
        max_time / max_events: Per-run budgets.
        axes: ``axis name -> values`` grid entries; overrides the
            field-based value list for that axis (aliases accepted).
    """

    sizes: Sequence[tuple[int, int]] = ((4, 1),)
    topologies: Sequence[str] = ("single_bisource",)
    adversaries: Sequence[str] = ("crash",)
    value_counts: Sequence[int] = (2,)
    value_pool: Sequence[str] | None = None
    seeds: Sequence[int] = (0,)
    faults: int | None = None
    variant: str = "standard"
    k: int = 0
    placement: str = "tail"
    proposals: str = "round_robin"
    base_seed: int = 0
    max_time: float = 1_000_000.0
    max_events: int = 20_000_000
    axes: Mapping[str, Sequence[Any]] | None = None

    def _axis_values(self) -> list[tuple[axes_mod.Axis, list[Any]]]:
        """Per-axis value lists in registry order, canonicalised.

        Field-based values seed the built-in axes; ``axes`` entries
        override by name (or alias); every other registered axis
        contributes its single default value.
        """
        base: dict[str, list[Any]] = {
            "size": list(self.sizes),
            "topology": list(self.topologies),
            "adversary": list(self.adversaries),
            "num_values": list(self.value_counts),
            "faults": [self.faults],
            "variant": [self.variant],
            "k": [self.k],
            "placement": [self.placement],
            "proposals": [self.proposals],
            "max_time": [self.max_time],
            "max_events": [self.max_events],
        }
        for name, values in (self.axes or {}).items():
            axis = AXES.resolve(name)
            base[axis.name] = list(values)
        return [
            (axis, [axis.canonical(v) for v in base.get(axis.name, [axis.default])])
            for axis in AXES
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready description of the whole grid (dispatch manifests).

        Every registered axis contributes its canonical value list
        through its own codec, so any knob — built-in or custom —
        survives the round-trip; :meth:`from_dict` rebuilds the matrix
        through the ``axes`` mapping and expands to the exact same
        specs (same seeds, same indices) on any machine with the same
        axes registered.
        """
        return {
            "axes": {
                axis.name: [axis.encode(value) for value in values]
                for axis, values in self._axis_values()
            },
            "seeds": [int(s) for s in self.seeds],
            "base_seed": int(self.base_seed),
            "value_pool": (
                list(self.value_pool) if self.value_pool is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioMatrix":
        """Inverse of :meth:`to_dict`.

        Unknown axis names fail loudly (``ValueError``): a manifest
        gridding an axis this process never registered must not execute
        under a silently different identity.
        """
        axes: dict[str, list[Any]] = {}
        for name, values in dict(data.get("axes") or {}).items():
            axis = AXES.resolve(name)
            axes[axis.name] = [
                axis.canonical(axis.decode(value)) for value in values
            ]
        pool = data.get("value_pool")
        return cls(
            seeds=[int(s) for s in data.get("seeds", (0,))],
            base_seed=int(data.get("base_seed", 0)),
            value_pool=list(pool) if pool is not None else None,
            axes=axes,
        )

    def cell_dicts(self) -> list[dict[str, Any]]:
        """The feasible grid cells as full axis-field mappings.

        The cross product runs in registry order (legacy axes first, so
        purely legacy grids expand in the historical order), feasibility
        ``check`` hooks drop infeasible cells, ``clamp`` hooks adjust
        them, and cells that coincide after clamping are deduplicated.
        """
        per_axis = self._axis_values()
        pool = tuple(self.value_pool) if self.value_pool is not None else None
        out: list[dict[str, Any]] = []
        seen: set[tuple[Any, ...]] = set()
        for combo in product(*(values for _, values in per_axis)):
            cell: dict[str, Any] = {"extras": {}}
            for (axis, _), value in zip(per_axis, combo):
                axis.set_on(cell, value)
            if not all(
                axis.check(cell) for axis, _ in per_axis if axis.check
            ):
                continue
            for axis, _ in per_axis:
                if axis.clamp:
                    axis.clamp(cell)
            if pool is not None:
                cell["num_values"] = max(
                    1, min(cell["num_values"], len(pool))
                )
            cell["values"] = (
                pool[: cell["num_values"]] if pool is not None else None
            )
            key = tuple(
                sorted((name, value) for name, value in cell.items()
                       if name != "extras")
            ) + (tuple(sorted(cell["extras"].items())),)
            if key in seen:
                continue
            seen.add(key)
            out.append(cell)
        return out

    def cells(self) -> list[tuple[int, int, str, str, int]]:
        """The feasible ``(n, t, topology, adversary, m)`` cells
        (compatibility view of :meth:`cell_dicts`; cells that differ
        only in non-legacy axes repeat here)."""
        return [
            (c["n"], c["t"], c["topology"], c["adversary"], c["num_values"])
            for c in self.cell_dicts()
        ]

    def expand(self) -> list[ScenarioSpec]:
        """All scenarios: feasible cells × seed indices, in grid order.

        The structural seed key of a purely legacy cell is the exact
        pre-registry tuple; non-default non-legacy axis values extend it
        — so historical grids keep historical seeds bit for bit.
        """
        specs: list[ScenarioSpec] = []
        for cell in self.cell_dicts():
            cell_values = cell["values"]
            key: tuple[Any, ...] = (
                cell["n"], cell["t"], cell["topology"], cell["adversary"],
                cell["num_values"], cell_values, cell["faults"],
                cell["variant"], cell["k"],
            )
            extra = axes_mod.cell_extra_items(cell)
            if extra:
                key = key + (extra,)
            for seed_index in self.seeds:
                specs.append(ScenarioSpec(
                    n=cell["n"], t=cell["t"], topology=cell["topology"],
                    adversary=cell["adversary"],
                    num_values=cell["num_values"], values=cell_values,
                    seed=derive_seed(self.base_seed, "scenario", key, seed_index),
                    seed_index=seed_index,
                    faults=cell["faults"], variant=cell["variant"],
                    k=cell["k"], placement=cell["placement"],
                    proposals=cell["proposals"],
                    extras=axes_mod.canonical_extras(cell["extras"]),
                    max_time=cell["max_time"], max_events=cell["max_events"],
                    index=len(specs),
                ))
        return specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.expand())

    def __len__(self) -> int:
        return len(self.cell_dicts()) * len(self.seeds)


def as_specs(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
) -> list[ScenarioSpec]:
    """The spec list a sweep, a shard slice or a resume plan works on."""
    if isinstance(scenarios, ScenarioMatrix):
        with default_context().phase(PHASE_EXPAND):
            return scenarios.expand()
    # Strictly increasing indices (a matrix expansion, or a shard_slice
    # of one) are kept: result ordering (which sorts on spec.index)
    # already reproduces the input order, and preserving the original
    # matrix positions keeps shard JSONLs mergeable bit-identically with
    # the unsharded sweep.  Hand-built / filtered lists with stale or
    # duplicate indices are re-indexed positionally instead.
    specs = list(scenarios)
    indices = [spec.index for spec in specs]
    if all(b > a for a, b in zip(indices, indices[1:])):
        return specs
    return [
        spec if spec.index == i else replace(spec, index=i)
        for i, spec in enumerate(specs)
    ]


def build_config(
    spec: ScenarioSpec, context: "KernelContext | None" = None
) -> RunConfig:
    """Reconstruct the full :class:`RunConfig` for one spec (worker side).

    Every axis participates: the built-in fields map directly (fault
    *placement* chooses the Byzantine pid set, the proposal *profile*
    deals the value pool), and registered axes with an ``apply`` hook —
    extras-backed custom axes — get a final pass over the keyword
    arguments before :class:`RunConfig` validates them.

    ``context`` (default: the process-local kernel context) supplies
    cached topology and adversary objects so grid-shaped sweeps stop
    rebuilding identical immutable structures for every cell.
    """
    if context is None:
        context = default_context()

    for name, _ in spec.extras:
        if AXES.get(name) is None:
            # Refusing beats silently running the default config: worker
            # processes started via spawn/forkserver do not inherit the
            # parent's registrations, so a missing axis here means the
            # run would not match the identity it gets recorded under.
            raise ValueError(
                f"scenario uses unregistered axis {name!r}; register it "
                f"with repro.orchestration.axes.AXES at import time in "
                f"every process that executes scenarios"
            )
    faults = spec.t if spec.faults is None else spec.faults
    adversary = context.adversary(spec.adversary)
    adversaries: dict[int, AdversarySpec] = {}
    if adversary is not None and faults > 0:
        adversaries = {
            pid: adversary
            for pid in strategies.place_adversaries(
                spec.placement, spec.n, faults
            )
        }
    correct = [pid for pid in range(1, spec.n + 1) if pid not in adversaries]
    if spec.values is not None:
        values = list(spec.values[: spec.num_values])
    else:
        values = [f"v{i}" for i in range(spec.num_values)]
    kwargs: dict[str, Any] = dict(
        n=spec.n,
        t=spec.t,
        proposals=proposal_profile(spec.proposals)(correct, values),
        adversaries=adversaries,
        topology=context.topology(spec.topology, spec.n),
        variant=spec.variant,
        k=spec.k,
        seed=spec.seed,
        max_time=spec.max_time,
        max_events=spec.max_events,
    )
    for axis in AXES:
        if axis.apply is not None:
            axis.apply(kwargs, axis.of_spec(spec))
    return RunConfig(**kwargs)


def summarize_run(spec: ScenarioSpec, result: ConsensusRunResult) -> ScenarioOutcome:
    """Boil a live run result down to its picklable outcome."""
    decisions = {pid: repr(v) for pid, v in sorted(result.decisions.items())}
    decided_value = None
    if result.decisions:
        distinct = sorted(set(decisions.values()))
        decided_value = distinct[0] if len(distinct) == 1 else None
    return ScenarioOutcome(
        spec=spec,
        decided=result.all_decided,
        decisions=decisions,
        decided_value=decided_value,
        rounds=dict(sorted(result.rounds.items())),
        max_round=result.max_round,
        messages_sent=result.messages_sent,
        events_processed=result.events_processed,
        finished_at=result.finished_at,
        timed_out=result.timed_out,
        invariants_ok=result.invariants.ok,
        violations=tuple(str(v) for v in result.invariants.violations),
    )


def run_scenario(
    spec: ScenarioSpec,
    check_invariants: bool = False,
    context: "KernelContext | None" = None,
) -> ScenarioOutcome:
    """Execute one scenario end to end.

    With ``check_invariants`` false (the sweep default) safety violations
    are *recorded* on the outcome rather than raised, so one bad cell
    cannot abort a thousand-scenario sweep.  Configuration errors are
    likewise captured as ``error`` outcomes.

    Execution goes through a :class:`~repro.orchestration.kernel.KernelContext`
    (default: the process-local one), which reuses cached topologies,
    adversary specs and the instrumentation bus across the scenarios of
    a sweep.
    """
    # Imported where a scenario is executed: expanding, keying, caching
    # and merging specs never load the simulator stack.
    from .runner import run_consensus

    if context is None:
        context = default_context()
    try:
        with context.phase(PHASE_BUILD_CONFIG):
            config = build_config(spec, context)
        with context.phase(PHASE_SIMULATE):
            result = run_consensus(
                config, check_invariants=check_invariants, context=context
            )
    except Exception as exc:
        if check_invariants:
            raise
        return _error_outcome(spec, exc)
    with context.phase(PHASE_REPORT):
        return summarize_run(spec, result)


def execute(
    specs: Iterable[ScenarioSpec],
    check_invariants: bool = False,
    cache: "ResultCache | None" = None,
) -> Iterator[ScenarioOutcome]:
    """The one per-scenario step: run, store a clean outcome, hand it on.

    The in-process sweep and every pool worker drain this generator, so
    what a sweep does to one spec is written once.  Error outcomes are
    *not* cached: the error may be environmental (memory pressure,
    recursion limits), and persisting it would poison every future sweep
    of the cell.  Timeouts are cached — they are deterministic in the
    spec's budgets, which are part of the key.
    """
    context = default_context()
    for spec in specs:
        outcome = run_scenario(spec, check_invariants, context)
        if cache is not None and outcome.error is None:
            with context.phase(PHASE_CACHE_PUT):
                cache.put(outcome)
        yield outcome


def _error_outcome(spec: ScenarioSpec, exc: Exception) -> ScenarioOutcome:
    """The sweep-tolerant outcome for a scenario that failed to run."""
    return ScenarioOutcome(
        spec=spec, decided=False, decisions={}, decided_value=None,
        rounds={}, max_round=0, messages_sent=0, events_processed=0,
        finished_at=0.0, timed_out=False, invariants_ok=False,
        violations=(), error=f"{type(exc).__name__}: {exc}",
    )
