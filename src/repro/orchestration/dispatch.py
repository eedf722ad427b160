"""Distributed sweep dispatch: a filesystem work queue over shard units.

``repro sweep --shard i/N`` (PR 3) proved that the N round-robin slices
of one matrix execute independently and merge bit-identically back into
the unsharded sweep — but left assigning those slices to workers as a
manual job.  This module closes that gap with a *work-queue dispatcher*:

* :func:`plan_dispatch` partitions a
  :class:`~repro.orchestration.matrix.ScenarioMatrix` into named
  :class:`ShardUnit` slices and persists the whole plan as one atomic
  JSON **manifest** (the matrix itself rides along via
  :meth:`~repro.orchestration.matrix.ScenarioMatrix.to_dict`, so a
  claimant needs nothing but the manifest to reconstruct its exact
  specs — same seeds, same indices);
* any worker process — on this machine or any machine sharing the
  filesystem — **claims** a unit (:meth:`DispatchPlan.claim`), executes
  it through the ordinary sweep (optionally against a shared
  :class:`~repro.store.cache.ResultCache`), writes its shard JSONL
  atomically, and marks the unit done;
* claims carry a **lease**: a worker that dies mid-unit stops renewing
  nothing — its lease simply expires and the unit becomes claimable
  again, up to ``max_attempts`` total tries (the straggler/retry
  semantics that make the queue safe without any coordinator process);
* live claimants **heartbeat** (:meth:`DispatchPlan.heartbeat`):
  periodic progress writes into the lease record that double as lease
  *renewal*, so a long-running unit is never reclaimed while its worker
  is demonstrably alive — only silence lets a lease run out.  ``repro
  top`` renders the heartbeats as a live fleet view, and
  ``dispatch status --reclaim`` (:meth:`DispatchPlan.reclaim_stale`)
  reconciles units whose lease expired with no heartbeat back to
  ``pending`` in one step, so status reflects reality instead of
  accumulating stale leases.

Mutual exclusion is a sidecar lock file taken with ``O_CREAT | O_EXCL``
(atomic on POSIX and NFS alike) around every read-modify-write of the
manifest; the manifest itself is only ever replaced atomically
(:mod:`repro.store.atomic`), so readers — ``repro dispatch status``,
the collector — never see a torn plan.  Because scenario execution is
deterministic in the spec, two workers racing the same expired unit is
harmless: both produce byte-identical shards, and "done" is idempotent.

The other half of the pipeline — folding the shard files back into one
report as they land — is :mod:`repro.store.collector`; the walkthrough
lives in ``docs/sweeps.md``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..store.atomic import atomic_write_text
from .matrix import ScenarioMatrix, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import SweepTelemetry
    from ..store.cache import ResultCache
    from .matrix import ScenarioOutcome
    from .parallel import OnResult, SweepResult

__all__ = [
    "DispatchError",
    "DispatchPlan",
    "ManifestLockTimeout",
    "ShardUnit",
    "plan_dispatch",
    "run_claims",
]

#: On-disk names inside a dispatch directory.
MANIFEST_NAME = "manifest.json"
LOCK_NAME = "manifest.lock"
SHARD_DIR = "shards"

#: Bump when the manifest layout changes (older code refuses newer
#: manifests instead of mis-reading them).
MANIFEST_FORMAT = 1


class DispatchError(RuntimeError):
    """A dispatch directory is missing, malformed or inconsistent."""


class ManifestLockTimeout(DispatchError):
    """The manifest lock could not be acquired in time."""


class _ManifestLock:
    """Sidecar-file mutex for manifest read-modify-writes.

    ``O_CREAT | O_EXCL`` creation is atomic even over NFS, which is the
    lowest common denominator for a directory shared between machines.
    A holder that died leaves a stale file; anyone who finds the lock
    older than ``stale_after`` breaks it — the worst case is two workers
    in the critical section at once, which the atomic manifest replace
    degrades to a lost *lease update*, never a torn file.
    """

    def __init__(
        self,
        path: Path,
        timeout: float = 10.0,
        poll: float = 0.02,
        stale_after: float = 30.0,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.poll = poll
        self.stale_after = stale_after

    def __enter__(self) -> "_ManifestLock":
        deadline = time.monotonic() + self.timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    age = 0.0  # holder just released; retry immediately
                if age > self.stale_after:
                    # Break the stale lock; losing the unlink race to
                    # another breaker is fine (both then re-contend).
                    self.path.unlink(missing_ok=True)
                    continue
                if time.monotonic() >= deadline:
                    raise ManifestLockTimeout(
                        f"could not acquire {self.path} within "
                        f"{self.timeout:.1f}s (held by a live claimant?)"
                    )
                time.sleep(self.poll)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return self

    def __exit__(self, *exc: object) -> None:
        self.path.unlink(missing_ok=True)


@dataclass
class ShardUnit:
    """One claimable slice of a dispatched matrix.

    ``index``/``count`` feed :func:`~repro.orchestration.parallel.shard_slice`,
    so the unit's spec list is derived, never stored.  ``status`` moves
    ``pending -> leased -> done``; an expired lease makes a ``leased``
    unit claimable again without a status change (expiry is a property
    of *now*, not of the record).
    """

    name: str
    index: int
    count: int
    scenarios: int
    shard: str
    status: str = "pending"
    owner: str | None = None
    lease_expires: float | None = None
    attempts: int = 0
    records: int | None = None
    completed_at: float | None = None
    #: When the current lease was taken (wall clock).
    claimed_at: float | None = None
    #: Last heartbeat write (wall clock); ``None`` = never heartbeat.
    heartbeat_at: float | None = None
    #: Progress reported by the last heartbeat.
    progress_done: int | None = None
    progress_total: int | None = None

    def lease_expired(self, now: float) -> bool:
        """True when a leased unit's worker ran out its lease."""
        return (
            self.status == "leased"
            and self.lease_expires is not None
            and now >= self.lease_expires
        )

    def heartbeat_age(self, now: float) -> float | None:
        """Seconds since the claimant last proved it was alive — the
        heartbeat if one ever arrived, else the claim itself.  ``None``
        for units not currently leased."""
        if self.status != "leased":
            return None
        last = self.heartbeat_at if self.heartbeat_at is not None \
            else self.claimed_at
        return None if last is None else max(0.0, now - last)

    def claimable(self, now: float, max_attempts: int) -> bool:
        """May a worker (re)claim this unit right now?"""
        if self.attempts >= max_attempts:
            return False
        return self.status == "pending" or self.lease_expired(now)

    def abandoned(self, now: float, max_attempts: int) -> bool:
        """This unit will never complete: its retry budget is spent and
        no live lease remains.  (A unit *on* its final attempt, lease
        still running, is not abandoned — that worker may yet finish.)"""
        if self.status == "done" or self.attempts < max_attempts:
            return False
        return self.status == "pending" or self.lease_expired(now)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "index": self.index, "count": self.count,
            "scenarios": self.scenarios, "shard": self.shard,
            "status": self.status, "owner": self.owner,
            "lease_expires": self.lease_expires, "attempts": self.attempts,
            "records": self.records, "completed_at": self.completed_at,
            "claimed_at": self.claimed_at,
            "heartbeat_at": self.heartbeat_at,
            "progress_done": self.progress_done,
            "progress_total": self.progress_total,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardUnit":
        return cls(
            name=str(data["name"]),
            index=int(data["index"]),
            count=int(data["count"]),
            scenarios=int(data["scenarios"]),
            shard=str(data["shard"]),
            status=str(data.get("status", "pending")),
            owner=data.get("owner"),
            lease_expires=(
                None if data.get("lease_expires") is None
                else float(data["lease_expires"])
            ),
            attempts=int(data.get("attempts", 0)),
            records=(
                None if data.get("records") is None else int(data["records"])
            ),
            completed_at=(
                None if data.get("completed_at") is None
                else float(data["completed_at"])
            ),
            # Heartbeat fields arrived after PR 5: absent in older
            # manifests, which load as "never heartbeat" (the truth).
            claimed_at=(
                None if data.get("claimed_at") is None
                else float(data["claimed_at"])
            ),
            heartbeat_at=(
                None if data.get("heartbeat_at") is None
                else float(data["heartbeat_at"])
            ),
            progress_done=(
                None if data.get("progress_done") is None
                else int(data["progress_done"])
            ),
            progress_total=(
                None if data.get("progress_total") is None
                else int(data["progress_total"])
            ),
        )


@dataclass
class DispatchPlan:
    """A dispatch directory: the manifest plus its derived accessors.

    All mutation goes through :meth:`claim` / :meth:`complete` /
    :meth:`release`, each a locked read-modify-write that reloads the
    units from disk first — a plan object never trusts its in-memory
    copy across operations, because other claimants mutate the same
    manifest concurrently.
    """

    root: Path
    matrix: ScenarioMatrix
    units: list[ShardUnit]
    lease_seconds: float = 300.0
    max_attempts: int = 3
    total_scenarios: int = 0
    created_at: float = 0.0
    #: Stable identity stamped on every ledger event of this fleet run
    #: (empty for manifests written before telemetry existed).
    run_id: str = ""
    _specs: list[ScenarioSpec] | None = field(
        default=None, repr=False, compare=False
    )

    # -- paths ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def shard_dir(self) -> Path:
        return self.root / SHARD_DIR

    def shard_path(self, unit: ShardUnit) -> Path:
        return self.root / unit.shard

    def _lock(self) -> _ManifestLock:
        return _ManifestLock(self.root / LOCK_NAME)

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "created_at": self.created_at,
            "lease_seconds": self.lease_seconds,
            "max_attempts": self.max_attempts,
            "total_scenarios": self.total_scenarios,
            "run_id": self.run_id,
            "matrix": self.matrix.to_dict(),
            "units": [unit.to_dict() for unit in self.units],
        }

    def _save(self) -> None:
        atomic_write_text(
            self.manifest_path,
            json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n",
        )

    @classmethod
    def load(cls, root: str | os.PathLike[str]) -> "DispatchPlan":
        """Read a dispatch directory's manifest."""
        path = Path(root) / MANIFEST_NAME
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise DispatchError(f"no dispatch manifest at {path}") from None
        except (OSError, ValueError) as exc:
            raise DispatchError(f"unreadable manifest {path}: {exc}") from None
        fmt = int(data.get("format", 0))
        if fmt != MANIFEST_FORMAT:
            raise DispatchError(
                f"{path}: manifest format {fmt} not supported "
                f"(this code reads format {MANIFEST_FORMAT})"
            )
        return cls(
            root=Path(root),
            matrix=ScenarioMatrix.from_dict(data["matrix"]),
            units=[ShardUnit.from_dict(u) for u in data["units"]],
            lease_seconds=float(data["lease_seconds"]),
            max_attempts=int(data["max_attempts"]),
            total_scenarios=int(data.get("total_scenarios", 0)),
            created_at=float(data.get("created_at", 0.0)),
            run_id=str(data.get("run_id", "")),
        )

    def _reload_units(self) -> None:
        """Refresh lease state from disk (callers hold the lock)."""
        self.units = DispatchPlan.load(self.root).units

    # -- spec derivation ------------------------------------------------

    def specs_for(self, unit: ShardUnit) -> list[ScenarioSpec]:
        """The unit's scenario slice, derived from the manifest's matrix
        through the same :func:`~repro.orchestration.parallel.shard_slice`
        that backs ``repro sweep --shard`` (matrix indices are preserved,
        so the shard merges bit-identically into the unsharded sweep)."""
        from .parallel import shard_slice

        if self._specs is None:
            self._specs = self.matrix.expand()
        return shard_slice(self._specs, unit.index, unit.count)

    # -- the work-queue protocol ----------------------------------------

    def claim(
        self, worker: str, now: float | None = None
    ) -> ShardUnit | None:
        """Atomically lease the next claimable unit to ``worker``.

        Claim order is pending units first (by index), then expired
        leases (stragglers are retried only once fresh work runs out).
        Returns the leased unit snapshot, or ``None`` when nothing is
        claimable — all done, all leased out to live workers, or the
        remainder exhausted its retry budget.
        """
        now = time.time() if now is None else now
        with self._lock():
            self._reload_units()
            candidates = sorted(
                (u for u in self.units
                 if u.claimable(now, self.max_attempts)),
                key=lambda u: (u.status != "pending", u.index),
            )
            if not candidates:
                return None
            unit = candidates[0]
            unit.status = "leased"
            unit.owner = worker
            unit.lease_expires = now + self.lease_seconds
            unit.attempts += 1
            unit.claimed_at = now
            # A fresh lease never inherits the previous claimant's pulse.
            unit.heartbeat_at = None
            unit.progress_done = None
            unit.progress_total = None
            self._save()
            return replace(unit)

    def heartbeat(
        self,
        unit_name: str,
        worker: str,
        done: int | None = None,
        total: int | None = None,
        now: float | None = None,
        renew: bool = True,
    ) -> bool:
        """Record live progress on a leased unit; renews the lease.

        Returns ``False`` (changing nothing) unless the unit is still
        leased *to this worker* — after an expired lease was reclaimed
        by someone else, the straggler's late heartbeat must not steal
        the unit back.  An expired-but-unreclaimed lease *is* renewed:
        the worker just proved it is alive, which is exactly the state
        renewal exists for.
        """
        now = time.time() if now is None else now
        with self._lock():
            self._reload_units()
            unit = self._unit(unit_name)
            if unit.status != "leased" or unit.owner != worker:
                return False
            unit.heartbeat_at = now
            if done is not None:
                unit.progress_done = int(done)
            if total is not None:
                unit.progress_total = int(total)
            if renew:
                unit.lease_expires = now + self.lease_seconds
            self._save()
            return True

    def stale_units(self, now: float | None = None) -> list[ShardUnit]:
        """Leased units whose lease ran out with no renewing heartbeat —
        the claimant is presumed dead and the manifest is lying about
        the lease (``dispatch status`` flags these)."""
        now = time.time() if now is None else now
        return [unit for unit in self.units if unit.lease_expired(now)]

    def reclaim_stale(self, now: float | None = None) -> list[ShardUnit]:
        """Release every expired lease back to ``pending`` in one step.

        The autopod reconciliation idiom: status must reflect reality,
        so a dead claimant's lease is removed rather than displayed
        forever.  The spent attempt stays counted (the claim consumed
        it); reclaimed units are immediately claimable again.  Returns
        snapshots of the units reclaimed.
        """
        now = time.time() if now is None else now
        with self._lock():
            self._reload_units()
            reclaimed = []
            for unit in self.units:
                if not unit.lease_expired(now):
                    continue
                unit.status = "pending"
                unit.owner = None
                unit.lease_expires = None
                unit.claimed_at = None
                unit.heartbeat_at = None
                unit.progress_done = None
                unit.progress_total = None
                reclaimed.append(replace(unit))
            if reclaimed:
                self._save()
            return reclaimed

    def complete(
        self,
        unit_name: str,
        worker: str,
        records: int,
        now: float | None = None,
    ) -> bool:
        """Mark a unit done after its shard file is safely on disk.

        Idempotent: if a racing worker (an expired-lease reclaim) got
        there first, returns ``False`` and changes nothing — both
        workers wrote byte-identical shards, so nothing is lost.
        """
        now = time.time() if now is None else now
        with self._lock():
            self._reload_units()
            unit = self._unit(unit_name)
            if unit.status == "done":
                return False
            unit.status = "done"
            unit.owner = worker
            unit.lease_expires = None
            unit.records = records
            unit.completed_at = now
            self._save()
            return True

    def release(self, unit_name: str, worker: str) -> bool:
        """Give a lease back (execution failed); the attempt still
        counts against ``max_attempts``."""
        with self._lock():
            self._reload_units()
            unit = self._unit(unit_name)
            if unit.status != "leased" or unit.owner != worker:
                return False
            unit.status = "pending"
            unit.owner = None
            unit.lease_expires = None
            unit.claimed_at = None
            unit.heartbeat_at = None
            unit.progress_done = None
            unit.progress_total = None
            self._save()
            return True

    def _unit(self, name: str) -> ShardUnit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise DispatchError(f"no unit named {name!r} in {self.manifest_path}")

    # -- introspection --------------------------------------------------

    @property
    def finished(self) -> bool:
        """Every unit executed to completion."""
        return all(unit.status == "done" for unit in self.units)

    def counts(self, now: float | None = None) -> dict[str, int]:
        """Unit tallies by effective state (expired leases counted as
        ``expired``, retry-capped units as ``exhausted``)."""
        now = time.time() if now is None else now
        tally = {
            "pending": 0, "leased": 0, "expired": 0,
            "done": 0, "exhausted": 0,
        }
        for unit in self.units:
            if unit.status == "done":
                tally["done"] += 1
            elif unit.abandoned(now, self.max_attempts):
                tally["exhausted"] += 1
            elif unit.lease_expired(now):
                tally["expired"] += 1
            else:
                tally[unit.status] += 1
        return tally

    def abandoned_units(self, now: float | None = None) -> list[ShardUnit]:
        """Units that will never complete (the collector surfaces these
        instead of waiting forever)."""
        now = time.time() if now is None else now
        return [
            unit for unit in self.units
            if unit.abandoned(now, self.max_attempts)
        ]

    def describe(self, now: float | None = None) -> str:
        """One status line: ``3/4 units done, 1 leased (12/16 scenarios)``."""
        tally = self.counts(now)
        done_scenarios = sum(
            u.scenarios for u in self.units if u.status == "done"
        )
        extras = ", ".join(
            f"{count} {state}"
            for state, count in tally.items()
            if state != "done" and count
        )
        line = f"{tally['done']}/{len(self.units)} units done"
        if extras:
            line += f", {extras}"
        return f"{line} ({done_scenarios}/{self.total_scenarios} scenarios)"


def plan_dispatch(
    matrix: ScenarioMatrix,
    root: str | os.PathLike[str],
    units: int,
    lease_seconds: float = 300.0,
    max_attempts: int = 3,
    now: float | None = None,
    run_id: str | None = None,
) -> DispatchPlan:
    """Partition ``matrix`` into ``units`` shard units under ``root``.

    Writes the manifest atomically and returns the live plan.  The unit
    count is clamped to the matrix size (no empty units) and an existing
    manifest is refused — a plan is immutable once claimants may have
    seen it; re-planning means a fresh directory.
    """
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if lease_seconds <= 0:
        raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
    total = len(matrix.expand())
    if total == 0:
        raise ValueError("cannot dispatch an empty scenario matrix")
    count = min(units, total)
    root_path = Path(root)
    manifest = root_path / MANIFEST_NAME
    if manifest.exists():
        raise DispatchError(
            f"{manifest} already exists; dispatch plans are immutable "
            f"(use a fresh directory)"
        )
    width = len(str(count))
    shard_units = []
    for index in range(1, count + 1):
        name = f"unit-{index:0{width}d}-of-{count}"
        scenarios = len(range(index - 1, total, count))
        shard_units.append(ShardUnit(
            name=name, index=index, count=count, scenarios=scenarios,
            shard=f"{SHARD_DIR}/{name}.jsonl",
        ))
    created_at = time.time() if now is None else now
    if run_id is None:
        # Distinct per plan, readable in a ledger: creation time plus the
        # planner's pid (two plans in the same second are different pids).
        run_id = f"run-{int(created_at)}-{os.getpid():x}"
    plan = DispatchPlan(
        root=root_path,
        matrix=matrix,
        units=shard_units,
        lease_seconds=float(lease_seconds),
        max_attempts=int(max_attempts),
        total_scenarios=total,
        created_at=created_at,
        run_id=run_id,
    )
    plan.shard_dir.mkdir(parents=True, exist_ok=True)
    plan._save()
    return plan


def run_claims(
    plan: DispatchPlan | str | os.PathLike[str],
    worker: str,
    cache: "ResultCache | None" = None,
    workers: int = 1,
    max_units: int | None = None,
    on_unit: Callable[[ShardUnit, "SweepResult"], None] | None = None,
    heartbeat_interval: float | None = None,
    telemetry: "SweepTelemetry | None" = None,
) -> list[ShardUnit]:
    """Claim-execute-complete until the queue has nothing for us.

    The worker loop of ``repro dispatch claim``: lease a unit, execute
    its slice on ``workers`` processes (optionally against a shared
    result cache), write the shard JSONL atomically, mark the unit done,
    repeat.  A unit whose execution raises is released (its attempt
    still counted) before the error propagates, so a crashing worker
    never wedges the queue for longer than its lease.

    While a unit executes, the worker **heartbeats** every
    ``heartbeat_interval`` seconds (default: a quarter of the plan's
    lease; ``0`` disables): each finished scenario checks the clock and,
    when due, writes progress into the lease record via
    :meth:`DispatchPlan.heartbeat` — which also *renews* the lease, so a
    unit slower than its lease survives as long as its worker keeps
    finishing scenarios.  The heartbeat rides the sweep's one
    ``on_result`` callback, so it reports identically at any worker
    count.

    ``telemetry`` is an optional
    :class:`~repro.obs.telemetry.SweepTelemetry`: unit lifecycle and
    per-scenario cache events land in its ledger/metrics.  Its
    ``on_result`` shares the unit's one callback with the heartbeat,
    and its registry is the sweep's ``metrics`` instrument.  ``None``
    — the default — keeps the loop exactly as cheap as before.

    Returns the units this worker completed, in execution order.
    """
    from .parallel import sweep_parallel

    if not isinstance(plan, DispatchPlan):
        plan = DispatchPlan.load(plan)
    if heartbeat_interval is None:
        heartbeat_interval = plan.lease_seconds / 4.0
    transport = None
    if workers > 1:
        # One transport for the whole plan: the matrix codec is shipped
        # to each pool worker at most once, and every subsequent unit's
        # chunks reference it by digest — consecutive units reuse the
        # warm worker-side expansion instead of re-pickling specs.
        from .pool import SpecTransport

        transport = SpecTransport.from_matrix(plan.matrix)
    executed: list[ShardUnit] = []
    # ``while True`` on purpose (docs/kernel.md, specialization audit): a
    # claim process calls this once, and CPython 3.11 would run a
    # ``while <condition>`` loop unspecialized until the 8th call.
    while True:
        if max_units is not None and len(executed) >= max_units:
            break
        unit = plan.claim(worker)
        if unit is None:
            break
        if telemetry is not None:
            telemetry.unit_claimed(unit)
        try:
            result = sweep_parallel(
                plan.specs_for(unit), workers=workers, cache=cache,
                transport=transport,
                metrics=None if telemetry is None else telemetry.metrics,
                on_result=_unit_on_result(
                    plan, unit, worker, heartbeat_interval, telemetry
                ),
            )
            # write_jsonl reuses the workers' pre-encoded record lines
            # (byte-identical to write_shard, without re-encoding).
            result.write_jsonl(plan.shard_path(unit))
        except BaseException as exc:
            plan.release(unit.name, worker)
            if telemetry is not None:
                telemetry.unit_released(
                    unit, f"{type(exc).__name__}: {exc}"
                )
            raise
        plan.complete(unit.name, worker, records=len(result.outcomes))
        if telemetry is not None:
            telemetry.unit_completed(unit, result)
        executed.append(unit)
        if on_unit is not None:
            on_unit(unit, result)
    return executed


def _unit_on_result(
    plan: DispatchPlan,
    unit: ShardUnit,
    worker: str,
    interval: float,
    telemetry: "SweepTelemetry | None",
) -> "OnResult | None":
    """The one per-outcome callback of a unit's sweep: it feeds the
    telemetry, then paces the unit's heartbeats.

    Clock checks use the monotonic clock (wall-clock steps must not
    suppress or burst-fire renewals); the manifest stamps stay wall
    clock, as every lease field does.  With a zero/negative interval
    there is no heartbeat, so the callback is the telemetry's own (or
    ``None``, and the sweep skips it entirely).
    """
    if interval <= 0:
        return None if telemetry is None else telemetry.on_result
    done = 0
    last = time.monotonic()

    def on_result(outcome: "ScenarioOutcome", cached: bool) -> None:
        nonlocal done, last
        if telemetry is not None:
            telemetry.on_result(outcome, cached)
        done += 1
        now = time.monotonic()
        if now - last < interval:
            return
        last = now
        renewed = plan.heartbeat(
            unit.name, worker, done=done, total=unit.scenarios,
        )
        if telemetry is not None:
            telemetry.unit_renewed(unit, done, renewed)

    return on_result
