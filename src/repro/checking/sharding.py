"""Partitioning the schedule space by prefix for sharded checking.

A shard is a set of *roots*: schedule prefixes of a fixed depth ``D``.
Probing enumerates every reachable prefix of length ``D`` (or shorter,
when a run terminates early) breadth-first-by-replay — **without** dedup
or sleep sets, so the roots partition the full tree and the union of
per-shard explorations equals the unsharded one.  States at depths
``< D`` are crossed while retracing roots (forced ground, never
fingerprinted by shards), so the probe records their fingerprints as
``shallow_states`` — the unsharded run's visited set equals the union of
shard visited sets plus these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .choice import BaseChooser, message_key
from .fingerprint import state_fingerprint
from .harness import DEFAULT_MAX_STEPS, RunAbort, execute_run

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.config import RunConfig
    from ..orchestration.kernel import KernelContext
    from ..sim.handles import EventHandle

__all__ = ["ShardRoots", "schedule_prefix_roots", "shard_roots_slice"]


@dataclass(frozen=True)
class ShardRoots:
    """The schedule-prefix partition of one config's choice tree."""

    depth: int
    #: Every reachable prefix: length ``depth``, or shorter when the run
    #: ends (or branches dry up) first.  Sorted — deterministic sharding.
    roots: tuple[tuple[int, ...], ...]
    #: Fingerprints of choice-point states at depths ``< depth`` —
    #: crossed only as forced ground by shards, so no shard records them.
    shallow_states: frozenset[str]
    #: Executions spent probing.
    probe_executions: int = 0


class ProbeChooser(BaseChooser):
    """Replay a prefix, then record the branches at its end.

    At depth ``len(prefix)`` the probe notes the explorable candidate
    indices (``probed`` — exactly the branches the explorer would take
    from here with an empty sleep set: enabled heads, duplicate semantic
    keys collapsed) and aborts; :func:`execute_run` surfaces them via
    :attr:`RunOutcome.probed`.  Along the way the shallow-state
    fingerprints are accumulated into a shared set.
    """

    def __init__(
        self,
        prefix: tuple[int, ...],
        shallow: set[str],
    ) -> None:
        super().__init__()
        self.prefix = prefix
        self.shallow = shallow
        self.depth = 0
        self.trail: list[int] = []
        self.probed: tuple[int, ...] | None = None

    def choose(self, candidates: list["EventHandle"]) -> int:
        heads = self.channel_heads(candidates)
        if len(heads) == 1:
            # Forced move — not a branching point, not fingerprinted by
            # the explorer either, so it contributes no shallow state.
            return heads[0]
        depth = self.depth
        self.depth = depth + 1
        self.shallow.add(
            state_fingerprint(
                self.frame,
                candidates,
                tasks=self.tasks,
                extra_stacks=[
                    self.frame.adversary_consensi[pid]
                    for pid in sorted(self.frame.adversary_consensi)
                ],
                fifo=self.fifo,
            )
        )
        if depth >= len(self.prefix):
            explorable: list[int] = []
            seen_keys: set = set()
            for index in heads:
                key = message_key(candidates[index]._args[0])
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                explorable.append(index)
            self.probed = tuple(explorable)
            raise RunAbort("probe")
        index = self.replayed(self.prefix[depth], depth, heads, candidates)
        self.trail.append(index)
        return index


def schedule_prefix_roots(
    config: "RunConfig",
    depth: int,
    context: "KernelContext | None" = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ShardRoots:
    """Enumerate every reachable schedule prefix of length ``depth``.

    Breadth-first by replay: probe the empty prefix for its branching
    factor, extend by every index, repeat until length ``depth``.  A
    prefix whose run terminates (or violates) before reaching ``depth``
    choice points is itself a root — its subtree is exactly that one
    execution, and some shard must own it.
    """
    if depth < 0:
        raise ValueError(f"shard depth must be >= 0, got {depth}")
    shallow: set[str] = set()
    executions = 0
    frontier: list[tuple[int, ...]] = [()]
    roots: list[tuple[int, ...]] = []
    for _ in range(depth):
        next_frontier: list[tuple[int, ...]] = []
        for prefix in frontier:
            chooser = ProbeChooser(prefix, shallow)
            outcome = execute_run(
                config, chooser, context=context, max_steps=max_steps
            )
            executions += 1
            if outcome.status == "probe" and outcome.probed:
                next_frontier.extend(
                    prefix + (index,) for index in outcome.probed
                )
            else:
                # Terminated before the target depth: leaf root.
                roots.append(prefix)
        frontier = next_frontier
    roots.extend(frontier)
    return ShardRoots(
        depth=depth,
        roots=tuple(sorted(roots)),
        shallow_states=frozenset(shallow),
        probe_executions=executions,
    )


def shard_roots_slice(
    roots: ShardRoots, index: int, count: int
) -> tuple[tuple[int, ...], ...]:
    """The roots assigned to shard ``index`` of ``count`` (strided)."""
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for {count} shards")
    return roots.roots[index::count]
