"""Bounded-DFS exhaustive exploration of the small-model schedule space.

The explorer re-executes schedules (stateless model checking): a DFS
*entry* is ``(prefix, sleep)`` — replay the choice prefix, then descend
first-candidate, pushing one :class:`_Branch` record per branching
choice point passed.  The record materialises its unexplored siblings'
entries one at a time, as the DFS pops them, so the stack is as deep as
the choice tree, not as wide.  The kernel is deterministic, so
re-execution needs no snapshot of process state (``docs/checking.md``
has the measured cost of that choice).

Two classic reductions keep the tree tractable:

* **Visited-state dedup** — a SHA-256 fingerprint of the semantic global
  state (:mod:`repro.checking.fingerprint`) at every newly reached
  *branching* choice point (a lone candidate is a forced move: the
  corridor to the next branch is deterministic, so fingerprinting it
  buys nothing); re-reaching a fingerprint aborts the run.  Sound
  because the kernel is deterministic: the subtree under an equal state
  is equal.
* **Sleep sets** — after exploring delivery ``c`` at a node, the sibling
  branches carry ``c`` in their sleep set: delivering an *independent*
  message first and ``c`` second commutes with the explored order, so
  branches that would only re-derive it are pruned.  Two deliveries are
  dependent iff they target the same process (handlers touch only their
  own process's state; sends commute into the sorted pending multiset).
  Sleep members are dropped when a dependent delivery executes.

The two interact: a sleep set *restricts* what a visit explored, so
dedup only aborts when the stored sleep set is a subset of the current
one (the prior visit explored at least as much); otherwise the state is
re-explored and the stored set shrinks to the intersection.

On a violation the raw trail is shrunk — whole windows of choices
first, single choices last — to a *locally minimal* counterexample:
removing any one choice no longer reproduces the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ConfigurationError
from .choice import BaseChooser, ScheduleChooser, ScheduleDivergence
from .fingerprint import TokenCache, state_fingerprint
from .harness import DEFAULT_MAX_STEPS, RunAbort, RunOutcome, execute_run

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.config import RunConfig
    from ..orchestration.kernel import KernelContext
    from ..sim.handles import EventHandle

__all__ = [
    "CheckResult",
    "CheckStats",
    "EXECUTION_STATUSES",
    "ExplorationChooser",
    "Explorer",
    "minimize_counterexample",
]

#: Every way one execution of a search can end, in report order.
EXECUTION_STATUSES = (
    "complete", "quiescent", "deduped", "pruned",
    "depth", "steps", "budget", "violation",
)


@dataclass
class CheckStats:
    """Exploration counters (the CLI's explored/deduped/pruned report)."""

    #: Schedules executed (including aborted ones).
    executions: int = 0
    #: Distinct state fingerprints recorded.
    states: int = 0
    #: Branching choice points (two or more candidates) passed across
    #: all executions; forced singleton deliveries are not counted.
    choice_points: int = 0
    #: Executions aborted because their state was already visited.
    deduped: int = 0
    #: Branches never taken thanks to sleep sets / duplicate candidates
    #: (including executions aborted with every candidate slept).
    pruned: int = 0
    #: Executions that ran to all-decided termination.
    completed: int = 0
    #: Executions that drained the queue with undecided processes.
    quiescent: int = 0
    #: Violating executions found.
    violations: int = 0
    #: Simulator events executed across all executions.
    steps: int = 0
    #: Deepest choice point reached.
    max_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "executions": self.executions,
            "states": self.states,
            "choice_points": self.choice_points,
            "deduped": self.deduped,
            "pruned": self.pruned,
            "completed": self.completed,
            "quiescent": self.quiescent,
            "violations": self.violations,
            "steps": self.steps,
            "max_depth": self.max_depth,
        }


@dataclass
class CheckResult:
    """Outcome of one (possibly sharded) exploration."""

    #: ``"ok"`` — no violation found; ``"violation"`` — counterexample
    #: below reproduces one.
    verdict: str
    #: Whether the schedule space was exhausted (no budget tripped and
    #: no violation cut the search short).
    exhausted: bool
    stats: CheckStats
    #: Locally minimal violating schedule (``None`` when verdict is ok).
    counterexample: tuple[int, ...] | None = None
    #: ``str(Violation)`` lines of the counterexample's violating step.
    violations: tuple[str, ...] = ()
    #: Whether the counterexample went through minimization.
    minimized: bool = False
    #: Raw (pre-minimization) violating trail.
    raw_counterexample: tuple[int, ...] | None = None
    #: Visited fingerprints (sharding equivalence checks); empty when
    #: ``keep_states`` was off.
    visited: frozenset[str] = frozenset()
    #: State fingerprints computed (one structural walk + SHA-256 each).
    fingerprints: int = 0
    #: Replays the minimizer ran to shrink the counterexample.
    minimize_replays: int = 0
    #: Per-process token blocks actually walked for those fingerprints
    #: (``fingerprints x processes`` if nothing were cached).
    process_walks: int = 0
    #: Simulator steps (of ``stats.steps``) that retraced ground an
    #: earlier execution of the same search had already verified.
    retraced_steps: int = 0
    #: Executions per final status (:data:`EXECUTION_STATUSES`); sums to
    #: ``stats.executions``.  ``stats.pruned`` counts slept *branches*,
    #: which is a different thing from executions that ended pruned.
    outcomes: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "exhausted": self.exhausted,
            "stats": self.stats.as_dict(),
            "counterexample": (
                None if self.counterexample is None else list(self.counterexample)
            ),
            "violations": list(self.violations),
            "minimized": self.minimized,
            "fingerprints": self.fingerprints,
            "minimize_replays": self.minimize_replays,
            "process_walks": self.process_walks,
            "retraced_steps": self.retraced_steps,
            "outcomes": dict(self.outcomes),
        }


class _Branch:
    """One branching choice point's unexplored siblings, built on demand.

    ``explorable[0]`` is the branch the execution that passed the point
    took; :meth:`pop_sibling` hands out the others in candidate order.
    Sibling *j* sleeps on ``sleep`` plus every explorable key explored
    before it (the taken branch and the siblings popped earlier), minus
    keys dependent on (same destination as) its own first delivery.
    """

    __slots__ = ("base_trail", "explorable", "keys", "sleep", "steps", "cursor")

    def __init__(
        self,
        base_trail: tuple[int, ...],
        explorable: list[int],
        keys: dict[int, tuple],
        sleep: frozenset,
        steps: int = 0,
    ) -> None:
        self.base_trail = base_trail
        self.explorable = explorable
        self.keys = keys
        self.sleep = sleep
        #: Simulator steps the passing execution had run (and verified)
        #: when it reached this point; every sibling retraces them.
        self.steps = steps
        self.cursor = 1

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.explorable)

    def pop_sibling(self, prune: bool) -> tuple[tuple[int, ...], frozenset]:
        """The next sibling's ``(prefix, sleep)`` entry."""
        keys = self.keys
        explorable = self.explorable
        index = explorable[self.cursor]
        sleep: frozenset = frozenset()
        if prune:
            dest = keys[index][1]
            earlier = [keys[i] for i in explorable[: self.cursor]]
            sleep = frozenset(
                key for key in self.sleep.union(earlier) if key[1] != dest
            )
        self.cursor += 1
        return self.base_trail + (index,), sleep


class ExplorationChooser(BaseChooser):
    """The DFS's working chooser: replay a prefix, then descend
    first-unslept while pushing one :class:`_Branch` per branching
    choice point onto the explorer's stack (deepest on top, each
    handing out its siblings in candidate order — the sleep-set
    accumulation relies on it).

    It is the one object that sees every delivery of its execution, so
    it owns the execution's :class:`~repro.checking.fingerprint.TokenCache`
    and reports every delivery it hands out to it.
    """

    #: Built by :meth:`attach`, once the frame says whose stacks exist.
    cache: TokenCache
    adversary_stacks: list[Any]

    def __init__(
        self,
        explorer: "Explorer",
        prefix: tuple[int, ...],
        sleep: frozenset,
        verified_steps: int = 0,
    ) -> None:
        super().__init__()
        self.explorer = explorer
        self.prefix = prefix
        self.sleep = sleep
        #: Leading simulator steps that retrace what an earlier
        #: execution of this search ran and verified — a sibling's
        #: ``base_trail``, up to the step whose ``choose()`` consumes the
        #: sibling's own index.  The harness skips its invariant reads
        #: there; a root prefix (another shard's ground) vouches for
        #: nothing.
        self.verified_steps = verified_steps
        self.depth = 0
        self.trail: list[int] = []

    def attach(self, frame: Any) -> None:
        super().attach(frame)
        adversaries = frame.adversary_consensi
        pids = sorted(adversaries)
        self.adversary_stacks = [adversaries[pid] for pid in pids]
        self.cache = TokenCache(pids)

    def choose(self, candidates: list["EventHandle"]) -> int:
        index = self._choose(candidates)
        # Forced, replayed or chosen: every delivery leaves through here.
        self.cache.delivered(
            candidates[index]._args[0].dest, len(candidates) == 1
        )
        return index

    def _choose(self, candidates: list["EventHandle"]) -> int:
        explorer = self.explorer
        stats = explorer.stats
        depth = self.depth
        heads = self.channel_heads(candidates)
        if len(heads) == 1:
            # Forced move (lone candidate, or FIFO left one enabled
            # head): no index, no fingerprint — but the delivery still
            # wakes dependent (same-dest) sleep members, and past the
            # prefix a *slept* forced delivery means this branch can
            # only re-derive an interleaving a sibling order already
            # covered (classic sleep-set leaf).
            index = heads[0]
            key = self.cache.key_of(candidates[index]._args[0])[0]
            if key in self.sleep and depth >= len(self.prefix):
                stats.pruned += 1
                raise RunAbort("pruned")
            self.sleep = frozenset(
                k for k in self.sleep if k[1] != key[1]
            )
            return index
        self.depth = depth + 1
        stats.choice_points += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if depth < len(self.prefix):
            # Retraced ground: dedup/sleep ran when it was first crossed.
            index = self.replayed(self.prefix[depth], depth, heads, candidates)
            self.trail.append(index)
            return index
        if explorer.max_depth is not None and depth >= explorer.max_depth:
            raise RunAbort("depth")
        key_of = self.cache.key_of
        keys = {
            index: key_of(candidates[index]._args[0])[0] for index in heads
        }
        if explorer.dedup:
            explorer.fingerprints += 1
            fingerprint = state_fingerprint(
                self.frame,
                candidates,
                tasks=self.tasks,
                extra_stacks=self.adversary_stacks,
                fifo=self.fifo,
                cache=self.cache,
            )
            stored = explorer.visited.get(fingerprint)
            if stored is not None and stored <= self.sleep:
                stats.deduped += 1
                raise RunAbort("deduped")
            explorer.visited[fingerprint] = (
                self.sleep if stored is None else stored & self.sleep
            )
            stats.states = len(explorer.visited)
            if (
                explorer.max_states is not None
                and stats.states > explorer.max_states
            ):
                raise RunAbort("budget")
        sleep = self.sleep
        explorable: list[int] = []
        seen_keys: set = set()
        for index in heads:
            key = keys[index]
            if key in sleep or key in seen_keys:
                # Slept: covered by an already-explored sibling order.
                # Duplicate key: delivering either copy first leads to
                # fingerprint-identical states.
                stats.pruned += 1
                continue
            seen_keys.add(key)
            explorable.append(index)
        if not explorable:
            raise RunAbort("pruned")
        chosen = explorable[0]
        chosen_key = keys[chosen]
        if len(explorable) > 1:
            explorer.stack.append(
                _Branch(
                    tuple(self.trail), explorable, keys, sleep,
                    self.frame.sim.events_processed,
                )
            )
        self.sleep = frozenset(
            key for key in sleep if key[1] != chosen_key[1]
        )
        self.trail.append(chosen)
        return chosen


class Explorer:
    """Iterative bounded-DFS over the schedule space of one config.

    Args:
        config: The run configuration (check-mode semantics are forced;
            any ``topology`` is ignored in favour of instant channels).
        context: Optional shared kernel context (pools/bus reuse).
        max_executions: Budget on schedules executed.
        max_depth: Budget on choice points per run.
        max_states: Budget on distinct fingerprints.
        max_steps: Per-run event ceiling (livelock guard).
        prune: Sleep-set partial-order pruning (on by default).
        dedup: Visited-state deduplication (on by default).
        minimize: Shrink counterexamples to local minimality.
        keep_states: Retain the visited fingerprint set on the result.
        progress: Optional callback ``(stats, done)`` invoked every
            ``progress_every`` executions and once at the end.
        on_execution: Optional callback ``(prefix, outcome)`` invoked
            after every execution — the exploration journal the golden
            determinism fixture pins.
        roots: Initial DFS entries as schedule prefixes (sharding);
            default is the single empty prefix.
    """

    def __init__(
        self,
        config: "RunConfig",
        context: "KernelContext | None" = None,
        *,
        max_executions: int | None = None,
        max_depth: int | None = None,
        max_states: int | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        prune: bool = True,
        dedup: bool = True,
        minimize: bool = True,
        keep_states: bool = False,
        progress: Callable[[CheckStats, bool], None] | None = None,
        progress_every: int = 50,
        on_execution: Callable[[tuple[int, ...], RunOutcome], None] | None = None,
        roots: tuple[tuple[int, ...], ...] = ((),),
    ) -> None:
        for budget, value in (
            ("max_executions", max_executions), ("max_depth", max_depth),
            ("max_states", max_states), ("max_steps", max_steps),
        ):
            if value is not None and value < 0:
                raise ConfigurationError(f"{budget} must be >= 0, got {value}")
        self.config = config
        self.context = context
        self.max_executions = max_executions
        self.max_depth = max_depth
        self.max_states = max_states
        self.max_steps = max_steps
        self.prune = prune
        self.dedup = dedup
        self.minimize = minimize
        self.keep_states = keep_states
        self.progress = progress
        self.progress_every = progress_every
        self.on_execution = on_execution
        self.stats = CheckStats()
        self.visited: dict[str, frozenset] = {}
        #: Fingerprints computed so far, and the per-process blocks
        #: walked for them.
        self.fingerprints = 0
        self.process_walks = 0
        #: Steps run on ground an earlier execution had verified.
        self.retraced_steps = 0
        #: Executions per final status.
        self.outcomes = dict.fromkeys(EXECUTION_STATUSES, 0)
        #: Root prefixes not started yet, next one last.
        self.roots: list[tuple[int, ...]] = [
            tuple(root) for root in reversed(roots)
        ]
        #: The DFS stack: one record per branching choice point that
        #: still has unexplored siblings, deepest on top.
        self.stack: list[_Branch] = []

    def _pop_entry(self) -> tuple[tuple[int, ...], frozenset, int]:
        """The next ``(prefix, sleep, verified steps)`` to execute: the
        deepest open branch's next sibling, else the next root."""
        if not self.stack:
            return self.roots.pop(), frozenset(), 0
        branch = self.stack[-1]
        prefix, sleep = branch.pop_sibling(self.prune)
        if branch.exhausted:
            self.stack.pop()
        return prefix, sleep, branch.steps

    def run(self) -> CheckResult:
        """Explore until the stack drains, a budget trips, or a
        violation is found (and minimized)."""
        stats = self.stats
        exhausted = True
        counterexample: tuple[int, ...] | None = None
        raw_counterexample: tuple[int, ...] | None = None
        violations: tuple[str, ...] = ()
        minimized = False
        minimize_replays = 0
        # ``while True`` on purpose (docs/kernel.md, specialization
        # audit): a process calls this once, and CPython 3.11 would run
        # a ``while <condition>`` loop unspecialized until the 8th call.
        while True:
            if not (self.stack or self.roots):
                break
            if (
                self.max_executions is not None
                and stats.executions >= self.max_executions
            ):
                exhausted = False
                break
            prefix, sleep, verified = self._pop_entry()
            chooser = ExplorationChooser(self, prefix, sleep, verified)
            outcome = execute_run(
                self.config, chooser, context=self.context,
                max_steps=self.max_steps,
            )
            stats.executions += 1
            stats.steps += outcome.steps
            self.retraced_steps += verified
            self.process_walks += chooser.cache.walks
            if self.on_execution is not None:
                self.on_execution(prefix, outcome)
            status = outcome.status
            if status == "divergence":
                raise ScheduleDivergence(
                    f"root prefix {prefix} does not fit the model"
                )
            self.outcomes[status] += 1
            if status == "complete":
                stats.completed += 1
            elif status == "quiescent":
                stats.quiescent += 1
            elif status in ("depth", "steps", "budget"):
                exhausted = False
                if status == "budget":
                    break
            elif status == "violation":
                stats.violations += 1
                raw_counterexample = outcome.trail
                violations = tuple(str(v) for v in outcome.violations)
                if self.minimize:
                    counterexample, minimize_replays = _minimize(
                        self.config,
                        raw_counterexample,
                        frozenset(v.check for v in outcome.violations),
                        self.context,
                        self.max_steps,
                    )
                    minimized = True
                else:
                    counterexample = raw_counterexample
                exhausted = False
                break
            # "deduped"/"pruned" already counted by the chooser.
            if (
                self.progress is not None
                and stats.executions % self.progress_every == 0
            ):
                self.progress(stats, False)
        if self.progress is not None:
            self.progress(stats, True)
        return CheckResult(
            verdict="violation" if counterexample is not None else "ok",
            exhausted=exhausted,
            stats=stats,
            counterexample=counterexample,
            violations=violations,
            minimized=minimized,
            raw_counterexample=raw_counterexample,
            visited=(
                frozenset(self.visited) if self.keep_states else frozenset()
            ),
            fingerprints=self.fingerprints,
            minimize_replays=minimize_replays,
            process_walks=self.process_walks,
            retraced_steps=self.retraced_steps,
            outcomes=self.outcomes,
        )


def _reproduces(
    config: "RunConfig",
    schedule: tuple[int, ...],
    target_checks: frozenset[str],
    context: "KernelContext | None",
    max_steps: int,
) -> bool:
    """Whether replaying ``schedule`` (default continuation) still hits
    a violation of one of the target invariant checks."""
    outcome = execute_run(
        config, ScheduleChooser(schedule), context=context, max_steps=max_steps
    )
    if outcome.status != "violation":
        return False
    return bool({v.check for v in outcome.violations} & target_checks)


def _shrink(
    schedule: tuple[int, ...],
    reproduces: Callable[[tuple[int, ...]], bool],
) -> tuple[int, ...]:
    """Shrink ``schedule`` to a 1-minimal one that still ``reproduces``.

    ddmin-style: slide a window of ⌈n/2⌉ choices over the schedule,
    dropping it wherever the remainder still reproduces, then halve the
    window; at width 1 this is single-choice removal, repeated until a
    full pass removes nothing — so removing any one choice of the result
    no longer reproduces, whatever the wide windows did before.  The
    wide passes are what make long raw trails cheap: a schedule whose
    every suffix reproduces goes in two tests, not one per choice.
    """
    current = list(schedule)
    width = (len(current) + 1) // 2
    while current:
        removed = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + width :]
            if reproduces(tuple(candidate)):
                current = candidate
                removed = True
            else:
                index += width
        if width > 1:
            width = min(width // 2, (len(current) + 1) // 2)
        elif not removed:
            break
    return tuple(current)


def _minimize(
    config: "RunConfig",
    schedule: tuple[int, ...],
    target_checks: frozenset[str],
    context: "KernelContext | None",
    max_steps: int,
) -> tuple[tuple[int, ...], int]:
    """:func:`minimize_counterexample` plus the number of replays it ran."""
    replays = 0

    def reproduces(candidate: tuple[int, ...]) -> bool:
        nonlocal replays
        replays += 1
        return _reproduces(config, candidate, target_checks, context, max_steps)

    return _shrink(schedule, reproduces), replays


def minimize_counterexample(
    config: "RunConfig",
    schedule: tuple[int, ...],
    target_checks: frozenset[str],
    context: "KernelContext | None" = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[int, ...]:
    """Shrink a violating schedule to a locally minimal one.

    Drops windows of choices, then single choices, whose removal still
    reproduces one of ``target_checks`` (replay uses first-candidate
    continuation past the shortened schedule) until no single removal
    survives — the result is locally minimal by construction: removing
    any one choice no longer violates.
    """
    return _minimize(config, schedule, target_checks, context, max_steps)[0]
