"""Exhaustive small-model schedule checking (``repro check``).

The sampling stack (:mod:`repro.orchestration.sweeps`) draws delivery
*delays* from seeded distributions; each seed is one schedule out of an
astronomical space.  This package instead *enumerates* the space for
small ``n``: with every channel instant (:class:`repro.net.timing.Instant`)
the only nondeterminism left in a run is the order in which same-instant
deliveries are popped from the scheduler's ready tier, which the
simulator exposes as explicit choice points
(:meth:`repro.sim.loop.Simulator.set_chooser`).

A *schedule* is the list of choice indices taken at successive choice
points.  :class:`~repro.checking.explorer.Explorer` drives an iterative
DFS over schedule prefixes with hash-based visited-state deduplication
(:mod:`repro.checking.fingerprint`) and sleep-set partial-order pruning,
verifying :mod:`repro.analysis.invariants` after every event.  On a
violation it shrinks the schedule to a locally minimal counterexample
that the ordinary runner replays bit-identically
(``RunConfig.check_schedule`` / the ``schedule`` scenario axis).

See ``docs/checking.md`` for the state-fingerprint model and the
pruning-soundness argument.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .explorer import (
        CheckResult, CheckStats, Explorer, minimize_counterexample,
    )
    from .mutants import MUTANTS, Mutant, apply_mutant
    from .harness import RunOutcome, execute_run
    from .choice import ScheduleChooser, ScheduleDivergence, message_key
    from .sharding import ShardRoots, schedule_prefix_roots, shard_roots_slice
    from .fingerprint import canon, state_fingerprint

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".explorer": (
        "CheckResult", "CheckStats", "Explorer",
        "minimize_counterexample",
    ),
    ".mutants": ("MUTANTS", "Mutant", "apply_mutant"),
    ".harness": ("RunOutcome", "execute_run"),
    ".choice": ("ScheduleChooser", "ScheduleDivergence", "message_key"),
    ".sharding": ("ShardRoots", "schedule_prefix_roots", "shard_roots_slice"),
    ".fingerprint": ("canon", "state_fingerprint"),
})
