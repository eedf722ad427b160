"""repro — a reproduction of *Minimal Synchrony for Byzantine Consensus*.

Bouzid, Mostéfaoui, Raynal (PODC 2015): deterministic, signature-free
Byzantine consensus for asynchronous message-passing systems whose only
synchrony requirement is one eventual ``<t+1>bisource`` — the weakest
assumption under which the problem is solvable.

The library provides, on a deterministic virtual-time simulator:

* the full broadcast stack (best-effort, Bracha reliable broadcast, the
  paper's cooperative broadcast — Figure 1);
* the Byzantine adopt-commit object (Figure 2);
* the eventual-agreement object with rotating coordinators and witness
  sets (Figure 3), including the Section 5.4 parameterization;
* the synchrony-optimal consensus algorithm (Figure 4) and the Section 7
  ⊥-validity variant;
* an adversary library, baselines, analytic predictions, invariant
  checkers and an experiment runner;
* a scenario-matrix sweep engine: declare a grid over sizes, synchrony
  topologies, adversaries, value diversity and seeds, and run thousands
  of scenarios serially or across a process pool with bit-identical
  results either way.

Quickstart::

    from repro import RunConfig, run_consensus
    from repro.adversary import crash

    config = RunConfig(
        n=4, t=1,
        proposals={1: "apply", 2: "apply", 3: "apply"},
        adversaries={4: crash()},
    )
    result = run_consensus(config)
    print(result.decisions)       # {1: 'apply', 2: 'apply', 3: 'apply'}

Batch experiments go through the sweep engine (see
``examples/matrix_sweep.py`` and the ``repro sweep`` CLI command)::

    from repro.orchestration import ScenarioMatrix, sweep_parallel

    matrix = ScenarioMatrix(
        sizes=[(4, 1), (7, 2)],
        topologies=["single_bisource", "fully_timely"],
        adversaries=["crash", "two_faced:evil"],
        value_counts=[2],
        seeds=range(25),
    )
    sweep = sweep_parallel(matrix)        # one worker per CPU
    print(sweep.report.decide_rate, sweep.report.cells.keys())

Scenario expansion applies the paper's feasibility condition
(``n - t > m*t``) to the requested value diversity, and each scenario's
seed is derived structurally from its grid cell — execution order and
worker count can never change what an experiment means.

Sweeps are *incremental* through the persistent result store
(:mod:`repro.store`): a content-addressed :class:`~repro.store.ResultCache`
keyed on each scenario's full semantic identity (config + seed + a
code-version salt) lets a sweep at any worker count skip
already-executed cells with bit-identical results (``repro sweep
--cache DIR`` on the CLI), while :func:`repro.store.merge_shards` /
``repro merge`` folds JSONL shards from separate runs or machines into
one deduplicated :class:`~repro.analysis.aggregation.MatrixReport`::

    from repro.orchestration import sweep_parallel
    from repro.store import ResultCache

    cache = ResultCache("results/cache")
    sweep_parallel(matrix, cache=cache)   # cold: executes everything
    again = sweep_parallel(matrix, cache=cache)
    assert again.cache_hits == len(matrix)   # warm: executes nothing
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

__version__ = "1.0.0"

if TYPE_CHECKING:  # pragma: no cover
    from . import (
        adversary, analysis, baselines, broadcast, core, net,
        orchestration, runtime, sim, store,
    )
    from .instrumentation import InstrumentationBus, Probe
    from .store.cache import ResultCache
    from .analysis.metrics import MessageCounter
    from .analysis.traces import Tracer
    from .analysis.combinatorics import first_good_round
    from .analysis.feasibility import is_feasible, max_values
    from .analysis.invariants import verify_consensus_run
    from .core.coord import (
        worst_case_round_bound, alpha, beta, coordinator, f_set,
    )
    from .core.values import BOT
    from .core.adopt_commit import AdoptCommit, Tag
    from .core.consensus_variant import BotConsensus
    from .core.consensus import Consensus
    from .core.eventual_agreement import EventualAgreement
    from .errors import (
        ConfigurationError, DeadlineExceeded, FeasibilityError,
        InvariantViolation, ProtocolViolation, ReproError,
        SimulationError,
    )
    from .net.timing import Asynchronous, EventuallyTimely, Timely
    from .net.network import Network
    from .net.topology import (
        Topology, fully_asynchronous, fully_timely, is_bisource,
        single_bisource,
    )
    from .orchestration.runner import (
        ConsensusRunResult, run_consensus, run_randomized,
    )
    from .orchestration.config import RunConfig
    from .orchestration.sweeps import standard_proposals
    from .runtime.process import Process
    from .runtime.timers import RoundTimer
    from .sim.loop import Simulator

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".": (
        "adversary", "analysis", "baselines", "broadcast", "core",
        "net", "orchestration", "runtime", "sim", "store",
    ),
    ".instrumentation": ("InstrumentationBus", "Probe"),
    ".store.cache": ("ResultCache",),
    ".analysis.metrics": ("MessageCounter",),
    ".analysis.traces": ("Tracer",),
    ".analysis.combinatorics": ("first_good_round",),
    ".analysis.feasibility": ("is_feasible", "max_values"),
    ".analysis.invariants": ("verify_consensus_run",),
    ".core.coord": (
        "worst_case_round_bound", "alpha", "beta", "coordinator",
        "f_set",
    ),
    ".core.values": ("BOT",),
    ".core.adopt_commit": ("AdoptCommit", "Tag"),
    ".core.consensus_variant": ("BotConsensus",),
    ".core.consensus": ("Consensus",),
    ".core.eventual_agreement": ("EventualAgreement",),
    ".errors": (
        "ConfigurationError", "DeadlineExceeded", "FeasibilityError",
        "InvariantViolation", "ProtocolViolation", "ReproError",
        "SimulationError",
    ),
    ".net.timing": ("Asynchronous", "EventuallyTimely", "Timely"),
    ".net.network": ("Network",),
    ".net.topology": (
        "Topology", "fully_asynchronous", "fully_timely",
        "is_bisource", "single_bisource",
    ),
    ".orchestration.runner": (
        "ConsensusRunResult", "run_consensus", "run_randomized",
    ),
    ".orchestration.config": ("RunConfig",),
    ".orchestration.sweeps": ("standard_proposals",),
    ".runtime.process": ("Process",),
    ".runtime.timers": ("RoundTimer",),
    ".sim.loop": ("Simulator",),
})
__all__.append("__version__")
