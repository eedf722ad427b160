"""Analytics: feasibility bounds, round predictions, metrics, invariants."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .aggregation import (
        CellStats, MatrixReport, aggregate_outcomes,
        render_matrix_table,
    )
    from .complexity import (
        ConsensusBudget, consensus_budget, consensus_round_messages,
        rb_instance_messages,
    )
    from ..core.coord import alpha, beta, worst_case_round_bound
    from .combinatorics import (
        cycle_length, first_good_round, good_round_density,
        is_good_round,
    )
    from .feasibility import (
        check_feasibility, is_feasible, max_values, min_processes,
    )
    from .invariants import (
        InvariantReport, Violation, check_agreement, check_validity,
        verify_consensus_run,
    )
    from .metrics import LatencySummary, MessageCounter, summarize
    from .reporting import EnsembleReport, aggregate, render_ensemble_table
    from .search import (
        SearchOutcome, find_non_converging_seed, find_worst_seed,
    )
    from .timeline import render_timeline
    from .traces import TraceEvent, Tracer

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".aggregation": (
        "CellStats", "MatrixReport", "aggregate_outcomes",
        "render_matrix_table",
    ),
    ".complexity": (
        "ConsensusBudget", "consensus_budget",
        "consensus_round_messages", "rb_instance_messages",
    ),
    "..core.coord": ("alpha", "beta", "worst_case_round_bound"),
    ".combinatorics": (
        "cycle_length", "first_good_round", "good_round_density",
        "is_good_round",
    ),
    ".feasibility": (
        "check_feasibility", "is_feasible", "max_values",
        "min_processes",
    ),
    ".invariants": (
        "InvariantReport", "Violation", "check_agreement",
        "check_validity", "verify_consensus_run",
    ),
    ".metrics": ("LatencySummary", "MessageCounter", "summarize"),
    ".reporting": ("EnsembleReport", "aggregate", "render_ensemble_table"),
    ".search": (
        "SearchOutcome", "find_non_converging_seed", "find_worst_seed",
    ),
    ".timeline": ("render_timeline",),
    ".traces": ("TraceEvent", "Tracer"),
})
