"""Incremental sweeps with the persistent result store.

The sweep engine alone is fire-and-forget: every invocation re-executes
every cell.  ``repro.store`` makes experiments *incremental*: a
content-addressed :class:`ResultCache` remembers every executed
scenario, so re-running a sweep costs nothing, growing the grid runs
only the new cells, and JSONL shards from separate runs merge into one
report.  (On the CLI: ``repro sweep --cache DIR`` / ``repro merge``.)

Run with ``PYTHONPATH=src python examples/cached_sweep.py``.
"""

import tempfile
from pathlib import Path

from repro.orchestration import ScenarioMatrix, sweep_parallel, sweep_serial
from repro.store import ResultCache, merge_shards, plan_resume

workdir = Path(tempfile.mkdtemp(prefix="repro-cached-sweep-"))
cache = ResultCache(workdir / "cache")

matrix = ScenarioMatrix(
    sizes=[(4, 1)],
    topologies=["single_bisource", "fully_timely"],
    adversaries=["crash", "two_faced:evil"],
    value_counts=[2],
    seeds=range(3),
    base_seed=7,
)

# Cold: nothing cached yet, all 12 scenarios execute and are stored.
cold = sweep_serial(matrix, cache=cache)
print(f"cold sweep  : {cold.executed} executed, {cold.cache_hits} cached")
assert cold.executed == len(matrix) and cold.cache_hits == 0

# Warm: the same matrix again, this time allowed two worker processes —
# zero scenarios execute (so none is started), and the result (outcomes,
# aggregates, everything) is bit-identical to the cold run.
warm = sweep_parallel(matrix, workers=2, cache=cache)
print(f"warm sweep  : {warm.executed} executed, {warm.cache_hits} cached")
assert warm.executed == 0 and warm.cache_hits == len(matrix)
assert warm.outcomes == cold.outcomes and warm.report == cold.report

# Grow the experiment: double the seed ensemble.  plan_resume shows the
# store diff, and the sweep runs only the 12 new scenarios.
bigger = ScenarioMatrix(
    sizes=matrix.sizes, topologies=matrix.topologies,
    adversaries=matrix.adversaries, value_counts=matrix.value_counts,
    seeds=range(6), base_seed=7,
)
plan = plan_resume(bigger, cache)
print(f"resume plan : {plan.describe()}")
extended = sweep_serial(bigger, cache=cache)
assert extended.cache_hits == len(matrix)
assert extended.executed == len(bigger) - len(matrix)
print(f"extension   : {extended.executed} new scenarios, "
      f"decide rate {extended.report.decide_rate:.0%}")

# Shard merging: two disjoint half-sweeps (think: two machines) fold
# into one deduplicated report equal to the full sweep's.
specs = bigger.expand()
half = len(specs) // 2
sweep_serial(specs[:half]).write_jsonl(workdir / "east.jsonl")
sweep_serial(specs[half:]).write_jsonl(workdir / "west.jsonl")
merged = merge_shards([workdir / "east.jsonl", workdir / "west.jsonl"])
print(f"merge       : {merged.total_records} records from 2 shards -> "
      f"{merged.report.runs} scenarios, "
      f"{merged.report.decided_runs} decided")
assert merged.report.runs == len(bigger)
assert merged.report.cells.keys() == extended.report.cells.keys()
assert merged.report.decided_runs == extended.report.decided_runs
print(f"store       : {len(cache)} entries on disk, "
      f"hit rate {cache.stats.hit_rate:.0%}")
