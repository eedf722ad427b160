"""Scenario-matrix sweeps: declare a grid, run it on all cores.

A :class:`ScenarioMatrix` expands a declarative grid over system sizes,
synchrony topologies, adversary strategies, value diversity and seeds
into self-contained, picklable scenario specs.  ``sweep_parallel`` fans
them out over a process pool — and because every scenario's seed is
derived structurally from its grid cell, the results are bit-identical
to a serial run, whatever the worker count or scheduling.

Run with ``PYTHONPATH=src python examples/matrix_sweep.py``.
"""

from repro.analysis import render_matrix_table
from repro.orchestration import ScenarioMatrix, sweep_parallel, sweep_serial

# A 24-scenario grid: 2 sizes x 2 topologies x 3 adversaries, 2 seeds
# per cell.  Requested value diversity (3) exceeds the feasibility bound
# m_max = 2 at both sizes, so expansion clamps it (n - t > m*t, §2.3).
matrix = ScenarioMatrix(
    sizes=[(4, 1), (7, 2)],
    topologies=["single_bisource", "fully_timely"],
    adversaries=["crash", "two_faced:evil", "mute_coord"],
    value_counts=[3],
    seeds=range(2),
    base_seed=42,
)
print(f"grid: {len(matrix.cells())} cells, {len(matrix)} scenarios")
clamped = {spec.num_values for spec in matrix}
print(f"value diversity after feasibility clamping: {sorted(clamped)}")

# Run the whole matrix on 2 workers, streaming progress as cells finish
# (``cached`` says whether a result store served the outcome; no store
# here, so it is always False).
done = []
sweep = sweep_parallel(
    matrix, workers=2, on_result=lambda outcome, cached: done.append(outcome)
)
assert len(done) == len(matrix)

report = sweep.report
print(f"\ndecide rate : {report.decide_rate:.0%}  "
      f"(timeouts: {report.timed_out_runs}, safety: "
      f"{'OK' if report.all_safe else 'VIOLATED'})")
print(f"throughput  : {sweep.scenarios_per_second:.1f} scenarios/s "
      f"on {sweep.workers} workers")
print()
print(render_matrix_table(report))

# Same matrix, same results, one process: parallelism never changes what
# an experiment *means*.
serial = sweep_serial(matrix)
assert [o.decisions for o in serial.outcomes] == [
    o.decisions for o in sweep.outcomes
]
assert [o.rounds for o in serial.outcomes] == [o.rounds for o in sweep.outcomes]
print("\nserial == parallel: identical decisions and rounds per scenario")

# Every scenario is replayable on its own: the spec carries everything.
worst = max(sweep.outcomes, key=lambda o: o.messages_sent)
print(f"costliest cell      : {worst.spec.cell_id} "
      f"(seed {worst.spec.seed_index}, {worst.messages_sent} messages)")
