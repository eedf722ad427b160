"""benchmarks/stack: the repo's one benchmark, CLI to bytes.

    python3 benchmarks/stack/run.py --workload NAME|--all [--seed S]
        [--seconds T] [--trace 0|1] [--quick] [--out PATH]
    python3 benchmarks/stack/run.py --compare A.json B.json

``--trace 0`` (default) times the real ``python -m repro`` commands end
to end; ``--trace 1`` is the separate traced run that yields the
per-layer metrics.  Either way the workload's outputs are checked, every
metric is printed by name with unit, direction, sample count and
regression bound, and the last line of stdout is one JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``).  Metric names,
units, directions and bounds live in ``BENCHMARK.json`` and nowhere
else.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import exact_verdict, verdict  # noqa: E402
from workloads import REPO_ROOT, SRC_DIR, WORKLOADS  # noqa: E402

CATALOG_PATH = REPO_ROOT / "BENCHMARK.json"
#: Everything the benchmark writes lives here (git-ignored).
SCRATCH_ROOT = REPO_ROOT / ".bench_scratch"

#: Per-layer metrics that are simulated counts, not host timings: a
#: host-side optimisation must leave them bit-identical, so ``--compare``
#: holds them to equality.
EXACT_PER_LAYER = frozenset({
    "sim.events", "net.msgs", "net.channels_materialized",
    "broadcast.rb_msgs_per_instance", "broadcast.rb_deliveries",
    "broadcast.rb_post_delivery_share", "core.rb_msg_share",
    "core.rounds_max", "core.virtual_latency_mean", "core.msgs_per_decision",
    "checking.executions", "checking.states", "checking.steps",
    "checking.states_per_step", "checking.deduped", "checking.pruned",
    "cache.hit_ratio", "atomic.fsyncs_per_put", "shards.bytes_per_record",
    "cli.commands_per_repeat",
})


def load_catalog() -> dict[str, Any]:
    return json.loads(CATALOG_PATH.read_text(encoding="utf-8"))


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return kind
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        prefix = mount if mount.endswith("/") else mount + "/"
        if (resolved + "/").startswith(prefix) and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment(seed: int) -> dict[str, Any]:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "seed": seed,
        "scratch_filesystem": filesystem_of(REPO_ROOT),
        "load_1min_start": os.getloadavg()[0],
    }


def close_environment(env: dict[str, Any]) -> None:
    """Record the closing load and flag the run ``noisy`` when something
    else was using the box.  The run itself keeps 1.1 processes busy
    (one command and the calibrator), and in a series the previous run
    is still in the 1-minute average at the start: hence nproc - 0.5
    before the run and one more after it."""
    env["load_1min_end"] = os.getloadavg()[0]
    limit = max(1, env["nproc"] - 1) + 0.5
    env["noisy"] = (env["load_1min_start"] > limit
                    or env["load_1min_end"] > limit + 1)
    if env["noisy"]:
        print(f"warning: 1-min load {env['load_1min_start']:.2f} -> "
              f"{env['load_1min_end']:.2f} (limits {limit} before, "
              f"{limit + 1} after): this run is marked noisy", file=sys.stderr)


# -- rendering -------------------------------------------------------------

def fmt(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4g}" if abs(value) < 100 else f"{value:.1f}"
    return f"{value:.3e}"


def table(headers: list[str], rows: list[list[Any]]) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )


def metric_rows(specs: list[dict[str, Any]],
                measured: dict[str, dict[str, Any]]) -> list[list[Any]]:
    rows = []
    for spec in specs:
        m = measured[spec["name"]]
        tail = m.get("tail")
        rows.append([
            spec["name"], spec["unit"], spec["better"], m["n"], fmt(m["value"]),
            fmt(m["min"]), fmt(m["q1"]), fmt(m["q3"]), fmt(m["max"]),
            f"p{tail['percentile']}={fmt(tail['value'])}" if tail else "-",
            f"{spec['bound']:.0%}" if "bound" in spec else "-",
        ])
    return rows


METRIC_HEADERS = ["metric", "unit", "better", "n", "median", "min", "q1",
                  "q3", "max", "tail", "bound"]


def print_result(name: str, result: dict[str, Any], catalog: dict[str, Any]) -> None:
    if "end_to_end" in result:
        print(f"\n== {name}: end to end ({result['unit']}s, "
              f"{result['units_per_repeat']} per repeat, "
              f"{result['measured_s']:.1f} s measured, "
              f"{result['total_s']:.1f} s in all) ==")
        print(table(METRIC_HEADERS,
                    metric_rows(catalog["end_to_end"], result["end_to_end"])))
        raw = result["wall_units_per_s"]
        slow = sorted(r["slowness"] for r in result["repeats"])
        print(f"wall_units_per_s   {fmt(raw['value'])} [{fmt(raw['q1'])}, "
              f"{fmt(raw['q3'])}]  (as measured; units_per_s is per second "
              f"of the reference core, core slowness {fmt(slow[0])}-"
              f"{fmt(slow[-1])})")
        exact = result["exact"]
        print(f"failed_share       {result['failed']}/{result['attempted']} "
              f"= {exact['failed_share']:.4g}  (ratio, lower, exact, expected 0)")
        if "msgs_per_decision" in exact:
            print(f"msgs_per_decision  {exact['msgs_per_decision']!r}  "
                  f"(count, lower, exact per seed)")
        for label, digest in exact["digests"].items():
            print(f"sha256 {label:<14} {digest}")
        for label, seen in exact["checks"].items():
            print(f"check  {label:<18} {seen}")
        print(table(
            ["command", "n", "median_s", "min_s", "max_s"],
            [[label, m["n"], fmt(m["value"]), fmt(m["min"]), fmt(m["max"])]
             for label, m in result["command_walls"].items()],
        ))
    if "per_layer" in result:
        print(f"\n== {name}: per layer (traced run, "
              f"{result['traced_wall_s']:.1f} s) ==")
        print(table(METRIC_HEADERS,
                    metric_rows(catalog["per_layer"], result["per_layer"])))
        print("\nladder (us per message; each rung contains the one before):")
        print(table(
            ["n", "net", "net+rb", "core", "rb self", "core self"],
            [[row["n"], fmt(row["net_us"]), fmt(row["rb_us"]),
              fmt(row["core_us"]), fmt(row["rb_us"] - row["net_us"]),
              fmt(row["core_us"] - row["rb_us"])] for row in result["ladder"]],
        ))
        print("\nlayer self time (span minus covered child time):")
        print(table(
            ["layer", "self_s", "share", "spans"],
            [[row["layer"], fmt(row["self_s"]), f"{row['share']:.1%}",
              row["spans"]] for row in result["layer_table"]],
        ))
        for key, value in result["notes"].items():
            print(f"{key}: {value}")
        for label, digest in result["exact"]["digests"].items():
            print(f"sha256 {label:<14} {digest}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")


# -- one workload ------------------------------------------------------------

def run_workload(args: argparse.Namespace, catalog: dict[str, Any]) -> int:
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    scratch = SCRATCH_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            from layers import TracedRun

            traced = TracedRun(workload, args.seed, args.seconds, args.quick,
                               scratch)
            result = traced.run()
            trace_path = traced.tracer.write_chrome(
                SCRATCH_ROOT / f"trace.{workload.name}.json")
            result["trace_file"] = str(trace_path)
            section = "per_layer"
        else:
            from e2e import run_end_to_end

            result = run_end_to_end(Path(__file__).resolve(), workload,
                                    args.seed, args.seconds, args.quick, scratch)
            section = "end_to_end"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    close_environment(env)

    measured = result[section]
    missing = [m["name"] for m in catalog[section] if m["name"] not in measured]
    extra = sorted(set(measured) - {m["name"] for m in catalog[section]})
    if missing or extra:
        print(f"BENCHMARK.json and run.py disagree: missing {missing}, "
              f"unlisted {extra}", file=sys.stderr)
        return 3
    print_result(workload.name, result, catalog)
    if args.trace:
        print(f"trace: {result['trace_file']} (load at ui.perfetto.dev)")
    if args.out:
        write_results(Path(args.out), env, args, {workload.name: result})
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
            for m in catalog[section]
        },
    }))
    return 0 if result["failed"] == 0 else 1


def write_results(path: Path, env: dict[str, Any], args: argparse.Namespace,
                  workloads: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": 1, "env": env, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "trace": args.trace, "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child, so peak RSS and import costs of
    one never leak into the next; one at a time, never above nproc."""
    env = environment(args.seed)
    SCRATCH_ROOT.mkdir(parents=True, exist_ok=True)
    merged: dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        part = SCRATCH_ROOT / f"result.{name}.{os.getpid()}.json"
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part)]
        if args.quick:
            argv.append("--quick")
        status = max(status, subprocess.run(argv).returncode)
        if part.is_file():
            merged.update(json.loads(part.read_text(encoding="utf-8"))["workloads"])
            part.unlink()
    close_environment(env)
    failed = sum(w["failed"] for w in merged.values())
    attempted = sum(w["attempted"] for w in merged.values())
    print(f"\n== all: {len(merged)}/{len(WORKLOADS)} workloads, failed "
          f"{failed}/{attempted} operations ==")
    if args.out:
        write_results(Path(args.out), env, args, merged)
        print(f"results: {args.out}")
    return status if len(merged) == len(WORKLOADS) else max(status, 1)


# -- compare -----------------------------------------------------------------

def compare(base_path: str, other_path: str, catalog: dict[str, Any]) -> int:
    """Per metric x workload: both medians and quartiles, the ratio with
    its base, and a verdict against the bound ``BENCHMARK.json`` fixes."""
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    other = json.loads(Path(other_path).read_text(encoding="utf-8"))
    print(f"base  A = {base_path} ({base['env']['git_revision'][:12]}, "
          f"seed {base['seed']}{', noisy' if base['env'].get('noisy') else ''})")
    print(f"other B = {other_path} ({other['env']['git_revision'][:12]}, "
          f"seed {other['seed']}{', noisy' if other['env'].get('noisy') else ''})")
    rows: list[list[Any]] = []
    verdicts: list[str] = []

    def timing(workload: str, spec: dict[str, Any], a: Any, b: Any,
               outcome: str) -> None:
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        rows.append([
            workload, spec["name"], spec["unit"],
            f"{fmt(a['value'])} [{fmt(a['q1'])}, {fmt(a['q3'])}]",
            f"{fmt(b['value'])} [{fmt(b['q1'])}, {fmt(b['q3'])}]",
            f"{ratio:.3f} of A", outcome,
        ])
        verdicts.append(outcome)

    def exact(workload: str, name: str, a: Any, b: Any,
              better: str | None) -> None:
        outcome = exact_verdict(a, b, better)
        show = (lambda v: fmt(v) if isinstance(v, (int, float)) else str(v)[:16])
        rows.append([workload, name, "exact", show(a), show(b),
                     "equal" if a == b else "differs", outcome])
        verdicts.append(outcome)

    for workload in sorted(set(base["workloads"]) & set(other["workloads"])):
        a_run, b_run = base["workloads"][workload], other["workloads"][workload]
        for spec in catalog["end_to_end"]:
            a = a_run.get("end_to_end", {}).get(spec["name"])
            b = b_run.get("end_to_end", {}).get(spec["name"])
            if a and b:
                timing(workload, spec, a, b,
                       verdict(a, b, spec["better"], spec["bound"]))
        for spec in catalog["per_layer"]:
            a = a_run.get("per_layer", {}).get(spec["name"])
            b = b_run.get("per_layer", {}).get(spec["name"])
            if not (a and b):
                continue
            if spec["name"] in EXACT_PER_LAYER:
                exact(workload, spec["name"], a["value"], b["value"],
                      spec["better"])
            else:
                timing(workload, spec, a, b, "-")  # no bound: ratio only
        a_exact, b_exact = a_run["exact"], b_run["exact"]
        for name in ("failed_share", "msgs_per_decision"):
            if name in a_exact and name in b_exact:
                exact(workload, name, a_exact[name], b_exact[name], "lower")
        for group in ("digests", "checks"):
            for label in sorted(set(a_exact.get(group, {}))
                                & set(b_exact.get(group, {}))):
                exact(workload, f"{group}.{label}", a_exact[group][label],
                      b_exact[group][label], None)
    print(table(["workload", "metric", "unit", "A median [q1, q3]",
                 "B median [q1, q3]", "B/A", "verdict"], rows))
    counts = {v: verdicts.count(v) for v in
              ("same", "better", "worse", "unresolved")}
    print("\n" + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, each in a fresh child process")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (becomes the CLI --seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics, trace.json)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: ~1/10 size, 2 repeats, oracle on")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full result (samples, digests, env) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    catalog = load_catalog()
    if args.compare:
        return compare(*args.compare, catalog)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(catalog["run_seconds"])
    if args.quick:
        args.seconds = 0.0
    if args.setup_child:
        from e2e import setup_child

        sys.path.insert(0, str(SRC_DIR))
        return setup_child(WORKLOADS[args.workload], args.seed, args.quick,
                           Path(args.scratch))
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("one of --workload, --all or --compare is required")
    sys.path.insert(0, str(SRC_DIR))
    return run_workload(args, catalog)


if __name__ == "__main__":
    sys.exit(main())
