"""Start-up is proportional to the command: what each one imports.

Every case spawns ``python -X importtime -m repro ...`` (through
``tools/import_report.py``, the same parser CI's count gate uses) and
asserts on the child's imported-module list — presence and counts, never
timings.  The layers are drawn in ``docs/index.md``: vocabulary/codec →
store → execution → fleet/obs/checking.  A spec/codec/store command must
not load the execution stack; ``check`` must not load the store or the
fleet; a cold sweep must not load the checker, telemetry or dispatch.

The static half walks the AST of ``src/repro``: no import may go through
a package ``__init__`` for a name a submodule defines, no CLI module
may import the heavy layers at module level, and ``orchestration`` never
imports ``repro.obs`` or ``repro.profiling`` at run time.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"

_spec = importlib.util.spec_from_file_location(
    "import_report", ROOT / "tools" / "import_report.py"
)
import_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_report)

EXECUTION_STACK = import_report.EXECUTION_STACK
#: What a process pays before any command is chosen.
FRONT_END = {"repro", "repro._lazy", "repro.cli"}

MATRIX_FLAGS = [
    "--grid", "4:1", "--topologies", "minimal,timely",
    "--adversaries", "crash,noise", "--value-counts", "1,2", "--seeds", "2",
]


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A warm cache, two shard files and a claimed dispatch directory,
    built in-process (what the commands under test read)."""
    from repro.orchestration.dispatch import plan_dispatch, run_claims
    from repro.orchestration.matrix import ScenarioMatrix
    from repro.orchestration.parallel import shard_slice, sweep_serial
    from repro.store.cache import ResultCache

    root = tmp_path_factory.mktemp("fleet")
    # The same matrix MATRIX_FLAGS builds, so the cached sweep is all hits.
    matrix = ScenarioMatrix(
        sizes=[(4, 1)], topologies=["minimal", "timely"],
        adversaries=["crash", "noise"], value_counts=[1, 2],
        value_pool=["a", "b"], seeds=range(2),
    )
    cache = ResultCache(root / "cache")
    sweep_serial(matrix, cache=cache)
    for index in (1, 2):
        sweep_serial(shard_slice(matrix, index, 2), cache=cache).write_jsonl(
            root / f"shard{index}.jsonl"
        )
    plan_dispatch(matrix, root / "queue", units=2)
    run_claims(root / "queue", worker="fixture", cache=cache)
    ledger = root / "events.jsonl"
    ledger.write_text("", encoding="utf-8")
    return root


def imported(argv, expect_exit=0):
    modules, exit_code = import_report.imported_modules([str(a) for a in argv])
    assert exit_code == expect_exit, (argv, exit_code)
    return modules


def ours(modules):
    return {name for name, _ in modules if name.split(".")[0] == "repro"}


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_no_command_means_no_subpackage(flag):
    assert ours(imported([flag])) == FRONT_END


def test_version_prints_the_package_version():
    import repro

    done = subprocess.run(
        [sys.executable, "-m", "repro", "--version"], capture_output=True,
        text=True, env={"PYTHONPATH": str(SRC.parent)},
    )
    assert (done.returncode, done.stdout.strip()) == (0, repro.__version__)


#: ``repro.*`` modules each command loaded when this was written; the
#: gate is that figure + ``import_report.SLACK`` (docs/index.md has the
#: same table).  ``allowed`` is the part of the execution-stack list a
#: command legitimately needs: the event ledger *is* ``repro.obs.events``.
SPEC_LAYER_COMMANDS = {
    "merge": (lambda f: ["merge", f / "shard1.jsonl", f / "shard2.jsonl",
                         "--out", f / "merged.jsonl"], 28, ()),
    "collect": (lambda f: ["collect", f / "queue", "--out",
                           f / "collected.jsonl"], 30, ()),
    "dispatch plan": (lambda f: ["dispatch", "plan", *MATRIX_FLAGS, "--dir",
                                 f / "queue2", "--units", "2"], 26, ()),
    "dispatch status": (lambda f: ["dispatch", "status", f / "queue"], 27, ()),
    "events query": (lambda f: ["events", "query", f / "events.jsonl"], 5,
                     ("repro.obs", "repro.obs.events")),
    "bounds": (lambda f: ["bounds", "--n", "7", "--t", "2"], 8, ()),
    "sweep --cache, every cell a hit": (
        lambda f: ["sweep", *MATRIX_FLAGS, "--cache", f / "cache",
                   "--jsonl", f / "warm.jsonl"], 32, ()),
}


@pytest.mark.parametrize("name", sorted(SPEC_LAYER_COMMANDS))
def test_spec_layer_commands_never_load_the_execution_stack(name, fleet):
    argv, recorded, allowed = SPEC_LAYER_COMMANDS[name]
    modules = imported(argv(fleet))
    loaded = set(import_report.loaded(modules, EXECUTION_STACK)) - set(allowed)
    assert not loaded, f"repro {name} imported {sorted(loaded)}"
    count = len(ours(modules))
    assert count <= recorded + import_report.SLACK, (
        f"repro {name} imports {count} repro.* modules, recorded {recorded}"
    )


def test_the_cached_sweep_really_was_all_hits(fleet):
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", *MATRIX_FLAGS,
         "--cache", str(fleet / "cache")],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC.parent)},
    )
    assert "16 hit(s), 0 executed" in done.stdout, done.stdout + done.stderr


def test_check_loads_neither_store_nor_fleet():
    modules = imported(["check", "--n", "2", "--fifo", "--json"])
    loaded = import_report.loaded(modules, (
        "repro.store", "repro.orchestration.dispatch",
        "repro.orchestration.pool", "repro.orchestration.parallel",
        "repro.obs", "repro.profiling", "tracemalloc", "asyncio",
        "multiprocessing",
    ))
    assert not loaded, loaded
    assert "repro.checking.explorer" in ours(modules)


def test_a_cold_sweep_loads_neither_checker_nor_telemetry_nor_dispatch(fleet):
    modules = imported(["sweep", *MATRIX_FLAGS, "--jsonl", fleet / "cold.jsonl"])
    loaded = import_report.loaded(modules, (
        "repro.checking", "repro.obs", "repro.orchestration.dispatch",
        "repro.orchestration.pool", "repro.profiling", "tracemalloc",
        "asyncio", "multiprocessing",
    ))
    assert not loaded, loaded
    assert "repro.orchestration.runner" in ours(modules)


def test_planning_a_resume_does_not_load_the_sweep_engine(fleet):
    """``store.resume`` diffs specs against a cache; the normaliser it
    shares with ``orchestration.parallel`` lives next to the matrix, so
    neither module reaches into the other behind a function."""
    code = (
        "import sys\n"
        "from repro.orchestration.matrix import ScenarioMatrix\n"
        "from repro.store.cache import ResultCache\n"
        "from repro.store.resume import count_cached, plan_resume\n"
        "matrix = ScenarioMatrix(sizes=[(4, 1)], seeds=range(2))\n"
        f"cache = ResultCache({str(fleet / 'cache')!r})\n"
        "assert count_cached(matrix, cache) == (0, 2)\n"
        "assert len(plan_resume(matrix, cache).missing) == 2\n"
        "loaded = [m for m in sys.modules if m in ("
        "'repro.orchestration.parallel', 'repro.orchestration.runner')]\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    source = (SRC / "store" / "resume.py").read_text(encoding="utf-8")
    assert "orchestration.parallel import" not in source


# -- the static half: walk the AST --------------------------------------


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        yield path, ".".join(parts[:-1] if is_package else parts), is_package


def _absolute(node, module, is_package):
    """The absolute module an ``ImportFrom`` names."""
    if not node.level:
        return node.module
    base = module.split(".") if is_package else module.split(".")[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _is_package(name):
    return (SRC.parent.joinpath(*name.split(".")) / "__init__.py").exists()


def _is_submodule(package, name):
    base = SRC.parent.joinpath(*package.split("."))
    return (base / f"{name}.py").exists() or (base / name / "__init__.py").exists()


def test_no_import_goes_through_a_package_init():
    """Inside ``src/`` an import names the defining submodule.  Importing
    a *submodule* from its package is fine; so is a name the ``__init__``
    itself defines (``__version__``)."""
    offenders = []
    for path, module, is_package in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = _absolute(node, module, is_package)
            if not target or target.split(".")[0] != "repro":
                continue
            if not _is_package(target):
                continue
            init = SRC.parent.joinpath(*target.split(".")) / "__init__.py"
            exported = {
                key.value
                for stmt in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", "") == "_EXPORTS"
                for key in stmt.value.keys
            }
            for alias in node.names:
                if alias.name in exported and not _is_submodule(target, alias.name):
                    offenders.append(
                        f"{path.relative_to(ROOT)}:{node.lineno}: "
                        f"from {target} import {alias.name}"
                    )
    assert not offenders, "\n".join(offenders)


HEAVY_FOR_CLI = (
    "repro.orchestration.runner", "repro.orchestration.parallel",
    "repro.orchestration.dispatch", "repro.store", "repro.checking",
)


def test_cli_modules_defer_the_heavy_layers():
    offenders = []
    for path, module, is_package in _sources():
        if not module.startswith("repro.cli"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:  # module level only
            if not isinstance(node, ast.ImportFrom):
                continue
            target = _absolute(node, module, is_package)
            for name in [target] + [f"{target}.{a.name}" for a in node.names]:
                if any(name == h or name.startswith(h + ".") for h in HEAVY_FOR_CLI):
                    offenders.append(
                        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                    )
    assert not offenders, "\n".join(offenders)
    assert not (SRC / "cli.py").exists()


def _runtime_imports(tree):
    """Every import node of ``tree`` outside ``if TYPE_CHECKING:`` blocks,
    at any depth (function-local imports included)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test):
                stack.extend(child.orelse)
            else:
                stack.append(child)


INSTRUMENT_PACKAGES = ("repro.obs", "repro.profiling")


def test_orchestration_never_imports_the_instruments():
    """The sweep, the pool and the kernel context reach the profiler and
    the metrics registry only through the instruments they are handed
    (``KernelContext.instruments``; pool chunks get pickled twins)."""
    offenders = []
    for path, module, is_package in _sources():
        if not module.startswith("repro.orchestration"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _runtime_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                target = _absolute(node, module, is_package)
                names = [target] + [f"{target}.{a.name}" for a in node.names]
            if any(
                name == p or name.startswith(p + ".")
                for name in names for p in INSTRUMENT_PACKAGES
            ):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, "\n".join(offenders)


def test_the_lazy_helper_stays_small():
    lines = (SRC / "_lazy.py").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 40
