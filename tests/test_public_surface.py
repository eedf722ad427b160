"""The public surface survives the lazy package ``__init__``s unchanged.

``tests/public_surface.json`` is every package's ``__all__`` as the last
eager commit (PR 13) exported it.  The lazy tables must list the same
names in the same order, resolve each to the very object its defining
submodule holds, and keep the ordinary import forms, error messages and
pickled qualified names working.
"""

import ast
import importlib
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SNAPSHOT = json.loads(
    (Path(__file__).parent / "public_surface.json").read_text(encoding="utf-8")
)
PACKAGES = sorted(SNAPSHOT)


def fresh_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter: nothing is imported yet there,
    so the lazy path is the one exercised."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )


def declared(name):
    """``({export: submodule}, same from the TYPE_CHECKING block)`` read
    off a package ``__init__``'s source: the ``lazy_exports`` table
    (``"."`` lists submodules) and the imports tooling sees."""
    package = importlib.import_module(name)
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    table, mirrored = {}, {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            groups = ast.literal_eval(node.value.args[2])
            table = {
                export: target + export if target == "." else target
                for target, exports in groups.items() for export in exports
            }
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            for stmt in node.body:
                base = "." * stmt.level + (stmt.module or "")
                for alias in stmt.names:
                    mirrored[alias.name] = (
                        base + alias.name if stmt.module is None else base
                    )
    return table, mirrored


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_the_parent_commits(name):
    """Same names, none twice (the order follows the table's grouping by
    submodule, which ``from pkg import *`` does not observe)."""
    exported = list(importlib.import_module(name).__all__)
    assert sorted(exported) == sorted(SNAPSHOT[name])
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_name_is_its_defining_submodules_object(name):
    package = importlib.import_module(name)
    table, _ = declared(name)
    assert set(table) | {"__version__"} >= set(package.__all__) >= set(table)
    listed = dir(package)
    for export, target in table.items():
        module = importlib.import_module(target, name)
        value = getattr(package, export)
        assert export in listed, f"dir({name}) misses {export}"
        if target.rpartition(".")[2] == export:
            assert value is module, f"{name}.{export}"
            continue
        assert value is getattr(module, export), f"{name}.{export}"
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, (
                f"{name}.{export} is defined in {value.__module__}, "
                f"the table says {module.__name__}"
            )


@pytest.mark.parametrize("name", PACKAGES)
def test_type_checking_imports_mirror_the_table(name):
    """The ``if TYPE_CHECKING:`` block is what tooling reads; it must
    name exactly the table's (name, submodule) pairs."""
    table, mirrored = declared(name)
    assert mirrored == table


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(SNAPSHOT["repro"]) <= set(namespace)
    assert namespace["ResultCache"] is repro.store.cache.ResultCache


def test_ordinary_import_forms_work_in_a_fresh_interpreter():
    done = fresh_python(
        "from repro.orchestration import sweep_serial\n"
        "import repro\n"
        "assert repro.store.ResultCache.__module__ == 'repro.store.cache'\n"
        "from repro import *\n"
        "print(run_consensus.__module__, sweep_serial.__module__)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "repro.orchestration.runner", "repro.orchestration.parallel",
    ]


def test_import_repro_is_silent_under_warnings_as_errors():
    done = fresh_python("import repro", "-W", "error")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_a_misspelt_name_says_which_package_and_attribute():
    with pytest.raises(AttributeError) as attr:
        repro.store.ResultCach
    assert "'repro.store'" in str(attr.value) and "'ResultCach'" in str(attr.value)
    with pytest.raises(ImportError) as imp:
        from repro.orchestration import sweep_serail  # noqa: F401
    assert "sweep_serail" in str(imp.value)
    assert "repro.orchestration" in str(imp.value)


def test_code_version_still_reads_the_top_level_version():
    from repro.store.cache import code_version

    assert repro.__version__ in code_version()


def test_specs_and_outcomes_pickle_under_their_old_qualified_names():
    from repro.orchestration import ScenarioMatrix, ScenarioOutcome, ScenarioSpec
    from repro.orchestration import run_scenario

    for cls in (ScenarioSpec, ScenarioOutcome):
        assert (cls.__module__, cls.__qualname__) == (
            "repro.orchestration.matrix", cls.__name__
        )
    spec = ScenarioMatrix(sizes=[(4, 1)], seeds=range(1)).expand()[0]
    outcome = run_scenario(spec)
    assert b"repro.orchestration.matrix" in pickle.dumps(outcome)
    assert pickle.loads(pickle.dumps(outcome)) == outcome


def test_a_pool_forked_from_a_lazy_parent_matches_serial():
    """The parent has loaded nothing but the sweep front end when
    ``WorkerPool`` forks: the workers must still execute (the pool
    imports the stack before forking) and return the serial bytes."""
    done = fresh_python(
        "import sys\n"
        "from repro.orchestration import ScenarioMatrix, sweep_parallel, sweep_serial\n"
        "from repro.store.shards import encode_record\n"
        "matrix = ScenarioMatrix(sizes=[(4, 1)], topologies=['single_bisource',"
        " 'fully_timely'], adversaries=['crash', 'two_faced:evil'],"
        " value_counts=[2], seeds=range(4))\n"
        "assert 'repro.orchestration.runner' not in sys.modules\n"
        "pooled = sweep_parallel(matrix, workers=2)\n"
        "assert pooled.workers == 2, pooled.workers\n"
        "serial = sweep_serial(matrix)\n"
        "assert [encode_record(o) for o in pooled.outcomes] == "
        "[encode_record(o) for o in serial.outcomes]\n"
        "print(len(pooled.outcomes))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "16"
