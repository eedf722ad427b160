"""Lazy package exports (PEP 562): the one mechanism every ``__init__`` uses.

A package lists its public names per defining submodule and installs the
triple this module builds::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".cache": ("ResultCache", "scenario_key"),   # from .cache import ...
        ".": ("atomic",),                            # from . import atomic
    })

so ``import repro.store`` executes no submodule, while ``from repro.store
import ResultCache`` (or ``repro.store.ResultCache``) imports
``repro.store.cache`` on first use and caches the object in the package.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, namespace: dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` from
    ``{submodule: names}``; names under ``"."`` are submodules themselves."""
    table = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        target = table.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if target == ".":
            value = import_module(target + name, package)
        else:
            value = getattr(import_module(target, package), name)
        namespace[name] = value
        return value

    return list(table), __getattr__, lambda: sorted(set(namespace) | set(table))
