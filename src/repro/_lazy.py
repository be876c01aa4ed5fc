"""Lazy package exports (PEP 562).

A package's ``__init__`` names what it exports and the module each name
lives in; the module is imported the first time the name is read.  So
importing a package, or one of its submodules, loads only what runs:
``import repro.service.wal`` does not start the asyncio server, and
``import repro.graph.io`` does not load the cluster runtime.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Tuple


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]
                 ) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package`` over ``table`` (module,
    relative to the package -> the names it exports).  A name read once
    is kept in the package's namespace."""
    where = {name: module for module, names in table.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name], package), name)
        namespace[name] = value
        return value

    return __getattr__
