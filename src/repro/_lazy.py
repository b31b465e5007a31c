"""Lazy package re-exports (PEP 562).

A package that re-exports names from its submodules imports all of
them on its own import.  :func:`lazy_exports` defers each one to its
first use instead, so importing one submodule of the package (say
``repro.eval.serving_metrics`` from a server) does not pull in the
others and everything they import.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for the package whose
    ``globals()`` is ``namespace``.

    ``exports`` maps each public name to the submodule that defines it;
    a name equal to its submodule resolves to the submodule itself,
    unless the submodule defines that name (``repro.core.pade_attention``
    is the function).  A resolved name is cached in the package
    namespace, so it costs one lookup afterwards.
    """
    package = namespace["__name__"]

    class _Package(types.ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            # The import system binds a loaded submodule on its package;
            # an export of the same name keeps it, as an eager import did.
            if not (
                exports.get(name) == name
                and isinstance(value, types.ModuleType)
                and hasattr(value, name)
            ):
                super().__setattr__(name, value)

    sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{exports[name]}")
        value = getattr(module, name, module) if exports[name] == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
