"""Lazy package exports (PEP 562): a package imports a submodule only
when one of its names is first used.

A package lists its public names in one table, name → submodule, and
installs it::

    _EXPORTS = {"FileStream": "stream", "read_adjacency": "io"}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``pkg.FileStream`` and ``from pkg import FileStream`` then import
``pkg.stream`` on first use; ``__all__``, ``dir()`` and
``from pkg import *`` work as with eager imports.  Every name the table
maps to a submodule is bound on the package as soon as that submodule
is imported, by whatever path.  This keeps the one kind of export that
shares its submodule's name (``repro.bench.sweep``, a function in
``repro/bench/sweep.py``) the function, never the module — also after
``import repro.bench.sweep`` ran first, when the import system binds
the module on the package.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Make ``package`` resolve ``exports`` on first access.

    ``exports`` maps each public name to the submodule of ``package``
    that defines it.  Returns the module ``__getattr__`` and
    ``__dir__`` to assign at package level.
    """
    module = sys.modules[package]
    children: dict[str, list[str]] = {}
    for name, submodule in exports.items():
        children.setdefault(submodule, []).append(name)

    class LazyPackage(ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            # The import system binds every freshly loaded submodule on
            # its parent package through this call.
            super().__setattr__(name, value)
            if name in children and isinstance(value, ModuleType) \
                    and value.__name__ == f"{package}.{name}":
                for export in children[name]:
                    super().__setattr__(export, getattr(value, export))

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name, name)
        if submodule not in children:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # The import statement's machinery, not importlib.import_module,
        # so ``python -X importtime`` reports the submodule.
        __import__(f"{package}.{submodule}")
        source = sys.modules[f"{package}.{submodule}"]
        if name not in exports:  # a submodule the package used to import
            return source
        value = getattr(source, name)
        ModuleType.__setattr__(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(module.__dict__) | set(exports))

    module.__class__ = LazyPackage
    return __getattr__, __dir__
