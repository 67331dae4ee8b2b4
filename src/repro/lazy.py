"""Lazy package re-exports (PEP 562): a package ``__init__`` names what it
re-exports and where each name is defined, and a name's defining module
is imported the first time the name is read — so a command loads only
the modules it runs (DESIGN.md §3, "Package inits")."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], list[str]]:
    """The module ``__getattr__`` of *package* for *exports*, ``{defining
    module: names}``, and those names, for its ``__all__``.  Reading a
    name imports its module once and binds every name that module exports
    in the package, so later reads are plain attribute lookups.  An
    unknown name is an :class:`AttributeError`, which lets ``from package
    import submodule`` import the submodule."""
    namespace = sys.modules[package].__dict__
    homes = {name: home for home, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(home)
        for each in exports[home]:
            namespace[each] = getattr(module, each)
        return namespace[name]

    return __getattr__, list(homes)
