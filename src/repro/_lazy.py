"""Lazy package namespaces (PEP 562).

A package lists, per module, the public names it re-exports;
:func:`lazy_exports` turns that table into the package's module-level
``__getattr__`` and ``__dir__``.  A name's module is imported on first
access and the value is cached in the package's globals, so later
lookups never reach ``__getattr__`` again.  Importing a package thus
imports none of the modules behind its names, and importing one
subpackage stops pulling in its siblings.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.

    ``table`` maps a module's full name to the names the package takes
    from it.  A name listed under the package's own submodule of that
    name (``"graphs"`` under ``"repro.graphs"`` in ``repro``) resolves to
    the submodule itself.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module_name = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name)
        if module.__name__ == f"{package}.{name}":
            value = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
