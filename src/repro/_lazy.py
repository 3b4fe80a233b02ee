"""PEP 562 lazy exports for the package ``__init__`` modules.

Every ``repro`` package re-exports names from its submodules.  Binding
them eagerly made ``import repro`` execute the whole library (and its
heaviest third-party imports) before a CLI process could look at its
arguments; :func:`lazy_exports` instead resolves a name on first
attribute access and caches it in the package namespace, so later
lookups are plain dict hits.  See ``docs/DESIGN.md`` §1 for the rule
and its one exception (names that are both a submodule and a
function).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: "Mapping[str, Sequence[str]]"
) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """Module-level ``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps an absolute module name (``"repro.sparse.csr"``)
    to the public names it provides.  A name not in the table falls
    back to importing ``package.<name>``, so ``import repro;
    repro.sparse.csr`` keeps working without an explicit submodule
    import, exactly as when ``__init__`` imported every submodule
    itself.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):  # introspection probes, never a submodule
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            qualified = f"{package}.{name}"
            try:
                value = importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise  # the submodule exists; one of *its* imports is missing
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
