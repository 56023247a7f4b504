"""Lazy package exports: every ``repro`` package ``__init__`` is a table.

A package ``__init__`` names, for each public name, the module that
defines it — and imports none of them.  The first access to a name
(``from repro.timing import ScheduleCache``, ``repro.Player``,
``from repro.store import *``) imports its module and binds the value
on the package, so later reads are plain attribute lookups.  Importing
one submodule therefore never drags in its siblings: ``import
repro.cli`` loads only what the CLI module itself imports.

This is PEP 562's module ``__getattr__``/``__dir__``, carried on a
:class:`types.ModuleType` subclass for one extra rule: the import
system binds every loaded submodule on its package, and an export that
shares a submodule's name (``repro.transport.negotiate``, the function)
must keep winning over the module, as it did under eager imports.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


class LazyPackage(ModuleType):
    """A package module whose exports resolve on first access."""

    def __getattr__(self, name: str):
        try:
            module = self._lazy_exports[name]
        except KeyError:
            raise AttributeError(f"module {self.__name__!r} has no "
                                 f"attribute {name!r}") from None
        value = getattr(importlib.import_module(module, self.__name__),
                        name)
        setattr(self, name, value)
        return value

    def __dir__(self):
        return sorted(set(vars(self)) | set(self._lazy_exports))

    def __setattr__(self, name: str, value) -> None:
        if (name in self._lazy_exports and isinstance(value, ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            return
        super().__setattr__(name, value)


def export_table(package: str,
                 table: dict[str, tuple[str, ...]]) -> list[str]:
    """Make ``package`` resolve ``table`` lazily; returns its ``__all__``.

    ``table`` maps a module — absolute, or relative to ``package`` — to
    the names it contributes.
    """
    exports = {name: module
               for module, names in table.items() for name in names}
    namespace = sys.modules[package]
    vars(namespace)["_lazy_exports"] = exports
    namespace.__class__ = LazyPackage
    return list(exports)
