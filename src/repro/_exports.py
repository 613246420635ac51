"""Lazy package exports (PEP 562).

A package ``__init__`` lists which submodule defines each public name and
lets this module resolve the name on first access, so importing the
package loads none of its submodules::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "fleet": ("Cluster", "ClusterReport"),
        "node": ("ClusterNode",),
    })

The package keeps its own ``__all__``; ``from pkg import *`` resolves
each listed name through ``__getattr__``.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """Return ``(__getattr__, __dir__)`` for ``package``.

    Args:
        package: The package's ``__name__``.
        exports: Submodule name, relative to ``package`` (dots allowed),
            -> the names it exports.

    The first access to an exported name imports its submodule and caches
    the value in the package's globals, so later accesses are plain
    attribute reads.  Any other name raises :class:`AttributeError`, which
    lets ``from package import submodule`` fall back to importing it.
    """
    where = {name: f"{package}.{module}" for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__
