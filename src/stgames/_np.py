"""Modules loaded on first use: numpy and the library's own.

Importing numpy takes about a third of a short CLI process, and some runs
(a `match` document, a document rejected by the schema) never call a numpy
kernel; each run also calls the kernels of one to four of the library's
nine kernel modules. `lazy(name)` registers a module in `sys.modules` whose
code executes on the first attribute read. Library modules say
`from ._np import np`: the name is bound at import, and numpy executes when
code first reads an attribute of `np`. Importing a lazy module by name
(`import numpy`, `from .lp import solve_lp`) loads it, since the import
reads its `__spec__`, and so does `vars()`; `from . import lp` binds it
unloaded, as the package attribute. `LazyLoader` is not thread-safe on older CPython releases
(gh-114763), so configs run in worker processes, never threads.
"""

import importlib.util
import sys


def lazy(name):
    """The module `name`, executed on its first attribute read.

    Where `name` is already imported, that module. Otherwise the lazy
    module goes into `sys.modules` and, for a submodule, is bound as an
    attribute of its package, as an import statement would bind it.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        if package:
            setattr(sys.modules[package], child, module)
    return module


np = lazy("numpy")
