"""numpy, loaded on first use.

Importing numpy takes about a third of a short CLI process, and some runs
(a `match` document, a document rejected by the schema) never call a numpy
kernel. Library modules say `from ._np import np`: the name is bound at
import, and numpy executes on the first attribute read. An `import numpy`
statement anywhere else also loads it, since the import reads
`numpy.__spec__`. Where numpy is already imported, `np` is that module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
