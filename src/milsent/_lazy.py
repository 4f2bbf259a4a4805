"""numpy, imported on first use.

Importing numpy takes about 140 ms per process, and `preprocess`, `evaluate`
and `render` never compute with it. So every milsent module takes `np` from
`lazy_numpy()`: a module that `importlib` executes on its first attribute
access. Annotations that name `np` are strings (`from __future__ import
annotations`), so they do not count as a use.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """numpy if it is imported already; otherwise numpy registered in
    `sys.modules` unexecuted, executed on its first attribute access."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return importlib.import_module("numpy")  # raises ModuleNotFoundError
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module
