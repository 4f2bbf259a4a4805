"""Modules imported on first use.

Each milsent command runs as its own process, and most commands need few of
the package's modules: `--version` runs only `cli`, `config` and `corpus`,
and `preprocess`, `evaluate` and `render` never compute with numpy, whose
import alone takes about 140 ms. So `cli` binds every stage layer, and each
layer binds numpy and any other layer it calls, through `lazy_import`: a
module registered in `sys.modules` but executed by `importlib` only on its
first attribute access. Annotations that name such a module are strings
(`from __future__ import annotations`), so they do not count as a use.

Binding at module level keeps every layer in `sys.modules` once `cli` is
imported, which is what a caller that rebinds the layers (a tracer) reads.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name` if it is imported already; otherwise the module
    registered in `sys.modules` (and bound on its parent package, as an
    import would bind it) unexecuted, executed on its first attribute
    access."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return importlib.import_module(name)  # raises ModuleNotFoundError
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
