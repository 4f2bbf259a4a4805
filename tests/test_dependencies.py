"""numpy is the only runtime requirement: importing every milsent module
loads nothing else beyond the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import milsent

PROBE = """
import pkgutil, sys
import milsent
for module in pkgutil.iter_modules(milsent.__path__, "milsent."):
    __import__(module.name)
print(sorted(sys.modules))
"""


def _loaded_modules(code: str) -> set[str]:
    # the package's parent directory first, so the probe imports this checkout
    src = str(Path(milsent.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {name.split(".")[0] for name in ast.literal_eval(out.strip())}


def test_imports_only_stdlib_and_numpy():
    # site hooks load a few modules into every interpreter; they are not ours
    bare = _loaded_modules("import sys; print(sorted(sys.modules))")
    added = _loaded_modules(PROBE) - bare
    assert "milsent" in added and "numpy" in added
    foreign = sorted(added - set(sys.stdlib_module_names) - {"numpy", "milsent"})
    assert foreign == []
