"""Every public function has a caller: each public top-level function of a
`milsent` module is referenced from `milsent` code (its own module counts,
its definition does not) or from the benchmark harness (`perfbench/`), is
exported in `milsent.__all__`, or is named in `ENTRY_POINTS` with the reason
it is kept for library users. A function that only tests call belongs in the
tests. The same holds for the public methods and properties of public
classes, dunders aside, which count as called only where an attribute of
that name is read."""

import ast
from pathlib import Path

import milsent

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "milsent"
PERFBENCH = ROOT / "perfbench"

ENTRY_POINTS = {
    "eventstudy.fit_market_model": "the market-model fit that acceptance criterion 06 checks",
    "evaluate.label_distribution": "sentence polarity within positive and negative documents",
    "evaluate.format_distribution": "the table of label_distribution",
    "mil.gradient": "the closed-form gradient that acceptance criterion 02 checks",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.Module) -> set[str]:
    """Every identifier a module reads: names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _attributes(tree: ast.Module) -> set[str]:
    """Every attribute name a module reads: `x.name`."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _public_functions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _public_methods(tree: ast.Module) -> list[str]:
    """`Class.method` for each method or property of a public top-level
    class whose name starts with neither `_` nor a dunder."""
    return [f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def _sources():
    modules = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}
    harness = [_tree(path) for path in sorted(PERFBENCH.rglob("*.py"))]
    assert modules and harness
    return modules, harness


def test_every_public_function_has_a_caller():
    modules, harness = _sources()
    used = set(milsent.__all__).union(*map(_names, [*modules.values(), *harness]))
    orphans = [f"{stem}.{function}" for stem, tree in modules.items()
               for function in _public_functions(tree)
               if function not in used and f"{stem}.{function}" not in ENTRY_POINTS]
    assert orphans == [], (
        f"public functions without a caller: {orphans}; use them, make them "
        "private, move them to the tests, or name them in ENTRY_POINTS")


def test_every_public_method_has_a_caller():
    modules, harness = _sources()
    read = set().union(*map(_attributes, [*modules.values(), *harness]))
    orphans = [f"{stem}.{method}" for stem, tree in modules.items()
               for method in _public_methods(tree)
               if method.split(".")[1] not in read and f"{stem}.{method}" not in ENTRY_POINTS]
    assert orphans == [], (
        f"public methods and properties without a caller: {orphans}; use them, make "
        "them private, move them to the tests, or name them in ENTRY_POINTS")


def test_entry_points_exist():
    for qualified in ENTRY_POINTS:
        stem, name = qualified.split(".", 1)
        tree = _tree(SRC / f"{stem}.py")
        assert name in _public_functions(tree) + _public_methods(tree), qualified
