"""Every public function has a caller: each public top-level function of a
`milsent` module is referenced from `milsent` code (its own module counts,
its definition does not) or from the benchmark harness (`perfbench/`), is
exported in `milsent.__all__`, or is named in `ENTRY_POINTS` with the reason
it is kept for library users. A function that only tests call belongs in the
tests."""

import ast
from pathlib import Path

import milsent

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "milsent"
PERFBENCH = ROOT / "perfbench"

ENTRY_POINTS = {
    "embed.embed_sentence": "the one-sentence form of embed_matrix for library users",
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


def _public_functions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_function_has_a_caller():
    modules = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}
    paths = sorted(PERFBENCH.rglob("*.py"))
    assert modules and paths
    used = set(milsent.__all__).union(*map(_names, modules.values()),
                                      *(_names(_tree(path)) for path in paths))
    orphans = [f"{stem}.{function}" for stem, tree in modules.items()
               for function in _public_functions(tree)
               if function not in used and f"{stem}.{function}" not in ENTRY_POINTS]
    assert orphans == [], (
        f"public functions without a caller: {orphans}; use them, make them "
        "private, move them to the tests, or name them in ENTRY_POINTS")


def test_entry_points_exist():
    for qualified in ENTRY_POINTS:
        stem, function = qualified.split(".")
        assert function in _public_functions(_tree(SRC / f"{stem}.py")), qualified
