"""Lint check without a linter: every top-level import in ``src/cmkt`` is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmkt"

# (module, name) pairs imported on purpose without a use in the module
KEPT = {
    # perfbench/tracing.py wraps it under the distillation module's name
    ("distillation", "bundle_text_encoder"),
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str, module: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"{module}.py:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used and (module, name) not in KEPT
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem) == []


def test_scan_finds_unused_and_counts_all():
    source = (
        "import json\n"
        "from typing import Optional, Sequence\n"
        "from .a import B\n"
        '__all__ = ["B"]\n\n\n'
        "def f(x: Optional[int]):\n"
        "    return x\n"
    )
    assert unused_imports(source, "m") == ["m.py:1: json", "m.py:2: Sequence"]
