"""Lint check without a linter: every import in ``src/cmkt``, ``tests`` and
``demos``, at the top level or inside a function, is used, and no function in
``src/cmkt`` imports again from a module the file already imports at the top
level. Also: what importing the CLI loads."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmkt"
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"
SCRIPTS = [path for folder in ("tests", "demos")
           for path in sorted((PACKAGE.parents[1] / folder).glob("*.py"))]

# (module, name) pairs imported on purpose without a use in the module:
# perfbench/tracing.py wraps each under that module's name
KEPT = {
    ("distillation", "bundle_text_encoder"),
    ("training", "restore_text_encoder"),
}


def bound_names(node: ast.AST) -> list[str]:
    """Names an import statement binds; none for anything else."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def source_modules(node: ast.AST) -> list[str]:
    """Modules an import statement reads from, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by every import in the module, with their line."""
    return {name: node.lineno for node in ast.walk(tree) for name in bound_names(node)}


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


def local_reimports(source: str, module: str) -> list[str]:
    """Imports inside functions from a module the file imports at the top."""
    tree = ast.parse(source)
    top = {m for node in tree.body for m in source_modules(node)}
    local = [
        node
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    ]
    return sorted(
        f"{module}.py:{node.lineno}: {m}"
        for node in local
        for m in source_modules(node)
        if m in top
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_unused_imports_in_tests_and_demos(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_function_reimports_a_top_level_module(path):
    assert local_reimports(path.read_text(encoding="utf-8"), path.stem) == []


def test_every_kept_import_is_a_tracer_target():
    """An exemption holds only while the tracer patches that name there, so a
    stale one fails here instead of hiding an unused import."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = {(module.removeprefix("cmkt."), attr) for _, module, attr in tracing.TARGETS}
    assert KEPT <= patched


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


def test_scan_covers_function_bodies():
    source = (
        "import csv\n"
        "from .a import B\n\n\n"
        "def f():\n"
        "    import json\n"
        "    from .a import C\n"
        "    from .d import E\n"
        "    return csv, B, C, E\n"
    )
    assert unused_imports(source, "m") == ["m.py:6: json"]
    assert local_reimports(source, "m") == ["m.py:7: .a"]


def test_cli_import_loads_no_scipy():
    """Every command starts by importing the CLI; scipy alone would add
    about 70 MB and most of a second to each of them."""
    code = "import sys, cmkt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"
