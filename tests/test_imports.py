"""Lint check without a linter: every import in ``src/cmkt``, ``tests`` and
``demos``, at the top level or inside a function, is used, and no function in
``src/cmkt`` imports again from a module the file already imports at the top
level. Every public function, class and method of ``src/cmkt`` is named by the
package, a demo or the benchmark, not only by tests; a method or property
counts as named only by an attribute read or a dotted string, and the method
names that two or more classes share are pinned. Only ``cmkt/parallel.py``
forks, in the package and in ``scripts``. Also: what importing the CLI loads."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmkt"
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"
SCRIPTS = [path for folder in ("tests", "demos")
           for path in sorted((PACKAGE.parents[1] / folder).glob("*.py"))]
# the code whose references keep a public name alive: the package without
# its re-exports, the demos and the benchmark
CALLERS = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"] + [
    path for folder in ("demos", "perfbench")
    for path in sorted((PACKAGE.parents[1] / folder).glob("*.py"))
]

# (module, name) pairs imported on purpose without a use in the module:
# perfbench/tracing.py wraps each under that module's name
KEPT = {
    ("distillation", "bundle_text_encoder"),
    ("training", "restore_text_encoder"),
}

# public definitions that nothing but tests names, kept on purpose: the
# readers of two on-disk formats, which criterion 8 and test_format_fuzz.py
# round-trip against their writers
UNCALLED_KEPT = {"evaluation.parse_report_csv", "synth.load_world"}

# public method names that two or more classes define, with those classes.
# The uncalled-definition scan matches a method by its name alone, so one
# definition's caller keeps every namesake alive; each definition here was
# checked to have a caller of its own. A new shared name, or a new class
# sharing one of these, fails test_shared_method_names_are_pinned until it
# is checked and added.
SHARED_METHODS = {
    "save": {"corpus.Vocab", "encoders.FeatureBank", "perturbation.Lexicon",
             "perturbation.PosTagger"},
    "load": {"corpus.Vocab", "encoders.FeatureBank", "perturbation.Lexicon",
             "perturbation.PosTagger"},
    "dim": {"encoders.TextEncoder", "encoders.FeatureBank"},
    "backward": {"encoders.TextEncoder", "encoders.ImageEncoder"},
    "encode": {"encoders.TextEncoder", "encoders.ImageEncoder"},
    "top_candidates": {"perturbation.MaskedLMOracle", "perturbation.MockOracle",
                       "perturbation.FrequencyOracle"},
}

# the one file allowed to fork: everything else runs side by side through
# its map_forked
FORK_POOL = PACKAGE / "parallel.py"
FORK_SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "scripts").glob("*.py"))

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


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


def public_definitions(tree: ast.Module, module: str) -> list[str]:
    """Top-level public functions and classes, and the public methods of
    those classes, as ``module.name`` or ``module.Class.method``."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.extend(f"{module}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def referenced_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every name read, every attribute, and each part of a dotted string
    such as the tracer's ``"TextEncoder.forward"``; then the attribute
    reads and dotted-string parts alone, the only ways to reach a method."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            attributes.update(node.value.split("."))
    return names | attributes, attributes


def uncalled_definitions(definitions: dict[str, str], callers: list[str]) -> list[str]:
    """Public definitions (module stem -> source) whose last name part no
    caller source names: a function or class by any name, attribute or
    dotted string, a method or property by an attribute read or a dotted
    string only, so a local variable of the same spelling does not count."""
    names, attributes = set(), set()
    for src in callers:
        found, read = referenced_names(ast.parse(src))
        names |= found
        attributes |= read
    return sorted(
        name
        for module, src in definitions.items()
        for name in public_definitions(ast.parse(src), module)
        if name.rsplit(".", 1)[-1] not in (attributes if name.count(".") == 2 else names)
    )


def package_definitions() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def package_uncalled() -> list[str]:
    return uncalled_definitions(package_definitions(),
                                [path.read_text(encoding="utf-8") for path in CALLERS])


def shared_methods(definitions: dict[str, str]) -> dict[str, set[str]]:
    """Each public method name that two or more classes define (module stem
    -> source), with those classes as ``module.Class``."""
    owners: dict[str, set[str]] = {}
    for module, src in definitions.items():
        for name in public_definitions(ast.parse(src), module):
            if name.count(".") == 2:
                owner, method = name.rsplit(".", 1)
                owners.setdefault(method, set()).add(owner)
    return {method: found for method, found in owners.items() if len(found) > 1}


def fork_uses(source: str, module: str) -> list[str]:
    """Every ``os.fork`` reference and every ``fork`` imported from ``os``."""
    return sorted(
        f"{module}.py:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name == "fork" for alias in node.names))
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


@pytest.mark.parametrize("path", FORK_SCANNED, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_only_the_fork_pool_forks(path):
    """Work that runs side by side goes through ``parallel.map_forked``,
    which kills and reaps its workers on every path, instead of forking on
    its own."""
    uses = fork_uses(path.read_text(encoding="utf-8"), path.stem)
    if path == FORK_POOL:
        assert uses, "the pool no longer forks: update FORK_POOL"
    else:
        assert uses == []


def test_fork_scan_finds_calls_and_imports():
    source = (
        "import os\n"
        "from os import fork, getpid\n"
        "if hasattr(os, 'fork'):\n"
        "    pid = os.fork()\n"
        "run = os.forkpty\n"
    )
    assert fork_uses(source, "m") == ["m.py:2", "m.py:4"]


def test_every_kept_import_is_a_tracer_target():
    """An exemption holds only while the tracer patches that name there, so a
    stale one fails here instead of hiding an unused import."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = {(module.removeprefix("cmkt."), attr) for _, module, attr in tracing.TARGETS}
    assert KEPT <= patched


def test_every_public_definition_has_a_caller():
    """A public function, class or method that only tests call is dead API:
    delete it, or build what the test needs inside the test."""
    assert sorted(set(package_uncalled()) - UNCALLED_KEPT) == []


def test_every_uncalled_exemption_is_still_uncalled():
    """An exemption holds only while its definition exists and still has no
    caller, so a stale one fails here."""
    assert UNCALLED_KEPT <= set(package_uncalled())


def test_shared_method_names_are_pinned():
    """A dead method hides behind a live namesake on another class, which
    the uncalled scan cannot tell apart: find a caller for each new one."""
    assert shared_methods(package_definitions()) == SHARED_METHODS


def test_shared_method_scan_groups_classes_by_method_name():
    definitions = {
        "m": "class A:\n    def save(self): pass\n    def _hidden(self): pass\n"
             "class B:\n    def save(self): pass\n    def _hidden(self): pass\n"
             "    def own(self): pass\n"
             "def save(): pass\n",
        "n": "class C:\n    def save(self): pass\n    def own(self): pass\n"
             "class _D:\n    def save(self): pass\n",
    }
    assert shared_methods(definitions) == {"save": {"m.A", "m.B", "n.C"},
                                           "own": {"m.B", "n.C"}}


def test_uncalled_scan_counts_names_attributes_and_dotted_strings():
    definitions = {"m": (
        "def used_by_name(): pass\n"
        "def used_as_attribute(): pass\n"
        "def _private(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def traced(self): pass\n"
        "    def read(self): pass\n"
        "    def dead_method(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def assigned(self): pass\n"
        "    def __len__(self): return 0\n"
    )}
    callers = [
        "used_by_name()\nimport m\nm.used_as_attribute()\nbox.read()\n",
        'TARGETS = (("span", "m", "Box.traced"), "dead with spaces.dead_method")\n',
        "shadowed = 1\nprint(shadowed)\nbox.assigned = shadowed\n",
    ]
    assert uncalled_definitions(definitions, callers) == [
        "m.Box.assigned", "m.Box.dead_method", "m.Box.shadowed", "m.dead"]


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
