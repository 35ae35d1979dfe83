"""Source hygiene: every module reads each name it imports.

An import nothing reads is a line a reader must check and a module a
cold start may load for nothing.  The scan covers ``src/`` (package
``__init__`` modules included: their exports are lazy, DESIGN §16) and
the ``benchmarks/``, ``examples/`` and ``tests/`` that drive it.  An
import on a line marked ``# noqa: F401`` is exempt (one kept for its
side effect, such as registering an artifact schema).  Names listed in
a module's ``__all__`` and names inside string annotations count as
read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(node: ast.AST):
    """Names an annotation reads, inside strings such as
    ``Optional["SafetyGoalSet"]`` included."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def unused_imports(source: str):
    """``(line, name)`` of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            read.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            read.update(_annotation_names(node.returns))
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_guard_sees_unused_and_marked_imports():
    source = ("import math\n"
              "import os  # noqa: F401\n"
              "from typing import Dict, List, Optional\n"
              "from .x import y\n"
              "from .z import Z\n"
              "__all__ = ['y']\n"
              "def f(a: 'Dict[str, int]') -> Optional['Z']:\n"
              "    return None\n")
    assert unused_imports(source) == [(1, "math"), (3, "List")]


def _unused_under(*directories):
    """``path:line: name`` of every unused import under ``directories``."""
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for directory in directories
            for path in sorted((ROOT / directory).rglob("*.py"))
            for line, name in unused_imports(
                path.read_text(encoding="utf-8"))]


def test_every_src_module_reads_its_imports():
    assert _unused_under("src") == []


def test_every_bench_example_and_test_module_reads_its_imports():
    assert _unused_under("benchmarks", "examples", "tests") == []


def _own_names(init: Path):
    """Names a package ``__init__`` binds itself (``__version__``)."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def _package_imports_of_names(path: Path, packages):
    """``line: from PACKAGE import NAME`` where NAME is neither a
    submodule nor bound by the package ``__init__`` itself."""
    # The package the module belongs to (an __init__ is its package's).
    parts = list(path.relative_to(ROOT / "src").parts[:-1])
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = parts[:len(parts) - node.level + 1] if node.level else []
        target = ".".join(base + (node.module.split(".")
                                  if node.module else []))
        if target not in packages:
            continue
        package = ROOT / "src" / Path(*target.split("."))
        own = _own_names(package / "__init__.py")
        for alias in node.names:
            submodule = package / alias.name
            if not (alias.name in own
                    or submodule.with_suffix(".py").exists()
                    or (submodule / "__init__.py").exists()):
                yield f"{node.lineno}: from {target} import {alias.name}"


def test_src_modules_import_names_from_their_defining_module():
    """Package exports are lazy (DESIGN §16), so inside ``src/repro`` a
    name comes from the module that defines it, never through a package
    namespace, whose lazy lookup could meet a partly initialised module.
    Importing a submodule (``from ..core import serialize``) is fine;
    ``repro.cli``, the entry point, imports once every package is
    complete."""
    src = ROOT / "src"
    packages = {".".join(init.parent.relative_to(src).parts)
                for init in src.rglob("__init__.py")}
    offenders = [f"{path.relative_to(ROOT)}:{found}"
                 for path in sorted((src / "repro").rglob("*.py"))
                 if path.name != "cli.py"
                 for found in _package_imports_of_names(path, packages)]
    assert offenders == []
