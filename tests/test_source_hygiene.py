"""Source hygiene: every module under ``src/`` reads each name it imports.

An import nothing reads is a line a reader must check and a module a
cold start may load for nothing.  Package ``__init__`` modules are
exempt (their imports are the re-exports), as is any import on a line
marked ``# noqa: F401`` (an import kept for its side effect, such as
registering an artifact schema).  Names listed in a module's ``__all__``
and names inside string annotations count as read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_every_src_module_reads_its_imports():
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(
                  path.read_text(encoding="utf-8"))]
    assert unused == []
