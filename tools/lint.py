"""Dependency-free lint: unused imports, undefined names, over-long lines.

``ruff`` (configured in ``pyproject.toml``, run by CI) is the real linter,
but it cannot be installed where tier-1 runs, so this script keeps the three
classes of slip that have actually reached review checkable everywhere:

- **unused import** — a name bound by ``import`` / ``from ... import`` that
  the module never reads and does not re-export through ``__all__`` (an
  ``__init__.py`` re-exports whatever it imports);
- **undefined name** — a name read that no scope of the module binds and
  that is not a builtin (scope-insensitive on purpose: it cannot flag a
  name that some scope does define, so it never cries wolf);
- **line too long** — over ``[tool.ruff] line-length``.

A line carrying ``# noqa`` is skipped.  Usage: ``python tools/lint.py
[paths...]`` (default ``src tests tools``); exit status 1 when anything is
found, one ``path:line: message`` per finding.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "tools")
LINE_LENGTH = 100  # [tool.ruff] line-length in pyproject.toml
_MODULE_NAMES = {"__file__", "__name__", "__doc__", "__path__", "__spec__", "__builtins__"}


def _bound_names(tree: ast.AST) -> set:
    """Every name any scope of the module binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
        elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
            names.add(node.name)
    return names


def _exported(tree: ast.Module) -> set:
    """String entries of a module-level ``__all__`` (list, tuple or ``+=``)."""
    out = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            out.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return out


def lint_source(source: str, path: str = "<string>") -> list:
    """``[(line, message)]`` for one module's source text."""
    lines = source.splitlines()
    skip = {i + 1 for i, line in enumerate(lines) if "# noqa" in line}
    findings = [
        (i + 1, f"line too long ({len(line)} > {LINE_LENGTH})")
        for i, line in enumerate(lines) if len(line) > LINE_LENGTH
    ]
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [(exc.lineno or 1, f"syntax error: {exc.msg}")]

    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # ``a.b.c`` reads ``a``; a string annotation or ``__all__`` entry may name an import.
    strings = {
        word
        for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
        for word in n.value.replace(".", " ").replace("[", " ").replace("]", " ").split()
    }
    reexports = path.endswith("__init__.py")
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if alias.name == "*" or reexports or name in read or name in strings:
                continue
            findings.append((node.lineno, f"unused import {name!r}"))

    known = _bound_names(tree) | set(dir(builtins)) | _MODULE_NAMES
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in known:
            findings.append((node.lineno, f"undefined name {node.id!r}"))
    for name in sorted(_exported(tree) - known):
        findings.append((1, f"__all__ exports undefined name {name!r}"))
    return sorted(f for f in findings if f[0] not in skip)


def lint_paths(paths=DEFAULT_PATHS) -> list:
    """``["path:line: message"]`` over every ``.py`` file under ``paths``."""
    out = []
    for base in paths:
        base = Path(base) if Path(base).is_absolute() else ROOT / base
        for file in sorted(base.rglob("*.py")) if base.is_dir() else [base]:
            shown = file.relative_to(ROOT) if file.is_relative_to(ROOT) else file
            out += [
                f"{shown}:{line}: {message}"
                for line, message in lint_source(file.read_text(), str(file))
            ]
    return out


if __name__ == "__main__":
    found = lint_paths(sys.argv[1:] or DEFAULT_PATHS)
    print("\n".join(found) if found else "lint: clean")
    sys.exit(1 if found else 0)
