"""tier-1 runs ``tools/lint.py`` (``ruff`` cannot be installed everywhere
the tests run): the tree must be clean, and the checker must still see the
three kinds of slip it exists for."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("repo_lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def test_tree_is_clean():
    assert lint.lint_paths() == []


def test_each_finding_kind_is_detected():
    source = "\n".join([
        "import os",
        "import sys as system  # noqa",
        "from typing import Any, Optional",
        "__all__ = ['Any', 'missing']",
        "def f(x):",
        "    return y + x",
        "z = 1  # " + "x" * 100,
    ])
    messages = [message for _, message in lint.lint_source(source, "mod.py")]
    assert messages == [
        "__all__ exports undefined name 'missing'",
        "unused import 'os'",
        "unused import 'Optional'",
        "undefined name 'y'",
        "line too long (109 > 100)",
    ]


def test_package_init_reexports_and_string_annotations_count_as_uses():
    assert lint.lint_source("from a import b\n", "pkg/__init__.py") == []
    assert lint.lint_source("from a import B\nx: 'B | None' = None\n", "mod.py") == []
