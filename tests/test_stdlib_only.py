"""The runtime stays pure stdlib: every import in the package's modules
resolves to the standard library or to the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interviewplan"
ALLOWED = frozenset(sys.stdlib_module_names) | {"interviewplan"}


def outside_imports(source: str) -> set[str]:
    """The top-level names of the absolute imports in ``source`` that are
    neither standard library nor the package; a relative import stays
    inside the package."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.partition(".")[0])
    return roots - ALLOWED


def test_every_import_is_stdlib_or_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        assert not outside_imports(path.read_text(encoding="utf-8")), path.name


def test_a_third_party_import_is_caught_wherever_it_sits():
    source = ("from __future__ import annotations\nimport itertools, numpy.linalg\n"
              "from .model import man\n\ndef f():\n    from hypothesis import given\n")
    assert outside_imports(source) == {"numpy", "hypothesis"}
