"""Only ``model`` reads a knowledge state's parts: outside ``model.py`` no
module reads a single-underscore attribute off anything but ``self``, and
the only private names imported across the package's modules are the
blocker scan's helpers from ``stability`` and the unchecked apply from
``interviews``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interviewplan"
SHARED = frozenset({("stability", "_true_cut"), ("stability", "_very_weak_rows"),
                    ("stability", "_very_weak_blockers"), ("interviews", "_apply_unchecked")})


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list[str]:
    """Each ``x._name`` in ``source`` whose ``x`` is not ``self``."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and private(node.attr)
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


def private_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each private name ``source`` imports from a module
    of the package, relatively or by its absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.partition(".")[0] == "interviewplan":
                module = module.removeprefix("interviewplan").lstrip(".")
                out.update((module, alias.name) for alias in node.names if private(alias.name))
    return out


def package_sources() -> dict[str, str]:
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    return sources


def test_only_model_reads_private_attributes_off_other_objects():
    found = {name: private_reads(source) for name, source in package_sources().items()
             if name != "model.py"}
    assert not any(found.values()), found


def test_private_imports_are_the_scan_helpers_and_the_unchecked_apply():
    found = set().union(*map(private_imports, package_sources().values()))
    assert found <= SHARED, found - SHARED


def test_a_private_read_or_import_is_caught():
    source = ("from .stability import _open, _true_cut\n"
              "from interviewplan.interviews import _learned\n"
              "from . import __version__\n\n"
              "def f(self, truth, rel, a):\n"
              "    return truth._rank[a], self._views, rel.open_to(a), type(rel).__name__\n")
    assert private_reads(source) == ["truth._rank"]
    assert private_imports(source) - SHARED == {("stability", "_open"),
                                                ("interviews", "_learned")}
