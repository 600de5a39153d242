"""Where the package's modules may reach: no module but ``__init__`` imports
a name it never reads; only ``cli``, ``__init__`` and ``solvers`` (whose
``best_plan`` screens candidates with ``oracles.stable_matchings`` until a
polynomial enumeration replaces it) import the exhaustive ``oracles``; and
only the modules that own a cap raise ``SizeLimitExceeded``: ``oracles``,
``solvers`` (``COVER_NODE_BUDGET``) and ``generators``
(``SMALL_GRAPH_CAP``)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interviewplan"
ORACLE_IMPORTERS = frozenset({"cli", "__init__", "solvers"})
CAP_OWNERS = frozenset({"oracles", "solvers", "generators"})


def package_sources() -> dict[str, str]:
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    return sources


def unused_imports(source: str) -> set[str]:
    """The names ``source`` binds by import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports, relatively or by the
    package's absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.partition(".")[0] == "interviewplan":
                module = module.removeprefix("interviewplan").lstrip(".")
                if module:
                    out.add(module.partition(".")[0])
                else:
                    out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root, _, rest = alias.name.partition(".")
                if root == "interviewplan" and rest:
                    out.add(rest.partition(".")[0])
    return out


def raised_names(source: str) -> set[str]:
    """The names of the exceptions ``source`` raises, called or not."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def oracle_importers(sources: dict[str, str]) -> set[str]:
    return {name for name, source in sources.items() if "oracles" in package_imports(source)}


def cap_raisers(sources: dict[str, str]) -> set[str]:
    return {name for name, source in sources.items()
            if "SizeLimitExceeded" in raised_names(source)}


def test_no_module_imports_a_name_it_never_reads():
    found = {name: unused_imports(source) for name, source in package_sources().items()
             if name != "__init__"}
    assert not any(found.values()), found


def test_only_the_named_modules_import_the_oracles():
    found = oracle_importers(package_sources())
    assert found <= ORACLE_IMPORTERS, found - ORACLE_IMPORTERS


def test_only_the_cap_owners_raise_size_limit_exceeded():
    found = cap_raisers(package_sources())
    assert found <= CAP_OWNERS, found - CAP_OWNERS


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\nimport itertools, os.path\n"
              "from typing import Optional\nfrom .model import man, woman as w\n\n"
              "def f(x: Optional[int]):\n    woman = man(next(itertools.count(x)))\n"
              "    return woman\n")
    assert unused_imports(source) == {"os", "w"}


def test_an_oracle_import_outside_the_named_modules_is_caught():
    sources = {"stability": "from .oracles import stable_matchings\n",
               "blockers": "import interviewplan.oracles.x\n",
               "model": "from interviewplan import oracles\n",
               "interviews": "from .model import Instance\n",
               "cli": "from .oracles import extension_agreement\n",
               "solvers": "from interviewplan.oracles import stable_matchings\n"}
    assert oracle_importers(sources) - ORACLE_IMPORTERS == {"stability", "blockers", "model"}


def test_a_size_limit_raised_outside_the_cap_owners_is_caught():
    sources = {"stability": "def f(n):\n    raise SizeLimitExceeded(f'{n} too many')\n",
               "model": "def f():\n    raise errors.SizeLimitExceeded\n",
               "blockers": "def f():\n    raise InvalidMatching('no') from SizeLimitExceeded\n",
               "oracles": "def f():\n    raise SizeLimitExceeded('cap')\n"}
    assert cap_raisers(sources) - CAP_OWNERS == {"stability", "model"}
