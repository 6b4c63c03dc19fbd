"""Gate: every ``src/repro`` module is reached from a shipped path.

A module that only tests import is code nobody runs. The roots are what
ships: the CLI (``repro.__main__``, whose subcommands import lazily inside
functions), every import in ``benchmarks/``, ``perfbench/``, ``examples/``
and ``tools/``, the lint rules (loaded as a package) and the builder
modules ``repro.core.api`` loads by name. Reach follows imports at any
nesting level plus string literals that name a module. A name imported
from a package ``__init__`` counts as an import of the submodule that
defines it, so a re-export alone does not keep a module alive.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SHIPPED_DIRS = ("benchmarks", "perfbench", "examples", "tools")


def _module_paths() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_paths()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _from_base(node: ast.ImportFrom, importer: str) -> str:
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    package = importer if importer in PACKAGES else importer.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _defining_module(package: str, name: str, seen=frozenset()) -> str:
    """The submodule behind ``package.name``, following re-exports."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if package not in PACKAGES or package in seen:
        return package
    for node in ast.walk(_parse(MODULES[package])):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    base = _from_base(node, package)
                    return _defining_module(base, alias.name, seen | {package})
    return package


def _targets(tree: ast.AST, importer: str):
    """Every project module ``tree`` imports or names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, importer)
            for alias in node.names:
                yield _defining_module(base, alias.name)
        elif isinstance(node, ast.Constant) and node.value in MODULES:
            yield node.value


def reached_modules() -> set[str]:
    frontier = ["repro.__main__"]
    frontier += [name for name in MODULES if name.startswith("repro.lint.rules.")]
    for directory in SHIPPED_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            frontier.extend(_targets(_parse(path), ""))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module not in MODULES or module in reached:
            continue
        reached.add(module)
        if module not in PACKAGES:
            frontier.extend(_targets(_parse(MODULES[module]), module))
    return reached


def test_every_module_is_reached_from_a_shipped_path():
    orphans = sorted(set(MODULES) - PACKAGES - reached_modules())
    assert not orphans, (
        "modules no shipped path reaches (use them from the CLI, an example, "
        f"a benchmark or a builder, or delete them): {orphans}"
    )

