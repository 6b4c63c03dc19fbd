"""Package-layering rule: the intended dependency DAG, enforced.

The architecture reads bottom-up: the kernel (``sim``) knows nothing
about networks; ``net`` moves packets without knowing what they mean;
``protocols`` gives them meaning; ``exchange``/``firm`` are the actors;
``telemetry``/``analysis``/``sweep``/``core`` observe, orchestrate, and
report. A back-edge (a lower layer importing a higher one) is how
import cycles, un-testable modules, and "everything depends on
everything" codebases start — so the intended DAG is declared *here, in
one place*, and the rule flags any top-level import that isn't in it,
plus any actual module-level import cycle.

Scope notes:

* Only **top-level** imports count (the symbol table's
  ``import_edges``). Function-level lazy imports are the sanctioned
  escape hatch for intentional upward references (the kernel
  instantiating a profiler, gap-fill reaching into the feed handler).
* Imports inside ``if TYPE_CHECKING:`` are annotation-only and skipped.
* Modules directly under ``repro`` (``repro``, ``repro.__main__``) are
  the application layer: they may import
  anything, and nothing may be above them.
* ``repro.lint`` imports nothing from the simulation — the analyzer
  must stay runnable on a broken tree.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: The intended package DAG, as "package -> packages it may import".
#: This is the single place the layering policy lives; extending it is
#: an explicit, reviewable act.
PACKAGE_DAG: dict[str, frozenset[str]] = {
    "sim": frozenset(),
    "telemetry": frozenset({"sim"}),
    "net": frozenset({"sim"}),
    "protocols": frozenset({"sim", "net"}),
    "timing": frozenset({"sim", "net"}),
    "exchange": frozenset({"sim", "net", "protocols"}),
    "workload": frozenset({"sim", "protocols", "exchange"}),
    "firm": frozenset({"sim", "net", "protocols", "exchange", "timing"}),
    "mgmt": frozenset({"sim", "net", "exchange", "firm", "workload"}),
    "core": frozenset(
        {
            "sim",
            "net",
            "protocols",
            "exchange",
            "firm",
            "timing",
            "workload",
            "telemetry",
        }
    ),
    "analysis": frozenset(
        {"sim", "protocols", "firm", "timing", "workload", "telemetry", "core"}
    ),
    "chaos": frozenset({"sim", "net", "protocols", "firm", "telemetry", "core"}),
    "sweep": frozenset({"sim", "workload", "mgmt", "core", "telemetry"}),
    "lint": frozenset(),
}

_ROOT_PACKAGE = "repro"


def _package_of(module_name: str) -> str | None:
    """The declared package a module belongs to, or None when the module
    is outside the ``repro`` tree (fixtures, scratch files), or "" for
    the application layer directly under ``repro``."""
    parts = module_name.split(".")
    if parts[0] != _ROOT_PACKAGE:
        return None
    if len(parts) >= 2 and parts[1] in PACKAGE_DAG:
        return parts[1]
    return ""


def _owning_module(target: str, module_names: set[str]) -> str | None:
    """The longest known-module prefix of a dotted import target:
    ``repro.net.link.Link`` -> ``repro.net.link``."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        candidate = ".".join(parts[:split])
        if candidate in module_names:
            return candidate
    return None


def validate_dag() -> list[str]:
    """Internal consistency of the declared table: every named dep is
    declared, and the declaration itself is acyclic (Kahn's algorithm).
    Returns problems as strings; the test suite pins this empty."""
    problems = [
        f"{package}: undeclared dependency {dep!r}"
        for package, deps in PACKAGE_DAG.items()
        for dep in sorted(deps)
        if dep not in PACKAGE_DAG
    ]
    remaining = {package: set(deps) for package, deps in PACKAGE_DAG.items()}
    while remaining:
        ready = sorted(p for p, deps in remaining.items() if not deps)
        if not ready:
            problems.append(f"declared DAG has a cycle among {sorted(remaining)}")
            break
        for package in ready:
            del remaining[package]
        for deps in remaining.values():
            deps.difference_update(ready)
    return problems


@register_rule
class Layering(Rule):
    """Flags (a) top-level imports that cross the declared package DAG
    against the arrows and (b) actual module-level import cycles."""

    rule_id = "layering"
    description = (
        "package imports must follow the declared DAG (sim -> net -> "
        "protocols -> exchange/firm -> mgmt/core -> analysis/sweep); "
        "no back-edges, no import cycles"
    )
    requires_project = True

    def check_project(self, project) -> Iterator[Finding]:
        symbols = project.symbols
        module_graph: dict[str, set[str]] = {}
        edge_lines: dict[tuple[str, str], int] = {}
        for module in sorted(project.modules, key=lambda m: m.relpath):
            out: set[str] = set()
            for edge in symbols.import_edges.get(module.name, ()):
                if edge.type_only:
                    continue
                target = _owning_module(edge.target, symbols.module_names)
                if target is None:
                    continue
                out.add(target)
                edge_lines.setdefault((module.name, target), edge.lineno)
                yield from self._check_layering(module, edge, target)
            module_graph[module.name] = out
        yield from self._check_cycles(project, module_graph, edge_lines)

    def _check_layering(self, module, edge, target_module: str):
        source_pkg = _package_of(module.name)
        target_pkg = _package_of(target_module)
        if source_pkg is None or target_pkg is None or source_pkg == "":
            return  # outside the tree, or the application layer
        if target_pkg == "":
            yield self.finding(
                module,
                edge.lineno,
                f"layering: repro.{source_pkg} imports the application "
                f"module {target_module}; lower layers must not reach up",
            )
            return
        if target_pkg == source_pkg or target_pkg in PACKAGE_DAG[source_pkg]:
            return
        yield self.finding(
            module,
            edge.lineno,
            f"layering: repro.{source_pkg} may not import "
            f"repro.{target_pkg} (allowed: "
            f"{', '.join(sorted(PACKAGE_DAG[source_pkg])) or 'nothing'}); "
            f"move the shared code down or use a function-level import",
        )

    def _check_cycles(self, project, graph, edge_lines):
        """Tarjan SCCs over the module import graph: any component with
        more than one module (or a self-loop) is a genuine cycle."""
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        cycles: list[list[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: recursion would hit limits on deep trees.
            work = [(node, iter(sorted(graph.get(node, ()))))]
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, edges = work[-1]
                advanced = False
                for successor in edges:
                    if successor not in graph:
                        continue
                    if successor not in index:
                        index[successor] = lowlink[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(sorted(graph.get(successor, ()))))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[current] = min(
                            lowlink[current], index[successor]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1 or current in graph.get(current, ()):
                        cycles.append(sorted(component))

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)

        for component in sorted(cycles):
            first = component[0]
            module = project.module_for(first)
            if module is None:
                continue
            # Anchor the finding on the first edge that stays inside the
            # cycle, so the report points at real code.
            line = 0
            for member in component:
                for target in sorted(graph.get(member, ())):
                    if target in component:
                        line = edge_lines.get((member, target), 0)
                        module = project.module_for(member) or module
                        break
                if line:
                    break
            yield self.finding(
                module,
                line,
                "import cycle: " + " <-> ".join(component),
            )
