"""Import-graph builder for the layering and cycle rules.

Builds a *module-level* directed graph of ``repro.*`` imports.  Each
edge records where it came from and whether it is

* **lazy** — the import statement sits inside a function body, so it
  executes at call time, not at module import time; lazy edges are the
  sanctioned escape hatch for top-layer glue (the CLI's deferred
  subcommand imports) and are excluded from both layer and cycle
  enforcement, and
* **type-only** — inside an ``if TYPE_CHECKING:`` block, erased at
  runtime, likewise excluded.

Collection and resolution are split: phase 1 records unresolved
:class:`~repro.staticcheck.facts.RawImport` statements per file
(context-free), and this module resolves them against the run's *known
module set* in phase 2 — ``from repro.curves import kernels`` depends
on the submodule ``repro.curves.kernels`` when one exists in the run,
else on the package ``__init__`` that re-exports the name.

The layer map mirrors the package DAG documented in DESIGN.md §1; a
package may import its own layer or below, never above.  New top-level
packages default to the tool layer (high) so the analyzer fails open
for *their* imports while still protecting the engine packages from
importing them upward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.staticcheck.facts import ProjectFacts, RawImport

#: Layer ranks of the top-level components of ``repro``.  An import
#: from rank r to rank r' is legal iff r' <= r.  Kept in one place so
#: the DESIGN.md layering table and the enforcement cannot drift apart.
PACKAGE_LAYERS: Dict[str, int] = {
    # foundation: pure data/math, no repro imports above their layer
    "units": 0, "geometry": 0, "instrument": 0,
    # physical/problem model; resilience sits here too — its taxonomy/
    # budget/fault primitives are imported by the model and the engine
    # (the degradation ladder reaches upward only through lazy imports)
    "net": 1, "tech": 1, "resilience": 1,
    # solution-space primitives
    "curves": 2, "orders": 2,
    # tree IR and evaluation
    "routing": 3,
    # the MERLIN engine
    "core": 4,
    # engine consumers: baselines, outer-loop parallel drivers, metrics
    "baselines": 5, "parallel": 5, "analysis": 5,
    # circuit substrate (drives per-net flows over a netlist)
    "netlist": 6,
    # experiment harnesses, the long-running service, and the
    # full-netlist timing-closure pipeline that drives the service;
    # the serving tier (async front end) and the typed API
    # client sit beside the service they front
    "experiments": 7, "service": 7, "pipeline": 7, "serve": 7,
    "client": 7,
    # developer tooling (imports nothing from repro at runtime)
    "staticcheck": 8,
    # public facade, benchmark driver, and the serving load harness
    # (drives servers through the client, reuses bench calibration)
    "api": 8, "bench": 8, "loadgen": 8,
    # entry points; the root package __init__ re-exports the facade
    "cli": 9, "__main__": 9, "repro": 9,
}

#: Rank given to top-level packages missing from the map: treat them as
#: tooling-layer so established low layers cannot silently import them.
DEFAULT_LAYER = 8


@dataclass(frozen=True)
class ImportEdge:
    """One ``repro.*`` import statement, resolved to a target module."""

    source: str        # dotted module doing the importing
    target: str        # dotted module (or package __init__) imported
    path: str          # file of the source module
    line: int
    lazy: bool         # inside a function body (deferred import)
    type_only: bool    # inside an `if TYPE_CHECKING:` block

    @property
    def runtime(self) -> bool:
        """True when the edge executes at module import time."""
        return not self.lazy and not self.type_only


def package_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def layer_of(module: str) -> int:
    return PACKAGE_LAYERS.get(package_of(module), DEFAULT_LAYER)


def _from_targets(raw: RawImport, source_module: str,
                  known: Set[str]) -> List[str]:
    """Targets of a ``from X import a, b`` statement.

    Relative imports resolve against the source module's location; one
    level strips the module's own name, further levels strip enclosing
    packages.
    """
    if raw.level:
        parts = source_module.split(".")
        base_parts = parts[:-raw.level] if raw.level < len(parts) else []
        base = ".".join(base_parts)
        prefix = f"{base}.{raw.module}" if raw.module else base
    else:
        prefix = raw.module
    if not prefix or not (prefix == "repro" or prefix.startswith("repro.")):
        return []
    targets: List[str] = []
    for name in raw.names:
        candidate = f"{prefix}.{name}"
        targets.append(candidate if candidate in known else prefix)
    return targets


def edges_from_raw(raw_imports: Iterable[RawImport], source_module: str,
                   path: str, known: Set[str]) -> List[ImportEdge]:
    """Resolve one file's raw imports against the known module set."""
    edges: List[ImportEdge] = []
    for raw in raw_imports:
        if raw.kind == "import":
            name = raw.module
            if name == "repro" or name.startswith("repro."):
                edges.append(ImportEdge(
                    source=source_module, target=name, path=path,
                    line=raw.line, lazy=raw.lazy,
                    type_only=raw.type_only))
        else:
            for target in _from_targets(raw, source_module, known):
                edges.append(ImportEdge(
                    source=source_module, target=target, path=path,
                    line=raw.line, lazy=raw.lazy,
                    type_only=raw.type_only))
    edges.sort(key=lambda e: (e.line, e.target))
    return edges


def resolve_project_edges(project: ProjectFacts) -> List[ImportEdge]:
    """Phase-2 resolution: every edge in the merged fact base."""
    known = set(project.known_modules)
    edges: List[ImportEdge] = []
    for facts in project.files:
        if facts.module is None:
            continue
        edges.extend(edges_from_raw(facts.imports, facts.module,
                                    facts.path, known))
    return edges


def build_graph(edges: Iterable[ImportEdge],
                runtime_only: bool = True) -> Dict[str, Set[str]]:
    """Adjacency map ``source module -> set(target modules)``."""
    graph: Dict[str, Set[str]] = {}
    for edge in edges:
        if runtime_only and not edge.runtime:
            continue
        graph.setdefault(edge.source, set()).add(edge.target)
        graph.setdefault(edge.target, set())
    return graph


def find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components with more than one node (plus
    self-loops), each rotated to start at its smallest module name so
    reports are deterministic."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    cycles: List[List[str]] = []

    def strongconnect(root: str) -> None:
        # Iterative Tarjan: (node, iterator state) to survive deep graphs.
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbors = work[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor not in index:
                    index[neighbor] = lowlink[neighbor] = counter[0]
                    counter[0] += 1
                    stack.append(neighbor)
                    on_stack.add(neighbor)
                    work.append((neighbor, iter(sorted(graph.get(neighbor,
                                                                 ())))))
                    advanced = True
                    break
                if neighbor in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    smallest = min(component)
                    pivot = component.index(smallest)
                    cycles.append(component[pivot:] + component[:pivot])

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    cycles.sort()
    return cycles
