"""Layering rules over the ``repro.*`` import graph.

``LAY-UPWARD`` enforces the package layer map
(:data:`repro.staticcheck.imports.PACKAGE_LAYERS`, mirroring the
DESIGN.md §1 inventory): a module may import its own layer or below at
module-import time, never above.  Deferred (function-body) imports and
``if TYPE_CHECKING:`` imports are exempt — they are the sanctioned
escape hatch for top-layer glue.

``LAY-CYCLE`` reports strongly connected components of the
module-level runtime import graph; every cycle is reported once,
anchored at its alphabetically first member, listing the full loop.

``LAY-KERNEL`` seals the curve-kernel boundary: only the ``curves``
package itself may import the block-representation modules —
:mod:`repro.curves.kernels` (the deferred kernel), its compiled loops
(``repro.curves._deferred``) and their loader
(:mod:`repro.curves.native`), and :mod:`repro.curves.backend_python`.  Engine layers (``core``,
``routing``, ``service``, ``pipeline``) must go through
:mod:`repro.curves.contract` (``get_kernel``, ``KernelLibrary``, …).
Unlike ``LAY-UPWARD``, deferred imports are *not* exempt — reaching
into block internals from a function body is still a boundary breach;
only erased ``TYPE_CHECKING`` imports pass.

All three are phase-2 passes: they consume the resolved edge list the
merged :class:`~repro.staticcheck.facts.ProjectFacts` derives from the
per-file raw imports.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.staticcheck.engine import Finding, ProjectRule, register
from repro.staticcheck.facts import ProjectFacts
from repro.staticcheck.imports import (
    build_graph,
    find_cycles,
    layer_of,
    package_of,
)


@register
class UpwardImportRule(ProjectRule):
    id = "LAY-UPWARD"
    title = "lower layer importing a higher layer"

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        findings: List[Finding] = []
        for edge in project.edges():
            if not edge.runtime:
                continue
            source_layer = layer_of(edge.source)
            target_layer = layer_of(edge.target)
            if target_layer > source_layer:
                findings.append(Finding(
                    path=edge.path, line=edge.line, col=0,
                    rule_id=self.id,
                    message=(
                        f"{edge.source} (layer {source_layer}, package "
                        f"{package_of(edge.source)!r}) imports "
                        f"{edge.target} (layer {target_layer}, package "
                        f"{package_of(edge.target)!r}): lower layers "
                        f"must not import higher ones — move the shared "
                        f"symbol down or defer the import into the "
                        f"using function")))
        return findings


#: Modules that hold the curve block representation.  Importing any of
#: these from outside ``repro.curves`` bypasses the kernel contract.
KERNEL_MODULES = frozenset({
    "repro.curves.kernels",
    "repro.curves._deferred",
    "repro.curves.native",
    "repro.curves.backend_python",
})

#: Packages that must stay backend-blind: everything engine-side that
#: consumes curves.  Tool-layer packages (``bench``, ``staticcheck``)
#: may introspect backends; the engine may not.
KERNEL_SEALED_PACKAGES = frozenset({
    "core", "routing", "service", "pipeline",
})


@register
class KernelBoundaryRule(ProjectRule):
    id = "LAY-KERNEL"
    title = "engine layer importing curve-kernel internals"

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        findings: List[Finding] = []
        for edge in project.edges():
            if edge.type_only or edge.target not in KERNEL_MODULES:
                continue
            if package_of(edge.source) not in KERNEL_SEALED_PACKAGES:
                continue
            findings.append(Finding(
                path=edge.path, line=edge.line, col=0, rule_id=self.id,
                message=(
                    f"{edge.source} imports {edge.target}: engine layers "
                    f"must stay backend-blind — import "
                    f"repro.curves.contract (get_kernel, "
                    f"KernelLibrary, ...) so curve block internals "
                    f"remain swappable")))
        return findings


@register
class ImportCycleRule(ProjectRule):
    id = "LAY-CYCLE"
    title = "module-level import cycle"

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        findings: List[Finding] = []
        edges = [e for e in project.edges() if e.runtime]
        graph = build_graph(edges)
        paths = {facts.module: facts.path for facts in project.files
                 if facts.module}
        for cycle in find_cycles(graph):
            # Point at the anchor's first edge into the cycle, when the
            # anchor was among the checked files.
            line = 1
            path = paths.get(cycle[0], cycle[0])
            members = set(cycle)
            if cycle[0] in paths:
                for edge in edges:
                    if edge.source == cycle[0] and edge.target in members:
                        line = edge.line
                        break
            loop = " -> ".join(cycle + [cycle[0]])
            findings.append(Finding(
                path=path, line=line, col=0, rule_id=self.id,
                message=(f"import cycle at module import time: {loop} — "
                         f"break it by moving a symbol down a layer or "
                         f"deferring one import into a function")))
        return findings
