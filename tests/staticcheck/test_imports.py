"""Import-graph builder: resolution, exemptions, layers, cycles."""

import ast
import os

from repro.staticcheck.engine import parse_module
from repro.staticcheck.facts import collect_raw_imports
from repro.staticcheck.imports import (
    PACKAGE_LAYERS,
    build_graph,
    edges_from_raw,
    find_cycles,
    layer_of,
    package_of,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def edges_of(source, module="repro.core.example", known=()):
    return edges_from_raw(collect_raw_imports(ast.parse(source)), module,
                          "x.py", set(known))


def test_plain_import_resolves_verbatim():
    (edge,) = edges_of("import repro.curves.kernels\n")
    assert edge.target == "repro.curves.kernels"
    assert edge.runtime


def test_from_import_prefers_known_submodule():
    (edge,) = edges_of("from repro.curves import kernels\n",
                       known={"repro.curves.kernels"})
    assert edge.target == "repro.curves.kernels"


def test_from_import_falls_back_to_package_init():
    (edge,) = edges_of("from repro.curves import SolutionCurve\n")
    assert edge.target == "repro.curves"


def test_from_repro_import_resolves_top_level_module():
    (edge,) = edges_of("from repro import parallel\n",
                       known={"repro.parallel"})
    assert edge.target == "repro.parallel"


def test_relative_import_resolves_against_source():
    (edge,) = edges_of("from . import objective\n",
                       module="repro.core.merlin",
                       known={"repro.core.objective"})
    assert edge.target == "repro.core.objective"


def test_function_body_import_is_lazy():
    (edge,) = edges_of("def go():\n    from repro import parallel\n",
                       known={"repro.parallel"})
    assert edge.lazy and not edge.runtime


def test_type_checking_import_is_type_only():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from repro.service.engine import OptimizationService\n")
    (edge,) = edges_of(source)
    assert edge.type_only and not edge.runtime


def test_non_repro_imports_are_ignored():
    assert edges_of("import os\nfrom typing import List\n") == []


def test_layer_map_covers_every_shipped_component():
    components = set()
    for entry in sorted(os.listdir(SRC_REPRO)):
        if entry == "__pycache__":
            continue
        path = os.path.join(SRC_REPRO, entry)
        if os.path.isdir(path):
            components.add(entry)
        elif entry.endswith(".py") and entry != "__init__.py":
            components.add(entry[:-3])
    missing = components - set(PACKAGE_LAYERS)
    assert not missing, (
        f"top-level components missing from PACKAGE_LAYERS: {missing} — "
        f"add them to repro.staticcheck.imports.PACKAGE_LAYERS (and the "
        f"DESIGN.md layering table)")


def test_engine_packages_sit_below_the_service_stack():
    for low in ("core", "curves", "geometry", "tech"):
        for high in ("service", "cli", "api", "bench"):
            assert layer_of(f"repro.{low}.x") < layer_of(f"repro.{high}.x")


def test_package_of_top_level_module():
    assert package_of("repro.parallel") == "parallel"
    assert package_of("repro") == "repro"


def test_shipped_tree_has_no_runtime_cycles():
    modules = []
    for dirpath, dirnames, filenames in os.walk(SRC_REPRO):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                modules.append(parse_module(os.path.join(dirpath, name)))
    known = {m.module for m in modules}
    edges = [edge for m in modules
             for edge in edges_from_raw(collect_raw_imports(m.tree),
                                        m.module, m.path, known)]
    graph = build_graph(edges)
    assert find_cycles(graph) == []


def test_find_cycles_reports_each_scc_once():
    graph = {
        "a": {"b"}, "b": {"c"}, "c": {"a"},   # 3-cycle
        "d": {"d"},                            # self-loop
        "e": {"a"},                            # feeder, not in a cycle
    }
    cycles = find_cycles(graph)
    assert [c[0] for c in cycles] == ["a", "d"]
    assert set(cycles[0]) == {"a", "b", "c"}
