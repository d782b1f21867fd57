"""Registry-contract rules: string-keyed registries must stay closed.

The reproduction wires subsystems together through string keys — fault
sites (``fault_point("serve.admission")`` matched by ``MERLIN_FAULTS``
globs and ``FaultSpec``s), instrument metric names
(:mod:`repro.instrument.names`), and the ordering registry
(``@register_ordering`` looked up by ``get_ordering``).  A typo on
either side fails silently: the fault never fires, the metric is never
charted, the lookup raises at runtime.  These phase-2 passes
cross-check definition and use sites over the merged fact base.

Every pass gates on its definition side being *present in the run* —
a narrowed run (one file, one package) that cannot see the registry
stays silent rather than flagging everything as unknown.

``REG-UNKNOWN-SITE`` — a ``FaultSpec(site=...)`` or fault-plan
``{"site": ...}`` literal (globs allowed) that matches no
``fault_point(...)`` site defined anywhere in the run.

``REG-DEAD-METRIC`` — a catalogued metric constant that is emitted but
never read (by analysis/tests), read/asserted but never emitted, or
referenced by nothing at all.  Runs only when both the catalogue
module and at least one out-of-tree file (tests) are in the run, so
``src``-only invocations do not flag metrics whose readers live in the
test suite.

``REG-DANGLING-KEY`` — a literal ordering lookup key with no matching
registration in the run.
"""

from __future__ import annotations

import fnmatch
from typing import Dict, Iterable, List, Set, Tuple

from repro.staticcheck.engine import Finding, ProjectRule, register
from repro.staticcheck.facts import (
    METRIC_NAMES_MODULE,
    ProjectFacts,
)

_GLOB_CHARS = ("*", "?", "[")


@register
class UnknownFaultSiteRule(ProjectRule):
    id = "REG-UNKNOWN-SITE"
    title = "fault spec references a nonexistent fault site"

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        sites: Set[str] = set()
        dynamic = 0
        for facts in project.files:
            sites.update(site for site, _ in facts.fault_sites)
            dynamic += facts.dynamic_fault_sites
        if not sites or dynamic:
            # No definition side in this run, or dynamically named
            # sites make the known set open-ended: stay silent.
            return ()
        findings: List[Finding] = []
        for facts in project.files:
            for ref, line in facts.fault_refs:
                if any(ch in ref for ch in _GLOB_CHARS):
                    matched = any(fnmatch.fnmatch(site, ref)
                                  for site in sites)
                else:
                    matched = ref in sites
                if not matched:
                    findings.append(Finding(
                        path=facts.path, line=line, col=0,
                        rule_id=self.id,
                        message=(f"fault site {ref!r} matches no "
                                 f"fault_point(...) site in the "
                                 f"checked tree — the injection can "
                                 f"never fire (known sites: "
                                 f"{', '.join(sorted(sites))})")))
        findings.sort()
        return findings


@register
class DeadMetricRule(ProjectRule):
    id = "REG-DEAD-METRIC"
    title = "instrument metric emitted but never read, or vice versa"

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        catalogue: List[Tuple[str, str, int, str]] = []  # const, value, line, path
        names_in_run = False
        out_of_tree = False
        for facts in project.files:
            if facts.module == METRIC_NAMES_MODULE and facts.metric_defs:
                names_in_run = True
                for const, value, line in facts.metric_defs:
                    catalogue.append((const, value, line, facts.path))
            if facts.package is None:
                out_of_tree = True
        if not names_in_run or not out_of_tree:
            # Without the catalogue there is nothing to judge; without
            # the test suite in the run, "never read" is unknowable.
            return ()

        emitted: Set[str] = set()   # const names
        read: Set[str] = set()
        literal_uses: Dict[str, int] = {}
        for facts in project.files:
            if facts.module == METRIC_NAMES_MODULE:
                continue
            for const, _line, is_emit in facts.metric_refs:
                (emitted if is_emit else read).add(const)
            read.update(facts.metric_imports)
            for value, _line in facts.metric_literal_emits:
                literal_uses[value] = literal_uses.get(value, 0) + 1
            for value in facts.string_literals:
                literal_uses[value] = literal_uses.get(value, 0) + 1

        findings: List[Finding] = []
        for const, value, line, path in sorted(catalogue):
            is_emitted = const in emitted
            is_read = const in read or literal_uses.get(value, 0) > 0
            if is_emitted and is_read:
                continue
            if is_emitted:
                detail = ("is emitted but never read by analysis or "
                          "tests — chart it or drop the "
                          "instrumentation")
            elif is_read:
                detail = ("is read/asserted but never emitted — the "
                          "reader can only ever see an absent key")
            else:
                detail = ("is referenced by nothing — remove the dead "
                          "constant or wire it up")
            findings.append(Finding(
                path=path, line=line, col=0, rule_id=self.id,
                message=f"metric {const} ({value!r}) {detail}"))
        findings.sort()
        return findings


@register
class DanglingRegistryKeyRule(ProjectRule):
    id = "REG-DANGLING-KEY"
    title = "registry lookup with no matching registration"

    def check_project(self, project: ProjectFacts) -> Iterable[Finding]:
        defs: Dict[str, Set[str]] = {}
        for facts in project.files:
            for kind, name, _line in facts.registry_defs:
                defs.setdefault(kind, set()).add(name)
        findings: List[Finding] = []
        for facts in project.files:
            for kind, name, line in facts.registry_refs:
                known = defs.get(kind)
                if not known:
                    continue  # definition side absent from this run
                if name in known:
                    continue
                findings.append(Finding(
                    path=facts.path, line=line, col=0, rule_id=self.id,
                    message=(f"{kind} lookup {name!r} has no matching "
                             f"registration in the checked tree "
                             f"(registered: {', '.join(sorted(known))}) "
                             f"— the lookup raises at runtime")))
        findings.sort()
        return findings
