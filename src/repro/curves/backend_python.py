"""Pure-python curve kernel: scalar loops over :class:`SolutionCurve`.

The dependency-free reference backend.  Live curves are
:class:`~repro.curves.curve.SolutionCurve` (bucket maps of materialized
:class:`~repro.curves.solution.Solution` objects), frozen blocks are
plain solution lists, and every operation is the direct scalar loop —
candidate attribute triples are computed arithmetically and a Solution
is constructed only after :meth:`SolutionCurve.accept_key` admits the
triple.  The Li & Shi shadow table (see
:class:`repro.curves.contract.KernelLibrary`) additionally skips buffer
offers an earlier same-bucket offer already proved rejectable, before
any key is built.

These loops were the bodies of ``PTreeContext.join_into`` /
``_buffer_all`` / ``_relocate`` before the kernel boundary existed;
they moved here verbatim (plus the shadow skips) so the engine layer is
backend-blind.  The deferred (``"numpy"``) backend must match this one
bit-for-bit — the golden suites and ``bench check_suite`` hold both to
it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.curves.contract import CurveKernel, KernelLibrary
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Buffered, Extend, Join, Solution
from repro.geometry.point import Point


class PythonKernel(CurveKernel):
    """Scalar reference implementation of the kernel contract."""

    def new_curve(self, root: Point, config: CurveConfig) -> SolutionCurve:
        return SolutionCurve(root, config)

    def join(self, curve: SolutionCurve, lefts, rights) -> None:
        accept_key = curve.accept_key
        add_keyed = curve.add_keyed
        root = curve.root
        for a in lefts:
            a_load = a.load
            a_req = a.required_time
            a_area = a.area
            for b in rights:
                load = a_load + b.load
                req = a_req if a_req < b.required_time else b.required_time
                area = a_area + b.area
                key = accept_key(load, req, area)
                if key is not None:
                    add_keyed(key, Solution(root, load, req, area,
                                            Join(a, b)))

    def add_buffer(self, curve: SolutionCurve, library: KernelLibrary,
                   sources=None) -> int:
        if sources is None:
            sources = list(curve)
        buffer_params = library.params
        if not buffer_params:
            return 0
        cap_keys = library.cap_keys
        add_keyed = curve.add_keyed
        root = curve.root
        inv_area = curve._inv_area
        if not library.has_shadows:
            # No two buffers share a load bucket — the shadow skip can
            # never fire, so run the lean loop without its bookkeeping.
            pairs = list(zip(cap_keys, buffer_params))
            for s in sources:
                load = s.load
                req = s.required_time
                area = s.area
                for ck, (buffer, input_cap, buf_area, d0, slope) in pairs:
                    new_req = req - d0 - slope * load
                    new_area = area + buf_area
                    key = (ck, round(new_area * inv_area))
                    incumbent = curve._by_bucket.get(key)
                    if incumbent is None \
                            or incumbent.required_time < new_req:
                        add_keyed(key, Solution(
                            root, input_cap, new_req, new_area,
                            Buffered(s, buffer)))
            return 0
        shadows = library.shadows
        m = len(buffer_params)
        reqs_j = [0.0] * m
        akeys_j = [0] * m
        skipped = 0
        for s in sources:
            load = s.load
            req = s.required_time
            area = s.area
            for bj, (buffer, input_cap, buf_area, d0,
                     slope) in enumerate(buffer_params):
                new_req = req - d0 - slope * load
                new_area = area + buf_area
                akey = round(new_area * inv_area)
                reqs_j[bj] = new_req
                akeys_j[bj] = akey
                hit = False
                for pi in shadows[bj]:
                    if akeys_j[pi] == akey and reqs_j[pi] >= new_req:
                        hit = True
                        break
                if hit:
                    # An earlier offer landed the same bucket with a
                    # required time >= this one, so the bucket incumbent
                    # already does — the map would reject this offer.
                    skipped += 1
                    continue
                key = (cap_keys[bj], akey)
                incumbent = curve._by_bucket.get(key)
                if incumbent is None or incumbent.required_time < new_req:
                    add_keyed(key, Solution(root, input_cap, new_req,
                                            new_area, Buffered(s, buffer)))
        return skipped

    def relocate_round(self, curves: Sequence[SolutionCurve],
                       targets: Sequence[int], geom,
                       library: KernelLibrary) -> bool:
        buffer_params = library.params
        wire_res = geom.wire_res
        wire_cap = geom.wire_cap
        candidates = geom.candidates
        wire_widths = geom.wire_widths
        snapshots = [list(curve) for curve in curves]
        changed = False
        for to_idx in targets:
            curve = curves[to_idx]
            root = curve.root
            accept_key = curve.accept_key
            add_keyed = curve.add_keyed
            for frm_idx, snapshot in enumerate(snapshots):
                if frm_idx == to_idx or not snapshot:
                    continue
                base_res = wire_res[frm_idx][to_idx]
                base_cap = wire_cap[frm_idx][to_idx]
                length = candidates[frm_idx].manhattan_to(root)
                for wire_width in wire_widths:
                    res = base_res / wire_width
                    cap = base_cap * wire_width
                    half_self = 0.5 * cap
                    for s in snapshot:
                        load = s.load + cap
                        req = s.required_time - res * (half_self + s.load)
                        area = s.area
                        moved: Optional[Solution] = None
                        key = accept_key(load, req, area)
                        if key is not None:
                            moved = Solution(
                                root, load, req, area,
                                Extend(s, length, wire_width))
                            add_keyed(key, moved)
                            changed = True
                        for (buffer, input_cap, buf_area, d0,
                             slope) in buffer_params:
                            b_req = req - d0 - slope * load
                            b_area = area + buf_area
                            b_key = accept_key(input_cap, b_req, b_area)
                            if b_key is not None:
                                if moved is None:
                                    moved = Solution(
                                        root, load, req, area,
                                        Extend(s, length, wire_width))
                                add_keyed(b_key, Solution(
                                    root, input_cap, b_req, b_area,
                                    Buffered(moved, buffer)))
                                changed = True
        return changed

    def freeze(self, curve: SolutionCurve,
               memo: Optional[dict] = None) -> List[Solution]:
        return curve.solutions

    def thaw(self, curve: SolutionCurve) -> SolutionCurve:
        return curve
