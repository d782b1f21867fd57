"""Cα_Tree grouping structures and local order-perturbation (bubbling).

This module implements the combinatorial skeleton of BUBBLE_CONSTRUCT:

* ``STRETCH`` (Figure 10) — how many extra order positions a grouping
  structure's span occupies beyond its sink count.
* :class:`Group` / :func:`make_group` — a sub-group of sinks identified by
  its rightmost span position ``r``, its sink count ``size`` and its
  grouping structure ``e`` ∈ {χ0, χ1, χ2, χ3}; the member positions follow
  ``SINK_SET`` (Figure 13): a χ1 group leaves a *bubble* (hole) just inside
  its right border, χ2 just inside its left border, χ3 both.
* :func:`level_plan` — given a parent group Ω and a nested child group ω,
  the effective leaf order of the parent's *PTREE level: the child collapses
  to one virtual leaf, and each of the child's bubbled-out sinks is placed
  on the far side of the corresponding border (*Bubble Out*, Figure 5),
  which is exactly how the final sink order deviates from the initial one
  while staying inside the neighborhood N(Π) (Lemmas 5 and 6).

All positions are 0-based order positions; sink identity is resolved
against an :class:`~repro.orders.order.Order` by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: The four abstract grouping structures of Figure 6.
CHI_CODES: Tuple[int, ...] = (0, 1, 2, 3)


def stretch(e: int) -> int:
    """Figure 10: extra span length of grouping structure ``e``."""
    if e == 0:
        return 0
    if e in (1, 2):
        return 1
    if e == 3:
        return 2
    raise ValueError(f"unknown grouping structure code: {e}")


@dataclass(frozen=True)
class Group:
    """A sub-group of sinks occupying order positions ``[span_left, r]``.

    ``size`` sinks live in a span of ``size + stretch(e)`` consecutive
    positions; the non-member positions are the *holes* (bubbles).
    """

    r: int
    size: int
    e: int

    @property
    def span_length(self) -> int:
        return self.size + stretch(self.e)

    @property
    def span_left(self) -> int:
        return self.r - self.span_length + 1

    @property
    def left_hole(self) -> Optional[int]:
        """Position of the left-border bubble (χ2/χ3), else None."""
        return self.span_left + 1 if self.e in (2, 3) else None

    @property
    def right_hole(self) -> Optional[int]:
        """Position of the right-border bubble (χ1/χ3), else None."""
        return self.r - 1 if self.e in (1, 3) else None

    @property
    def member_positions(self) -> Tuple[int, ...]:
        """SINK_SET (Figure 13): the span minus the holes, ascending."""
        holes = {self.left_hole, self.right_hole}
        return tuple(q for q in range(self.span_left, self.r + 1)
                     if q not in holes)


def make_group(r: int, size: int, e: int, n: int) -> Optional[Group]:
    """Build a group, or return None when the combination is invalid.

    Invalid combinations: span outside ``[0, n)``; χ3 with a single sink
    (its two holes would collide — the paper's L=1 "all structures are the
    same" degeneracy); holes that collide for any other reason.
    """
    if size < 1 or not 0 <= r < n:
        return None
    if e not in CHI_CODES:
        raise ValueError(f"unknown grouping structure code: {e}")
    if e == 3 and size < 2:
        return None
    group = Group(r=r, size=size, e=e)
    if group.span_left < 0:
        return None
    return group


@dataclass(frozen=True)
class LevelPlan:
    """The effective leaf order of one *PTREE level.

    ``leaves`` is the ordered leaf list: each entry is either
    ``("sink", position)`` for a sink routed directly at this level, or
    ``("group", None)`` for the nested child group's virtual leaf.  The
    bubbled-out sinks of the child appear as ordinary sink leaves placed on
    the far side of the child's border.
    """

    leaves: Tuple[Tuple[str, Optional[int]], ...]

    @property
    def sink_positions(self) -> Tuple[int, ...]:
        return tuple(q for kind, q in self.leaves if kind == "sink")

    @property
    def virtual_index(self) -> int:
        for index, (kind, _) in enumerate(self.leaves):
            if kind == "group":
                return index
        raise ValueError("level plan has no virtual leaf")


def level_plan(parent: Group, child: Group) -> Optional[LevelPlan]:
    """Return the parent level's leaf order, or None when incompatible.

    Compatibility requires the child's span to lie inside the parent's and
    every child member to be a parent member (line 15 of the pseudo-code:
    skip when ``g - G != ∅``).  A child hole that is *also* a parent hole
    simply bubbles out one more level and is not routed here.
    """
    if child.span_left < parent.span_left or child.r > parent.r:
        return None
    if child.size >= parent.size:
        return None
    parent_members = set(parent.member_positions)
    child_members = set(child.member_positions)
    if not child_members <= parent_members:
        return None

    before = [q for q in parent.member_positions if q < child.span_left]
    after = [q for q in parent.member_positions if q > child.r]
    leaves: List[Tuple[str, Optional[int]]] = [("sink", q) for q in before]
    left_hole = child.left_hole
    if left_hole is not None and left_hole in parent_members:
        leaves.append(("sink", left_hole))
    leaves.append(("group", None))
    right_hole = child.right_hole
    if right_hole is not None and right_hole in parent_members:
        leaves.append(("sink", right_hole))
    leaves.extend(("sink", q) for q in after)

    # Every parent member inside the child's span must be accounted for —
    # either a child member or one of the child's holes; anything else
    # means the structures overlap illegally (Figure 12).
    inside = {q for q in parent_members
              if child.span_left <= q <= child.r}
    accounted = child_members | {q for q in (left_hole, right_hole)
                                 if q is not None}
    if not inside <= accounted:
        return None
    return LevelPlan(leaves=tuple(leaves))


def enumerate_groups(n: int, size: int,
                     enable_bubbling: bool = True) -> List[Group]:
    """All valid groups of ``size`` sinks over ``n`` order positions."""
    codes = CHI_CODES if enable_bubbling else (0,)
    groups: List[Group] = []
    for e in codes:
        for r in range(n):
            group = make_group(r, size, e, n)
            if group is not None:
                groups.append(group)
    return groups


def child_sizes(parent_size: int, alpha: int) -> range:
    """Valid child sink counts for a parent of ``parent_size`` sinks.

    The level's fanout is (parent_size - child_size) new sinks plus the
    child's virtual leaf, which must not exceed α (third Cα_Tree property,
    line 10 of the pseudo-code: ``l ≥ L - α + 1``).
    """
    low = max(1, parent_size - alpha + 1)
    return range(low, parent_size)
