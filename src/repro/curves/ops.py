"""Curve-level operations: wire extension, joining, buffering.

These three combinators are the only ways solutions grow during the dynamic
programs; each one updates the ``(load, required_time, area)`` triple per
the delay model and records the matching traceback detail:

* :func:`extend_curve` — run a wire from the curve's root to a new root
  (the ``d(p, p') + S(e, p', i, j)`` term of the *PTREE recursion).
* :func:`join_curves` — merge two sub-structures at a shared root (the
  ``S(e', p, i, u) + S(e'', p, u+1, j)`` term).
* :func:`buffered_options` — optionally drive a structure with each library
  buffer (the ``*`` of *P_Tree: buffers on Steiner points).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.curves.solution import Buffered, Extend, Join, Solution
from repro.geometry.point import Point
from repro.tech.buffer import Buffer
from repro.tech.technology import Technology


def extend_solution(solution: Solution, new_root: Point,
                    tech: Technology, width: float = 1.0) -> Solution:
    """Return ``solution`` re-rooted at ``new_root`` via a connecting wire.

    The wire length is the Manhattan distance between the roots; its
    capacitance adds to the load and its Elmore delay (seen by the far end)
    subtracts from the required time.  Extending to the same point is the
    identity.

    ``width`` applies first-order wire sizing: resistance scales by
    ``1/width`` and capacitance by ``width``.
    """
    if width <= 0:
        raise ValueError("wire width must be positive")
    length = solution.root.manhattan_to(new_root)
    if length == 0:
        return solution
    cap = tech.wire_cap(length) * width
    res = tech.wire.resistance(length) / width
    delay = res * (0.5 * cap + solution.load)
    return Solution(
        root=new_root,
        load=solution.load + cap,
        required_time=solution.required_time - delay,
        area=solution.area,
        detail=Extend(child=solution, length=length, width=width),
    )


def extend_curve(solutions: Iterable[Solution], new_root: Point,
                 tech: Technology) -> Iterator[Solution]:
    """Extend every solution to ``new_root`` (lazy)."""
    for solution in solutions:
        yield extend_solution(solution, new_root, tech)


def join_solutions(left: Solution, right: Solution) -> Solution:
    """Merge two structures rooted at the same point.

    Loads and areas add; the required time is the minimum of the two
    branches (the root must satisfy both subtrees).
    """
    if left.root != right.root:
        raise ValueError(
            f"cannot join solutions rooted at {left.root} and {right.root}")
    return Solution(
        root=left.root,
        load=left.load + right.load,
        required_time=min(left.required_time, right.required_time),
        area=left.area + right.area,
        detail=Join(left=left, right=right),
    )


def join_curves(lefts: Iterable[Solution], rights: Iterable[Solution]
                ) -> Iterator[Solution]:
    """Cross-product join of two solution sets at a shared root (lazy)."""
    rights_list = list(rights)
    for left in lefts:
        for right in rights_list:
            yield join_solutions(left, right)


def buffer_solution(solution: Solution, buffer: Buffer,
                    tech: Technology) -> Solution:
    """Place ``buffer`` at the root of ``solution``.

    The structure's load collapses to the buffer's input capacitance — this
    decoupling is exactly why buffer insertion helps — at the cost of the
    buffer's delay and area.
    """
    return Solution(
        root=solution.root,
        load=buffer.input_cap,
        required_time=solution.required_time - tech.buffer_delay(buffer, solution.load),
        area=solution.area + buffer.area,
        detail=Buffered(child=solution, buffer=buffer),
    )


def buffered_options(solution: Solution, tech: Technology,
                     include_unbuffered: bool = True) -> List[Solution]:
    """Return ``solution`` driven by each library buffer (plus itself).

    A buffer only pays off when it reduces load or improves required time,
    but the decision is deferred to curve pruning: all options are emitted
    and Definition 6 sorts them out.
    """
    options = [solution] if include_unbuffered else []
    options.extend(buffer_solution(solution, b, tech) for b in tech.buffers)
    return options
