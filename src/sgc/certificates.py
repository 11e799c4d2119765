"""Tight cycles and refinement of circular colorings.

A coloring at the exact chi_c admits a "tight cycle": a directed closed
walk whose every step advances the color by exactly 1 (positive edge) or
by exactly 1 relative to the antipode (negative edge).  Counting s positive
and t negative steps around the cycle forces r = 2(s+t)/(2a+t) for an
integer a with 2a + t >= 1, which pins the value to a small rational.

Conversely, a coloring whose tight digraph is acyclic is not optimal:
repeatedly advancing a sink vertex clears all tight steps, after which the
whole coloring can be scaled down to a strictly smaller circumference.
A tight cycle is therefore necessary for optimality, not sufficient: C4
with all edges positive, colored 0, 1, 2, 3 at r = 4, has one, yet its
chi_c is 2.

Points and values are Fractions at the API.  Inside, each call puts the
coloring on one integer grid: the circle of circumference r cut into
R = r*D steps of 1/D, where D is the least common denominator of r/2 and
the colors.  Gaps, tight steps, the turn count a and refinement moves are
then integer arithmetic, and exact; refine doubles the grid when it needs a
half step.  Each edge's gap comes from solver._gaps, the one edge check
that verify_coloring also reads on the p-grid: an edge holds iff
D <= gap <= R - D, as it holds there iff q <= gap <= p - q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .arith import _is_int
from .core import POS, Edge, SignedGraph
from .solver import Coloring, _gaps, _validate_coloring, _validate_pq

__all__ = ["CorruptCertificateError", "NotRefinableError", "RationalColoring",
           "TightCycleCertificate", "TightDigraph", "cert_value", "find_tight_cycle",
           "refine", "tight_digraph", "verify_rational"]

Arc = tuple[int, int, int]  # (from vertex, to vertex, edge index)


class CorruptCertificateError(ValueError):
    """The proposed tight cycle does not certify anything."""


class NotRefinableError(ValueError):
    """The coloring carries a tight cycle, which refine cannot clear."""


@dataclass(frozen=True)
class RationalColoring:
    """An exact circular coloring: points of the circle of circumference r."""

    r: Fraction
    colors: tuple[Fraction, ...]

    def __post_init__(self):
        # Integer cross-products instead of Fraction comparisons: 0 <= x < r
        # iff x's numerator is >= 0 and below r * x's denominator.
        r = self.r
        if not (type(r) is Fraction or isinstance(r, Fraction)) or r.numerator <= 0:
            raise ValueError(f"circumference must be a positive Fraction, got {r!r}")
        r_num, r_den = r.numerator, r.denominator
        colors = tuple(self.colors)  # a caller's list must not change the coloring later
        object.__setattr__(self, "colors", colors)
        for v, x in enumerate(colors):
            if (not (type(x) is Fraction or isinstance(x, Fraction))
                    or x.numerator < 0 or x.numerator * r_den >= r_num * x.denominator):
                raise ValueError(f"vertex {v}: point {x!r} not in [0, {r})")

    @classmethod
    def from_coloring(cls, c: Coloring) -> "RationalColoring":
        _validate_coloring(c)
        return cls(Fraction(c.p, c.q), tuple(Fraction(x, c.q) for x in c.colors))

    def to_coloring(self, p: int, q: int) -> Coloring:
        """Back onto the integer grid {0..p-1}, scaled by q; exact or error.
        p and q must pass solver._validate_pq."""
        _validate_pq(p, q)
        if Fraction(p, q) != self.r:
            raise ValueError(f"{p}/{q} != circumference {self.r}")
        colors = []
        for v, x in enumerate(self.colors):
            scaled = x * q
            if scaled.denominator != 1:
                raise ValueError(f"vertex {v}: {x} is not on the 1/{q} grid")
            colors.append(int(scaled))
        return Coloring(p, q, tuple(colors))


def _grid(c: RationalColoring) -> tuple[int, int, list[int]]:
    """(D, R, X): c on the circle cut into R = r*D steps of 1/D.

    D is the least integer that makes r/2 and every color integral, so
    X[v] = colors[v]*D and the antipodal shift R/2 are whole steps.
    """
    r = c.r
    half_den = r.denominator << (r.numerator & 1)  # the denominator of r/2
    d = lcm(half_den, *(x.denominator for x in c.colors))
    return d, r.numerator * (d // r.denominator), [x.numerator * (d // x.denominator)
                                                  for x in c.colors]


def _edge_gaps(g: SignedGraph, c: RationalColoring
               ) -> Optional[tuple[int, int, list[int], list[int]]]:
    """(D, R, X, gaps): c's grid and one gap per edge of g in edge order
    (solver._gaps, width D), or None when an edge fails."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {g.n} vertices")
    d, big_r, xs = _grid(c)
    gaps = _gaps(g.edges, xs, big_r)
    if gaps and (min(gaps) < d or max(gaps) > big_r - d):
        return None
    return d, big_r, xs, gaps


def _is_arc(arc) -> bool:
    """Whether arc is a triple of ints (bools are no vertex or edge index)."""
    if type(arc) is not tuple or len(arc) != 3:
        return False
    u, v, idx = arc
    return type(u) is type(v) is type(idx) is int or all(map(_is_int, arc))


def _tight_steps(e: Edge, idx: int, gap: int, d: int, big_r: int) -> list[Arc]:
    """The tight steps along edge idx, given its gap (solver._gaps) on the
    grid (D, R): (u, v) when the gap is D, (v, u) when it is R - D."""
    steps = [(e.u, e.v, idx)] if gap == d else []
    if gap == big_r - d and not e.is_loop:
        steps.append((e.v, e.u, idx))
    return steps


def _tight_grid(g: SignedGraph, c: RationalColoring
                ) -> tuple[tuple[int, int, list[int], list[int]], tuple[Arc, ...]]:
    """_edge_gaps(g, c) and every tight step in edge order; rejects
    non-verifying colorings."""
    grid = _edge_gaps(g, c)
    if grid is None:
        raise ValueError("coloring does not verify; tight digraph undefined")
    d, big_r, _, gaps = grid
    top = big_r - d
    return grid, tuple(arc for idx, gap in enumerate(gaps) if gap == d or gap == top
                       for arc in _tight_steps(g.edges[idx], idx, gap, d, big_r))


def verify_rational(g: SignedGraph, c: RationalColoring) -> bool:
    """Check an exact circular coloring against every edge."""
    return _edge_gaps(g, c) is not None


@dataclass(frozen=True)
class TightDigraph:
    """All tight steps of a coloring; arcs carry their originating edge.

    Arcs are triples of ints whose endpoints are vertices 0..n-1; edge
    indices are checked against the graph by cert_value.
    """

    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {self.n!r}")
        arcs = tuple(self.arcs)  # a caller's list must not change the digraph later
        object.__setattr__(self, "arcs", arcs)
        for arc in arcs:
            if not _is_arc(arc):
                raise ValueError(f"arc {arc!r} is not a triple of ints")
            if not (0 <= arc[0] < self.n and 0 <= arc[1] < self.n):
                raise ValueError(f"arc {arc!r} has an endpoint outside 0..{self.n - 1}")


def tight_digraph(g: SignedGraph, c: RationalColoring) -> TightDigraph:
    """The digraph of tight steps; rejects non-verifying colorings."""
    return TightDigraph(g.n, _tight_grid(g, c)[1])


def find_tight_cycle(d: TightDigraph) -> Optional[tuple[Arc, ...]]:
    """First directed cycle in deterministic DFS order, or None.

    Roots are tried in ascending vertex order; out-arcs are explored sorted
    by (target, edge index).  A back-arc closes the reported cycle.
    """
    out: list[list[Arc]] = [[] for _ in range(d.n)]
    for arc in sorted(d.arcs, key=lambda a: (a[1], a[2])):
        out[arc[0]].append(arc)
    color = [0] * d.n  # 0 unseen, 1 on stack, 2 done
    for root in range(d.n):
        if color[root]:
            continue
        path: list[Arc] = []
        start = {root: 0}  # vertex on the stack -> index of its out-arc on path
        iters = [iter(out[root])]
        color[root] = 1
        while iters:
            arc = next(iters[-1], None)
            if arc is None:
                iters.pop()
                color[path.pop()[1] if path else root] = 2
                continue
            y = arc[1]
            if color[y] == 1:
                return tuple(path[start[y]:]) + (arc,)
            if color[y] == 0:
                color[y] = 1
                path.append(arc)
                start[y] = len(path)
                iters.append(iter(out[y]))
    return None


@dataclass(frozen=True)
class TightCycleCertificate:
    """A verified tight cycle with its step counts and certified value.

    s positive steps and t negative steps around a closed tight walk force
    s - (r/2 - 1)t = r*a, where the integer a is the walk's net number of
    turns round the circle (negative when it turns backwards), and
    2a + t >= 1, hence r = 2(s+t)/(2a+t).  The cycle shows why refine cannot
    shrink this coloring; it does not prove that r is the circular
    chromatic number.
    """

    cycle: tuple[Arc, ...]
    s: int
    t: int
    a: int
    r: Fraction


def cert_value(g: SignedGraph, c: RationalColoring, cycle: Sequence[Arc]) -> TightCycleCertificate:
    """Validate a tight cycle and extract the value it certifies.

    Raises CorruptCertificateError when the arcs do not form a closed tight
    walk under c.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise CorruptCertificateError("empty cycle")
    grid = _edge_gaps(g, c)
    if grid is None:
        raise ValueError("coloring does not verify; nothing to certify")
    d, big_r, _, gaps = grid
    t = 0
    for i, arc in enumerate(cycle):
        if not _is_arc(arc):
            raise CorruptCertificateError(f"arc {i}: {arc!r} is not a triple of ints")
        u, v, idx = arc
        if not 0 <= idx < g.m:
            raise CorruptCertificateError(f"arc {i}: no edge {idx}")
        e = g.edges[idx]
        if {u, v} != {e.u, e.v}:
            raise CorruptCertificateError(f"arc {i}: edge {idx} does not join {u} and {v}")
        nxt = cycle[(i + 1) % len(cycle)]
        if v != nxt[0]:
            raise CorruptCertificateError(f"arc {i} ends at {v}, arc {i+1} starts at {nxt[0]}")
        if (gaps[idx] if u == e.u else big_r - gaps[idx]) != d:
            raise CorruptCertificateError(f"arc {i}: step ({u},{v}) is not tight")
        t += e.sign is not POS
    s, r = len(cycle) - t, c.r
    # A tight step moves D or D - R/2 grid steps and the walk closes, so R
    # divides turns, and 2a + t = 2(s+t)D/R is at least 1.
    turns = s * d - (big_r // 2 - d) * t  # R*a, in grid steps
    a = turns // big_r
    certified = Fraction(2 * (s + t), 2 * a + t)
    if certified != r:
        raise RuntimeError("internal error: tight cycle value mismatch")
    return TightCycleCertificate(cycle, s, t, a, certified)


def refine(g: SignedGraph, c: RationalColoring) -> RationalColoring:
    """Strictly improve a coloring that has no tight cycle.

    A tight cycle raises NotRefinableError.  Phase 1 repeatedly picks the
    lowest-index sink that has an incoming tight step and advances its color
    by half its minimum outgoing slack, which removes at least one tight
    step and creates none; only the sides of edges at the moved vertex are
    re-tested; an odd slack first doubles the grid.  Phase 2, with no tight
    steps left, scales everything by 1/(1+eps) where 2*eps is the global
    minimum slack, yielding a verifying coloring at a strictly smaller
    circumference.
    """
    if not g.edges:
        raise ValueError("no edge constraints: refinement undefined")
    (d, big_r, xs, gaps), tight = _tight_grid(g, c)

    # A move changes only the edges at a sink, so the arcs of a tight cycle
    # (a tight loop included) stay and none of its vertices becomes a sink;
    # arcs left with no sink among them always close a cycle.
    arcs = set(tight)
    while arcs:
        sinks = {w for _, w, _ in arcs} - {u for u, _, _ in arcs}
        if not sinks:
            raise NotRefinableError("tight cycle present")
        v = min(sinks)
        at_v = {idx for w, idx in g._adj[v] if w != v}
        slack = min(gaps[idx] if v == g.edges[idx].u else big_r - gaps[idx]
                    for idx in at_v) - d
        if slack <= 0:
            raise RuntimeError("internal error: sink with a tight out-step")
        if slack % 2:  # halve it on a grid twice as fine
            d, big_r, slack = 2 * d, 2 * big_r, 2 * slack
            xs = [2 * x for x in xs]
            gaps = [2 * gap for gap in gaps]
        xs[v] = (xs[v] + slack // 2) % big_r
        for idx, gap in zip(at_v, _gaps([g.edges[idx] for idx in at_v], xs, big_r)):
            gaps[idx] = gap
        new_arcs = {arc for arc in arcs if arc[2] not in at_v}.union(
            *(_tight_steps(g.edges[idx], idx, gaps[idx], d, big_r) for idx in at_v))
        if len(new_arcs) >= len(arcs):
            raise RuntimeError(
                "internal error: refinement stalled (tight step count did not drop)"
            )
        arcs = new_arcs

    # A negative loop's gap is R/2, so its slack R/2 - D needs no special case.
    # Dividing by 1 + eps, eps = slack/(2D), takes grid point X to 2X/(2D + slack).
    slack = min(min(gaps), big_r - max(gaps)) - d
    if slack <= 0:
        raise RuntimeError("internal error: zero slack after clearing all tight steps")
    den = 2 * d + slack
    refined = RationalColoring(Fraction(2 * big_r, den), tuple(Fraction(2 * x, den) for x in xs))
    if not verify_rational(g, refined):
        raise RuntimeError("internal error: refined coloring invalid")
    return refined
