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

Everything here is exact Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import circle_edge_ok, frac_antipode, rational_point
from .core import POS, SignedGraph
from .solver import Coloring

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
        if not isinstance(self.r, Fraction) or self.r <= 0:
            raise ValueError(f"circumference must be a positive Fraction, got {self.r!r}")
        for v, x in enumerate(self.colors):
            if not isinstance(x, Fraction) or not 0 <= x < self.r:
                raise ValueError(f"vertex {v}: point {x!r} not in [0, {self.r})")

    @classmethod
    def from_coloring(cls, c: Coloring) -> "RationalColoring":
        return cls(Fraction(c.p, c.q), tuple(Fraction(x, c.q) for x in c.colors))

    def to_coloring(self, p: int, q: int) -> Coloring:
        """Back onto the integer grid {0..p-1}, scaled by q; exact or error."""
        if Fraction(p, q) != self.r:
            raise ValueError(f"{p}/{q} != circumference {self.r}")
        colors = []
        for v, x in enumerate(self.colors):
            scaled = x * q
            if scaled.denominator != 1:
                raise ValueError(f"vertex {v}: {x} is not on the 1/{q} grid")
            colors.append(int(scaled))
        return Coloring(p, q, tuple(colors))


def verify_rational(g: SignedGraph, c: RationalColoring) -> bool:
    """Check an exact circular coloring against every edge."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {g.n} vertices")
    r, half = c.r, c.r / 2
    return all(circle_edge_ok(c.colors[e.u], c.colors[e.v], 0 if e.sign is POS else half, r)
               for e in g.edges)


@dataclass(frozen=True)
class TightDigraph:
    """All tight steps of a coloring; arcs carry their originating edge."""

    n: int
    arcs: tuple[Arc, ...]


def _forward_gap(g: SignedGraph, colors: Sequence[Fraction], r: Fraction,
                 u: int, w: int, edge_idx: int) -> Fraction:
    """Clockwise gap from u's color to the target point at w along this edge.

    The target is w's color for a positive edge, its antipode for a negative
    one; the gap is >= 1 for every side of every edge of a verifying
    coloring, and == 1 exactly when the step (u, w) is tight.
    """
    target = colors[w] if g.edges[edge_idx].sign is POS else frac_antipode(colors[w], r)
    return rational_point(target - colors[u], r)


def tight_digraph(g: SignedGraph, c: RationalColoring) -> TightDigraph:
    """The digraph of tight steps; rejects non-verifying colorings."""
    if not verify_rational(g, c):
        raise ValueError("coloring does not verify; tight digraph undefined")
    arcs = []
    for idx, e in enumerate(g.edges):
        sides = [(e.u, e.v)] if e.is_loop else [(e.u, e.v), (e.v, e.u)]
        arcs.extend((u, w, idx) for u, w in sides if _forward_gap(g, c.colors, c.r, u, w, idx) == 1)
    return TightDigraph(g.n, tuple(arcs))


def find_tight_cycle(d: TightDigraph) -> Optional[tuple[Arc, ...]]:
    """First directed cycle in deterministic DFS order, or None.

    Roots are tried in ascending vertex order; out-arcs are explored sorted
    by (target, edge index).  A back-arc closes the reported cycle.
    """
    out: list[list[Arc]] = [[] for _ in range(d.n)]
    for arc in d.arcs:
        out[arc[0]].append(arc)
    for lst in out:
        lst.sort(key=lambda a: (a[1], a[2]))
    color = [0] * d.n  # 0 unseen, 1 on stack, 2 done
    for root in range(d.n):
        if color[root] or not out[root]:
            continue
        chain = [root]
        pos = {root: 0}
        arc_path: list[Arc] = []
        iters = [iter(out[root])]
        color[root] = 1
        while iters:
            arc = next(iters[-1], None)
            if arc is None:
                v = chain.pop()
                color[v] = 2
                del pos[v]
                iters.pop()
                if arc_path:
                    arc_path.pop()
                continue
            y = arc[1]
            if color[y] == 1:
                return tuple(arc_path[pos[y]:] + [arc])
            if color[y] == 0:
                color[y] = 1
                pos[y] = len(chain)
                chain.append(y)
                arc_path.append(arc)
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
    walk under c, or when the step counts give no integer a with 2a + t >= 1.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise CorruptCertificateError("empty cycle")
    if not verify_rational(g, c):
        raise ValueError("coloring does not verify; nothing to certify")
    s = t = 0
    for i, (u, v, idx) in enumerate(cycle):
        if not 0 <= idx < g.m:
            raise CorruptCertificateError(f"arc {i}: no edge {idx}")
        e = g.edges[idx]
        if {u, v} != {e.u, e.v}:
            raise CorruptCertificateError(f"arc {i}: edge {idx} does not join {u} and {v}")
        nxt = cycle[(i + 1) % len(cycle)]
        if v != nxt[0]:
            raise CorruptCertificateError(f"arc {i} ends at {v}, arc {i+1} starts at {nxt[0]}")
        if _forward_gap(g, c.colors, c.r, u, v, idx) != 1:
            raise CorruptCertificateError(f"arc {i}: step ({u},{v}) is not tight")
        if e.sign is POS:
            s += 1
        else:
            t += 1
    r = c.r
    a = (s - (r / 2 - 1) * t) / r
    if a.denominator != 1:
        raise CorruptCertificateError(f"step counts s={s}, t={t} give non-integral a={a}")
    a = int(a)
    if 2 * a + t < 1:
        raise CorruptCertificateError(f"degenerate cycle: 2a + t = {2 * a + t} certifies nothing")
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
    re-tested.  Phase 2, with no tight steps left, scales everything by
    1/(1+eps) where 2*eps is the global minimum slack, yielding a verifying
    coloring at a strictly smaller circumference.
    """
    if not g.edges:
        raise ValueError("no edge constraints: refinement undefined")
    d = tight_digraph(g, c)
    if find_tight_cycle(d) is not None:
        raise NotRefinableError("tight cycle present")

    colors = list(c.colors)
    r = c.r
    adj = g.adjacency()
    arcs = set(d.arcs)  # no loop arcs: a tight loop is a tight cycle
    while arcs:
        sinks = {w for _, w, _ in arcs} - {u for u, _, _ in arcs}
        if not sinks:
            raise RuntimeError("internal error: acyclic tight digraph without a sink")
        v = min(sinks)
        out_sides = [(v, w, idx) for w, idx in adj[v] if w != v]
        eps = (min(_forward_gap(g, colors, r, *side) for side in out_sides) - 1) / 2
        if eps <= 0:
            raise RuntimeError("internal error: sink with a tight out-step")
        colors[v] = rational_point(colors[v] + eps, r)
        sides = out_sides + [(w, v, idx) for _, w, idx in out_sides]
        new_arcs = arcs.difference(sides).union(
            side for side in sides if _forward_gap(g, colors, r, *side) == 1)
        if len(new_arcs) >= len(arcs):
            raise RuntimeError(
                "internal error: refinement stalled (tight step count did not drop)"
            )
        arcs = new_arcs

    # Every side once, loops included: a negative loop has slack r/2 - 1.
    eps = (min(_forward_gap(g, colors, r, u, w, idx)
               for u in range(g.n) for w, idx in adj[u]) - 1) / 2
    if eps <= 0:
        raise RuntimeError("internal error: zero slack after clearing all tight steps")
    scale = 1 + eps
    refined = RationalColoring(r / scale, tuple(x / scale for x in colors))
    if not verify_rational(g, refined):
        raise RuntimeError("internal error: refined coloring invalid")
    return refined
