"""Indicator gadgets: two-terminal signed graphs used to rewire a host graph.

An indicator is a signed graph with two distinguished terminals u, v.  Its
behaviour at a rational circle size p/q is summarised by the Z-set: the set
of terminal separations d such that the gadget admits a (p,q)-coloring with
f(u) = 0 and f(v) = d.  Replacing every edge of a host graph by a copy of an
indicator transforms the host's circular chromatic number in a way that can
often be read off from the shape of the Z-set alone; ``predict_scaled_chi``
implements the two families of shapes for which that transformation has a
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import _is_int
from .core import POS, Edge, SignedGraph
# feasible_pq is not called here: it is imported because bench/spans.py rebinds it.
from .solver import SolveBudget, _begin, _relation, _validate_pq, feasible_pq

__all__ = ["Indicator", "ShapeError", "ZSet", "predict_scaled_chi", "replace_edges", "z_set"]


class ShapeError(ValueError):
    """Z-set does not match any shape with a known composition formula."""


@dataclass(frozen=True)
class Indicator:
    """A signed graph with an ordered pair of distinct terminal vertices."""

    graph: SignedGraph
    u: int
    v: int

    def __post_init__(self) -> None:
        n = self.graph.n
        for t in (self.u, self.v):
            if not (_is_int(t) and 0 <= t < n):
                raise ValueError(f"terminal {t} out of range for {n} vertices")
        if self.u == self.v:
            raise ValueError("terminals must be distinct")


@dataclass(frozen=True)
class ZSet:
    """Feasible terminal separations of an indicator at circle size p/q.

    ``member[d]`` records whether separation d (in steps, 0 <= d <= p//2) is
    realisable.  Separations beyond p//2 are redundant: negating the circle
    maps a coloring with separation d to one with separation p - d.  p and
    q must pass the solver's grid check (_validate_pq).
    """

    p: int
    q: int
    member: tuple[bool, ...]

    def __post_init__(self) -> None:
        _validate_pq(self.p, self.q)
        if len(self.member) != self.p // 2 + 1:
            raise ValueError("membership table must have p//2 + 1 entries")

    def members(self) -> tuple[int, ...]:
        return tuple(d for d, ok in enumerate(self.member) if ok)

    def __contains__(self, d: int) -> bool:
        return 0 <= d <= self.p // 2 and self.member[d]

    def as_interval(self) -> tuple[int, int]:
        """Return (lo, hi) if the members form one nonempty contiguous run."""
        ds = self.members()
        if not ds:
            raise ShapeError("empty Z-set")
        lo, hi = ds[0], ds[-1]
        if len(ds) != hi - lo + 1:
            raise ShapeError(f"Z-set {ds} is not contiguous")
        return lo, hi


def z_set(ind: Indicator, p: int, q: int, budget: SolveBudget | None = None) -> ZSet:
    """Compute the Z-set of an indicator at circle size (p, q).

    The members are bits 0..p//2 of the terminal relation (solver._relation):
    for each d, feasible_pq's verdict pinned at f(u) = 0, f(v) = d, decided
    by verdict-only searches that pin d from p//2 down until one is refuted,
    then let f(v) range over every d below it not yet shown.  Pinning u to 0
    loses nothing (rotate the circle); restricting d to at most p//2 loses
    nothing (negate the circle).  Errors and an exhausted budget raise as in
    feasible_pq.
    """
    _validate_pq(p, q)
    budget = _begin(ind.graph, budget)
    mask = _relation(ind.graph, ind.u, ind.v, p, q, budget)
    return ZSet(p, q, tuple(bool(mask >> d & 1) for d in range(p // 2 + 1)))


def replace_edges(
    host: SignedGraph,
    i_pos: Indicator,
    i_neg: Indicator | None = None,
) -> SignedGraph:
    """Replace every host edge by a fresh copy of an indicator.

    A positive host edge ab becomes a copy of ``i_pos`` with terminal u on a
    and terminal v on b (a = min endpoint); a negative host edge uses
    ``i_neg``.  Host vertices keep their indices; the non-terminal vertices
    of the k-th host edge's copy are appended in ascending original index.
    The result contains only the copied edges, in host-edge order, each
    copy's edges in the indicator's own order.
    """
    if any(e.is_loop for e in host.edges):
        raise ValueError("host graph must be loopless for edge replacement")
    if i_neg is None and any(e.sign is not POS for e in host.edges):
        raise ValueError("host has negative edges but no negative-edge indicator given")

    edges: list[Edge] = []
    base = host.n
    for e in host.edges:
        ind = i_pos if e.sign is POS else i_neg
        base = _graft(edges, ind, min(e.u, e.v), max(e.u, e.v), base)
    return SignedGraph(base, tuple(edges))


def _graft(edges: list[Edge], ind: Indicator, a: int, b: int, base: int) -> int:
    """Append a copy of ind's edges, in ind's order, to edges: terminal u on
    vertex a, v on b, and the other vertices on base, base + 1, ... in
    ascending index.  Returns the vertex after the last one used."""
    vmap = {ind.u: a, ind.v: b}
    for w in range(ind.graph.n):
        if w not in vmap:
            vmap[w] = base
            base += 1
    edges += [Edge(vmap[u], vmap[v], sign) for u, v, sign in ind.graph.edges]
    return base


def predict_scaled_chi(z: ZSet, chi: Fraction | int) -> Fraction:
    """Composed circular chromatic number from a Z-set of recognised shape.

    With r = p/q and half-circle P = p//2, a contiguous Z-set [d_lo, d_hi]
    falls into one of two families (t = d_lo/q or (P - d_hi)/q below):

    * symmetric gap at both ends, [t, r/2 - t] with 0 < t <= r/4:
      an edge of the host becomes "separation between t and r/2 - t", which
      is the positive-edge constraint at circle size r/(2t); the composed
      graph then behaves like the host with every value doubled and scaled,
      giving 2*t*chi.
    * one-sided trim, [t, r/2] or [0, r/2 - t] with 0 < t < r/2:
      same reading with only one side tightened, giving t*chi.

    The returned value is the composed chi_c at the fixed point, i.e. it is
    exact when r equals the composed value itself.  Raises ShapeError for
    empty, non-contiguous, or unrecognised shapes, and ValueError unless chi
    is an int (not a bool) or a Fraction.
    """
    if not (_is_int(chi) or isinstance(chi, Fraction)):
        raise ValueError(f"chi must be an int or a Fraction, got {chi!r}")
    chi = Fraction(chi)
    d_lo, d_hi = z.as_interval()
    half = z.p // 2
    if d_lo >= 1 and d_hi == half - d_lo:
        return 2 * Fraction(d_lo, z.q) * chi
    if d_lo >= 1 and d_hi == half and d_lo < half:
        return Fraction(d_lo, z.q) * chi
    if d_lo == 0 and d_hi < half and half - d_hi < half:
        return Fraction(half - d_hi, z.q) * chi
    raise ShapeError(
        f"Z-set interval [{d_lo}, {d_hi}] at ({z.p},{z.q}) has no composition formula"
    )
