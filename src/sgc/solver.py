"""Exact (p,q)-coloring search and circular chromatic numbers.

The search is deterministic backtracking over bitmask color domains with
arc-consistency propagation: the branching vertex is the one with the
smallest remaining domain (ties to the lowest index), colors are tried in
ascending order, and when no pins are given on a connected graph the first
branching vertex is fixed to color 0 (sound by rotation symmetry).  Repeat
runs produce byte-identical witnesses.

The search is one iterative loop over an explicit stack of frames, so its
depth is not bounded by Python's recursion limit.  Propagation queues the
vertices whose domain shrank and revises their neighbors; the support of a
domain across an edge is the OR of its rotations over the edge kind's
window of allowed offsets, computed by doubling and memoised per search.

All color arithmetic is exact integers; budgets are node counts (one node =
one attempted vertex<-color assignment) plus an optional wall-clock cap.
An exhausted budget raises, it never returns a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .arith import EvenRational, antipode, candidates, circle_edge_ok
from .core import (CapacityError, POS, SignedGraph, UncolorableError,
                   _lift_bfs, degeneracy, is_balanced)

_KIND_POS, _KIND_NEG, _KIND_BOTH = 1, 2, 3


@dataclass(frozen=True)
class Coloring:
    """A (p,q)-coloring: colors[v] in {0..p-1} for each vertex."""

    p: int
    q: int
    colors: tuple[int, ...]


@dataclass(frozen=True)
class Pin:
    vertex: int
    color: int


@dataclass(frozen=True)
class ChiResult:
    """chi_c outcome: exact value, a verifying witness at that value (None
    only for edgeless graphs, where the value is 1), and the largest
    explicitly refuted candidate (None when nothing below needed refuting)."""

    value: Fraction
    witness: Optional[Coloring]
    refuted: Optional[Fraction]


class BudgetExhausted(Exception):
    """The search hit its node or time budget before deciding."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


class ChiUndecided(Exception):
    """chi_c ran out of budget; carries the proven bracket (lower, upper]."""

    def __init__(self, undecided: EvenRational, lower: Fraction, upper: Fraction,
                 witness: Optional[Coloring], nodes: int):
        super().__init__(
            f"undecided at candidate {undecided}: chi_c in ({lower}, {upper}] "
            f"after {nodes} nodes"
        )
        self.undecided = undecided
        self.lower = lower
        self.upper = upper
        self.witness = witness
        self.nodes = nodes


@dataclass
class SolveBudget:
    """Cumulative search budget shared across solver calls."""

    max_nodes: int | None = None
    max_seconds: float | None = None
    nodes: int = 0
    _deadline: float | None = field(default=None, repr=False)

    def _start_clock(self):
        if self.max_seconds is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.max_seconds

    def spend(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhausted(self.nodes)
        if self._deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExhausted(self.nodes)


def _validate_pq(p: int, q: int):
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError(f"p, q must be ints, got {p!r}, {q!r}")
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if not 1 <= q <= p // 2:
        raise ValueError(f"need 1 <= q <= p/2, got q={q}, p={p}")


def verify_coloring(g: SignedGraph, c: Coloring) -> bool:
    """Check a (p,q)-coloring against every edge.

    Malformed colorings (wrong length, out-of-range colors, bad p/q) raise;
    a well-formed coloring that breaks an edge constraint returns False.
    Loops need no special case: a negative loop always passes, a positive
    loop always fails.
    """
    _validate_pq(c.p, c.q)
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {g.n} vertices")
    for i, x in enumerate(c.colors):
        if not (isinstance(x, int) and 0 <= x < c.p):
            raise ValueError(f"color {x!r} of vertex {i} out of range for p={c.p}")
    p, q, half = c.p, c.q, c.p // 2
    return all(circle_edge_ok(c.colors[e.u], c.colors[e.v], 0 if e.sign is POS else half, p, q)
               for e in g.edges)


def _adjacency(g: SignedGraph) -> list[list[tuple[int, int]]]:
    """adj[v] = sorted (neighbor, constraint kind) pairs, one per neighbor.

    Parallel edges collapse into one constraint kind per vertex pair.
    Negative loops constrain nothing (distance to the antipode is p/2 >= q)
    and are dropped; positive loops must be rejected by the caller.
    """
    kinds: dict[tuple[int, int], int] = {}
    for e in g.edges:
        if e.is_loop:
            continue
        key = (min(e.u, e.v), max(e.u, e.v))
        k = _KIND_POS if e.sign is POS else _KIND_NEG
        kinds[key] = kinds.get(key, 0) | k
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (a, b), kind in sorted(kinds.items()):
        adj[a].append((b, kind))
        adj[b].append((a, kind))
    for lst in adj:
        lst.sort()
    return adj


def _window(dx: int, lo: int, hi: int, p: int, full: int) -> int:
    """OR of the rotations of dx (a p-bit color set) by every offset lo..hi.

    Needs 0 <= lo <= hi < p.  Doubling: after the loop s holds the OR of the
    shifts by 0..span-1, so O(log p) big-int operations in all; the single
    fold at the end wraps bits p..2p-2 round the circle.
    """
    s, span, width = dx, 1, hi - lo + 1
    while 2 * span <= width:
        s |= s << span
        span *= 2
    if span < width:
        s |= s << (width - span)
    s <<= lo
    return (s | s >> p) & full


def _support(kind: int, dx: int, p: int, q: int) -> int:
    """The colors compatible, across an edge of this kind, with some color of dx.

    A neighbor color sits at offset t from a color of dx where t runs over
    [q, p-q] for a positive edge, the same window shifted by p/2 for a
    negative one, and [q, p/2-q] u [p/2+q, p-q] when the pair carries both.
    """
    half, full = p // 2, (1 << p) - 1
    if kind == _KIND_BOTH:
        if 2 * q > half:
            return 0
        s = _window(dx, q, half - q, p, full)
    else:
        s = _window(dx, q, p - q, p, full)
    if kind == _KIND_POS:
        return s
    turned = (s << half | s >> half) & full
    return turned if kind == _KIND_NEG else s | turned


def _search(n: int, adj: list[list[tuple[int, int]]], p: int, q: int,
            domains: list[int], budget: SolveBudget) -> list[int] | None:
    """Backtracking with arc consistency over bitmask domains, iteratively.

    Branches on the unassigned vertex with the smallest domain (ties to the
    lowest index), trying its colors in ascending order; an explicit stack
    of frames (vertex, its domain when picked, untried colors, trail of the
    domains its assignment changed) stands in for recursion.  Propagation
    pops a vertex whose domain shrank and intersects each neighbor's domain
    with that domain's support (_support, memoised per edge kind for this
    call), queueing the neighbors that shrink.  Arc consistency has a unique
    fixpoint, so this order of revisions gives the same domains, tree, node
    count and solution as any other.  Revising an assigned vertex never
    changes it, since its neighbors were all revised against its color
    first, so the loop does not test for one.

    domains is consumed destructively.  Returns the first solution in the
    canonical order, or None.
    """
    if n == 0:
        return []
    taken = p + 1  # size of an assigned vertex: above every popcount
    size = [d.bit_count() for d in domains]
    memos = {kind: {} for kind in (_KIND_POS, _KIND_NEG, _KIND_BOTH)}
    groups = []  # groups[x] = [(kind, memo of kind, neighbors over kind)]
    for x in range(n):
        by_kind: dict[int, list[int]] = {}
        for w, kind in adj[x]:
            by_kind.setdefault(kind, []).append(w)
        groups.append([(kind, memos[kind], ws) for kind, ws in sorted(by_kind.items())])
    spend = budget.spend
    queue = list(range(n))
    queued = [True] * n
    # A frame is (vertex, its domain when picked, colors not yet tried,
    # trail of (vertex, old domain) pairs written by its propagation).
    frames: list[tuple[int, int, int, list]] = []
    v, saved, untried, trail = -1, 0, 0, []  # the root: no vertex assigned
    while True:
        ok = True
        while queue:
            x = queue.pop()
            queued[x] = False
            dx = domains[x]
            for kind, memo, ws in groups[x]:
                sup = memo.get(dx)
                if sup is None:
                    sup = memo[dx] = _support(kind, dx, p, q)
                for w in ws:
                    dw = domains[w]
                    nd = dw & sup
                    if nd != dw:
                        if not nd:
                            ok = False
                            break
                        trail.append((w, dw))
                        domains[w] = nd
                        size[w] = nd.bit_count()
                        if not queued[w]:
                            queued[w] = True
                            queue.append(w)
                if not ok:
                    break
            if not ok:
                break
        if ok:
            smallest = min(size)
            if smallest == taken:
                return [d.bit_length() - 1 for d in domains]
            frames.append((v, saved, untried, trail))
            v = size.index(smallest)
            saved = untried = domains[v]
        else:  # undo v's failed color; back up past every exhausted vertex
            for x in queue:
                queued[x] = False
            queue.clear()
            while True:
                if v < 0:
                    return None
                for w, dw in reversed(trail):
                    domains[w] = dw
                    size[w] = dw.bit_count()
                if untried:
                    break
                domains[v] = saved
                size[v] = saved.bit_count()
                v, saved, untried, trail = frames.pop()
        lsb = untried & -untried
        untried ^= lsb
        spend()
        domains[v] = lsb
        size[v] = taken
        trail = []
        queue.append(v)
        queued[v] = True


def feasible_pq(g: SignedGraph, p: int, q: int,
                pins: Sequence[Pin] = (),
                budget: SolveBudget | None = None) -> Coloring | None:
    """Find a (p,q)-coloring of g, or prove there is none.

    Returns a verifying Coloring, or None when the instance is infeasible.
    A positive loop makes every (p,q) infeasible in a structural way and
    raises UncolorableError instead.  BudgetExhausted propagates when the
    budget runs out before a decision.
    """
    _validate_pq(p, q)
    if g.has_positive_loop():
        raise UncolorableError("positive loop: no circular coloring exists")
    if budget is None:
        budget = SolveBudget()
    budget._start_clock()

    pin_map: dict[int, int] = {}
    for pin in pins:
        if not 0 <= pin.vertex < g.n:
            raise ValueError(f"pin on non-vertex {pin.vertex}")
        if not 0 <= pin.color < p:
            raise ValueError(f"pin color {pin.color} out of range for p={p}")
        if pin_map.get(pin.vertex, pin.color) != pin.color:
            raise ValueError(f"conflicting pins on vertex {pin.vertex}")
        pin_map[pin.vertex] = pin.color

    full = (1 << p) - 1
    domains = [full] * g.n
    for v, c in pin_map.items():
        domains[v] = 1 << c
    if not pin_map and g.n >= 1 and g.is_connected():
        domains[0] = 1  # rotation symmetry: some solution has f(0) = 0

    sol = _search(g.n, _adjacency(g), p, q, domains, budget)
    if sol is None:
        return None
    c = Coloring(p, q, tuple(sol))
    if not verify_coloring(g, c):
        raise RuntimeError("internal error: solver emitted a bad coloring")
    return c


def _greedy_seed(g: SignedGraph) -> Coloring:
    """A guaranteed coloring: greedy over the reverse elimination order.

    At (U,1) with U = 2*floor(d/2)+2 > d, each already-colored neighbor
    forbids at most one color per connecting edge, and a vertex meets at
    most d earlier-colored edge-endpoints, so a color is always free.  When
    parallel edges push U above 2n, the identity-spread coloring at (2n,1)
    works instead (all colors distinct and below p/2).
    """
    d, order = degeneracy(g)
    u_cap = 2 * (d // 2) + 2
    if u_cap <= 2 * g.n:
        p = u_cap
        colors = [0] * g.n
        placed = [False] * g.n  # v itself is unplaced, which skips its loops
        adj = g.adjacency()
        for v in reversed(order):
            forbidden = set()
            for w, idx in adj[v]:
                if placed[w]:
                    cw = colors[w]
                    forbidden.add(cw if g.edges[idx].sign is POS else antipode(cw, p))
            colors[v] = min(c for c in range(p) if c not in forbidden)
            placed[v] = True
        seed = Coloring(p, 1, tuple(colors))
    else:
        seed = Coloring(2 * g.n, 1, tuple(range(g.n)))
    if not verify_coloring(g, seed):
        raise RuntimeError("internal error: seed coloring invalid")
    return seed


def chi_c(g: SignedGraph, budget: SolveBudget | None = None) -> ChiResult:
    """Exact circular chromatic number with witness.

    Edgeless graphs get the out-of-band value 1.  A graph whose negation is
    balanced has value exactly 2, witnessed directly from the balancing
    switching set.  Otherwise the value is found by binary search over the
    finite candidate ladder, bracketed between 2 (infeasible) and a greedy
    upper bound (feasible).
    """
    if budget is None:
        budget = SolveBudget()
    budget._start_clock()
    if not g.edges:
        return ChiResult(Fraction(1), None, None)
    if g.has_positive_loop():
        raise UncolorableError("positive loop: no circular coloring exists")

    negated = SignedGraph(g.n, tuple(e._replace(sign=-e.sign) for e in g.edges))
    balanced, sset = is_balanced(negated)
    if balanced:
        colors = tuple(2 if v in sset else 0 for v in range(g.n))
        witness = Coloring(4, 2, colors)
        if not verify_coloring(g, witness):
            raise RuntimeError("internal error: balance witness invalid")
        return ChiResult(Fraction(2), witness, None)

    seed = _greedy_seed(g)
    cands = candidates(g.n, 2, Fraction(seed.p, seed.q))
    lo = 0  # value 2: proven infeasible by the balance test above
    hi = len(cands) - 1
    if cands[lo].value != 2 or cands[hi].value != Fraction(seed.p, seed.q):
        raise RuntimeError("internal error: candidate ladder misses its bracket")
    witness = seed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        cand = cands[mid]
        try:
            found = feasible_pq(g, cand.p, cand.q, budget=budget)
        except BudgetExhausted as exc:
            raise ChiUndecided(cand, cands[lo].value, cands[hi].value,
                               witness, exc.nodes) from exc
        if found is None:
            lo = mid
        else:
            hi = mid
            witness = found
    if (witness.p, witness.q) != (cands[hi].p, cands[hi].q):
        raise RuntimeError("internal error: witness is not at the reported value")
    return ChiResult(cands[hi].value, witness, cands[lo].value)


def chi_s(g: SignedGraph, budget: SolveBudget | None = None) -> Fraction:
    """Max of chi_c over all signatures of the underlying simple graph.

    One representative signature per switching class: spanning-forest edges
    positive, the (m - n + c) cotree edges running over all sign patterns.
    Guarded by CapacityError beyond 12 cotree edges.
    """
    pairs = g.underlying_pairs()
    if any(a == b for a, b in pairs):
        raise ValueError("underlying graph must be simple: loop present")
    if len(set(pairs)) != len(pairs):
        raise ValueError("underlying graph must be simple: parallel edges present")

    tree = {idx for _, idx in _lift_bfs(g, [0] * g.m, range(g.n)).values()}
    cotree = [i for i in range(g.m) if i not in tree]
    if len(cotree) > 12:
        raise CapacityError(f"2^{len(cotree)} signatures is beyond the exact enumeration guard")

    best = Fraction(1)
    for bits in range(1 << len(cotree)):
        signs = [POS] * g.m
        for i, idx in enumerate(cotree):
            if (bits >> i) & 1:
                signs[idx] = -POS
        sg = SignedGraph(g.n, tuple(
            e._replace(sign=signs[i]) for i, e in enumerate(g.edges)
        ))
        best = max(best, chi_c(sg, budget=budget).value)
    return best


def zero_free_to_circular(f: Sequence[int], k: int) -> Coloring:
    """Map a 0-free 2k-coloring (colors +-1..+-k) to a (2k,1)-coloring.

    x > 0 maps to x-1, x < 0 maps to -x+k-1; this is the unique pairing
    (up to rotation) under which negating a color corresponds to taking the
    antipode, so validity transfers exactly in both directions.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    colors = []
    for v, x in enumerate(f):
        if not isinstance(x, int) or x == 0 or abs(x) > k:
            raise ValueError(f"vertex {v}: {x!r} is not a color in +-1..+-{k}")
        colors.append(x - 1 if x > 0 else -x + k - 1)
    return Coloring(2 * k, 1, tuple(colors))


def circular_to_zero_free(c: Coloring) -> list[int]:
    """Inverse of zero_free_to_circular; requires q == 1."""
    if c.q != 1:
        raise ValueError(f"need q == 1, got q={c.q}")
    _validate_pq(c.p, c.q)
    k = c.p // 2
    out = []
    for v, x in enumerate(c.colors):
        if not (isinstance(x, int) and 0 <= x < c.p):
            raise ValueError(f"vertex {v}: color {x!r} out of range for p={c.p}")
        out.append(x + 1 if x < k else k - 1 - x)
    return out
