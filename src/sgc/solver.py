"""Exact (p,q)-coloring search and circular chromatic numbers.

The search is deterministic backtracking over bitmask color domains with
arc-consistency propagation: the branching vertex is the one with the
smallest remaining domain (ties to the lowest index), colors are tried in
ascending order, and when no pins are given on a connected graph the first
branching vertex is fixed to color 0 (sound by rotation symmetry).  Repeat
runs produce byte-identical witnesses.

All color arithmetic is exact integers; budgets are node counts (one node =
one attempted vertex<-color assignment) plus an optional wall-clock cap.
An exhausted budget raises, it never returns a wrong answer.
"""

from __future__ import annotations

import time
from collections import deque
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


def _edge_kinds(g: SignedGraph) -> dict[tuple[int, int], int]:
    """Collapse parallel edges into one constraint kind per vertex pair.

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
    return kinds


def _masks(p: int, q: int) -> list[list[int] | None]:
    """masks[kind][c] = bitmask of neighbor colors compatible with color c.

    The negative-edge relation is symmetric (distance from one endpoint to
    the other's antipode does not depend on the direction), so one table
    serves both directions of an edge.
    """
    pos, neg = [], []
    half = p // 2
    for c in range(p):
        pm = nm = 0
        for j in range(p):
            if circle_edge_ok(c, j, 0, p, q):
                pm |= 1 << j
            if circle_edge_ok(c, j, half, p, q):
                nm |= 1 << j
        pos.append(pm)
        neg.append(nm)
    both = [pos[c] & neg[c] for c in range(p)]
    return [None, pos, neg, both]


def _search(n: int, adj: list[list[tuple[int, int]]], masks, domains: list[int],
            budget: SolveBudget) -> list[int] | None:
    """Backtracking with arc-consistency over bitmask domains.

    domains is consumed destructively.  Returns the first solution in the
    canonical order, or None.
    """
    assigned = [False] * n

    def propagate(queue: deque) -> tuple[list[tuple[int, int]], bool]:
        """Revise target domains until fixpoint; returns (trail, ok)."""
        trail = []
        pending = set(queue)
        while queue:
            item = queue.popleft()
            pending.discard(item)
            w, x, kind = item
            if assigned[w]:
                continue
            mk = masks[kind]
            dx = domains[x]
            if (dx & (dx - 1)) == 0:
                union = mk[dx.bit_length() - 1]
            else:
                union = 0
                while dx:
                    lsb = dx & -dx
                    union |= mk[lsb.bit_length() - 1]
                    dx &= dx - 1
            nd = domains[w] & union
            if nd != domains[w]:
                trail.append((w, domains[w]))
                domains[w] = nd
                if nd == 0:
                    return trail, False
                for y, k2 in adj[w]:
                    if not assigned[y]:
                        nxt = (y, w, k2)
                        if nxt not in pending:
                            pending.add(nxt)
                            queue.append(nxt)
        return trail, True

    def undo(trail):
        for v, old in reversed(trail):
            domains[v] = old

    # Initial fixpoint: every directed constraint once (covers pins).
    q0 = deque()
    for v in range(n):
        for w, kind in adj[v]:
            q0.append((w, v, kind))
    _, ok = propagate(q0)
    if not ok:
        return None

    nassigned = 0

    def rec() -> bool:
        nonlocal nassigned
        if nassigned == n:
            return True
        v, vsize = -1, 1 << 30
        for x in range(n):
            if not assigned[x]:
                s = domains[x].bit_count()
                if s < vsize:
                    v, vsize = x, s
        d = domains[v]
        saved = d
        while d:
            lsb = d & -d
            d ^= lsb
            budget.spend()
            assigned[v] = True
            nassigned += 1
            domains[v] = lsb
            trail, ok = propagate(deque((w, v, kind) for w, kind in adj[v]))
            if ok and rec():
                return True
            undo(trail)
            domains[v] = saved
            assigned[v] = False
            nassigned -= 1
        return False

    if rec():
        return [domains[v].bit_length() - 1 for v in range(n)]
    return None


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

    kinds = _edge_kinds(g)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (a, b), kind in sorted(kinds.items()):
        adj[a].append((b, kind))
        adj[b].append((a, kind))
    for lst in adj:
        lst.sort()

    sol = _search(g.n, adj, _masks(p, q), domains, budget)
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
