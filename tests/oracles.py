"""Deliberately naive re-derivations used to cross-check the package.

Every function here recomputes a quantity from first principles with no
propagation, no heuristics, and no shared code with the implementation
under test.  They are exponential and meant for tiny inputs only.

The exceptions are reference copies of earlier library code, kept verbatim
so that a rewrite can be held to exactly the same outputs: the recursive
search kernel with its mask tables (oracle_search, oracle_masks), the
candidate ladder (oracle_candidate_ladder) and frac_circ_dist.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

from sgc.arith import (EvenRational, _as_fraction, circle_edge_ok, normalize_even,
                       rational_point)
from sgc.core import NEG, POS, SignedGraph
from sgc.solver import SolveBudget


def gap(p: int, x: int, y: int) -> int:
    """Circular distance written independently of the library."""
    return min((x - y) % p, (y - x) % p)


def edge_ok(p: int, q: int, sign, x: int, y: int) -> bool:
    """The single-edge coloring constraint on the p-point circle."""
    if sign is POS:
        return gap(p, x, y) >= q
    assert p % 2 == 0, "negative edges need an even circle"
    return gap(p, x, (y + p // 2) % p) >= q


def brute_feasible(g: SignedGraph, p: int, q: int, pins=()) -> tuple | None:
    """First valid (p,q)-coloring in lexicographic order, or None.

    Depth-first over vertices 0..n-1, checking each new color only against
    already-assigned neighbors.  Complete: a pruned prefix has no valid
    completion, so the set of colorings explored is exactly the full one.
    """
    pinned = {}
    for vtx, col in pins:
        if vtx in pinned and pinned[vtx] != col:
            return None
        pinned[vtx] = col
    # Edges checked once both endpoints are colored.
    checks = [[] for _ in range(g.n)]
    for e in g.edges:
        a, b = min(e.u, e.v), max(e.u, e.v)
        checks[b].append((a, e.sign))
    colors = [0] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        choices = (pinned[v],) if v in pinned else range(p)
        for c in choices:
            if all(edge_ok(p, q, s, colors[u] if u != v else c, c) for u, s in checks[v]):
                colors[v] = c
                if place(v + 1):
                    return True
        return False

    return tuple(colors) if place(0) else None


def product_feasible(g: SignedGraph, p: int, q: int) -> bool:
    """Unpruned scan of all p^n assignments; the meta-check for brute_feasible."""
    edges = [(e.u, e.v, e.sign) for e in g.edges]
    for colors in itertools.product(range(p), repeat=g.n):
        if all(edge_ok(p, q, s, colors[u], colors[v]) for u, v, s in edges):
            return True
    return False


def oracle_zset(g: SignedGraph, u: int, v: int, p: int, q: int) -> tuple[int, ...]:
    """Every terminal gap realized by a valid coloring, by full p^n enumeration."""
    edges = [(e.u, e.v, e.sign) for e in g.edges]
    half = p // 2
    found = [False] * (half + 1)
    for colors in itertools.product(range(p), repeat=g.n):
        ok = True
        for a, b, s in edges:
            if not edge_ok(p, q, s, colors[a], colors[b]):
                ok = False
                break
        if ok:
            found[gap(p, colors[u], colors[v])] = True
    return tuple(d for d in range(half + 1) if found[d])


def oracle_candidates(n: int) -> list[Fraction]:
    """All values chi_c can take on n vertices, enumerated by denominator.

    A value is possible iff its even-numerator normal form has numerator
    at most 2n; this scans reduced fractions and applies that test, which
    is a different route than enumerating even numerators directly.
    """
    vals = set()
    for b in range(1, 2 * n + 1):
        for a in range(2 * b, 2 * n * b + 1):
            v = Fraction(a, b)
            num = v.numerator if v.numerator % 2 == 0 else 2 * v.numerator
            if num <= 2 * n:
                vals.add(v)
    return sorted(vals)


def oracle_chi(g: SignedGraph) -> Fraction:
    """Smallest feasible candidate value by ascending brute-force scan."""
    if not g.edges:
        return Fraction(1)
    assert not any(e.is_loop and e.sign is POS for e in g.edges)
    for v in oracle_candidates(g.n):
        num, den = v.numerator, v.denominator
        if num % 2:
            num, den = 2 * num, 2 * den
        if brute_feasible(g, num, den) is not None:
            return v
    raise AssertionError("no candidate value feasible; the ladder is incomplete")


def oracle_girth_types(g: SignedGraph) -> dict[tuple[int, int], int | None]:
    """Shortest closed-walk lengths by (negative parity, length parity).

    Exact-length dynamic programming: walk[L][(v, s)] says whether some walk
    of length exactly L from the start reaches v with negative-edge parity s.
    Lengths run to 4n, past the diameter of the four-fold parity lift.
    """
    steps = [[] for _ in range(g.n)]
    for e in g.edges:
        t = 0 if e.sign is POS else 1
        steps[e.u].append((e.v, t))
        if e.u != e.v:
            steps[e.v].append((e.u, t))
    best: dict[tuple[int, int], int | None] = {(i, j): None for i in (0, 1) for j in (0, 1)}
    for start in range(g.n):
        reach = {(start, 0)}
        for length in range(1, 4 * g.n + 1):
            reach = {(y, s ^ t) for (x, s) in reach for (y, t) in steps[x]}
            for s in (0, 1):
                if (start, s) in reach:
                    key = (s, length % 2)
                    if best[key] is None or length < best[key]:
                        best[key] = length
    return best


def oracle_balanced(g: SignedGraph) -> bool:
    """Try all 2^n switchings; balanced iff one makes every edge positive."""
    for bits in range(1 << g.n):
        ok = True
        for e in g.edges:
            flipped = bool((bits >> e.u) & 1) != bool((bits >> e.v) & 1)
            sign = -e.sign if flipped else e.sign
            if sign is NEG:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_chromatic(n: int, pairs: set[tuple[int, int]]) -> int:
    """Chromatic number of a simple graph by trying all k^n maps."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if all(colors[a] != colors[b] for a, b in pairs):
                return k
    raise AssertionError("n colors always suffice")


def oracle_chi_plus(g: SignedGraph) -> int:
    """Minimum over all 2^n switchings of the positive part's chromatic number."""
    assert not g.has_positive_loop()
    if g.n == 0:
        return 0
    best = g.n
    for bits in range(1 << g.n):
        pairs = set()
        for e in g.edges:
            if e.is_loop:
                continue
            flipped = bool((bits >> e.u) & 1) != bool((bits >> e.v) & 1)
            sign = -e.sign if flipped else e.sign
            if sign is POS:
                pairs.add((min(e.u, e.v), max(e.u, e.v)))
        best = min(best, oracle_chromatic(g.n, pairs))
    return best


def oracle_components(g: SignedGraph) -> list[list[int]]:
    """Connected components by union-find over the edge list, each sorted,
    in order of smallest vertex."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        parent[find(e.u)] = find(e.v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def oracle_refine(g: SignedGraph, r: Fraction, points) -> tuple | None:
    """The refinement loop as first written, rescanning every side per step.

    Takes a verifying coloring with at least one edge (circumference r,
    Fraction points).  Returns (r', points') of the refined coloring, or
    None when the tight digraph has a cycle.  Kept as the reference for the
    incremental loop in sgc.certificates.refine.
    """
    def rational_point(x):
        return x - (x / r).__floor__() * r

    sides = []
    for idx, e in enumerate(g.edges):
        if e.is_loop:
            continue
        sides.append((e.u, e.v, idx))
        sides.append((e.v, e.u, idx))
    neg_loop_slacks = [
        r / 2 - 1 for e in g.edges if e.is_loop and e.sign is not POS
    ]
    if r == 2 and neg_loop_slacks:
        return None  # a negative loop is a tight step onto itself at r = 2

    colors = list(points)

    def gap(u, w, idx):
        e = g.edges[idx]
        target = colors[w] if e.sign is POS else rational_point(colors[w] + r / 2)
        return rational_point(target - colors[u])

    arcs = {(u, w, idx) for (u, w, idx) in sides if gap(u, w, idx) == 1}
    while arcs:
        has_out = {u for (u, _, _) in arcs}
        sinks = sorted({w for (_, w, _) in arcs} - has_out)
        if not sinks:
            return None  # what is left of the tight digraph is all cycles
        v = sinks[0]
        out_slacks = [gap(u, w, idx) - 1 for (u, w, idx) in sides if u == v]
        assert all(s > 0 for s in out_slacks), "sink with a tight out-step"
        eps = min(out_slacks) / 2
        colors[v] = rational_point(colors[v] + eps)
        new_arcs = {(u, w, idx) for (u, w, idx) in sides if gap(u, w, idx) == 1}
        assert len(new_arcs) < len(arcs), "refinement stalled"
        arcs = new_arcs

    slacks = [gap(u, w, idx) - 1 for (u, w, idx) in sides] + neg_loop_slacks
    eps = min(slacks) / 2
    scale = 1 + eps
    return r / scale, tuple(x / scale for x in colors)


def frac_circ_dist(a: Fraction, b: Fraction, r: Fraction) -> Fraction:
    """Distance on the rational circle of circumference r."""
    d = rational_point(a - b, r)
    return min(d, r - d)


def oracle_candidate_ladder(n: int, lo, hi) -> list[EvenRational]:
    """All possible chi_c values in [lo, hi] of an n-vertex signed graph.

    Any signed graph on n vertices that has a cycle attains its chi_c at a
    rational p/q with even p <= 2n; this enumerates those, normalizes, and
    returns them deduplicated in ascending value order.  lo/hi accept ints,
    Fractions, or EvenRationals.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lo_v, hi_v = _as_fraction(lo), _as_fraction(hi)
    vals = set()
    for p in range(2, 2 * n + 1, 2):
        for q in range(1, p // 2 + 1):
            v = Fraction(p, q)
            if lo_v <= v <= hi_v:
                vals.add(v)
    return [normalize_even(v.numerator, v.denominator) for v in sorted(vals)]


def oracle_masks(p: int, q: int) -> list[list[int] | None]:
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


def oracle_search(n: int, adj: list[list[tuple[int, int]]], masks, domains: list[int],
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
