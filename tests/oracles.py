"""Deliberately naive re-derivations used to cross-check the package.

Every function here recomputes a quantity from first principles with no
propagation, no heuristics, and no shared code with the implementation
under test.  They are exponential and meant for tiny inputs only.

The exceptions are reference copies of earlier library code, kept verbatim
so that a rewrite can be held to exactly the same outputs: the recursive
search kernel with its edge kinds and mask tables (oracle_search,
oracle_adjacency, oracle_masks), the iterative chronological kernel that
replaced it, before backjumping (chrono_search, chrono_support), the
backjumping kernel as it was before a decision became its frame's first
trail entry and reflection a cut on the picked vertex's colors, but with
today's verdict-only order recounted at every pick (backjump_search), chi_c
as it was when it probed its bracket's index midpoint (midpoint_chi_c), the
greedy seed that read the edge rule off sign bits (oracle_greedy_seed), the
repeated-piece cut as it was when it found separation pairs by one block
search per vertex (oracle_blocks, oracle_block_pairs,
oracle_repeated_pieces), the candidate ladder (oracle_candidate_ladder),
the rational circle helpers (rational_point, frac_antipode,
frac_circ_dist), the tight-cycle DFS with its vertex chain
(oracle_find_tight_cycle), the Fraction certificate layer
(frac_verify_rational, frac_tight_digraph, frac_cert_value, frac_refine and
their helpers), the text parsers before their fast path (oracle_parse_sg,
oracle_parse_coloring), and the per-edge helper versions of the degeneracy
order, the coloring check and the certificate grid's gaps
(oracle_degeneracy, oracle_verify_coloring, oracle_edge_gaps).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from sgc.arith import (EvenRational, _as_fraction, _is_int, circle_edge_ok, circle_gap,
                       normalize_even)
from sgc.certificates import (Arc, CorruptCertificateError, NotRefinableError,
                              RationalColoring, TightCycleCertificate, TightDigraph,
                              _grid, find_tight_cycle)
from sgc.io_cli import ParseError, _int
from sgc.core import NEG, POS, Edge, SignedGraph, degeneracy, is_balanced
from sgc.solver import (BudgetExhausted, ChiResult, ChiUndecided, Coloring, SolveBudget,
                        _begin, _greedy_seed, _reflect, _runs, _support, _validate_pq,
                        candidates, feasible_pq, verify_coloring)


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


def rational_point(x: Fraction, r: Fraction) -> Fraction:
    """Reduce x modulo r into the canonical range [0, r)."""
    return x - (x / r).__floor__() * r


def frac_antipode(x: Fraction, r: Fraction) -> Fraction:
    """The point opposite x on the rational circle."""
    return rational_point(x + r / 2, r)


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


_KIND_POS, _KIND_NEG, _KIND_BOTH = 1, 2, 3  # the indices of oracle_masks


def oracle_adjacency(g: SignedGraph) -> list[list[tuple[int, int]]]:
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


def chrono_support(mask: int, dx: int, p: int) -> int:
    """The colors at an offset in mask from some color of dx: their sumset.

    For each maximal run lo..lo+width-1 of mask's set bits, taken round the
    circle, this ORs the rotations of dx (a p-bit color set) by every offset
    of the run.  Doubling makes that O(log p) big-int operations per run: a
    positive or a negative pair has one run, a parallel pair two, and an
    empty mask none, so it supports nothing.  Bits pushed past p - 1 (up to
    3p - 3) are folded back round the circle at the end.
    """
    runs = []
    while mask:
        lo = (mask & -mask).bit_length() - 1
        t = mask >> lo
        width = (t ^ (t + 1)).bit_length() - 1  # trailing ones of t
        runs.append((lo, width))
        mask = t >> width << (lo + width)
    if len(runs) > 1 and runs[0][0] == 0 and sum(runs[-1]) == p:
        runs[-1] = (runs[-1][0], runs[-1][1] + runs.pop(0)[1])  # one doubling, not two
    acc = 0
    for lo, width in runs:
        s, span = dx, 1
        while 2 * span <= width:
            s |= s << span
            span *= 2
        if span < width:
            s |= s << (width - span)
        acc |= s << lo
    acc |= acc >> p
    return (acc | acc >> p) & ((1 << p) - 1)


def chrono_search(n: int, adj: list[list[tuple[int, Sequence[int]]]], p: int,
            domains: list[int], budget: SolveBudget) -> list[int] | None:
    """Backtracking with arc consistency over bitmask domains, iteratively.

    Branches on the unassigned vertex with the smallest domain (ties to the
    lowest index), trying its colors in ascending order; an explicit stack
    of frames (vertex, its domain when picked, untried colors, trail of the
    domains its assignment changed) stands in for recursion.  Propagation
    pops a vertex whose domain shrank and intersects each neighbor's domain
    with that domain's support (_support, memoised per offset mask for this
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
    memos: dict[int, dict[int, int]] = {}
    # groups[x] = [(mask, memo of mask, neighbors over mask)]
    groups = [[(mask, memos.setdefault(mask, {}), ws) for mask, ws in gx] for gx in adj]
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
            for mask, memo, ws in groups[x]:
                sup = memo.get(dx)
                if sup is None:
                    sup = memo[dx] = chrono_support(mask, dx, p)
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


def backjump_search(n: int, adj: Sequence[Sequence[tuple[int, Sequence[int]]]], p: int,
                    domains: list[int], budget: SolveBudget, verdict_only: bool = False,
                    neighbors: Sequence[Sequence[int]] | None = None) -> list[int] | None:
    """Backtracking with arc consistency over bitmask domains, iteratively,
    with conflict-directed backjumping, a rotation pin and reflection pruning.

    Branches on the unassigned vertex with the least key (ties to the lowest
    index), trying its colors in ascending order; an explicit stack of
    frames stands in for recursion.  size[x] holds x's domain size; a vertex
    with one color left is assigned, whether a decision, a root pin or
    propagation put it there, and its size, taken, is one above every
    other.  The key is the size, or with verdict_only (the most unassigned
    neighbors, the size), recounted from the domains at every pick: the
    kernel keeps that key up to date instead, so the two must agree.  Only
    callers that use the verdict alone set verdict_only, since the first
    solution depends on the order.  neighbors[x] lists x's distinct
    neighbors in adj (SignedGraph._neighbors when adj is the graph's own;
    derived from adj when not given).

    A node is one assignment made by branching, and only a real choice
    costs one: a vertex cut to one color is never picked (its neighbors were
    revised against that color already), and a picked vertex with no
    unassigned neighbor takes its lowest color on the current trail, with
    no node and no propagation.  Arc consistency holds between it and every
    neighbor, and no unassigned vertex shares a pair with it, so that color
    cannot fail, and it is the color the canonical order tries first.

    Propagation pops a vertex whose domain shrank and intersects each
    neighbor's domain with that domain's support (_support, memoised per
    offset mask for this call, with the mask's runs taken once), queueing
    the neighbors that shrink; a group whose support is every color is
    skipped, as no domain would shrink.  Arc consistency has a unique
    fixpoint, so the domains at a node depend only on the decisions above
    it.  Revising an assigned vertex never changes it, since its neighbors
    were all revised against its color first, so the loop does not test
    for one.  The trail keeps each changed vertex's old domain, why and key,
    and undo restores all three.

    Backjumping (conflict-directed, Prosser 1993): why[x] is a bitmask of
    the decision vertices behind the colors removed from x's domain (a
    decision stands for itself; a vertex cut to one color keeps the
    decisions that cut it), and the trail restores it with the domain.  A
    wipeout of w revised from x has conflict why[w] | why[x].  A failed
    color whose conflict lacks the branching vertex fails for every color of
    it, so the search skips that vertex's other colors; an exhausted vertex
    passes on the union of its colors' conflicts and its why when picked,
    and the search backs up to the deepest decision in it.  An empty
    conflict refutes the instance.

    Rotation: turning a coloring round the circle gives a coloring, so when
    every root domain is full, vertex 0's is cut to color 0 at set-up.  The
    open search would branch vertex 0 first and try color 0 first; the pin
    only drops its other colors, which hold a solution only if color 0 does.

    Reflection: every offset mask is symmetric under t -> -t, so while each
    root domain is closed under c -> -c and every vertex assigned above a
    decision, by branching or for want of unassigned neighbors, has color 0
    or p/2, so is the whole state, and a refuted color c refutes -c as well.
    (A vertex cut to one color in such a state has one of those colors.)

    Both prunings skip only subtrees that hold no solution, whatever the
    branching order: the search returns the first solution of the
    chronological search in the same order (unpinned when the root domains
    are full and verdict_only is not set), in no more nodes.  domains is
    consumed destructively.  Returns that solution, or None, also when a
    root domain or a pair's mask is empty.
    """
    if n == 0:
        return []
    fixed = 1 | 1 << p // 2  # the colors c with c == -c
    full = (1 << p) - 1
    why = [0] * n
    memos: dict[int, dict[int, int]] = {}
    # groups[x] = [(mask, memo of mask, neighbors over mask)]
    groups = [[(mask, memos.setdefault(mask, {}), ws) for mask, ws in gx] for gx in adj]
    if 0 in memos or 0 in domains:  # no allowed offset or color: nothing to search
        return None
    runs = {mask: _runs(mask, p) for mask in memos}
    # A full domain supports every color across a non-empty mask, so only
    # the vertices with a smaller domain have anything to revise at the root.
    queue = [x for x in range(n) if domains[x] != full]
    if not queue:  # every root domain full: pin vertex 0 to color 0 (rotation)
        domains[0] = 1
        queue = [0]
    if neighbors is None:
        neighbors = [[w for _, ws in gx for w in ws] for gx in adj]
    taken = p + 1  # the size of an assigned vertex
    size = [d.bit_count() if d & (d - 1) else taken for d in domains]

    def key(x: int) -> tuple[int, ...]:
        # Recounted from scratch at every pick, not kept up to date.
        if not verdict_only:
            return size[x], x
        return -sum(size[w] != taken for w in neighbors[x]), size[x], x
    spend = budget.spend
    queued = [d != full for d in domains]
    # A frame is (vertex, its domain and why when picked, colors not yet
    # tried, conflicts of its failed colors, whether reflection holds at it,
    # trail of (vertex, old domain, old why, old key) written since its
    # color was set: by propagation, then by the vertices assigned for want
    # of unassigned neighbors).
    frames: list[tuple[int, int, int, int, int, bool, list]] = []
    mirrored = all(d == full or _reflect(d, p) == d for d in domains)
    v, saved, saved_why, untried, conf, trail = -1, 0, 0, 0, 0, []
    while True:
        conflict = -1
        while queue:
            x = queue.pop()
            queued[x] = False
            dx = domains[x]
            yx = why[x]
            for mask, memo, ws in groups[x]:
                sup = memo.get(dx)
                if sup is None:
                    sup = memo[dx] = _support(mask, dx, p, runs[mask])
                if sup == full:  # supports every color: no domain shrinks
                    continue
                for w in ws:
                    dw = domains[w]
                    nd = dw & sup
                    if nd != dw:
                        yw = why[w]
                        if not nd:
                            conflict = yw | yx
                            break
                        trail.append((w, dw, yw, size[w]))
                        domains[w] = nd
                        why[w] = yw | yx
                        size[w] = nd.bit_count() if nd & (nd - 1) else taken
                        if not queued[w]:
                            queued[w] = True
                            queue.append(w)
                if conflict >= 0:
                    break
            if conflict >= 0:
                break
        if conflict < 0:
            # Reflection holds below v while it held at v and every vertex
            # assigned since has a color of its own mirror.
            sym = mirrored and (v < 0 or domains[v] & fixed != 0)
            while True:
                unassigned = [x for x in range(n) if size[x] != taken]
                if not unassigned:
                    return [d.bit_length() - 1 for d in domains]
                w = min(unassigned, key=key)
                for x in neighbors[w]:
                    if size[x] != taken:
                        break
                else:  # no unassigned neighbor: its lowest color, without a node
                    dw = domains[w]
                    low = dw & -dw
                    trail.append((w, dw, why[w], size[w]))
                    domains[w] = low
                    size[w] = taken
                    sym = sym and low & fixed != 0
                    continue
                break  # a real choice: branch on w
            frames.append((v, saved, saved_why, untried, conf, mirrored, trail))
            mirrored = sym
            v = w
            saved = untried = domains[v]
            saved_why = why[v]
            conf = 0
        else:  # undo v's failed color; back up to the deepest decision in conflict
            for x in queue:
                queued[x] = False
            queue.clear()
            while True:
                if not conflict:
                    return None
                for w, dw, yw, sw in reversed(trail):
                    domains[w] = dw
                    why[w] = yw
                    size[w] = sw
                bit = 1 << v
                if conflict & bit:
                    conf |= conflict ^ bit
                    if mirrored:
                        c = domains[v].bit_length() - 1
                        untried &= ~(1 << (p - c) % p)
                    if untried:
                        break
                    conflict = conf | saved_why
                domains[v] = saved
                why[v] = saved_why
                size[v] = saved.bit_count()
                v, saved, saved_why, untried, conf, mirrored, trail = frames.pop()
        lsb = untried & -untried
        untried ^= lsb
        spend()
        domains[v] = lsb
        why[v] = 1 << v
        size[v] = taken
        trail = []
        queue.append(v)
        queued[v] = True


# solver.chi_c as it was when it probed the index midpoint of its bracket;
# verbatim apart from its name.

def midpoint_chi_c(g: SignedGraph, budget: SolveBudget | None = None) -> ChiResult:
    """Exact circular chromatic number with witness.

    Edgeless graphs get the out-of-band value 1.  A graph whose negation is
    balanced has value exactly 2, witnessed directly from the balancing
    switching set.  Otherwise the value is found by binary search over the
    finite candidate ladder, bracketed between 2 (infeasible) and a greedy
    upper bound (feasible).
    """
    if not g.edges:
        return ChiResult(Fraction(1), None, None)
    budget = _begin(g, budget)

    balanced, sset = is_balanced(g, negate=True)
    if balanced:
        colors = tuple(2 if v in sset else 0 for v in range(g.n))
        witness = Coloring(4, 2, colors)
        if not verify_coloring(g, witness):
            raise RuntimeError("internal error: balance witness invalid")
        return ChiResult(Fraction(2), witness, None)

    seed = _greedy_seed(g)
    ladder = candidates(g.n, 2, Fraction(seed.p, seed.q))

    def value(i: int) -> Fraction:
        return Fraction(*ladder[i])

    lo = 0  # value 2: proven infeasible by the balance test above
    hi = len(ladder) - 1
    if value(lo) != 2 or value(hi) != Fraction(seed.p, seed.q):
        raise RuntimeError("internal error: candidate ladder misses its bracket")
    witness = seed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        p, q = ladder[mid]
        try:
            found = feasible_pq(g, p, q, budget=budget)
        except BudgetExhausted as exc:
            raise ChiUndecided(EvenRational(p, q), value(lo), value(hi),
                               witness, exc.nodes) from exc
        if found is None:
            lo = mid
        else:
            hi = mid
            witness = found
    if (witness.p, witness.q) != ladder[hi]:
        raise RuntimeError("internal error: witness is not at the reported value")
    return ChiResult(value(hi), witness, value(lo))


def oracle_greedy_seed(g: SignedGraph) -> Coloring:
    """solver._greedy_seed as it was before it read the edge rule off the
    offset windows: each placed neighbor forbids its own color across a
    positive edge and its antipode across a negative one, by sign bits."""
    d, order = degeneracy(g)
    u_cap = 2 * (d // 2) + 2
    if u_cap > 2 * g.n:
        return Coloring(2 * g.n, 1, tuple(range(g.n)))
    p = u_cap
    colors = [0] * g.n
    placed = [False] * g.n
    half = p // 2
    for v in reversed(order):
        forbidden = 0  # bit c set when a placed neighbor rules out color c
        for signs, ws in g._sign_groups[v]:
            for w in ws:
                if placed[w]:
                    cw = colors[w]
                    if signs & 1:
                        forbidden |= 1 << cw
                    if signs & 2:
                        forbidden |= 1 << (cw + half) % p
        colors[v] = (~forbidden & (forbidden + 1)).bit_length() - 1  # lowest free
        placed[v] = True
    return Coloring(p, 1, tuple(colors))


# core._blocks and core._repeated_pieces as they were when a block's
# separation pairs came from one block search per vertex; verbatim apart
# from the oracle prefix on their names and the pair search split out of
# oracle_repeated_pieces as oracle_block_pairs.

def oracle_blocks(nbrs: Sequence[Sequence[int]], keep: list[bool]) -> list[list[int]]:
    """Vertex lists of the blocks (2-connected pieces and bridges) of the
    simple graph nbrs induced on the vertices v with keep[v]: Hopcroft-Tarjan,
    by an explicit stack."""
    index = [-1] * len(nbrs)
    low = index[:]
    count = 0
    blocks = []
    for root, kept in enumerate(keep):
        if not kept or index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack, dfs = [root], [(root, iter(nbrs[root]))]
        while dfs:
            v, it = dfs[-1]
            for w in it:
                if keep[w]:
                    iw = index[w]
                    if iw < 0:
                        index[w] = low[w] = count
                        count += 1
                        stack.append(w)
                        dfs.append((w, iter(nbrs[w])))
                        break
                    if iw < low[v]:
                        low[v] = iw
            else:
                dfs.pop()
                if dfs:
                    u = dfs[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= index[u]:  # u cuts v's subtree off: one block
                        block = [u]
                        while block[-1] != v:
                            block.append(stack.pop())
                        blocks.append(block)
    return blocks


def oracle_block_pairs(nbrs: Sequence[Sequence[int]]) -> list[tuple[list[int], list]]:
    """Each block of nbrs with at least 4 vertices, each with at least 3
    neighbors in it, and its separation pairs (ascending): the vertex pairs
    {a, b} such that b is a cut vertex of the block less a."""
    nbr_sets = [set(ws) for ws in nbrs]
    found = []
    for block in oracle_blocks(nbrs, [True] * len(nbrs)):
        inside = set(block)
        if len(block) < 4 or any(len(nbr_sets[x] & inside) < 3 for x in block):
            continue
        keep = [False] * len(nbrs)
        for x in block:
            keep[x] = True
        pairs = set()
        for a in block:
            keep[a] = False
            seen: set[int] = set()
            for sub in oracle_blocks(nbrs, keep):
                pairs.update((min(a, b), max(a, b)) for b in sub if b in seen)
                seen.update(sub)
            keep[a] = True
        found.append((block, sorted(pairs)))
    return found


def oracle_repeated_pieces(g: SignedGraph):
    """The 2-separated pieces of g that occur at least twice, and g without them.

    A separation pair {a, b} is sought only inside a block whose vertices
    all have at least three neighbors in the block (b must cut the block
    once a is gone), so a single vertex with two neighbors in a block (an
    ear) turns the cut off for that whole block.
    Each component of g - {a, b} touching both a and b is a piece; its key
    is its sorted list of edges (u, v, '+' or '-') with a, b relabelled 0,
    1 and its other vertices 2, 3, ... in ascending order (edges between a
    and b stay outside).  So the key does not depend on the order of
    g.edges, but two copies of a piece share it only when their internal
    vertices are numbered in the same relative order.
    Of the pieces whose key occurs at least twice, the innermost are cut
    out: those with no internal vertex that is a terminal of another such
    piece.  So no cut piece holds another's terminal, and each keeps both
    of its own.  Returns None when none is cut, or (quotient, kept,
    terminals, graphs): the quotient is g on the kept vertices (relabelled
    by ascending index into kept), graphs holds one relabelled graph per
    key, and terminals lists (a, b, key index) in quotient labels for each
    cut piece.

    This depends on g alone: SignedGraph._pieces computes it once per graph.
    """
    nbrs = g._neighbors
    nbr_sets = [set(ws) for ws in nbrs]
    pieces = []  # (a, b, internal vertices, key)
    for _, pairs in oracle_block_pairs(nbrs):
        for a, b in pairs:
            done = {a, b}
            for start in nbrs[a]:
                if start in done:
                    continue
                comp, todo = {start}, [start]
                while todo:
                    for w in nbrs[todo.pop()]:
                        if w not in comp and w != a and w != b:
                            comp.add(w)
                            todo.append(w)
                done |= comp
                if nbr_sets[b] & comp:
                    label = {a: 0, b: 1}
                    label.update((w, i) for i, w in enumerate(sorted(comp), 2))
                    key = (len(label), tuple(sorted(
                        (min(label[e.u], label[e.v]), max(label[e.u], label[e.v]), e.sign.symbol)
                        for e in g.edges if e.u in comp or e.v in comp)))
                    pieces.append((a, b, comp, key))
    counts = Counter(key for *_, key in pieces)
    repeated = [piece for piece in pieces if counts[piece[3]] > 1]
    ends = {x for a, b, _, _ in repeated for x in (a, b)}
    cut = [piece for piece in repeated if not ends & piece[2]]  # the innermost
    if not cut:
        return None
    gone = set().union(*(comp for _, _, comp, _ in cut))
    kept = tuple(v for v in range(g.n) if v not in gone)
    label = {v: i for i, v in enumerate(kept)}
    keys: dict[tuple, int] = {}
    terminals = tuple((label[a], label[b], keys.setdefault(key, len(keys)))
                      for a, b, _, key in cut)
    quotient = SignedGraph(len(kept), tuple(
        Edge(label[e.u], label[e.v], e.sign) for e in g.edges if e.u in label and e.v in label))
    graphs = tuple(SignedGraph.from_triples(n, triples) for n, triples in keys)
    return quotient, kept, terminals, graphs


# find_tight_cycle as it was before its DFS kept a single arc path;
# verbatim apart from the oracle prefix on its name.

def oracle_find_tight_cycle(d: TightDigraph) -> Optional[tuple[Arc, ...]]:
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


# The certificate layer as it was on Fractions, before it moved onto one
# integer grid; verbatim apart from the frac prefix on its names, so the
# grid version can be held to the same arcs, values, results and errors.

def frac_gap(e: Edge, colors: Sequence[Fraction], r: Fraction, half: Fraction) -> Fraction:
    """Clockwise gap from u's color to v's target point along edge e.

    The target is v's color for a positive edge, its antipode for a negative
    one.  The edge holds iff 1 <= gap <= r - 1; the step (u, v) is tight iff
    gap == 1, and the step (v, u), whose gap is r - gap, iff gap == r - 1.
    """
    return circle_gap(colors[e.v], colors[e.u], 0 if e.sign is POS else half, r)


def frac_edge_gaps(g: SignedGraph, c: RationalColoring) -> Optional[list[Fraction]]:
    """One gap per edge of g in edge order, or None when an edge fails."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {g.n} vertices")
    r, half = c.r, c.r / 2
    gaps = [frac_gap(e, c.colors, r, half) for e in g.edges]
    top = r - 1
    return gaps if all(1 <= gap <= top for gap in gaps) else None


def frac_tight_steps(e: Edge, idx: int, gap: Fraction, r: Fraction) -> list[Arc]:
    """The tight steps along edge idx, given its gap."""
    steps = [(e.u, e.v, idx)] if gap == 1 else []
    if gap == r - 1 and not e.is_loop:
        steps.append((e.v, e.u, idx))
    return steps


def frac_verify_rational(g: SignedGraph, c: RationalColoring) -> bool:
    """Check an exact circular coloring against every edge."""
    return frac_edge_gaps(g, c) is not None


def frac_tight_digraph(g: SignedGraph, c: RationalColoring) -> TightDigraph:
    """The digraph of tight steps; rejects non-verifying colorings."""
    gaps = frac_edge_gaps(g, c)
    if gaps is None:
        raise ValueError("coloring does not verify; tight digraph undefined")
    return TightDigraph(g.n, tuple(arc for idx, (e, gap) in enumerate(zip(g.edges, gaps))
                                   for arc in frac_tight_steps(e, idx, gap, c.r)))


def frac_cert_value(g: SignedGraph, c: RationalColoring, cycle: Sequence[Arc]) -> TightCycleCertificate:
    """Validate a tight cycle and extract the value it certifies.

    Raises CorruptCertificateError when the arcs do not form a closed tight
    walk under c, or when the step counts give no integer a with 2a + t >= 1.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise CorruptCertificateError("empty cycle")
    gaps = frac_edge_gaps(g, c)
    if gaps is None:
        raise ValueError("coloring does not verify; nothing to certify")
    t = 0
    for i, (u, v, idx) in enumerate(cycle):
        if not 0 <= idx < g.m:
            raise CorruptCertificateError(f"arc {i}: no edge {idx}")
        e = g.edges[idx]
        if {u, v} != {e.u, e.v}:
            raise CorruptCertificateError(f"arc {i}: edge {idx} does not join {u} and {v}")
        nxt = cycle[(i + 1) % len(cycle)]
        if v != nxt[0]:
            raise CorruptCertificateError(f"arc {i} ends at {v}, arc {i+1} starts at {nxt[0]}")
        if (gaps[idx] if u == e.u else c.r - gaps[idx]) != 1:
            raise CorruptCertificateError(f"arc {i}: step ({u},{v}) is not tight")
        t += e.sign is not POS
    s, r = len(cycle) - t, c.r
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


def frac_refine(g: SignedGraph, c: RationalColoring) -> RationalColoring:
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
    d = frac_tight_digraph(g, c)
    if find_tight_cycle(d) is not None:
        raise NotRefinableError("tight cycle present")

    colors = list(c.colors)
    r, half = c.r, c.r / 2
    gaps = frac_edge_gaps(g, c)
    adj = g.adjacency()
    arcs = set(d.arcs)  # no loop arcs: a tight loop is a tight cycle
    while arcs:
        sinks = {w for _, w, _ in arcs} - {u for u, _, _ in arcs}
        if not sinks:
            raise RuntimeError("internal error: acyclic tight digraph without a sink")
        v = min(sinks)
        at_v = {idx for w, idx in adj[v] if w != v}
        eps = (min(gaps[idx] if v == g.edges[idx].u else r - gaps[idx] for idx in at_v) - 1) / 2
        if eps <= 0:
            raise RuntimeError("internal error: sink with a tight out-step")
        colors[v] = (colors[v] + eps) % r
        for idx in at_v:
            gaps[idx] = frac_gap(g.edges[idx], colors, r, half)
        new_arcs = {arc for arc in arcs if arc[2] not in at_v}.union(
            *(frac_tight_steps(g.edges[idx], idx, gaps[idx], r) for idx in at_v))
        if len(new_arcs) >= len(arcs):
            raise RuntimeError(
                "internal error: refinement stalled (tight step count did not drop)"
            )
        arcs = new_arcs

    # A negative loop's gap is r/2, so its slack r/2 - 1 needs no special case.
    eps = (min(min(gap, r - gap) for gap in gaps) - 1) / 2
    if eps <= 0:
        raise RuntimeError("internal error: zero slack after clearing all tight steps")
    scale = 1 + eps
    refined = RationalColoring(r / scale, tuple(x / scale for x in colors))
    if not frac_verify_rational(g, refined):
        raise RuntimeError("internal error: refined coloring invalid")
    return refined


# io_cli.parse_sg and io_cli.parse_coloring as they were before their fast
# path for well-formed records, with the line reader they shared; verbatim
# apart from the oracle prefix on their names.

def oracle_content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def oracle_parse_sg(text: str) -> SignedGraph:
    """Parse the .sg format; raises ParseError with a line number."""
    n = None
    triples = []
    for lineno, line in oracle_content_lines(text):
        parts = line.split()
        if n is None:
            if parts[0] != "sg" or len(parts) != 2:
                raise ParseError(lineno, "expected header 'sg <n>'")
            n = _int(parts[1], lineno, f"bad vertex count {parts[1]!r}")
            if n < 0:
                raise ParseError(lineno, "vertex count must be nonnegative")
            continue
        if parts[0] == "e":
            if len(parts) != 4:
                raise ParseError(lineno, "expected 'e <u> <v> <+|->'")
            u, v = (_int(t, lineno, "edge endpoints must be integers") for t in parts[1:3])
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"endpoint out of range 0..{n - 1}")
            if parts[3] not in ("+", "-"):
                raise ParseError(lineno, f"bad sign token {parts[3]!r} (want + or -)")
            triples.append((u, v, parts[3]))
        elif parts[0] == "v":
            if len(parts) < 3:
                raise ParseError(lineno, "expected 'v <idx> <name>'")
            idx = _int(parts[1], lineno, "vertex index must be an integer")
            if not 0 <= idx < n:
                raise ParseError(lineno, f"vertex index out of range 0..{n - 1}")
            # names are I/O-level decoration only
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    if n is None:
        raise ParseError(1, "missing 'sg <n>' header")
    return SignedGraph.from_triples(n, triples)


def oracle_parse_coloring(text: str, n: int) -> Coloring:
    """Parse a coloring file for an n-vertex graph; must cover every vertex."""
    header = None
    seen: dict[int, int] = {}
    for lineno, line in oracle_content_lines(text):
        parts = line.split()
        if header is None:
            if parts[0] != "coloring" or len(parts) != 2 or "/" not in parts[1]:
                raise ParseError(lineno, "expected header 'coloring <p>/<q>'")
            header = tuple(_int(t, lineno, f"bad p/q {parts[1]!r}")
                           for t in parts[1].split("/", 1))
            if min(header) < 1:
                raise ParseError(lineno, f"p and q must be at least 1, got {parts[1]!r}")
            continue
        if len(parts) != 2:
            raise ParseError(lineno, "expected '<vertex> <color>'")
        v, c = (_int(t, lineno, "vertex and color must be integers") for t in parts)
        if not 0 <= v < n:
            raise ParseError(lineno, f"vertex {v} out of range 0..{n - 1}")
        if v in seen:
            raise ParseError(lineno, f"vertex {v} colored twice")
        if not 0 <= c < header[0]:
            raise ParseError(lineno, f"color {c} out of range 0..{header[0] - 1}")
        seen[v] = c
    if header is None:
        raise ParseError(1, "missing 'coloring <p>/<q>' header")
    missing = [v for v in range(n) if v not in seen]
    if missing:
        raise ParseError(1, f"vertices without a color: {missing[:5]}")
    return Coloring(header[0], header[1], tuple(seen[v] for v in range(n)))


# core.degeneracy, solver.verify_coloring with its coloring check, and
# certificates._edge_gaps with its gap, as they were before each became one
# pass over the edges without per-edge helper calls; verbatim apart from the
# oracle prefix on their names.

def oracle_degeneracy(g: SignedGraph) -> tuple[int, list[int]]:
    """Smallest d such that every subgraph has a vertex of degree <= d.

    Degrees count edge multiplicity; loops count 2.  Returns (d, order)
    where order is the elimination order (min-degree first, ties to the
    lowest index); reversed, it is a greedy-colorable order (Matula and Beck
    1983).  A heap keyed (degree, vertex), whose stale entries are skipped
    when popped, yields each minimum in O((n + m) log n) overall.
    """
    deg = g.degrees()
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapify(heap)
    alive = [True] * g.n
    order = []
    d = 0
    while heap:
        dv, v = heappop(heap)
        if not alive[v] or dv != deg[v]:
            continue
        d = max(d, dv)
        order.append(v)
        alive[v] = False
        for y, _idx in g._adj[v]:
            if alive[y]:
                deg[y] -= 1
                heappush(heap, (deg[y], y))
    return d, order


def oracle_validate_coloring(c: Coloring, n: int | None = None):
    """Raise ValueError unless p and q pass _validate_pq, there are n colors
    (any number when n is None), and each is an int, not a bool, in 0..p-1."""
    _validate_pq(c.p, c.q)
    if n is not None and len(c.colors) != n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {n} vertices")
    for i, x in enumerate(c.colors):
        if not (_is_int(x) and 0 <= x < c.p):
            raise ValueError(f"color {x!r} of vertex {i} out of range for p={c.p}")


def oracle_verify_coloring(g: SignedGraph, c: Coloring) -> bool:
    """Check a (p,q)-coloring against every edge.

    Malformed colorings (wrong length, out-of-range colors, bad p/q) raise;
    a well-formed coloring that breaks an edge constraint returns False.
    Loops need no special case: a negative loop always passes, a positive
    loop always fails.
    """
    oracle_validate_coloring(c, g.n)
    p, q, half = c.p, c.q, c.p // 2
    return all(circle_edge_ok(c.colors[e.u], c.colors[e.v], 0 if e.sign is POS else half, p, q)
               for e in g.edges)


def oracle_gap(e: Edge, xs: Sequence[int], big_r: int) -> int:
    """Clockwise gap, in grid steps, from u's color to v's target point.

    The target is v's color for a positive edge, its antipode for a negative
    one.  With D steps per unit, the edge holds iff D <= gap <= R - D; the
    step (u, v) is tight iff gap == D, and the step (v, u), whose gap is
    R - gap, iff gap == R - D.
    """
    return circle_gap(xs[e.v], xs[e.u], 0 if e.sign is POS else big_r // 2, big_r)


def oracle_edge_gaps(g: SignedGraph, c: RationalColoring
                     ) -> Optional[tuple[int, int, list[int], list[int]]]:
    """(D, R, X, gaps): c's grid and one gap per edge of g in edge order, or
    None when an edge fails."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {g.n} vertices")
    d, big_r, xs = _grid(c)
    gaps = [oracle_gap(e, xs, big_r) for e in g.edges]
    top = big_r - d
    return (d, big_r, xs, gaps) if all(d <= gap <= top for gap in gaps) else None
