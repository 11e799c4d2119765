"""Exact (p,q)-coloring search and circular chromatic numbers.

The search is deterministic backtracking over bitmask color domains with
arc-consistency propagation: the branching vertex is the one with the
smallest remaining domain (ties to the lowest index), colors are tried in
ascending order, and when every root domain is full vertex 0 is fixed to
color 0 (sound by rotation symmetry; the open search branches vertex 0
first and tries color 0 first anyway).  Repeat runs produce byte-identical
witnesses.  That order fixes which coloring is found first, so every
search whose solution is returned keeps it: feasible_pq's own, and with it
chi_c and chi_plus.  The verdict-only searches, for a terminal relation
(a repeated piece's, or an indicator's Z-set) and for the quotient (below),
branch instead on the least domain size over degree (Bessiere and Regin
1996), which refutes in fewer nodes; it changes how much work a verdict
takes, never the verdict.  _search's verdict_only flag selects that order
and reads each vertex's degree off the adjacency it is given.

The search is one iterative loop over an explicit stack of frames, so its
depth is not bounded by Python's recursion limit.  Propagation queues the
vertices whose domain shrank and revises their neighbors.  Every adjacent
vertex pair carries one constraint, a p-bit mask of the offsets allowed
between its colors, and the support of a domain across the pair is the
sumset of the domain with that mask, computed by doubling and memoised per
search.  Which pairs are adjacent, and with which signs, is kept on the
graph (SignedGraph._sign_groups), so a probe only stamps each sign's window
onto it.  Failures back up by conflict-directed backjumping rather than
chronologically, and while the state is symmetric under c -> -c a refuted
color also refutes its mirror; both skip only subtrees without a solution,
so the first solution found, and hence every witness, is the one the
chronological search finds, in no more nodes.

Before that search, feasible_pq cuts out the innermost 2-separated pieces
whose edge list, in any order, occurs at least twice
(core._repeated_pieces), replaces each by the set of terminal offsets it
allows (computed once per distinct piece), and refutes the instance
outright when that smaller quotient has no coloring.  Pieces are sought
only in blocks where every vertex has three neighbors inside the block,
and two copies count as the same piece only when their internal vertices
are numbered in the same relative order; elsewhere the whole graph is
searched.

All color arithmetic is exact integers; budgets are node counts (one node =
one attempted vertex<-color assignment).  An exhausted budget raises, it
never returns a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import EvenRational, circle_edge_ok
# chi_c's ladder as integer (p, q) pairs; it keeps the name candidates,
# under which the bench traces the ladder layer.
from .arith import candidate_pairs as candidates
from .core import (CapacityError, POS, SignedGraph, UncolorableError,
                   _group, _lift_bfs, degeneracy, is_balanced)


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
    """The search hit its node budget before deciding."""

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
    """Cumulative node budget shared across solver calls: nodes counts the
    nodes spent, and the node past max_nodes (None: no cap) raises."""

    max_nodes: int | None = None
    nodes: int = 0

    def spend(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
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


def _adjacency(g: SignedGraph, p: int, q: int,
               relations: Sequence[tuple[int, int, int]] = ()
               ) -> Sequence[Sequence[tuple[int, Sequence[int]]]]:
    """adj[v] = (offset mask, neighbors) groups: v's neighbors, ascending,
    grouped by the mask of their pair with v, the groups in order of their
    first neighbor.

    Bit t of a pair's p-bit mask is set when the neighbor may sit t steps
    round the circle from v: the window [q, p-q] for a positive edge, that
    window turned by p/2 for a negative one, and the AND of the masks of
    all edges between the pair and of every relation (a, b, mask) given on
    it.  Both windows are symmetric under t -> -t, so one mask serves both
    directions; relations must be symmetric too.  Negative loops constrain
    nothing (distance to the antipode is p/2 >= q) and are dropped;
    positive loops must be rejected by the caller.  Without relations the
    groups are g._sign_groups, kept on the graph, with each sign's window
    stamped in; the three windows differ, so grouping by mask is grouping
    by sign.
    """
    half, full = p // 2, (1 << p) - 1
    pos = ((1 << (p - 2 * q + 1)) - 1) << q
    neg = (pos << half | pos >> half) & full
    window = (full, pos, neg, pos & neg)  # indexed by a pair's sign bits
    if not relations:
        return [[(window[signs], ws) for signs, ws in groups] for groups in g._sign_groups]
    masks = {(a, b): window[signs] for a, b, signs in g._pair_signs}
    for a, b, mask in relations:
        key = (min(a, b), max(a, b))
        masks[key] = masks.get(key, full) & mask
    return _group(g.n, ((a, b, mask) for (a, b), mask in sorted(masks.items())))


def _support(mask: int, dx: int, p: int) -> int:
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


def _reflect(d: int, p: int) -> int:
    """The color set {-c mod p : c in d} of a p-bit color set d."""
    return (d & 1) | int(format(d >> 1, f"0{p - 1}b")[::-1], 2) << 1


def _search(n: int, adj: Sequence[Sequence[tuple[int, Sequence[int]]]], p: int,
            domains: list[int], budget: SolveBudget,
            verdict_only: bool = False) -> list[int] | None:
    """Backtracking with arc consistency over bitmask domains, iteratively,
    with conflict-directed backjumping, a rotation pin and reflection pruning.

    Branches on the unassigned vertex with the least key (ties to the lowest
    index), trying its colors in ascending order; an explicit stack of
    frames stands in for recursion.  size[x] holds the key: x's domain size,
    or with verdict_only its domain size over its degree (its number of
    distinct neighbors in adj, at least 1) as the exact integer popcount *
    lcm / degree; an assigned vertex's key is one above every other.  Only
    callers that use the verdict alone set verdict_only, since the first
    solution depends on the order.

    Propagation pops a vertex whose domain shrank and intersects each
    neighbor's domain with that domain's support (_support, memoised per
    offset mask for this call), queueing the neighbors that shrink.  Arc
    consistency has a unique fixpoint, so the domains at a node depend only
    on the decisions above it.  Revising an assigned vertex never changes
    it, since its neighbors were all revised against its color first, so
    the loop does not test for one.

    Backjumping (conflict-directed, Prosser 1993): why[x] is a bitmask of
    the decision vertices behind the colors removed from x's domain (an
    assigned vertex stands for itself), and the trail restores it with the
    domain.  A wipeout of w revised from x has conflict why[w] | why[x].  A
    failed color whose conflict lacks the branching vertex fails for every
    color of it, so the search skips that vertex's other colors; an
    exhausted vertex passes on the union of its colors' conflicts and its
    why when picked, and the search backs up to the deepest decision in it.
    An empty conflict refutes the instance.

    Rotation: turning a coloring round the circle gives a coloring, so when
    every root domain is full, vertex 0's is cut to color 0 at set-up.  The
    open search would branch vertex 0 first and try color 0 first; the pin
    only drops its other colors, which hold a solution only if color 0 does.

    Reflection: every offset mask is symmetric under t -> -t, so while each
    root domain is closed under c -> -c and every decision above is 0 or
    p/2, so is the whole state, and a refuted color c refutes -c as well.

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
    # A full domain supports every color across a non-empty mask, so only
    # the vertices with a smaller domain have anything to revise at the root.
    queue = [x for x in range(n) if domains[x] != full]
    if not queue:  # every root domain full: pin vertex 0 to color 0 (rotation)
        domains[0] = 1
        queue = [0]
    scale = [1] * n
    if verdict_only:  # domain size over degree: each vertex's distinct neighbors
        degree = [sum(len(ws) for _, ws in gx) or 1 for gx in adj]
        lcm = math.lcm(*degree)
        scale = [lcm // d for d in degree]
    size = [d.bit_count() * s for d, s in zip(domains, scale)]
    taken = p * max(scale) + 1  # the key of an assigned vertex
    spend = budget.spend
    queued = [d != full for d in domains]
    # A frame is (vertex, its domain and why when picked, colors not yet
    # tried, conflicts of its failed colors, whether reflection holds at it,
    # trail of (vertex, old domain, old why) written by its propagation).
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
                    sup = memo[dx] = _support(mask, dx, p)
                for w in ws:
                    dw = domains[w]
                    nd = dw & sup
                    if nd != dw:
                        yw = why[w]
                        if not nd:
                            conflict = yw | yx
                            break
                        trail.append((w, dw, yw))
                        domains[w] = nd
                        why[w] = yw | yx
                        size[w] = nd.bit_count() * scale[w]
                        if not queued[w]:
                            queued[w] = True
                            queue.append(w)
                if conflict >= 0:
                    break
            if conflict >= 0:
                break
        if conflict < 0:
            smallest = min(size)
            if smallest == taken:
                return [d.bit_length() - 1 for d in domains]
            frames.append((v, saved, saved_why, untried, conf, mirrored, trail))
            if v >= 0:
                mirrored = mirrored and domains[v] & fixed != 0
            v = size.index(smallest)
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
                for w, dw, yw in reversed(trail):
                    domains[w] = dw
                    why[w] = yw
                    size[w] = dw.bit_count() * scale[w]
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
                size[v] = saved.bit_count() * scale[v]
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


def _relation(g: SignedGraph, u: int, v: int, p: int, q: int, budget: SolveBudget) -> int:
    """The symmetric offset mask {+-d : g has a (p,q)-coloring with vertex u
    at 0 and vertex v != u at d}; d up to p/2 suffices, by reflection.

    The one loop over pinned separations: a repeated piece's relation (u, v
    = 0, 1) and an indicator's Z-set (its bits 0..p/2).  Each d is one
    pinned search whose verdict alone is kept, so it branches on domain size
    over degree (verdict_only): at 18/4 the big_gamma piece of k4_omega is
    refuted at d = 0, 1 and 2 in 15,473 nodes; the canonical order takes
    72,781.
    """
    adj = _adjacency(g, p, q)
    full = (1 << p) - 1
    mask = 0
    for d in range(p // 2 + 1):
        domains = [full] * g.n
        domains[u], domains[v] = 1, 1 << d
        if _search(g.n, adj, p, domains, budget, verdict_only=True) is not None:
            mask |= 1 << d | 1 << (p - d) % p
    return mask


def _quotient_refuted(g: SignedGraph, p: int, q: int, domains: list[int],
                      budget: SolveBudget) -> bool:
    """Whether g without its repeated pieces, each replaced by its terminal
    relation (computed once per key), has no (p,q)-coloring within g's root
    domains, as feasible_pq set them (they are left unchanged).

    Every coloring of g colors the quotient: the relations only state what
    the pieces force on their terminals, and the domains of cut-out vertices
    are dropped.  So a refuted quotient refutes g.  If every domain left is
    full, _search pins the quotient's lowest vertex, as it pins g's.  A
    quotient coloring is never shown (g is searched whole instead), so this
    search too branches on domain size over degree (verdict_only).
    """
    structure = g._pieces
    if structure is None:
        return False
    quotient, kept, terminals, graphs = structure
    masks = [_relation(h, 0, 1, p, q, budget) for h in graphs]
    kept_domains = [domains[v] for v in kept]
    adj = _adjacency(quotient, p, q, [(a, b, masks[k]) for a, b, k in terminals])
    return _search(quotient.n, adj, p, kept_domains, budget, verdict_only=True) is None


def _begin(g: SignedGraph, budget: SolveBudget | None) -> SolveBudget:
    """The entry guard of feasible_pq, z_set and chi_c: no positive loop,
    and the budget to spend (a fresh one when none is given)."""
    if g.has_positive_loop():
        raise UncolorableError("positive loop: no circular coloring exists")
    return SolveBudget() if budget is None else budget


def feasible_pq(g: SignedGraph, p: int, q: int,
                pins: Sequence[Pin] = (),
                budget: SolveBudget | None = None) -> Coloring | None:
    """Find a (p,q)-coloring of g, or prove there is none.

    Returns a verifying Coloring, or None when the instance is infeasible.
    A positive loop makes every (p,q) infeasible in a structural way and
    raises UncolorableError instead.  BudgetExhausted propagates when the
    budget runs out before a decision.

    When g has repeated 2-separated pieces (core._repeated_pieces), each
    distinct piece's terminal relation is computed first and the quotient
    searched; a refuted quotient returns None.  Otherwise, or when the
    quotient has a coloring, the search runs on g itself, so a witness is
    always the canonical one.  Relations live for this call only, and every
    node of theirs is spent from the caller's budget.  Without pins, _search
    fixes vertex 0 to color 0 by rotation.
    """
    _validate_pq(p, q)
    budget = _begin(g, budget)
    full = (1 << p) - 1
    domains = [full] * g.n
    for pin in pins:
        if not 0 <= pin.vertex < g.n:
            raise ValueError(f"pin on non-vertex {pin.vertex}")
        if not 0 <= pin.color < p:
            raise ValueError(f"pin color {pin.color} out of range for p={p}")
        if domains[pin.vertex] not in (full, 1 << pin.color):
            raise ValueError(f"conflicting pins on vertex {pin.vertex}")
        domains[pin.vertex] = 1 << pin.color

    if _quotient_refuted(g, p, q, domains, budget):
        return None
    sol = _search(g.n, _adjacency(g, p, q), p, domains, budget)
    if sol is None:
        return None
    c = Coloring(p, q, tuple(sol))
    if not verify_coloring(g, c):
        raise RuntimeError("internal error: solver emitted a bad coloring")
    return c


def _greedy_seed(g: SignedGraph) -> Coloring:
    """A guaranteed coloring: greedy over the reverse elimination order.

    At (U,1) with U = 2*floor(d/2)+2 > d, each already-colored neighbor
    forbids at most one color per connecting edge (its pair's window from
    _adjacency, turned by the neighbor's color, allows all others), and a
    vertex meets at most d earlier-colored edge-endpoints, so a color is
    always free.  When parallel edges push U above 2n, the identity-spread
    coloring at (2n,1) works instead (all colors distinct and below p/2).
    """
    d, order = degeneracy(g)
    p = 2 * (d // 2) + 2
    if p <= 2 * g.n:
        adj = _adjacency(g, p, 1)
        colors = [-1] * g.n  # -1 until placed
        for v in reversed(order):
            free = (1 << p) - 1  # the colors every placed neighbor allows
            for mask, ws in adj[v]:
                for w in ws:
                    c = colors[w]
                    if c >= 0:  # the pair's window turned by c
                        free &= mask << c | mask >> (p - c)
            colors[v] = (free & -free).bit_length() - 1  # lowest free
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


def chi_plus(g: SignedGraph) -> int:
    """Minimum over all switchings of the chromatic number of the positive
    part.

    A k-coloring of the positive part after switching at S, negated on S,
    is a 0-free 2k-coloring (colors +-1..+-k, Zaslavsky 1982), and every
    0-free 2k-coloring arises so; zero_free_to_circular maps those exactly
    onto the (2k,1)-colorings.  So the value is the least k with a
    (2k,1)-coloring, and k <= n since the identity spread at (2n,1) colors
    the graph.  A positive loop survives every switching, so no proper
    coloring exists.
    """
    if g.has_positive_loop():
        raise UncolorableError("positive loop: no proper coloring of the positive part")
    if g.n == 0:
        return 0
    k = 1
    while feasible_pq(g, 2 * k, 1) is None:
        k += 1
    return k


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
