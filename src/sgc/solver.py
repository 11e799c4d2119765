"""Exact (p,q)-coloring search and circular chromatic numbers.

Which function owns which rule:

- _search: the one search kernel (arc consistency over bitmask domains,
  backjumping, the rotation pin, the reflection cut, refuted parts, free
  colors), its two branching orders (canonical, which fixes the
  witnesses, and verdict_only), and what a node is.
- _gaps: each edge's gap, the one edge check of a coloring, which
  verify_coloring and the certificate layer read.
- _windows, _adjacency: each adjacent pair's mask of allowed offsets.
- _runs, _support: a domain's support across such a mask.
- _relation: the terminal offsets a piece or an indicator allows
  (_separations: those one coloring shows).
- _quotient_refuted: repeated 2-separated pieces replaced by their relations.
- feasible_pq: one rung, with its pins, its set-up refutations and its
  verified witness.
- chi_c: the walk over the candidate ladder (_probe, _greedy_seed,
  _rung_below_four); chi_s and chi_plus build on it and on feasible_pq.

All color arithmetic is exact integers and budgets are node counts; an
exhausted budget raises, it never returns a wrong answer.  Repeat runs
produce byte-identical witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import EvenRational, _is_int
# chi_c's ladder as integer (p, q) pairs; it keeps the name candidates,
# under which the bench traces the ladder layer.
from .arith import candidate_pairs as candidates
from .core import (CapacityError, POS, Edge, SignedGraph, UncolorableError,
                   _group, _lift_bfs, degeneracy, is_balanced)

__all__ = ["BudgetExhausted", "ChiResult", "ChiUndecided", "Coloring", "Pin", "SolveBudget",
           "chi_c", "chi_plus", "chi_s", "circular_to_zero_free", "feasible_pq",
           "verify_coloring", "zero_free_to_circular"]


@dataclass(frozen=True)
class Coloring:
    """A (p,q)-coloring: colors[v] in {0..p-1} for each vertex."""

    p: int
    q: int
    colors: tuple[int, ...]

    def __post_init__(self):  # a caller's list must not change the coloring later
        object.__setattr__(self, "colors", tuple(self.colors))


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
    nodes spent, and the node past max_nodes (None: no cap) raises.
    max_nodes must be None or an int, not a bool, that is at least 0, and
    nodes an int, not a bool, that is at least 0."""

    max_nodes: int | None = None
    nodes: int = 0

    def __post_init__(self):
        if self.max_nodes is not None and not (_is_int(self.max_nodes) and self.max_nodes >= 0):
            raise ValueError(f"max_nodes must be None or an int >= 0, got {self.max_nodes!r}")
        if not (_is_int(self.nodes) and self.nodes >= 0):
            raise ValueError(f"nodes must be an int >= 0, got {self.nodes!r}")

    def spend(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExhausted(self.nodes)


def _validate_pq(p: int, q: int):
    if not (_is_int(p) and _is_int(q)):
        raise ValueError(f"p, q must be ints, got {p!r}, {q!r}")
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if not 1 <= q <= p // 2:
        raise ValueError(f"need 1 <= q <= p/2, got q={q}, p={p}")


def _validate_coloring(c: Coloring, n: int | None = None):
    """Raise ValueError unless p and q pass _validate_pq, there are n colors
    (any number when n is None), and each is an int, not a bool, in 0..p-1."""
    _validate_pq(c.p, c.q)
    if n is not None and len(c.colors) != n:
        raise ValueError(f"coloring has {len(c.colors)} entries for {n} vertices")
    for i, x in enumerate(c.colors):
        if not ((type(x) is int or _is_int(x)) and 0 <= x < c.p):
            raise ValueError(f"color {x!r} of vertex {i} out of range for p={c.p}")


def _gaps(edges: Iterable[Edge], xs: Sequence[int], r: int) -> list[int]:
    """Each edge's clockwise gap, in edge order, on a circle of r grid steps.

    An edge (u, v, sign)'s gap runs from u's color xs[u] to v's target
    point: v's color for a positive edge, its antipode for a negative one
    (r is even), so it is arith.circle_gap(xs[v], xs[u], 0 or r/2, r).
    With colors a width of w steps apart (q on the p-grid, D on the
    certificates' R-grid) the edge holds iff w <= gap <= r - w; the step
    (u, v) is tight iff gap == w, and the step (v, u), whose gap is r - gap,
    iff gap == r - w.  A negative loop's gap is r/2, which always holds; a
    positive loop's is 0, which never does.
    """
    half = r // 2
    return [(xs[v] - xs[u] - (0 if sign is POS else half)) % r for u, v, sign in edges]


def verify_coloring(g: SignedGraph, c: Coloring) -> bool:
    """Check a (p,q)-coloring against every edge: q <= gap <= p - q for
    each edge's gap (_gaps).

    Malformed colorings (wrong length, out-of-range colors, bad p/q) raise;
    a well-formed coloring that breaks an edge constraint returns False.
    """
    _validate_coloring(c, g.n)
    gaps = _gaps(g.edges, c.colors, c.p)
    return not gaps or (c.q <= min(gaps) and max(gaps) <= c.p - c.q)


def _windows(p: int, q: int) -> tuple[int, int, int, int]:
    """The offset mask of a pair, indexed by its sign bits (_pair_signs):
    every offset with no edge, the window [q, p-q] for positive edges, that
    window turned by p/2 for negative ones, and their intersection for both,
    which is empty when p < 4q."""
    half, full = p // 2, (1 << p) - 1
    pos = ((1 << (p - 2 * q + 1)) - 1) << q
    neg = (pos << half | pos >> half) & full
    return full, pos, neg, pos & neg


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
    window = _windows(p, q)
    if not relations:
        return [[(window[signs], ws) for signs, ws in groups] for groups in g._sign_groups]
    masks = {(a, b): window[signs] for a, b, signs in g._pair_signs}
    for a, b, mask in relations:
        key = (min(a, b), max(a, b))
        masks[key] = masks.get(key, window[0]) & mask
    return _group(g.n, ((a, b, mask) for (a, b), mask in sorted(masks.items())))


def _runs(mask: int, p: int) -> list[tuple[int, int]]:
    """The maximal runs (lo, width) of mask's set bits, offsets lo..lo+width-1,
    taken round the circle: a run through offset p - 1 and one from 0 join,
    so a positive or a negative pair has one run, a parallel pair two, and
    an empty mask none."""
    runs = []
    while mask:
        lo = (mask & -mask).bit_length() - 1
        t = mask >> lo
        width = (t ^ (t + 1)).bit_length() - 1  # trailing ones of t
        runs.append((lo, width))
        mask = t >> width << (lo + width)
    if len(runs) > 1 and runs[0][0] == 0 and sum(runs[-1]) == p:
        runs[-1] = (runs[-1][0], runs[-1][1] + runs.pop(0)[1])  # one doubling, not two
    return runs


def _support(mask: int, dx: int, p: int, runs: list[tuple[int, int]]) -> int:
    """The colors at an offset in mask from some color of dx: their sumset.

    When |dx| + |mask| > p the support is every color, in O(1) big-int
    operations: a color y is supported when one of the |mask| colors y - t,
    t in mask, lies in dx, and by pigeonhole one does.  Otherwise, for each
    of mask's runs (_runs(mask, p), which the caller derives once per mask),
    this ORs the rotations of dx by every offset of the run, by doubling,
    which is O(log p) operations per run.  Bits pushed past p - 1 (up to
    3p - 3) are folded back round the circle at the end.  A one-color domain
    {c} needs no case of its own: the doubling turns each run by c, so the
    support is mask turned by c.
    """
    full = (1 << p) - 1
    if dx.bit_count() + mask.bit_count() > p:
        return full
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
    return (acc | acc >> p) & full


def _reflect(d: int, p: int) -> int:
    """The color set {-c mod p : c in d} of a p-bit color set d."""
    return (d & 1) | int(format(d >> 1, f"0{p - 1}b")[::-1], 2) << 1


def _allowed(groups: Sequence[tuple[int, Sequence[int]]], colors: Sequence[int], p: int) -> int:
    """The colors a vertex with adjacency groups (offset mask, neighbors)
    may take against its colored neighbors (color -1: not colored yet): the
    AND of each pair's mask turned by the neighbor's color."""
    free = (1 << p) - 1
    for mask, ws in groups:
        for w in ws:
            c = colors[w]
            if c >= 0:  # the pair's mask turned by c
                free &= mask << c | mask >> (p - c)
    return free


def _search(n: int, adj: Sequence[Sequence[tuple[int, Sequence[int]]]], p: int,
            domains: list[int], budget: SolveBudget, verdict_only: bool = False
            ) -> list[int] | None:
    """Backtracking with arc consistency over bitmask domains, iteratively,
    with conflict-directed backjumping, a rotation pin and a reflection cut.

    Branches on the unassigned vertex with the least key (ties to the lowest
    index), trying its colors in ascending order; an explicit stack of
    frames stands in for recursion.  size[x] holds the key: x's domain size,
    less p + 1 per unassigned neighbor with verdict_only, so that the most
    unassigned neighbors come first and the smaller domain breaks a tie.  A
    vertex with one color left is assigned, whether a decision, a root
    domain or propagation put it there, and each such vertex goes on the
    queue.  It is marked assigned as it leaves the queue (a free color,
    below, marks its vertex at the pick): its key becomes taken = p + 1,
    above every other, and the one pass that revises its neighbors against
    its color also adds p + 1 to each unassigned one's key with
    verdict_only, in the trail entry of the neighbor's cut or in one of its
    own.  Until then a cut lowers its key by the colors it removes, as it
    does any vertex's.
    Keys are read only at a pick, once the queue is empty, and the pop
    needs no trail entry of its own: the decision's or the cut's entry on
    the same trail restores the key, and the root's trail is never undone.
    Only callers that use the verdict alone set verdict_only, since the
    first solution depends on the order.  x's neighbor list, which the keys
    count, the parts walk and a free color's key gains visit, is derived
    from adj[x], each neighbor once (adj groups a pair under one mask).

    A node is one assignment made by branching, and only a real choice
    costs one.  A vertex cut to one color is never picked (its neighbors
    were revised against that color already).  A picked vertex takes a free
    color without a node: one that cuts no color of any unassigned
    neighbor.  Such a color is compatible with every color those neighbors
    have left, and arc consistency makes it compatible with the assigned
    ones, so every coloring of the other vertices extends by it: it cannot
    fail, and no other color of the vertex need be tried (it is
    neighborhood substitutable for them; Freuder 1991).  In the canonical
    order only the lowest color qualifies, the one that order tries first,
    so the first solution stays the same; with verdict_only the lowest free
    color is taken, whichever it is.  A free color is set on the current
    trail with no propagation and no bit in why, since it cuts nothing, and
    with verdict_only each unassigned neighbor's key gains p + 1 on the
    trail, as for any assignment.  The test costs O(degree) memo lookups
    per pick, in both orders: the colors compatible with every color of a
    domain, full & ~_support(full & ~mask, domain), are memoised per mask
    and domain and ANDed over the unassigned neighbors, from the lowest
    color alone in the canonical order and from the whole domain with
    verdict_only, stopping at 0.

    Propagation pops a vertex whose domain shrank and intersects each
    neighbor's domain with that domain's support (_support, memoised per
    offset mask for this call, with the mask's runs taken once), queueing
    the neighbors that shrink.  The queue is one insertion-ordered dict,
    popped last in first out; a vertex already in it keeps its place, and
    a conflict clears it.  A group whose support is every color is
    skipped, as no domain would shrink, unless the popped vertex is newly
    assigned and keys must gain (a full relation in _quotient_refuted's
    quotient is such a mask).  Arc consistency has a unique fixpoint, so
    the domains at a node depend only on the decisions above it.  Revising
    an assigned vertex never changes it, since its neighbors were all
    revised against its color first or its free color cut none of them, so
    the loop tests for one only where a neighbor is not cut, to leave an
    assigned one's key alone.  A decision's trail starts with the branching
    vertex's own domain, why and key as they were when it was picked, then
    keeps the same three for each vertex changed below it; undo restores
    the trail, and with it the decision, in one loop.

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
    decision, by branching or by a free color, has color 0
    or p/2, so is every domain (and a vertex cut to one color has one of
    those colors).  A vertex picked in such a state tries only its colors
    0..p/2.  Colors go in ascending order, so each color -c above p/2 comes
    after c, and c either fails with the vertex in its conflict, which
    refutes -c by symmetry, or ends the vertex's colors: a solution, or a
    backjump past it.

    Refuted parts (component caching: Bacchus, Dalmao & Pitassi 2009): a
    vertex's part is it and the unassigned vertices it reaches through
    unassigned ones.  Arc consistency holds on every pair with an assigned
    vertex, so the parts take their colorings independently, and a
    decision's propagation stays inside its own part; so does its bit in
    why, and a conflict that holds it arose inside that part.  When v is
    exhausted with a non-empty conflict, each color of v failed with v in
    its conflict (or is the mirror of one that did), so v's part has no
    coloring within the domains it had at v's branch point, which the
    trail has just restored.  The search records that part, keyed by its
    sorted vertices and their domains, under v and v's domain.  At a later
    branch point, only when the picked vertex w and its domain have such
    records is w's part computed, and only as far as the largest of them;
    a recorded key fails the current color, with conflict the OR of why
    over the part, which holds every decision that cut those domains.
    Nothing is assigned, so that costs no node.  That conflict may hold
    decisions a search of the part would have left out of its own, so the
    search can back up to a deeper decision than the search without
    records, and spend more nodes than it from there; it still skips only
    subtrees without a solution.  Every branch point but the root's
    follows a node, so there is at most one lookup per node; a lookup walks
    and sorts at most the largest part recorded under w and its domain,
    O(k log k) for k vertices, and this is not amortised.  A part is
    recorded only when its breadth-first search visits no more vertices
    than the nodes spent since the last part the search tried to record,
    which amortises those walks to O(1) vertices per node.  The records
    live for this call only.

    Free colors, backjumping, the reflection cut and refuted parts skip
    only subtrees that hold no solution, whatever the branching order.  In
    the canonical order the search returns the first solution of the
    chronological search (unpinned when the root domains are full), in no
    more nodes.  With verdict_only a free color may be another than the
    lowest, so the solution may differ from the chronological search's in
    the same order, and the verdict cannot.  domains is consumed
    destructively.  Returns the solution, or None, also when a root domain
    or a pair's mask is empty.
    """
    if n == 0:
        return []
    fixed = 1 | 1 << p // 2  # the colors c with c == -c
    half = (1 << p // 2 + 1) - 1  # the colors 0..p/2
    full = (1 << p) - 1
    why = [0] * n
    memos: dict[int, dict[int, int]] = {}
    # groups[x] = [(mask, memo of mask, neighbors over mask)]
    groups = [[(mask, memos.setdefault(mask, {}), ws) for mask, ws in gx] for gx in adj]
    if 0 in memos or 0 in domains:  # no allowed offset or color: nothing to search
        return None
    runs = {mask: _runs(mask, p) for mask in memos}
    # For the free colors: banned[mask] = (the offsets mask forbids, their
    # runs, memo of the colors compatible with every color of a domain
    # across mask)
    banned = {mask: (full & ~mask, _runs(full & ~mask, p), {}) for mask in memos}
    # A full domain supports every color across a non-empty mask, so only
    # the vertices with a smaller domain have anything to revise at the root.
    queue = dict.fromkeys(x for x in range(n) if domains[x] != full)
    if not queue:  # every root domain full: pin vertex 0 to color 0 (rotation)
        domains[0] = 1
        queue = {0: None}
    neighbors = [[w for _, ws in gx for w in ws] for gx in adj]
    taken = p + 1  # the key of an assigned vertex, above every domain size
    step = taken if verdict_only else 0  # what a key gains per neighbor assigned
    # domain size - step per neighbor, until the singletons' pops from the queue
    size = [d.bit_count() - len(ws) * step for d, ws in zip(domains, neighbors)]
    spend = budget.spend
    # refuted[(v, v's domain)] = [the most vertices in a part recorded at v,
    # keys of those parts]
    refuted: dict[tuple[int, int], list] = {}
    paid = budget.nodes  # the node count at the last part tried

    def part(x: int, limit: int) -> list[int] | None:
        """x's part, x first: the unassigned vertices that x reaches through
        unassigned ones; None once it holds more than limit vertices."""
        seen, found = {x}, [x]
        for y in found:
            for z in neighbors[y]:
                if size[z] != taken and z not in seen:
                    seen.add(z)
                    found.append(z)
            if len(found) > limit:
                return None
        return found

    def key(found: list[int]) -> tuple[int, ...]:
        """A part's key: its sorted vertices, then their domains."""
        found.sort()
        return (*found, *[domains[x] for x in found])

    # A frame is (vertex, colors not yet tried, conflicts of its failed
    # colors, whether reflection holds at it, trail of (vertex, old domain,
    # old why, old key) written since its color was set: the vertex's own
    # entry first, then propagation's cuts and key gains, then the free
    # colors' and their neighbors' key gains).
    frames: list[tuple[int, int, int, bool, list]] = []
    mirrored = all(d == full or _reflect(d, p) == d for d in domains)
    v, untried, conf, trail = -1, 0, 0, []
    while True:
        conflict = -1
        while queue:
            x, _ = queue.popitem()
            dx = domains[x]
            yx = why[x]
            gain = 0  # what each unassigned neighbor's key gains from x
            if not dx & (dx - 1):  # one color left: x is assigned
                size[x] = taken
                gain = step
            for mask, memo, ws in groups[x]:
                sup = memo.get(dx)
                if sup is None:
                    sup = memo[dx] = _support(mask, dx, p, runs[mask])
                if sup == full and not gain:  # supports every color: no domain shrinks
                    continue
                for w in ws:
                    dw = domains[w]
                    nd = dw & sup
                    if nd != dw:  # w is unassigned: an assigned vertex never shrinks
                        yw = why[w]
                        if not nd:
                            conflict = yw | yx
                            break
                        sw = size[w]
                        trail.append((w, dw, yw, sw))
                        domains[w] = nd
                        why[w] = yw | yx
                        size[w] = sw - (dw ^ nd).bit_count() + gain
                        queue[w] = None  # a vertex already in the queue keeps its place
                    elif gain:
                        sw = size[w]
                        if sw != taken:
                            trail.append((w, dw, why[w], sw))
                            size[w] = sw + gain
                if conflict >= 0:
                    break
            if conflict >= 0:
                break
        if conflict < 0:
            # Reflection holds below v while it held at v and every vertex
            # assigned since has a color of its own mirror.
            sym = mirrored and (v < 0 or domains[v] & fixed != 0)
            while True:
                smallest = min(size)
                if smallest == taken:
                    return [d.bit_length() - 1 for d in domains]
                w = size.index(smallest)
                dw = domains[w]
                # The colors of w compatible with every color each unassigned
                # neighbor has left; the canonical order asks it of the lowest.
                free = dw if step else dw & -dw
                for mask, _, ws in groups[w]:
                    ban, ban_runs, memo = banned[mask]
                    for x in ws:
                        if size[x] != taken:
                            dx = domains[x]
                            ok = memo.get(dx)
                            if ok is None:
                                ok = memo[dx] = full & ~_support(ban, dx, p, ban_runs)
                            free &= ok
                            if not free:
                                break
                    if not free:
                        break
                if not free:
                    break  # a real choice: branch on w
                # A free color: the lowest, on the current trail, without a node.
                low = free & -free
                trail.append((w, dw, why[w], smallest))
                domains[w] = low
                size[w] = taken
                sym = sym and low & fixed != 0
                if step:
                    for x in neighbors[w]:
                        sx = size[x]
                        if sx != taken:
                            trail.append((x, domains[x], why[x], sx))
                            size[x] = sx + step
            entry = refuted.get((w, domains[w])) if refuted else None
            found = entry and part(w, entry[0])
            if found and key(found) in entry[1]:
                conflict = 0  # w's part is refuted: v's color fails, no node
                for x in found:
                    conflict |= why[x]
            else:
                frames.append((v, untried, conf, mirrored, trail))
                mirrored = sym
                v = w
                untried = domains[v] & half if sym else domains[v]
                conf = 0
        if conflict >= 0:  # undo v's failed color; back up to the deepest decision in conflict
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
                    if untried:
                        break
                    conflict = conf | why[v]
                    if conflict:  # record v's part
                        found = part(v, budget.nodes - paid)
                        paid = budget.nodes
                        if found is not None:
                            entry = refuted.setdefault((v, domains[v]), [0, set()])
                            entry[0] = max(entry[0], len(found))
                            entry[1].add(key(found))
                v, untried, conf, mirrored, trail = frames.pop()
        lsb = untried & -untried
        untried ^= lsb
        spend()
        trail = [(v, domains[v], why[v], size[v])]
        domains[v] = lsb
        why[v] = 1 << v
        queue[v] = None


def _separations(adj: Sequence[Sequence[tuple[int, Sequence[int]]]], sol: Sequence[int],
                 u: int, v: int, p: int) -> int:
    """The separations a coloring sol with u at 0 shows, as a symmetric
    offset mask: v at each color its neighbors allow it (_allowed), and u at
    each color c its neighbors allow, which puts v at sol[v] - c once the
    coloring is turned so that u is back at 0."""
    d = sol[v]
    at_u = _reflect(_allowed(adj[u], sol, p), p)
    seps = _allowed(adj[v], sol, p) | (at_u << d | at_u >> (p - d)) & (1 << p) - 1
    return seps | _reflect(seps, p)


def _relation(g: SignedGraph, u: int, v: int, p: int, q: int, budget: SolveBudget) -> int:
    """The symmetric offset mask {+-d : g has a (p,q)-coloring with vertex u
    at 0 and vertex v != u at d}.

    The one loop over separations: a repeated piece's relation (u, v = 0,
    1) and an indicator's Z-set (its bits 0..p/2).  Its searches keep their
    verdict alone, so they branch on the most unassigned neighbors
    (verdict_only).  Neither order is the cheaper on every graph:
    wenger_tilde's apex relation (8, 9) at 18/4 takes 1,542 nodes in this
    order and 23,133 in the canonical one, while a 22-vertex gadget
    composition that tests/test_solver.py draws is refuted at 34/9 from
    full domains in 18,979 nodes in this order and 735 in the canonical one.
    Each search pins u at 0 and lets v take every separation not yet in the
    mask.  A coloring shows more than its own separation: every one that
    recoloring u or v alone reaches (_separations), and all it shows joins
    the mask before the next search; the loop ends at the first refutation
    or when the mask is full.  Every mask _separations returns is
    symmetric, so v's root domain stays closed under c -> -c and the
    reflection cut holds at the root.
    """
    adj = _adjacency(g, p, q)
    full = (1 << p) - 1
    mask = 0
    while mask != full:
        domains = [full] * g.n
        domains[u], domains[v] = 1, full ^ mask
        sol = _search(g.n, adj, p, domains, budget, True)
        if sol is None:
            break
        mask |= _separations(adj, sol, u, v, p)
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
    search too branches on the most unassigned neighbors (verdict_only).
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
    budget runs out before a decision.  When some pair carries both signs
    and p < 4q, that pair allows no offset, and None comes back in 0 nodes
    before any relation, quotient or search is set up.

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
        if not (_is_int(pin.vertex) and 0 <= pin.vertex < g.n):
            raise ValueError(f"pin on non-vertex {pin.vertex}")
        if not (_is_int(pin.color) and 0 <= pin.color < p):
            raise ValueError(f"pin color {pin.color} out of range for p={p}")
        if domains[pin.vertex] not in (full, 1 << pin.color):
            raise ValueError(f"conflicting pins on vertex {pin.vertex}")
        domains[pin.vertex] = 1 << pin.color

    window = _windows(p, q)
    if not all(window[signs] for signs in g._sign_kinds):  # a pair allows no offset
        return None
    if _quotient_refuted(g, p, q, domains, budget):
        return None
    sol = _search(g.n, _adjacency(g, p, q), p, domains, budget)
    if sol is None:
        return None
    c = Coloring(p, q, tuple(sol))
    if not verify_coloring(g, c):
        raise RuntimeError("internal error: solver emitted a bad coloring")
    return c


def _seed_rung(n: int, d: int) -> int:
    """The p of the greedy seed's rung (p, 1) on n vertices of degeneracy d:
    U = 2*floor(d/2)+2, or 2n when U is above 2n (_greedy_seed)."""
    return min(2 * (d // 2) + 2, 2 * n)


def _rung_below_four(n: int) -> tuple[int, int]:
    """The (p, q) of the largest rung below 4 on n >= 2 vertices.

    It is the max over even p <= 2n of p/(p//4 + 1), each p's largest value
    below 4.  That max is at the largest p = 4k+2 <= 2n: (4k+2)/(k+1) =
    4 - 2/(k+1) grows with k, and p = 4k gives 4 - 4/(k+1), no more than
    4 - 2/k from p = 4k-2.  As gcd(2k+1, k+1) = 1, (p, p//4 + 1) is the
    rung's even-numerator normal form.
    """
    p = 2 * n if n % 2 else 2 * n - 2
    return p, p // 4 + 1


def _greedy_seed(g: SignedGraph,
                 degen: tuple[int, list[int]] | None = None) -> Coloring:
    """A guaranteed coloring: greedy over the reverse elimination order.

    At (U,1) with U = 2*floor(d/2)+2 > d, each already-colored neighbor
    forbids at most one color per connecting edge (its pair's window from
    _adjacency, turned by the neighbor's color, allows all others), and a
    vertex meets at most d earlier-colored edge-endpoints, so a color is
    always free.  When parallel edges push U above 2n, the identity-spread
    coloring at (2n,1) works instead (all colors distinct and below p/2).
    degen is degeneracy(g) when the caller has it already.
    """
    d, order = degeneracy(g) if degen is None else degen
    p = _seed_rung(g.n, d)
    if p > d:  # p is U: U cut to 2n would be at most d
        adj = _adjacency(g, p, 1)
        colors = [-1] * g.n  # -1 until placed
        for v in reversed(order):
            free = _allowed(adj[v], colors, p)
            colors[v] = (free & -free).bit_length() - 1  # lowest free
        seed = Coloring(p, 1, tuple(colors))
    else:  # the identity spread at (2n,1)
        seed = Coloring(p, 1, tuple(range(g.n)))
    if not verify_coloring(g, seed):
        raise RuntimeError("internal error: seed coloring invalid")
    return seed


def _probe(ladder: Sequence[tuple[int, int]], lo: int, hi: int) -> int:
    """The rung chi_c probes in the open bracket (lo, hi), hi - lo >= 2.

    A rung costs more to decide the larger its p (p colors per vertex), so
    among the rungs within about a tenth of the span of the index midpoint
    (those at least w = max(1, 9 * (hi - lo) // 20) from either end) take the
    one with the least p.  It is unique: a rung is 2a/b with a/b >= 1 in
    lowest terms, and of two rungs 2a/b' < 2a/b the rung of (a - 1)/b lies
    between them, since a >= b + 1, with a smaller numerator.  Either
    verdict removes at least w of the span rungs, so the probe count stays
    within about 1.16 log2 of the ladder length.
    """
    w = max(1, 9 * (hi - lo) // 20)
    return min(range(lo + w, hi - w + 1), key=ladder.__getitem__)


def chi_c(g: SignedGraph, budget: SolveBudget | None = None) -> ChiResult:
    """Exact circular chromatic number with witness.

    Edgeless graphs get the out-of-band value 1.  A graph whose negation is
    balanced has value exactly 2, witnessed directly from the balancing
    switching set.  Otherwise the value is found by bisecting the finite
    candidate ladder, bracketed between 2 (infeasible) and a greedy upper
    bound (feasible).  Each probe is the rung with the least p near the
    bracket's index midpoint (_probe), not the midpoint itself; that rung
    is unique, since of two rungs 2a/b' < 2a/b in lowest terms the rung of
    (a - 1)/b lies between them.  The walk still ends on two adjacent
    rungs, so the value, the refuted rung and the witness (the search's
    coloring at the value, or the greedy seed) do not depend on the probe
    rule.

    A pair with both signs bounds the value below by 4, and a graph with
    one is never balanced under negation, so there the bound picks the
    first probes and the balance test is skipped.  The largest rung below 4
    (_rung_below_four) is refuted at set-up.  If the seed's rung, read off
    the degeneracy as _greedy_seed derives it, is 4, the greedy seed is the
    witness; otherwise 4/1 is probed, and a coloring there is the witness.
    Only a refuted 4/1 builds the ladder, over (4, seed], and only it or an
    exhausted budget colors the seed.  The walk ends on the same two
    adjacent rungs as from 2, so the answers are the same.
    """
    if not g.edges:
        return ChiResult(Fraction(1), None, None)
    budget = _begin(g, budget)

    if 3 in g._sign_kinds:
        below = _rung_below_four(g.n)
        if feasible_pq(g, *below, budget=budget) is not None:
            raise RuntimeError("internal error: a rung below 4 colored a pair with both signs")
        lower = Fraction(*below)
        degen = degeneracy(g)
        top = _seed_rung(g.n, degen[0])
        if top == 4:
            return ChiResult(Fraction(4), _greedy_seed(g, degen), lower)
        try:
            found = feasible_pq(g, 4, 1, budget=budget)
        except BudgetExhausted as exc:
            raise ChiUndecided(EvenRational(4, 1), lower, Fraction(top),
                               _greedy_seed(g, degen), exc.nodes) from exc
        if found is not None:
            return ChiResult(Fraction(4), found, lower)
        seed = _greedy_seed(g, degen)
        bottom = Fraction(4)  # refuted just now
    else:
        balanced, sset = is_balanced(g, negate=True)
        if balanced:
            colors = tuple(2 if v in sset else 0 for v in range(g.n))
            witness = Coloring(4, 2, colors)
            if not verify_coloring(g, witness):
                raise RuntimeError("internal error: balance witness invalid")
            return ChiResult(Fraction(2), witness, None)
        seed = _greedy_seed(g)
        bottom = Fraction(2)  # proven infeasible by the balance test
    ladder = candidates(g.n, bottom, Fraction(seed.p, seed.q))

    def value(i: int) -> Fraction:
        return Fraction(*ladder[i])

    lo = 0  # value bottom: proven infeasible above
    hi = len(ladder) - 1
    if value(lo) != bottom or value(hi) != Fraction(seed.p, seed.q):
        raise RuntimeError("internal error: candidate ladder misses its bracket")
    witness = seed
    while hi - lo > 1:
        probe = _probe(ladder, lo, hi)
        p, q = ladder[probe]
        try:
            found = feasible_pq(g, p, q, budget=budget)
        except BudgetExhausted as exc:
            raise ChiUndecided(EvenRational(p, q), value(lo), value(hi),
                               witness, exc.nodes) from exc
        if found is None:
            lo = probe
        else:
            hi = probe
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
    if not _is_int(k) or k < 1:
        raise ValueError(f"need an int k >= 1, got {k!r}")
    colors = []
    for v, x in enumerate(f):
        if not _is_int(x) or x == 0 or abs(x) > k:
            raise ValueError(f"vertex {v}: {x!r} is not a color in +-1..+-{k}")
        colors.append(x - 1 if x > 0 else -x + k - 1)
    return Coloring(2 * k, 1, tuple(colors))


def circular_to_zero_free(c: Coloring) -> list[int]:
    """Inverse of zero_free_to_circular; requires q == 1."""
    if c.q != 1:
        raise ValueError(f"need q == 1, got q={c.q}")
    _validate_coloring(c)
    k = c.p // 2
    return [x + 1 if x < k else k - 1 - x for x in c.colors]
