"""Signed graphs and their structural invariants.

A signed graph is a multigraph (loops and parallel edges allowed) with a
sign on every edge.  Edges are stored in a stable order; the index of an
edge in that order is its identity, which switching and equivalence tests
rely on.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .arith import _is_int

__all__ = ["CapacityError", "Edge", "Sign", "SignedGraph", "StructuralMismatchError",
           "UncolorableError", "degeneracy", "girth_types", "is_balanced", "switch",
           "switching_equivalent"]


class CapacityError(Exception):
    """The input is beyond a solver's supported size."""


class UncolorableError(Exception):
    """The signed graph admits no circular coloring at all (positive loop)."""


class StructuralMismatchError(ValueError):
    """Two signed graphs do not share the same underlying edge list."""


class Sign(Enum):
    POSITIVE = 1
    NEGATIVE = -1

    def __mul__(self, other: "Sign") -> "Sign":
        return Sign(self.value * other.value)

    def __neg__(self) -> "Sign":
        return Sign(-self.value)

    @property
    def symbol(self) -> str:
        return "+" if self is Sign.POSITIVE else "-"

    def __repr__(self):
        return f"Sign.{self.name}"


POS = Sign.POSITIVE
NEG = Sign.NEGATIVE

_SIGN_OF = {  # by type too: True and 1.0 equal 1, but are no sign
    (Sign, POS): POS, (Sign, NEG): NEG,
    (int, 1): POS, (int, -1): NEG,
    (str, "+"): POS, (str, "-"): NEG,
}


class Edge(NamedTuple):
    u: int
    v: int
    sign: Sign

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class SignedGraph:
    """n vertices (0..n-1) and a stable-order tuple of signed edges."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"vertex count {self.n!r} is not an int")
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        n, edges = self.n, tuple(self.edges)  # a caller's list must not change the graph later
        object.__setattr__(self, "edges", edges)
        for idx, e in enumerate(edges):
            if type(e) is Edge:  # the common case, checked without helper calls
                u, v, sign = e
                if (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n
                        and (sign is POS or sign is NEG)):
                    continue
            elif not isinstance(e, Edge):
                raise ValueError(f"edge {idx} is {e!r}, not an Edge")
            if not (_is_int(e.u) and _is_int(e.v)):
                raise ValueError(f"edge {idx} endpoints {e.u!r},{e.v!r} are not both ints")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {idx} endpoints {e.u},{e.v} out of range for n={self.n}")
            if not isinstance(e.sign, Sign):
                raise ValueError(f"edge {idx} has non-Sign sign {e.sign!r}")

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple]) -> "SignedGraph":
        """Build from (u, v, sign) triples; sign may be Sign, +-1, or '+'/'-'."""
        edges = []
        for u, v, s in triples:
            try:
                sign = _SIGN_OF[type(s), s]
            except (KeyError, TypeError):
                raise ValueError(f"bad sign {s!r} on edge ({u},{v})") from None
            edges.append(Edge(u, v, sign))
        return cls(n, tuple(edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_positive_loop(self) -> bool:
        return self._positive_loop

    def degrees(self) -> list[int]:
        """Edge-multiplicity degrees; a loop contributes 2 to its vertex."""
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """adj[v] = list of (neighbor, edge index); loops appear once."""
        return [list(row) for row in self._adj]

    def underlying_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered endpoint pairs in edge order (the sign-free skeleton)."""
        return tuple((min(e.u, e.v), max(e.u, e.v)) for e in self.edges)

    def components(self) -> list[list[int]]:
        """Vertex sets of the connected components, each sorted, in order of
        smallest vertex."""
        comps = []
        for (v, _), (_, via) in _lift_bfs(self, [0] * self.m, range(self.n)).items():
            if via is None:
                comps.append([])
            comps[-1].append(v)
        return [sorted(comp) for comp in comps]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    @cached_property
    def _pair_signs(self) -> tuple[tuple[int, int, int], ...]:
        """(a, b, signs) for each adjacent pair a < b, ascending; bit 0 of
        signs is set when a positive edge joins the pair, bit 1 when a
        negative one does.  Loops are left out."""
        signs: dict[tuple[int, int], int] = {}
        for u, v, sign in self.edges:
            if u != v:
                key = (u, v) if u < v else (v, u)
                signs[key] = signs.get(key, 0) | (1 if sign is POS else 2)
        return tuple((a, b, s) for (a, b), s in sorted(signs.items()))

    @cached_property
    def _sign_kinds(self) -> frozenset[int]:
        """The distinct signs bits of _pair_signs: 3 is among them when some
        pair carries both a positive and a negative edge."""
        return frozenset(s for _, _, s in self._pair_signs)

    @cached_property
    def _sign_groups(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """_group of _pair_signs: each vertex's neighbors by sign bits (1
        positive only, 2 negative only, 3 both).  This is the search's
        skeleton: only the offset window of each sign depends on (p, q)."""
        return _group(self.n, self._pair_signs)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's distinct neighbors, ascending, loops left out: the
        search counts them into its verdict-order keys, walks the parts of
        unassigned vertices over them and raises their keys when a free
        color is taken, and _block_pairs walks the graph over them once for
        its blocks and their separation pairs."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b, _ in self._pair_signs:  # ascending and loop-free: so is each list
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(map(tuple, nbrs))

    @cached_property
    def _adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """adjacency() as tuples, computed on first use and kept."""
        adj = [[] for _ in range(self.n)]
        for idx, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, idx))
            if u != v:
                adj[v].append((u, idx))
        return tuple(map(tuple, adj))

    @cached_property
    def _positive_loop(self) -> bool:
        """Whether a positive loop is present, computed on first use and kept."""
        return any(u == v and sign is POS for u, v, sign in self.edges)

    @cached_property
    def _pieces(self):
        """_repeated_pieces(self), computed on first use and kept."""
        return _repeated_pieces(self)


def _group(n: int, labelled_pairs: Iterable[tuple[int, int, int]]) -> tuple:
    """For each vertex v, (label, neighbors) groups: v's neighbors over the
    ascending pairs (a, b, label), a < b, grouped by label, ascending, the
    groups in order of their first neighbor.  The search revises in this
    order, so the graph's skeleton and a quotient's both come from here."""
    groups: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for a, b, label in labelled_pairs:
        groups[a].setdefault(label, []).append(b)
        groups[b].setdefault(label, []).append(a)
    return tuple([tuple([(label, tuple(ws)) for label, ws in by_label.items()])
                  for by_label in groups])


def switch(g: SignedGraph, s: Iterable[int]) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in s.

    Loops never change sign (both endpoints move together).
    """
    sset = set()
    for v in s:  # each member, before True or 1.0 can stand in for 1 in the set
        if not (_is_int(v) and 0 <= v < g.n):
            raise ValueError(f"switching set contains non-vertex {v!r}")
        sset.add(v)
    edges = tuple(
        Edge(e.u, e.v, -e.sign) if (e.u in sset) != (e.v in sset) else e
        for e in g.edges
    )
    return SignedGraph(g.n, edges)


def _lift_bfs(g: SignedGraph, labels: list[int],
              roots: Iterable[int]) -> dict[tuple[int, int], tuple[int, int | None]]:
    """Breadth-first search over the parity lift of g.

    A state (v, x) says that some walk from the root reaches v with the
    labels of its edges XOR-ing to x (labels[i] is edge i's label).  Each
    root not yet reached at any parity starts a search at (root, 0).
    Returns {state: (distance, index of the edge it was first reached by,
    None for a root)} in discovery order.
    """
    adj = g._adj
    seen = [False] * g.n
    reached: dict[tuple[int, int], tuple[int, int | None]] = {}
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        reached[(root, 0)] = (0, None)
        queue = deque([(root, 0)])
        while queue:
            v, x = queue.popleft()
            d = reached[(v, x)][0] + 1
            for w, idx in adj[v]:
                nxt = (w, x ^ labels[idx])
                if nxt not in reached:
                    seen[w] = True
                    reached[nxt] = (d, idx)
                    queue.append(nxt)
    return reached


def _block_pairs(nbrs: Sequence[Sequence[int]]) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """The blocks (2-connected pieces and bridges) of the simple graph nbrs
    that have at least 4 vertices, each with at least 3 neighbors in the
    block, each with its separation pairs (ascending), in the order the
    blocks close: one depth-first search of the graph, by an explicit stack.

    Number the vertices in preorder, and let lo(v) be the least vertex
    next to v's subtree, or v: the least frond target from it whenever that
    lies above v's parent.  When a child v of b finishes, lo(v) >= b closes
    a block rooted at b: v and the vertices stacked since it (Tarjan 1972).
    A block's DFS tree is the graph's cut to the block, so a kept block's
    pairs come from the same numbers (Hopcroft & Tarjan 1973), with its root
    r in place of the 0 a search of the block alone would number it.  In a
    separating pair {a, b}, a is a proper ancestor of b, and the block less
    a and b falls into U (all outside a's subtree and a's other child
    subtrees: empty iff a = r), W (the subtree of a's child toward b less
    b's subtree: empty iff a is b's parent) and S_d for each child d of b
    in the block.  With lo and hi the least frond target from d's subtree
    and the highest one above b, S_d reaches U iff lo < a and W iff a < hi,
    and W reaches U iff a frond from W lands above a; no other edge joins
    two parts.  So {a, b} splits the block iff some S_d has lo = hi = a
    while another part is non-empty, or U and W are non-empty, no frond
    from W lands above a and no S_d reaches both.  hi is read off the
    block's vertices in descending order, when d's whole subtree has been
    seen.  Each d and each b of a kept block walks its ancestors: O(n + m)
    plus O(sum of depths in the kept blocks) steps, O(n^2) at worst.
    """
    n = len(nbrs)
    num, order = [-1] * n, []  # order[i]: the vertex numbered i
    # Lists by number have a spare last entry for index -1, the number of a
    # virtual parent whose children are the roots of the components.
    parent, low = [-1] * (n + 1), list(range(n + 1))  # low[i]: lo(i), once i has finished
    end = [0] * (n + 1)  # end[i]: 1 + the last number in i's subtree
    own, side, first = [0] * n, [0] * n, [-1] * n
    found = []
    stack, dfs = [], [(-1, iter(range(n)))]
    while dfs:
        v, it = dfs[-1]
        for w in it:
            t = num[w]
            if t < 0:
                num[w] = t = len(order)
                order.append(w)
                parent[t] = v
                stack.append(t)
                dfs.append((t, iter(nbrs[w])))
                break
            if t < low[v]:
                low[v] = t
        else:
            dfs.pop()
            end[v], b = len(order), parent[v]
            if b < 0:
                continue
            if low[v] < b:  # v's subtree reaches above b: v is in b's block, which goes on
                if low[v] < low[b]:
                    low[b] = low[v]
                continue
            block = [b]  # then its other vertices, descending
            while block[-1] != v:
                block.append(stack.pop())
            verts = [order[x] for x in block]
            if len(verts) < 4 or any(len(nbrs[x]) < 3 for x in verts):
                continue  # the cheap tests first: most blocks fail one
            inside = set(verts)
            if any(len(inside.intersection(nbrs[x])) < 3 for x in verts):
                continue
            r, kids = b, {x: [] for x in block}  # kids[x]: (lo, hi, child) per child of x
            for d in block[1:]:  # descending: first[t] is the least vertex so far next to t
                b, ts = parent[d], [num[w] for w in nbrs[order[d]]]
                own[d] = min([d] + [t for t in ts if t != b])  # the least frond target from d
                for t in ts:
                    first[t] = d
                if b != r:  # hi is next to d's subtree iff d <= first[hi] < end[d]
                    hi = parent[b]
                    while not d <= first[hi] < end[d]:
                        hi = parent[hi]
                    kids[b].append((low[d], hi, d))
            for c in block[1:]:
                spans = kids[c]
                spans.sort()
                for _, _, x in spans:  # the least frond target from c and its other subtrees
                    side[x] = min([own[c]] + [lo for lo, _, d in spans[:2] if d != x])
            pairs = set()
            for b in block[1:]:
                spans = kids[b]
                for lo, hi, _ in spans:  # lo = hi = a, and U, W or another S_d is there
                    if lo == hi and (lo != r or lo != parent[b] or len(spans) > 1):
                        pairs.add((min(order[lo], order[b]), max(order[lo], order[b])))
                x, low_w, a = b, b, parent[parent[b]]  # low_w: the least frond target from W
                while a > r:
                    if side[x] < low_w:
                        low_w = side[x]
                    if low_w >= a and not any(lo < a < hi for lo, hi, _ in spans):
                        pairs.add((min(order[a], order[b]), max(order[a], order[b])))
                    x, a = parent[x], parent[a]
            found.append((verts, sorted(pairs)))
    return found


def _repeated_pieces(g: SignedGraph):
    """The 2-separated pieces of g that occur at least twice, and g without them.

    A separation pair {a, b} is sought only inside a block whose vertices
    all have at least three neighbors in the block (b must cut the block
    once a is gone), so a single vertex with two neighbors in a block (an
    ear) turns the cut off for that whole block.  The blocks and their
    pairs come from one depth-first search of g (_block_pairs): one pass
    over its edges plus O(sum of tree depths in the kept blocks) integer
    steps, so O(n^2) at worst, with no factor of m.
    Each component of g - {a, b} touching both a and b is a piece; its key
    is the sorted list of its vertices' edges (u, v, '+' or '-'), read off
    their adjacency, with a, b relabelled 0, 1 and its other vertices 2,
    3, ... in ascending order (edges between a and b stay outside).  So the
    key does not depend on the order of g.edges, but two copies of a piece
    share it only when their internal vertices are numbered in the same
    relative order.
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
    blocks = _block_pairs(nbrs)
    if not blocks:
        return None
    adj, marks = g._adj, [(u, v, sign.symbol) for u, v, sign in g.edges]  # edges as keys spell them
    pieces = []  # (a, b, internal vertices, key)
    for _, pairs in blocks:
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
                if not comp.isdisjoint(nbrs[b]):
                    label = {a: 0, b: 1}
                    label.update((w, i) for i, w in enumerate(sorted(comp), 2))
                    own = {idx for w in comp for _, idx in adj[w]}  # its edges, once each
                    relabelled = ((label[u], label[v], s) for u, v, s in (marks[i] for i in own))
                    key = (len(label), tuple(sorted(
                        (x, y, s) if x <= y else (y, x, s) for x, y, s in relabelled)))
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


def is_balanced(g: SignedGraph, negate: bool = False) -> tuple[bool, frozenset[int] | None]:
    """Whether some switching makes every edge positive (with negate, every
    edge negative: the balance of g with all signs flipped).

    Returns (True, s) with a switching set s that does it, or (False, None).
    The graph is balanced iff no vertex is reached at both negative-edge
    parities; a negative loop reaches its vertex at both at once.
    """
    reached = _lift_bfs(g, [(e.sign is NEG) ^ negate for e in g.edges], range(g.n))
    if len(reached) > g.n:
        return False, None
    return True, frozenset(v for v, x in reached if x)


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Whether g2 is a switching of g1 (same underlying edge list, by index)."""
    if g1.n != g2.n or g1.underlying_pairs() != g2.underlying_pairs():
        raise StructuralMismatchError("graphs differ in vertices or underlying edges")
    # is_balanced's test of the product signature, run on g1's own adjacency.
    labels = [e1.sign is not e2.sign for e1, e2 in zip(g1.edges, g2.edges)]
    return len(_lift_bfs(g1, labels, range(g1.n))) == g1.n


@dataclass(frozen=True)
class GirthTypeTable:
    """Shortest closed-walk length per (negative-edge parity, length parity).

    entry[(i, j)] is the minimum length of a closed walk containing an edge,
    with i = parity of negative edges used and j = parity of the length, or
    None when no such walk exists.
    """

    entry: tuple[tuple[tuple[int, int], int | None], ...]

    def __getitem__(self, key: tuple[int, int]) -> int | None:
        for k, v in self.entry:
            if k == key:
                return v
        raise KeyError(key)

    def as_dict(self) -> dict[tuple[int, int], int | None]:
        return dict(self.entry)


def girth_types(g: SignedGraph) -> GirthTypeTable:
    """Minimum closed-walk lengths by sign and length parity.

    Works on the 4-fold parity lift: an edge's label is its negative bit
    plus 2, so a state's x holds (negative parity, length parity) in its two
    bits.  A closed walk of type (i, j) through v is a walk from (v, 0) to a
    neighbor w followed by one final edge step back into (v, i + 2j).
    """
    labels = [2 | (e.sign is NEG) for e in g.edges]
    best: dict[tuple[int, int], int | None] = {(i, j): None for i in (0, 1) for j in (0, 1)}
    for start in range(g.n):
        reached = _lift_bfs(g, labels, [start])
        for w, idx in g._adj[start]:
            for x in range(4):
                if (w, x) not in reached:
                    continue
                y = x ^ labels[idx]
                key = (y & 1, y >> 1)
                length = reached[(w, x)][0] + 1
                if best[key] is None or length < best[key]:
                    best[key] = length
    return GirthTypeTable(tuple(sorted(best.items())))


def degeneracy(g: SignedGraph) -> tuple[int, list[int]]:
    """Smallest d such that every subgraph has a vertex of degree <= d.

    Degrees count edge multiplicity; loops count 2.  Returns (d, order)
    where order is the elimination order (min-degree first, ties to the
    lowest index); reversed, it is a greedy-colorable order (Matula and Beck
    1983).  A heap keyed (degree, vertex), whose stale entries are skipped
    when popped, yields each minimum in O((n + m) log n) overall.  Removing
    a vertex lowers each live neighbor's degree by the pair's multiplicity
    at once, so there is one heap entry per distinct neighbor, not per edge.
    """
    n = g.n
    deg = [0] * n
    mult: list[dict[int, int]] = [{} for _ in range(n)]  # mult[v][y]: edges between v and y
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
        if u != v:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapify(heap)
    alive = [True] * n
    order = []
    d = 0
    while heap:
        dv, v = heappop(heap)
        if not alive[v] or dv != deg[v]:
            continue
        if dv > d:
            d = dv
        order.append(v)
        alive[v] = False
        for y, k in mult[v].items():
            if alive[y]:
                deg[y] -= k
                heappush(heap, (deg[y], y))
    return d, order
