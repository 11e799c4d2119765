"""Generators for the named signed graphs and gadgets used by tests and the CLI.

Everything here is a deterministic transcription: repeated calls return
identical edge lists, and the edge lists are frozen by golden tests so a
transcription slip is caught once and fixed once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _is_int, circle_edge_ok
from .core import NEG, POS, Edge, Sign, SignedGraph, switch
from .indicators import Indicator, _graft, replace_edges
from .solver import Coloring, _validate_pq

__all__ = ["GadgetEmbedding", "big_gamma", "circular_clique_signed", "gadget_interior_colors",
           "gamma", "gamma_prime", "hat_clique", "k4_omega", "k4_omega_coloring",
           "mini_gadget", "omega_d", "outerplanar_F", "positive_clique", "signed_cycle",
           "spal5", "wenger", "wenger_coloring", "wenger_tilde", "wenger_tilde_coloring",
           "wenger_tilde_detail"]


def positive_clique(n: int) -> SignedGraph:
    """Complete graph on n vertices, all edges positive, lex edge order."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return SignedGraph.from_triples(
        n, [(i, j, POS) for i in range(n) for j in range(i + 1, n)]
    )


def signed_cycle(length: int, negative: bool) -> SignedGraph:
    """Cycle 0-1-...-(length-1)-0 whose closing edge is negative iff requested.

    Length 1 gives a single loop, length 2 a digon (parallel edge pair).
    Any representative of the switching class would do; this one puts the
    lone negative sign on the closing edge.
    """
    if length < 1:
        raise ValueError("cycle length must be at least 1")
    triples: list[tuple[int, int, Sign]] = [(i, i + 1, POS) for i in range(length - 1)]
    triples.append((length - 1, 0, NEG if negative else POS))
    return SignedGraph.from_triples(length, triples)


def _clique_edges(p: int, q: int, n_limit: int) -> list[tuple[int, int, Sign]]:
    """Signed-circular-clique edges restricted to vertices below n_limit.

    Pair i,j is positive when colors i and j pass a positive edge's test,
    and negative when they pass a negative edge's test (j at least q from
    i's antipode); both can hold at once (a parallel pair), and i = j yields
    a negative loop since the antipodal distance is exactly p/2 >= q.
    """
    _validate_pq(p, q)
    edges: list[tuple[int, int, Sign]] = []
    for i in range(n_limit):
        for j in range(i, n_limit):
            if circle_edge_ok(j, i, 0, p, q):
                edges.append((i, j, POS))
            if circle_edge_ok(j, i, p // 2, p, q):
                edges.append((i, j, NEG))
    return edges


def circular_clique_signed(p: int, q: int) -> SignedGraph:
    """The universal target graph for (p,q)-coloring, on vertices 0..p-1."""
    return SignedGraph.from_triples(p, _clique_edges(p, q, p))


def hat_clique(p: int, q: int) -> SignedGraph:
    """Half of the circular clique: the subgraph induced by vertices 0..p/2-1.

    Every color class pair {i, antipode(i)} has one representative here, so
    this smaller graph admits the same homomorphisms up to switching.
    """
    return SignedGraph.from_triples(p // 2, _clique_edges(p, q, p // 2))


# ---------------------------------------------------------------------------
# the ladder gadget family
# ---------------------------------------------------------------------------


def gamma(i: int) -> Indicator:
    """Two-terminal ladder gadget of depth i; terminals (2i-1, 2i).

    Level 1 is a positive 2-path through the hub vertex 0.  Each further
    level adds a fresh terminal pair joined to the previous pair: at even
    levels by a positive/negative cross pattern, at odd levels by four
    positive edges.  At circle sizes just below 4 the feasible terminal
    separation shrinks by one ladder step per level, alternating between
    losing the top of the range (odd depth) and the bottom (even depth).
    """
    if i < 1:
        raise ValueError("depth must be at least 1")
    triples: list[tuple[int, int, Sign]] = [(1, 0, POS), (0, 2, POS)]
    for k in range(2, i + 1):
        uk, vk = 2 * k - 1, 2 * k
        up, vp = 2 * k - 3, 2 * k - 2
        if k % 2 == 0:
            triples += [(uk, up, POS), (uk, vp, NEG), (vk, up, NEG), (vk, vp, POS)]
        else:
            triples += [(uk, up, POS), (uk, vp, POS), (vk, up, POS), (vk, vp, POS)]
    g = SignedGraph.from_triples(2 * i + 1, triples)
    return Indicator(g, 2 * i - 1, 2 * i)


def gamma_prime(i: int) -> SignedGraph:
    """Glue the depth-(2i-1) and depth-2i ladders at corresponding terminals.

    The two feasible-separation intervals are disjoint for circle sizes
    4 - 2*eps with 1/(2*eps) < i < 1/eps, so the glued graph (a simple
    bipartite planar graph) is not colorable at those sizes.
    """
    if i < 1:
        raise ValueError("index must be at least 1")
    first = gamma(2 * i - 1)
    edges = list(first.graph.edges)
    n = _graft(edges, gamma(2 * i), first.u, first.v, first.graph.n)
    return SignedGraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# small named graphs
# ---------------------------------------------------------------------------


def spal5() -> SignedGraph:
    """Self-complementary signed pentagon pair on 5 vertices.

    Vertices 0..4 stand for the odd residues 1,3,5,7,9 mod 10; the positive
    edges form the pentagon of residue pairs at circular distance 4 and the
    negative edges the pentagon at distance 2, so vertex k -> residue 2k+1
    is a sign-preserving embedding into circular_clique_signed(10, 3).
    """
    pos = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]
    neg = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    triples = [(a, b, POS) for a, b in pos] + [(a, b, NEG) for a, b in neg]
    return SignedGraph.from_triples(5, triples)


def outerplanar_F() -> SignedGraph:
    """A 6-vertex outerplanar graph hitting circular chromatic number 10/3.

    Vertices: a=0, b=1, c=2 (outer triangle corners) and x=3, y=4, z=5.
    """
    pos = [(4, 1), (3, 0), (5, 2)]
    neg = [(4, 3), (4, 5), (4, 2), (3, 1), (3, 5), (5, 0)]
    triples = [(a, b, POS) for a, b in pos] + [(a, b, NEG) for a, b in neg]
    return SignedGraph.from_triples(6, triples)


def omega_d(d: int) -> SignedGraph:
    """Positive d-clique plus one auxiliary vertex per core pair.

    The auxiliary vertex of pair {i, j} is joined negatively to x_i and x_j
    and positively to the other d-2 core vertices, so every auxiliary vertex
    has degree exactly d and the graph is d-degenerate.  The paper proves
    its circular chromatic number is d + 2; the repo checks d = 4 only
    (chi_c(omega_d(4)) = 6 in tests/test_acceptance.py::test_03).
    """
    if d < 4 or d % 2:
        raise ValueError("d must be even and at least 4")
    triples: list[tuple[int, int, Sign]] = [
        (i, j, POS) for i in range(d) for j in range(i + 1, d)
    ]
    y = d
    for i in range(d):
        for j in range(i + 1, d):
            triples.append((i, y, NEG))
            triples.append((j, y, NEG))
            for k in range(d):
                if k not in (i, j):
                    triples.append((k, y, POS))
            y += 1
    return SignedGraph.from_triples(y, triples)


# ---------------------------------------------------------------------------
# the 6-vertex interior gadget and its host graphs
# ---------------------------------------------------------------------------

# Vertex roles: interior triangle a=0, b=1, c=2; outer triangle x=3, y=4, z=5.
# Spokes pair a-x, b-y, c-z.
_GADGET_POS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5))
_GADGET_NEG = ((4, 5), (5, 3), (3, 4), (0, 5), (1, 3), (2, 4))


def mini_gadget() -> SignedGraph:
    """Interior triangle + all-negative outer triangle + mixed spoke pattern.

    At circle sizes 4 + alpha with 0 <= alpha < 2 the three outer vertices of
    any valid coloring span an arc of length within [1 - alpha/2, 1 + alpha/2],
    and conversely any such outer placement extends to the interior (see
    gadget_interior_colors).
    """
    triples = [(a, b, POS) for a, b in _GADGET_POS] + [(a, b, NEG) for a, b in _GADGET_NEG]
    return SignedGraph.from_triples(6, triples)


def gadget_interior_colors(p: int, q: int, outer: tuple[int, int, int]) -> tuple[int, int, int]:
    """Interior colors (a, b, c) of the plain gadget from outer colors (x, y, z).

    Works at circle sizes p/q in [4, 6) and requires the outer colors to fit
    in a circular arc of length between q - (p-4q)/2 and q + (p-4q)/2 steps
    (the feasible span of the gadget's outer triangle); raises ValueError
    otherwise.  The fill is the closed-form one: normalise by rotation,
    circle negation, and the gadget's cyclic role symmetry until the arc
    runs z -> y -> x from position 0; place the interior at (3q + h, 2q, q)
    or (3q + h, 2q + h, q) steps depending on whether the span exceeds q,
    where h = (p - 4q)/2; then undo the normalisation.
    """
    _validate_pq(p, q)
    if not (4 * q <= p < 6 * q):
        raise ValueError("circle size must lie in [4, 6)")
    for c in outer:
        if not (_is_int(c) and 0 <= c < p):
            raise ValueError(f"outer colors must be ints in 0..p-1, got {c!r}")
    h = (p - 4 * q) // 2
    lo, hi = q - h, q + h
    roles = tuple(outer)
    for eta in (0, 1):
        t = (lambda c: (-c) % p) if eta else (lambda c: c)
        for k in (0, 1, 2):
            s = t(roles[(2 + k) % 3])
            vy = (t(roles[(1 + k) % 3]) - s) % p
            vx = (t(roles[(0 + k) % 3]) - s) % p
            if vy <= vx and lo <= vx <= hi:
                if vx <= q:
                    fa, fb, fc = 3 * q + h, 2 * q, q
                else:
                    fa, fb, fc = 3 * q + h, 2 * q + h, q
                out = [0, 0, 0]
                out[k % 3] = t((fa + s) % p)
                out[(1 + k) % 3] = t((fb + s) % p)
                out[(2 + k) % 3] = t((fc + s) % p)
                return tuple(out)
    raise ValueError("outer colors do not span a feasible gadget arc")


def wenger() -> SignedGraph:
    """The 10-vertex host graph: a wheel-like core with two apex vertices.

    Vertices: w=0, x1..x5 = 1..5, z=6, t=7, u=8, v=9.  It has exactly four
    negative triangles ({z,x2,x3}, {t,x4,x5}, {v,x3,x4}, {u,x1,x5}), which is
    what the expanded variant below builds on.
    """
    pos = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (6, 3), (7, 5), (9, 6), (9, 7), (9, 3), (8, 1), (8, 2),
    ]
    neg = [(6, 2), (7, 4), (9, 4), (8, 5), (8, 7), (8, 6)]
    triples = [(a, b, POS) for a, b in pos] + [(a, b, NEG) for a, b in neg]
    return SignedGraph.from_triples(10, triples)


@dataclass(frozen=True)
class GadgetEmbedding:
    """Where one grafted gadget copy sits inside a host graph.

    outer: host vertices in gadget roles (x, y, z), ascending host index;
    interior: the fresh vertices in roles (a, b, c), spoke-paired with outer;
    switched: the outer vertices at which the gadget copy is switched so its
    outer-triangle signs match the host triangle.
    """

    outer: tuple[int, int, int]
    interior: tuple[int, int, int]
    switched: frozenset[int]


# Host triangles to fill, in fixed construction order, named by apex:
# {z,x2,x3}, {t,x4,x5}, {v,x3,x4}, {u,x1,x5}.
_WENGER_TRIANGLES = ((6, 2, 3), (7, 4, 5), (9, 3, 4), (8, 1, 5))


def wenger_tilde_detail() -> tuple[SignedGraph, tuple[GadgetEmbedding, ...]]:
    """The expanded host graph together with its four gadget embeddings.

    Each negative host triangle becomes the outer triangle of a grafted
    gadget copy.  The copy must be switched so its outer signs match the
    host's: the mismatch always flips exactly zero or two outer edges, and
    in the two-flip case switching at the single vertex shared by the two
    flipped edges fixes it.  Interior vertices are never switched.  The
    copy's edges with an interior endpoint, in the gadget's edge order, are
    grafted; its outer triangle is the host's own.
    """
    host = wenger()
    gadget = mini_gadget()
    edges = [(e.u, e.v, e.sign) for e in host.edges]
    sign_of = {frozenset((e.u, e.v)): e.sign for e in host.edges}  # host is simple
    embeddings = []
    next_vertex = host.n
    for tri in _WENGER_TRIANGLES:
        hx, hy, hz = sorted(tri)
        outer = (hx, hy, hz)
        role_edges = ((hx, hy), (hy, hz), (hz, hx))  # gadget outer edges x-y, y-z, z-x
        flipped = [pair for pair in role_edges if sign_of[frozenset(pair)] is not NEG]
        if len(flipped) == 0:
            switched: frozenset[int] = frozenset()
        elif len(flipped) == 2:
            (common,) = set(flipped[0]) & set(flipped[1])
            switched = frozenset({common})
        else:
            raise AssertionError("host triangle is not sign-matchable to the gadget")
        interior = (next_vertex, next_vertex + 1, next_vertex + 2)
        next_vertex += 3
        vmap = {3: hx, 4: hy, 5: hz, 0: interior[0], 1: interior[1], 2: interior[2]}
        copy = switch(gadget, (3 + outer.index(v) for v in switched))
        edges.extend((vmap[e.u], vmap[e.v], e.sign) for e in copy.edges if min(e.u, e.v) < 3)
        embeddings.append(GadgetEmbedding(outer, interior, switched))
    return SignedGraph.from_triples(next_vertex, edges), tuple(embeddings)


def wenger_tilde() -> SignedGraph:
    """The 22-vertex expansion of the host graph (see wenger_tilde_detail)."""
    return wenger_tilde_detail()[0]


def big_gamma() -> Indicator:
    """The expanded host plus a negative edge between its two apexes u, v.

    The paper shows that, as an indicator with terminals (u, v), its
    feasible separations at circle sizes in [4, 14/3) all exceed 4/9 of a
    unit, the kernel of its lower-bound argument for the clique composition
    below.  The repo checks one circle size: at 18/4 the apex separations
    of the expanded host are 3..9 quarter units, none below 3/4
    (tests/test_acceptance.py::test_11).
    """
    g = wenger_tilde()
    edges = g.edges + (Edge(8, 9, NEG),)
    return Indicator(SignedGraph(g.n, edges), 8, 9)


def k4_omega() -> SignedGraph:
    """Replace every edge of a positive K4 by a copy of the apex indicator.

    124 vertices, 360 edges.  The paper proves its circular chromatic
    number is exactly 14/3.  The repo checks the upper side, a (28, 6)
    witness (k4_omega_coloring), and of the lower side only that no
    (18, 4)-coloring exists (tests/test_acceptance.py::test_12); the rungs
    between 9/2 and 14/3 are not decided.
    """
    return replace_edges(positive_clique(4), big_gamma())


# ---------------------------------------------------------------------------
# reference colorings at circle size 14/3
# ---------------------------------------------------------------------------


def wenger_coloring(p: int, q: int) -> Coloring:
    """The reference (p,q)-coloring of the 10-vertex host at circle size 14/3.

    In circle units: u = v = 0, w = 3, x1 = 2, x2 = 1, x3 = 2, x4 = 1/3,
    x5 = 4, z = t = 1.  As 3p = 14q, 3 divides q, so 1/3 unit is q/3 steps.
    """
    if 3 * p != 14 * q:
        raise ValueError("reference coloring lives at circle size 14/3")
    third = q // 3
    cols = (3 * q, 2 * q, q, 2 * q, third, 4 * q, q, q, 0, 0)
    return Coloring(p, q, cols)


def wenger_tilde_coloring(p: int, q: int) -> Coloring:
    """Extend the reference host coloring into all four gadget interiors.

    For each embedded gadget: undo its switching on the outer colors (add
    half a circle at switched vertices), run the closed-form interior fill,
    and keep the interior colors as-is (interiors are never switched).  The
    result also colors the apex indicator: the extra negative edge joins two
    vertices half a circle of slack apart.
    """
    base = wenger_coloring(p, q).colors
    _, embeddings = wenger_tilde_detail()
    half = p // 2
    colors = list(base) + [0] * (3 * len(embeddings))
    for emb in embeddings:
        unswitched = tuple(
            (base[hv] + half) % p if hv in emb.switched else base[hv] for hv in emb.outer
        )
        ia, ib, ic = gadget_interior_colors(p, q, unswitched)
        colors[emb.interior[0]] = ia
        colors[emb.interior[1]] = ib
        colors[emb.interior[2]] = ic
    return Coloring(p, q, tuple(colors))


def k4_omega_coloring(p: int, q: int) -> Coloring:
    """Reference coloring of the K4 composition: one gadget coloring per copy.

    All four clique vertices take the shared terminal color 0; each copy's
    internal vertices repeat the expanded-host reference coloring, laid out
    exactly as replace_edges numbers them (internals ascending, terminals
    skipped).
    """
    inner = wenger_tilde_coloring(p, q).colors
    if inner[8] != inner[9]:
        raise RuntimeError("internal error: terminals must share a color to replicate")
    internals = [w for w in range(len(inner)) if w not in (8, 9)]
    colors = [inner[8]] * 4
    for _ in range(6):
        colors.extend(inner[w] for w in internals)
    return Coloring(p, q, tuple(colors))
