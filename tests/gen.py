"""Shared hypothesis strategies for random signed graphs."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from sgc.core import NEG, POS, SignedGraph
from sgc.indicators import Indicator, replace_edges


@st.composite
def signed_graphs(draw, max_n=5, max_m=8, min_n=1, min_m=0,
                  loops=True, positive_loops=False, parallel=True):
    """A random signed multigraph.

    Positive loops are off by default (they make every instance uncolorable);
    with parallel=False repeated endpoint pairs are skipped.
    """
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    edges = []
    seen_pairs = set()
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            if not loops:
                continue
            sign = draw(st.sampled_from((POS, NEG))) if positive_loops else NEG
        else:
            sign = draw(st.sampled_from((POS, NEG)))
        pair = (min(u, v), max(u, v))
        if not parallel and pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        edges.append((u, v, sign))
    return SignedGraph.from_triples(n, edges)


@st.composite
def simple_positive_graphs(draw, max_n=5, min_edges=1):
    """A loop-free simple graph, all edges positive, with at least min_edges."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=min_edges,
                           max_size=len(pairs), unique=True))
    return SignedGraph.from_triples(n, [(u, v, POS) for u, v in chosen])


@st.composite
def gadget_compositions(draw):
    """A host on 3 or 4 vertices with each edge replaced by a dense gadget.

    The gadget has k = 4..6 vertices (terminals 0 and 1) and all but up to
    two of its vertex pairs as edges, so that blocks keep degree 3 and its
    copies are repeated 2-separated pieces.  Negative host edges get the
    same gadget or one with some signs flipped, whose pieces must not share
    the first one's relation.  Not every draw has repeated pieces.
    """
    host = draw(signed_graphs(min_n=3, max_n=4, max_m=6, loops=False, parallel=False))
    k = draw(st.integers(4, 6))
    pairs = list(itertools.combinations(range(k), 2))
    signs = draw(st.lists(st.sampled_from([POS, NEG]), min_size=len(pairs),
                          max_size=len(pairs)))
    drop = draw(st.sets(st.sampled_from(pairs[1:]), max_size=2))
    kept = [(a, b, s) for (a, b), s in zip(pairs, signs) if (a, b) not in drop]
    ind = Indicator(SignedGraph.from_triples(k, kept), 0, 1)
    flips = draw(st.sets(st.integers(0, len(kept) - 1)))
    ind_neg = Indicator(SignedGraph.from_triples(k, [(a, b, -s if i in flips else s)
                                                     for i, (a, b, s) in enumerate(kept)]), 0, 1)
    return replace_edges(host, ind, ind_neg)


@st.composite
def joined_compositions(draw):
    """Two or three gadget_compositions, each after the first joined to the
    ones before it by a bridge, by two edges or through a shared cut vertex.

    The vertices are relabelled at random: either keeping each
    composition's relative order, so that its repeated pieces stay
    repeated, or by any permutation.  So a block with at least 3 neighbors
    per vertex need not hold the search's root, and two of them may share
    a cut vertex.
    """
    n, triples, starts = 0, [], []
    for h in draw(st.lists(gadget_compositions(), min_size=2, max_size=3)):
        starts.append(n)
        label = list(range(n, n + h.n))
        join = draw(st.sampled_from(("bridge", "two edges", "cut vertex"))) if n else None
        if join == "cut vertex":  # one of h's vertices is an earlier one
            x = draw(st.integers(0, h.n - 1))
            label = label[:x] + [draw(st.integers(0, n - 1))] + label[x:-1]
        for _ in range({"bridge": 1, "two edges": 2}.get(join, 0)):
            triples.append((draw(st.integers(0, n - 1)), draw(st.sampled_from(label)),
                            draw(st.sampled_from((POS, NEG)))))
        triples += [(label[u], label[v], s) for u, v, s in h.edges]
        n += h.n - (join == "cut vertex")
    perm = list(draw(st.permutations(range(n))))
    if draw(st.booleans()):  # keep the order within each composition's new vertices
        for lo, hi in zip(starts, starts[1:] + [n]):
            perm[lo:hi] = sorted(perm[lo:hi])
    return SignedGraph.from_triples(n, [(perm[u], perm[v], s) for u, v, s in triples])


@st.composite
def necklaces(draw):
    """A ring of 2..6 beads, each K4 less the edge between its two ends,
    with random signs and the vertices relabelled at random.  Any two bead
    ends are a separation pair, and beads with the same signs and the same
    relative numbering are repeated pieces."""
    k = draw(st.integers(2, 6))
    triples = []
    for i in range(k):
        a, x, y, b = 3 * i, 3 * i + 1, 3 * i + 2, 3 * (i + 1) % (3 * k)
        for u, v in ((a, x), (a, y), (x, y), (x, b), (y, b)):
            triples.append((u, v, draw(st.sampled_from((POS, NEG)))))
    perm = draw(st.permutations(range(3 * k)))
    return SignedGraph.from_triples(3 * k, [(perm[u], perm[v], s) for u, v, s in triples])


def prism(k):
    """C_k x K2, all edges positive: the cycles 0..k-1 and k..2k-1 and the
    rungs (i, k + i).  It is 3-connected, so it has no separation pair."""
    return SignedGraph.from_triples(2 * k, [
        edge for i in range(k)
        for edge in ((i, (i + 1) % k, POS), (k + i, k + (i + 1) % k, POS), (i, k + i, POS))])


def prisms():
    """prism(k) for k = 3..12."""
    return st.integers(3, 12).map(prism)


def grids(max_p=8):
    """(p, q) integer grids with even p and 2q <= p."""
    return st.integers(1, max_p // 2).flatmap(
        lambda q: st.integers(q, max_p // 2).map(lambda h: (2 * h, q)))


def seeded_multigraphs(seed, count, min_n=12, max_n=20):
    """count signed multigraphs from random.Random(seed): n uniform in
    min_n..max_n, m uniform in 2n..3n, 3% negative loops, both signs equally
    likely on the other edges, parallel edges as they fall."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        edges = []
        for _ in range(rng.randint(2 * n, 3 * n)):
            u = rng.randrange(n)
            if rng.random() < 0.03:
                edges.append((u, u, NEG))
                continue
            v = rng.randrange(n - 1)
            edges.append((u, v + (v >= u), rng.choice((POS, NEG))))
        graphs.append(SignedGraph.from_triples(n, edges))
    return graphs
