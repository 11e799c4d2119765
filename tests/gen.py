"""Shared hypothesis strategies for random signed graphs."""

from __future__ import annotations

import itertools

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


def grids(max_p=8):
    """(p, q) integer grids with even p and 2q <= p."""
    return st.integers(1, max_p // 2).flatmap(
        lambda q: st.integers(q, max_p // 2).map(lambda h: (2 * h, q)))
