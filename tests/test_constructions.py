"""Golden and structural tests for the named graph generators.

The edge lists frozen here are deliberate duplicates of the generator
transcriptions: any accidental edit to either copy turns a test red.
"""

from fractions import Fraction
from itertools import combinations

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgc import (
    Coloring,
    Pin,
    SignedGraph,
    big_gamma,
    chi_c,
    circular_clique_signed,
    degeneracy,
    feasible_pq,
    gadget_interior_colors,
    gamma,
    gamma_prime,
    hat_clique,
    k4_omega,
    k4_omega_coloring,
    mini_gadget,
    omega_d,
    outerplanar_F,
    positive_clique,
    signed_cycle,
    spal5,
    switching_equivalent,
    verify_coloring,
    wenger,
    wenger_coloring,
    wenger_tilde,
    wenger_tilde_coloring,
    wenger_tilde_detail,
)
from sgc import constructions
from sgc.core import NEG, POS


def triples(g: SignedGraph) -> list[tuple[int, int, str]]:
    return [(e.u, e.v, e.sign.symbol) for e in g.edges]


def canon(g: SignedGraph) -> SignedGraph:
    """Same graph with edges keyed by sorted endpoint pair (no parallels)."""
    ts = sorted(((min(e.u, e.v), max(e.u, e.v)), e.sign.symbol) for e in g.edges)
    return SignedGraph.from_triples(g.n, [(u, v, s) for (u, v), s in ts])


class TestPositiveClique:
    def test_frozen(self):
        assert triples(positive_clique(3)) == [(0, 1, "+"), (0, 2, "+"), (1, 2, "+")]
        k4 = positive_clique(4)
        assert k4.n == 4 and k4.m == 6
        assert all(e.sign.symbol == "+" for e in k4.edges)

    def test_validation(self):
        with pytest.raises(ValueError):
            positive_clique(0)


class TestSignedCycle:
    def test_degenerate_lengths(self):
        assert triples(signed_cycle(1, negative=True)) == [(0, 0, "-")]
        assert triples(signed_cycle(1, negative=False)) == [(0, 0, "+")]
        assert triples(signed_cycle(2, negative=True)) == [(0, 1, "+"), (1, 0, "-")]

    def test_frozen_four_cycle(self):
        assert triples(signed_cycle(4, negative=True)) == [
            (0, 1, "+"), (1, 2, "+"), (2, 3, "+"), (3, 0, "-")
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            signed_cycle(0, negative=False)


class TestCircularCliqueSigned:
    def test_small_sizes(self):
        assert circular_clique_signed(6, 2).m == 21
        assert circular_clique_signed(6, 2).n == 6

    def test_every_vertex_has_a_negative_loop(self):
        g = circular_clique_signed(10, 3)
        loops = [(e.u, e.sign.symbol) for e in g.edges if e.is_loop]
        assert loops == [(i, "-") for i in range(10)]

    def test_parallel_pair_where_both_constraints_fit(self):
        g = circular_clique_signed(8, 2)
        at_02 = [e.sign.symbol for e in g.edges if (e.u, e.v) == (0, 2)]
        assert sorted(at_02) == ["+", "-"]

    @pytest.mark.parametrize("p", range(2, 25, 2))
    def test_edge_list_is_every_pair_the_edge_predicate_admits(self, p):
        for q in range(1, p // 2 + 1):
            want = [(i, j, sign) for i in range(p) for j in range(i, p) for sign in (POS, NEG)
                    if oracles.edge_ok(p, q, sign, i, j)]
            got = [(e.u, e.v, e.sign) for e in circular_clique_signed(p, q).edges]
            assert got == want, (p, q)

    @pytest.mark.parametrize("p,q", [(7, 2), (0, 1), (6, 0), (6, 4), (6.0, 2), (6, 2.0),
                                     (True, 1), (2, True)])
    def test_validation(self, p, q):
        with pytest.raises(ValueError):
            circular_clique_signed(p, q)
        with pytest.raises(ValueError):
            hat_clique(p, q)


class TestHatClique:
    def test_frozen(self):
        got = sorted((e.u, e.v, e.sign.symbol) for e in hat_clique(8, 3).edges)
        assert got == [
            (0, 0, "-"), (0, 1, "-"), (0, 3, "+"), (1, 1, "-"),
            (1, 2, "-"), (2, 2, "-"), (2, 3, "-"), (3, 3, "-"),
        ]

    def test_is_the_induced_half_of_the_clique(self):
        for p, q in [(6, 2), (8, 3), (10, 3), (12, 5)]:
            full = circular_clique_signed(p, q)
            half = hat_clique(p, q)
            restriction = tuple(
                e for e in full.edges if e.u < p // 2 and e.v < p // 2
            )
            assert restriction == half.edges

    def test_reaches_the_full_clique_value(self):
        assert chi_c(hat_clique(8, 3)).value == Fraction(8, 3)


class TestLadderGadgets:
    def test_frozen_depth_one(self):
        ind = gamma(1)
        assert (ind.u, ind.v) == (1, 2)
        assert ind.graph.n == 3
        assert triples(ind.graph) == [(1, 0, "+"), (0, 2, "+")]

    def test_frozen_depth_two(self):
        ind = gamma(2)
        assert (ind.u, ind.v) == (3, 4)
        assert ind.graph.n == 5
        assert triples(ind.graph) == [
            (1, 0, "+"), (0, 2, "+"),
            (3, 1, "+"), (3, 2, "-"), (4, 1, "-"), (4, 2, "+"),
        ]

    def test_frozen_depth_three(self):
        ind = gamma(3)
        assert (ind.u, ind.v) == (5, 6)
        assert ind.graph.n == 7
        assert triples(ind.graph) == [
            (1, 0, "+"), (0, 2, "+"),
            (3, 1, "+"), (3, 2, "-"), (4, 1, "-"), (4, 2, "+"),
            (5, 3, "+"), (5, 4, "+"), (6, 3, "+"), (6, 4, "+"),
        ]

    def test_sizes(self):
        for i in range(1, 6):
            ind = gamma(i)
            assert ind.graph.n == 2 * i + 1
            assert ind.graph.m == 2 + 4 * (i - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma(0)


class TestGluedLadders:
    def test_frozen_first(self):
        g = gamma_prime(1)
        assert g.n == 6
        assert triples(g) == [
            (1, 0, "+"), (0, 2, "+"),
            (4, 3, "+"), (3, 5, "+"),
            (1, 4, "+"), (1, 5, "-"), (2, 4, "-"), (2, 5, "+"),
        ]

    def test_second_size(self):
        g = gamma_prime(2)
        assert (g.n, g.m) == (14, 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_prime(0)


class TestSmallNamedGraphs:
    def test_pentagon_pair_frozen(self):
        g = spal5()
        assert g.n == 5
        assert triples(g) == [
            (0, 2, "+"), (1, 3, "+"), (2, 4, "+"), (0, 3, "+"), (1, 4, "+"),
            (0, 1, "-"), (1, 2, "-"), (2, 3, "-"), (3, 4, "-"), (0, 4, "-"),
        ]

    def test_pentagon_pair_negation_symmetry(self):
        # Negating every sign and doubling vertex labels mod 5 is an
        # isomorphism back to the original graph.
        g = spal5()
        original = {
            (min(e.u, e.v), max(e.u, e.v)): e.sign.symbol for e in g.edges
        }
        relabeled = {}
        for e in g.edges:
            u, v = 2 * e.u % 5, 2 * e.v % 5
            relabeled[(min(u, v), max(u, v))] = "-" if e.sign.symbol == "+" else "+"
        assert relabeled == original

    def test_outerplanar_frozen(self):
        g = outerplanar_F()
        assert (g.n, g.m) == (6, 9)
        assert triples(g) == [
            (4, 1, "+"), (3, 0, "+"), (5, 2, "+"),
            (4, 3, "-"), (4, 5, "-"), (4, 2, "-"),
            (3, 1, "-"), (3, 5, "-"), (5, 0, "-"),
        ]


class TestDegreeExamples:
    def test_smallest_instance(self):
        g = omega_d(4)
        assert (g.n, g.m) == (10, 30)
        degs = g.degrees()
        assert degs[:4] == [9, 9, 9, 9]
        assert degs[4:] == [4] * 6
        assert degeneracy(g)[0] == 4

    def test_auxiliary_vertex_signs(self):
        # The first auxiliary vertex serves core pair {0, 1}: negative to
        # those two, positive to the rest of the core.
        g = omega_d(4)
        star = [(e.u, e.v, e.sign.symbol) for e in g.edges if 4 in (e.u, e.v)]
        assert star == [(0, 4, "-"), (1, 4, "-"), (2, 4, "+"), (3, 4, "+")]

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_validation(self, d):
        with pytest.raises(ValueError):
            omega_d(d)


class TestMiniGadget:
    def test_frozen(self):
        g = mini_gadget()
        assert g.n == 6
        assert triples(g) == [
            (0, 1, "+"), (0, 2, "+"), (1, 2, "+"),
            (0, 3, "+"), (1, 4, "+"), (2, 5, "+"),
            (4, 5, "-"), (5, 3, "-"), (3, 4, "-"),
            (0, 5, "-"), (1, 3, "-"), (2, 4, "-"),
        ]


class TestGadgetInteriorColors:
    def test_known_fill(self):
        # At (16, 4) the outer colors must span exactly one quarter circle.
        interior = gadget_interior_colors(16, 4, (0, 2, 4))
        coloring = Coloring(16, 4, interior + (0, 2, 4))
        assert verify_coloring(mini_gadget(), coloring)

    def test_degenerate_outer_is_rejected(self):
        with pytest.raises(ValueError):
            gadget_interior_colors(28, 6, (0, 0, 0))

    @pytest.mark.parametrize(
        "p,q,outer",
        [
            (15, 4, (0, 1, 2)),    # odd p
            (16.0, 4, (0, 2, 4)),  # p not an int
            (16, 4.0, (0, 2, 4)),  # q not an int
            (16, 0, (0, 2, 4)),    # q below 1
            (14, 4, (0, 1, 2)),    # circle size below 4
            (36, 6, (0, 1, 2)),    # circle size 6 and above
            (28, 6, (0, 1, 28)),   # color out of range
            (28, 6, (-1, 1, 2)),   # color out of range
            (16, 4, (0.0, 2, 4)),  # color not an int
            (16, 4, (True, 2, 4)),  # color a bool
        ],
    )
    def test_validation(self, p, q, outer):
        with pytest.raises(ValueError):
            gadget_interior_colors(p, q, outer)

    @settings(max_examples=250, deadline=None)
    @given(
        grid=st.sampled_from([(16, 4), (18, 4), (20, 4), (20, 5), (24, 5), (28, 6)]),
        data=st.data(),
    )
    def test_agrees_with_pinned_search(self, grid, data):
        # The closed-form fill and the exact solver must agree on which
        # outer placements extend, and any returned fill must be valid.
        p, q = grid
        outer = tuple(data.draw(st.integers(0, p - 1)) for _ in range(3))
        pins = (Pin(3, outer[0]), Pin(4, outer[1]), Pin(5, outer[2]))
        searched = feasible_pq(mini_gadget(), p, q, pins=pins)
        try:
            interior = gadget_interior_colors(p, q, outer)
        except ValueError:
            assert searched is None
        else:
            assert searched is not None
            assert verify_coloring(mini_gadget(), Coloring(p, q, interior + outer))


class TestHostGraph:
    def test_frozen(self):
        g = wenger()
        assert (g.n, g.m) == (10, 23)
        assert triples(g) == [
            (0, 1, "+"), (0, 2, "+"), (0, 3, "+"), (0, 4, "+"), (0, 5, "+"),
            (1, 2, "+"), (2, 3, "+"), (3, 4, "+"), (4, 5, "+"), (5, 1, "+"),
            (6, 3, "+"), (7, 5, "+"), (9, 6, "+"), (9, 7, "+"), (9, 3, "+"),
            (8, 1, "+"), (8, 2, "+"),
            (6, 2, "-"), (7, 4, "-"), (9, 4, "-"), (8, 5, "-"), (8, 7, "-"),
            (8, 6, "-"),
        ]

    def test_exactly_four_negative_triangles(self):
        g = wenger()
        sign_of = {frozenset((e.u, e.v)): e.sign.symbol for e in g.edges}
        negative = set()
        for tri in combinations(range(g.n), 3):
            signs = [
                sign_of.get(frozenset(pair)) for pair in combinations(tri, 2)
            ]
            if None not in signs and signs.count("-") % 2:
                negative.add(frozenset(tri))
        assert negative == {
            frozenset({6, 2, 3}),
            frozenset({7, 4, 5}),
            frozenset({9, 3, 4}),
            frozenset({8, 1, 5}),
        }

    def test_reference_coloring(self):
        c = wenger_coloring(28, 6)
        assert c.colors == (18, 12, 6, 12, 2, 24, 6, 6, 0, 0)
        assert verify_coloring(wenger(), c)
        # The same picture halves onto the (14, 3) grid.
        c2 = wenger_coloring(14, 3)
        assert c2.colors == (9, 6, 3, 6, 1, 12, 3, 3, 0, 0)
        assert verify_coloring(wenger(), c2)

    def test_reference_coloring_grid_is_checked(self):
        with pytest.raises(ValueError):
            wenger_coloring(28, 7)


class TestExpandedHost:
    def test_sizes(self):
        g = wenger_tilde()
        assert (g.n, g.m) == (22, 59)

    def test_host_edges_are_kept_verbatim(self):
        g = wenger_tilde()
        assert g.edges[:23] == wenger().edges

    def test_embeddings(self):
        _, embeddings = wenger_tilde_detail()
        assert [e.outer for e in embeddings] == [
            (2, 3, 6), (4, 5, 7), (3, 4, 9), (1, 5, 8)
        ]
        assert [e.interior for e in embeddings] == [
            (10, 11, 12), (13, 14, 15), (16, 17, 18), (19, 20, 21)
        ]
        assert [set(e.switched) for e in embeddings] == [{3}, {5}, {3}, {1}]
        for e in embeddings:
            assert e.switched <= set(e.outer)

    def test_each_copy_is_a_switching_of_the_gadget(self):
        g, embeddings = wenger_tilde_detail()
        for emb in embeddings:
            verts = list(emb.interior) + list(emb.outer)
            index = {v: i for i, v in enumerate(verts)}
            sub_triples = [
                (index[e.u], index[e.v], e.sign.symbol)
                for e in g.edges
                if e.u in index and e.v in index
            ]
            sub = SignedGraph.from_triples(6, sub_triples)
            assert sub.m == 12
            assert switching_equivalent(canon(sub), canon(mini_gadget()))

    def test_reference_coloring_extends(self):
        c = wenger_tilde_coloring(28, 6)
        assert len(c.colors) == 22
        assert c.colors[:10] == wenger_coloring(28, 6).colors
        assert verify_coloring(wenger_tilde(), c)


class TestApexIndicator:
    def test_structure(self):
        ind = big_gamma()
        assert (ind.u, ind.v) == (8, 9)
        g = ind.graph
        assert (g.n, g.m) == (22, 60)
        assert g.edges[:59] == wenger_tilde().edges
        last = g.edges[59]
        assert (last.u, last.v, last.sign.symbol) == (8, 9, "-")

    def test_reference_coloring_covers_the_apex_edge(self):
        ind = big_gamma()
        assert verify_coloring(ind.graph, wenger_tilde_coloring(28, 6))


class TestCliqueComposition:
    def test_sizes(self):
        g = k4_omega()
        assert (g.n, g.m) == (124, 360)

    def test_reference_coloring_checks_its_terminals(self, monkeypatch):
        # The guard raises (not asserts), so it also runs under python -O.
        bad = Coloring(28, 6, tuple(range(12)))
        monkeypatch.setattr(constructions, "wenger_tilde_coloring", lambda p, q: bad)
        with pytest.raises(RuntimeError, match="terminals must share a color"):
            k4_omega_coloring(28, 6)

    def test_reference_coloring(self):
        c = k4_omega_coloring(28, 6)
        assert len(c.colors) == 124
        assert c.colors[:4] == (0, 0, 0, 0)
        assert verify_coloring(k4_omega(), c)
