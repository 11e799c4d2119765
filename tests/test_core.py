"""Signed-graph structure: switching, balance, girth types, chi_plus."""

from __future__ import annotations

import oracles
import pytest
from gen import seeded_multigraphs, signed_graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from sgc.core import (NEG, POS, Edge, Sign, SignedGraph,
                      StructuralMismatchError, UncolorableError, degeneracy,
                      girth_types, is_balanced, switch, switching_equivalent)
from sgc.solver import chi_c, chi_plus


def sg(n, triples):
    return SignedGraph.from_triples(n, triples)


C4_NEG = sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 0, NEG)])
C4_POS = sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 0, POS)])


class TestSign:
    def test_algebra(self):
        assert POS * NEG is NEG
        assert NEG * NEG is POS
        assert -POS is NEG
        assert POS.symbol == "+" and NEG.symbol == "-"


class TestSignedGraph:
    def test_from_triples_coercion(self):
        g = sg(2, [(0, 1, "+"), (0, 1, -1), (0, 1, NEG), (0, 1, 1)])
        assert [e.sign for e in g.edges] == [POS, NEG, NEG, POS]

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            sg(2, [(0, 1, "x")])
        with pytest.raises(ValueError):
            SignedGraph(2, (Edge(0, 1, "+"),))

    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, [1]])
    def test_bools_and_floats_are_not_signs(self, sign):
        # True and 1.0 equal 1: both used to read as +, while False was a
        # bad sign.
        with pytest.raises(ValueError, match=r"bad sign .* on edge \(0,1\)"):
            sg(2, [(0, 1, sign)])

    def test_keeps_no_reference_to_the_callers_list(self):
        # The graph used to store the list itself: a positive loop appended
        # after chi_c had cached "no positive loop" made the next chi_c
        # raise RuntimeError (seed coloring invalid), and hash() TypeError.
        edges = [Edge(0, 1, POS), Edge(1, 2, POS), Edge(2, 0, POS)]
        g = SignedGraph(3, edges)
        assert chi_c(g).value == 3
        edges.append(Edge(0, 0, POS))
        assert type(g.edges) is tuple and g.edges == tuple(edges[:3])
        assert chi_c(g).value == 3
        assert hash(g) == hash(SignedGraph(3, tuple(edges[:3])))

    @pytest.mark.parametrize("entry", [(0, 1, POS), [0, 1, POS], None, "e 0 1 +"])
    def test_entries_must_be_edges(self, entry):
        # A plain tuple used to fail with AttributeError: no attribute 'u'.
        with pytest.raises(ValueError, match="edge 1 is .*, not an Edge"):
            SignedGraph(2, [Edge(0, 1, NEG), entry])

    def test_bad_vertices_rejected(self):
        with pytest.raises(ValueError):
            sg(2, [(0, 2, POS)])
        with pytest.raises(ValueError):
            SignedGraph(-1, ())

    @pytest.mark.parametrize("build,field", [
        (lambda: sg(3, [(0, 1.0, "+"), (1, 2, "-")]), "edge 0 endpoints"),
        (lambda: sg(3, [(0, 1, "+"), ("1", 2, "-")]), "edge 1 endpoints"),
        (lambda: SignedGraph(2, (Edge(0, None, POS),)), "edge 0 endpoints"),
        (lambda: SignedGraph(2.0, (Edge(0, 1, POS),)), "vertex count"),
        (lambda: SignedGraph(2.5, ()), "vertex count"),
        (lambda: SignedGraph("3", ()), "vertex count"),
    ])
    def test_non_integer_vertices_rejected_at_construction(self, build, field):
        # Each of these used to build a graph, or fail on a comparison, and
        # chi_c on the ones built died inside the search with a TypeError.
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("build,field", [
        (lambda: sg(2, [(0, True, "+")]), "edge 0 endpoints"),
        (lambda: SignedGraph(2, (Edge(False, 1, POS),)), "edge 0 endpoints"),
        (lambda: SignedGraph(True, ()), "vertex count"),
    ])
    def test_bools_are_not_vertices(self, build, field):
        # bool subclasses int: each of these used to build a graph, and
        # render_sg wrote "e 0 True +", which parse_sg rejects.
        with pytest.raises(ValueError, match=field):
            build()

    def test_degrees_and_loops(self):
        g = sg(2, [(0, 0, NEG), (0, 1, POS)])
        assert g.degrees() == [3, 1]
        assert g.has_positive_loop() is False
        assert sg(1, [(0, 0, POS)]).has_positive_loop() is True

    def test_adjacency_lists_loop_once(self):
        g = sg(2, [(0, 0, NEG), (0, 1, POS)])
        assert g.adjacency() == [[(0, 0), (1, 1)], [(0, 1)]]
        # Each call hands out fresh lists: mutating one leaves the graph alone.
        g.adjacency()[0].clear()
        assert g.adjacency() == [[(0, 0), (1, 1)], [(0, 1)]]

    def test_components(self):
        g = sg(5, [(0, 2, POS), (1, 3, NEG)])
        assert g.components() == [[0, 2], [1, 3], [4]]
        assert not g.is_connected()
        assert C4_NEG.is_connected()

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=7, max_m=8))
    def test_components_agree_with_union_find(self, g):
        assert g.components() == oracles.oracle_components(g)


class TestSwitch:
    def test_flips_cut_edges_only(self):
        got = switch(C4_NEG, {0})
        assert [e.sign for e in got.edges] == [NEG, POS, POS, POS]

    def test_loops_never_flip(self):
        g = sg(1, [(0, 0, NEG)])
        assert switch(g, {0}).edges == g.edges

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            switch(C4_NEG, {7})

    @pytest.mark.parametrize("members", [[True], [1.0], ["a"], [None], [1, True]])
    def test_members_must_be_vertices(self, members):
        # [True] and [1.0] used to switch vertex 1, and ["a"] raised
        # TypeError, while pins, terminals and edge endpoints reject them.
        with pytest.raises(ValueError, match="switching set contains non-vertex"):
            switch(C4_NEG, members)

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=6, max_m=8, positive_loops=True), st.data())
    def test_involution_and_composition(self, g, data):
        s1 = set(data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)))
        s2 = set(data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)))
        assert switch(switch(g, s1), s1) == g
        assert switch(switch(g, s1), s2) == switch(g, s1 ^ s2)


class TestIsBalanced:
    @settings(max_examples=250, deadline=None)
    @given(signed_graphs(max_n=7, max_m=10, positive_loops=True))
    def test_agrees_with_exhaustive_switch_scan(self, g):
        verdict, sset = is_balanced(g)
        assert verdict == oracles.oracle_balanced(g)
        if verdict:
            switched = switch(g, sset)
            assert all(e.sign is POS for e in switched.edges if not e.is_loop)
            # Loops are untouched by switching, so balance means no negative loop.
            assert all(e.sign is POS for e in switched.edges)

    def test_frozen(self):
        assert is_balanced(C4_POS) == (True, frozenset())
        assert is_balanced(C4_NEG)[0] is False
        assert is_balanced(sg(1, [(0, 0, NEG)])) == (False, None)
        assert is_balanced(sg(1, [(0, 0, POS)]))[0] is True

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=7, max_m=10, positive_loops=True))
    def test_negate_is_the_balance_of_the_negated_graph(self, g):
        negated = SignedGraph(g.n, tuple(e._replace(sign=-e.sign) for e in g.edges))
        assert is_balanced(g, negate=True) == is_balanced(negated)


class TestSwitchingEquivalent:
    def test_mismatched_skeletons_rejected(self):
        with pytest.raises(StructuralMismatchError):
            switching_equivalent(C4_NEG, sg(4, [(0, 1, POS)]))
        with pytest.raises(StructuralMismatchError):
            switching_equivalent(C4_NEG, sg(5, list(C4_NEG.edges)))

    def test_cycle_sign_is_the_invariant(self):
        assert not switching_equivalent(C4_NEG, C4_POS)
        two_neg = sg(4, [(0, 1, NEG), (1, 2, NEG), (2, 3, POS), (3, 0, POS)])
        assert switching_equivalent(two_neg, C4_POS)

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=6, max_m=8, positive_loops=True), st.data())
    def test_every_switching_is_equivalent(self, g, data):
        s = set(data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)))
        assert switching_equivalent(g, switch(g, s))

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=6, max_m=10, positive_loops=True), st.data())
    def test_is_the_balance_of_the_product_graph(self, g1, data):
        def product(g2):
            return SignedGraph(g1.n, tuple(Edge(e1.u, e1.v, e1.sign * e2.sign)
                                           for e1, e2 in zip(g1.edges, g2.edges)))

        # Another signature on the same multigraph, endpoints in either order.
        signs = data.draw(st.lists(st.sampled_from([POS, NEG]), min_size=g1.m, max_size=g1.m))
        flips = data.draw(st.lists(st.booleans(), min_size=g1.m, max_size=g1.m))
        resigned = SignedGraph(g1.n, tuple(Edge(e.v, e.u, sign) if flip else Edge(e.u, e.v, sign)
                                           for e, sign, flip in zip(g1.edges, signs, flips)))
        s = set(data.draw(st.lists(st.integers(0, g1.n - 1), max_size=g1.n)))
        for g2 in (resigned, switch(g1, s)):
            assert switching_equivalent(g1, g2) is is_balanced(product(g2))[0]


class TestGirthTypes:
    def test_frozen_negative_four_cycle(self):
        assert girth_types(C4_NEG).as_dict() == {
            (0, 0): 2, (0, 1): None, (1, 0): 4, (1, 1): None}

    def test_frozen_negative_loop(self):
        assert girth_types(sg(1, [(0, 0, NEG)])).as_dict() == {
            (0, 0): 2, (0, 1): None, (1, 0): None, (1, 1): 1}

    def test_table_lookup(self):
        t = girth_types(C4_NEG)
        assert t[(1, 0)] == 4
        with pytest.raises(KeyError):
            t[(2, 0)]

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=6, max_m=9, positive_loops=True))
    def test_agrees_with_exact_length_dp(self, g):
        assert girth_types(g).as_dict() == oracles.oracle_girth_types(g)


class TestDegeneracy:
    def test_frozen(self):
        assert degeneracy(C4_NEG) == (2, [0, 1, 2, 3])
        assert degeneracy(sg(1, [(0, 0, NEG)])) == (2, [0])
        assert degeneracy(sg(0, [])) == (0, [])

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=7, max_m=12, positive_loops=True))
    def test_replay_elimination_order(self, g):
        d, order = degeneracy(g)
        assert sorted(order) == list(range(g.n))
        assert d <= max(g.degrees(), default=0)
        # Replaying the order: removal-time degrees never exceed d and d is hit.
        removed = set()
        peak = 0
        for v in order:
            deg_v = 0
            for e in g.edges:
                if e.u == v and e.v == v:
                    deg_v += 2
                elif e.u == v and e.v not in removed:
                    deg_v += 1
                elif e.v == v and e.u not in removed:
                    deg_v += 1
            peak = max(peak, deg_v)
            removed.add(v)
        assert peak == d

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=8, max_m=14, positive_loops=True))
    def test_each_step_removes_the_lowest_vertex_of_least_degree(self, g):
        # Any least-degree order passes the replay above; the greedy seed,
        # and with it chi_c's ladder top and some witnesses, needs ties to go
        # to the lowest index.  Degrees are in the graph left (loops count 2).
        _, order = degeneracy(g)
        alive = set(range(g.n))
        for v in order:
            deg = {x: 0 for x in alive}
            for e in g.edges:
                if e.u in alive and e.v in alive:
                    deg[e.u] += 1
                    deg[e.v] += 1
            assert (deg[v], v) == min((dx, x) for x, dx in deg.items())
            alive.remove(v)

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs(max_n=9, max_m=24, positive_loops=True))
    def test_same_order_as_the_per_edge_heap(self, g):
        # One heap entry per distinct neighbor, lowered by the pair's
        # multiplicity, must pop the same vertices as one entry per edge.
        assert degeneracy(g) == oracles.oracle_degeneracy(g)

    def test_same_order_as_the_per_edge_heap_on_random_multigraphs(self):
        for g in seeded_multigraphs(23, 40, min_n=12, max_n=40):
            assert degeneracy(g) == oracles.oracle_degeneracy(g)


class TestChiPlus:
    def test_frozen(self):
        k3 = sg(3, [(0, 1, POS), (1, 2, POS), (2, 0, POS)])
        assert chi_plus(k3) == 2
        assert chi_plus(sg(2, [(0, 1, POS), (0, 1, NEG)])) == 2
        assert chi_plus(C4_NEG) == 2
        assert chi_plus(C4_POS) == 1
        assert chi_plus(sg(2, [])) == 1
        assert chi_plus(sg(0, [])) == 0

    def test_positive_loop_uncolorable(self):
        with pytest.raises(UncolorableError):
            chi_plus(sg(1, [(0, 0, POS)]))

    def test_many_isolated_vertices_do_not_deepen_the_search(self):
        # Branching on each of the 1,497 isolated vertices too would recurse
        # past the default recursion limit.
        k3_plus_isolated = sg(1500, [(0, 1, POS), (1, 2, POS), (2, 0, POS)])
        assert chi_plus(k3_plus_isolated) == 2

    def test_long_path_is_not_refused(self):
        # n - c = 13 free vertices: chi_plus has no size guard.
        path = sg(14, [(i, i + 1, POS) for i in range(13)])
        assert chi_plus(path) == 1

    @settings(max_examples=120, deadline=None)
    @given(signed_graphs(max_n=4, max_m=7))
    def test_agrees_with_full_switch_scan(self, g):
        assert chi_plus(g) == oracles.oracle_chi_plus(g)
