"""Tests for terminal-pair indicators, Z-sets, and edge replacement."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sgc import (
    BudgetExhausted,
    Indicator,
    Pin,
    ShapeError,
    SignedGraph,
    SolveBudget,
    ZSet,
    chi_c,
    feasible_pq,
    gamma,
    positive_clique,
    predict_scaled_chi,
    replace_edges,
    signed_cycle,
    wenger_tilde,
    z_set,
)

import gen
import oracles

DIGON = Indicator(signed_cycle(2, negative=True), 0, 1)
# Path u - m - v, both edges positive (the depth-1 two-terminal gadget).
POS_PATH = Indicator(SignedGraph.from_triples(3, [(0, 1, "+"), (1, 2, "+")]), 0, 2)


def gamma_ind(i: int) -> Indicator:
    return gamma(i)


class TestIndicator:
    def test_terminals_must_be_distinct(self):
        with pytest.raises(ValueError):
            Indicator(signed_cycle(2, negative=True), 1, 1)

    @pytest.mark.parametrize("u,v", [(0, 2), (2, 0), (-1, 1), (0, -2)])
    def test_terminals_must_be_in_range(self, u, v):
        with pytest.raises(ValueError):
            Indicator(signed_cycle(2, negative=True), u, v)

    @pytest.mark.parametrize("u,v", [(0.0, 1), (0, 1.0), (False, 1), (0, True)])
    def test_terminals_must_be_ints_not_bools_or_floats(self, u, v):
        # Indicator(g, 0.0, 1) used to build, and z_set on it failed inside
        # the search with a TypeError.
        with pytest.raises(ValueError, match="out of range"):
            Indicator(signed_cycle(2, negative=True), u, v)


class TestZSetContainer:
    def test_members_and_contains(self):
        z = ZSet(8, 2, (False, True, True, False, False))
        assert z.members() == (1, 2)
        assert 1 in z and 2 in z
        assert 0 not in z and 3 not in z
        # Out-of-range queries are simply absent, not errors.
        assert -1 not in z
        assert 99 not in z

    def test_membership_table_length_is_checked(self):
        with pytest.raises(ValueError):
            ZSet(8, 2, (True, True))

    @pytest.mark.parametrize("p, q, size", [(7, 2, 4), (8, 5, 5), (8, 0, 5), (8.0, 2, 5),
                                            (True, 1, 1)])
    def test_grid_is_checked(self, p, q, size):
        # Each of these used to construct, ZSet(7, 2, (True,) * 4) among them.
        with pytest.raises(ValueError):
            ZSet(p, q, (True,) * size)

    @pytest.mark.parametrize("member", [(1, 0, 2, 0, 0), (False, True, 1, False, False),
                                        (False, None, False, False, False)])
    def test_membership_table_holds_bools(self, member):
        # ZSet(8, 2, (1, 0, 2, 0, 0)) used to construct, with members (0, 2).
        with pytest.raises(ValueError, match="bools"):
            ZSet(8, 2, member)

    def test_a_list_of_members_is_kept_as_a_tuple(self):
        # A caller's list is copied: changing it later neither adds a
        # member (nor a non-bool one) to the Z-set, and the Z-set hashes.
        member = [False, False, True, False, False]
        z = ZSet(8, 2, member)
        member[1] = 7
        assert z.member == (False, False, True, False, False)
        assert z.members() == (2,)
        assert z == ZSet(8, 2, (False, False, True, False, False))
        assert hash(z) == hash(ZSet(8, 2, (False, False, True, False, False)))

    def test_as_interval(self):
        assert ZSet(8, 2, (False, True, True, True, False)).as_interval() == (1, 3)
        assert ZSet(4, 1, (False, False, True)).as_interval() == (2, 2)

    def test_as_interval_rejects_empty(self):
        with pytest.raises(ShapeError):
            ZSet(8, 2, (False,) * 5).as_interval()

    def test_as_interval_rejects_holes(self):
        with pytest.raises(ShapeError):
            ZSet(8, 2, (True, False, True, False, False)).as_interval()


class TestZSet:
    def test_digon_at_4_1_is_the_singleton_quarter_point(self):
        assert z_set(DIGON, 4, 1).members() == (1,)

    def test_digon_below_its_threshold_is_empty(self):
        # The digon needs r >= 4; at 18/5 nothing is realisable.
        assert z_set(DIGON, 18, 5).members() == ()

    def test_positive_path_at_18_5(self):
        assert z_set(POS_PATH, 18, 5).members() == tuple(range(0, 9))

    def test_chain_gadgets_at_18_5(self):
        assert z_set(gamma_ind(1), 18, 5).members() == tuple(range(0, 9))
        assert z_set(gamma_ind(2), 18, 5).members() == tuple(range(2, 10))

    def test_terminal_swap_symmetry(self):
        # Both chain gadgets have an automorphism exchanging the terminals.
        for i in (1, 2):
            ind = gamma(i)
            fwd = z_set(ind, 18, 5)
            rev = z_set(Indicator(ind.graph, ind.v, ind.u), 18, 5)
            assert fwd == rev

    def test_budget_propagates(self):
        with pytest.raises(BudgetExhausted):
            z_set(gamma(2), 18, 5, budget=SolveBudget(max_nodes=0))

    @settings(max_examples=200, deadline=None)
    @given(
        graph=gen.signed_graphs(max_n=3, max_m=5, min_n=2),
        grid=gen.grids(max_p=8),
        data=st.data(),
    )
    def test_matches_exhaustive_oracle(self, graph, grid, data):
        p, q = grid
        u = data.draw(st.integers(0, graph.n - 1))
        v = data.draw(st.integers(0, graph.n - 1).filter(lambda x: x != u))
        got = z_set(Indicator(graph, u, v), p, q).members()
        assert got == oracles.oracle_zset(graph, u, v, p, q)

    @staticmethod
    def _assert_pinned_verdicts(graph, p, q, data):
        # Each member is feasible_pq's verdict pinned at (u: 0, v: d).
        u = data.draw(st.integers(0, graph.n - 1))
        v = data.draw(st.integers(0, graph.n - 1).filter(lambda x: x != u))
        cap = SolveBudget(max_nodes=20_000)
        try:
            want = tuple(feasible_pq(graph, p, q, pins=(Pin(u, 0), Pin(v, d)), budget=cap)
                         is not None for d in range(p // 2 + 1))
        except BudgetExhausted:
            assume(False)
        # The cap only stops a broken search from running on; z_set branches
        # in another order and is not held to feasible_pq's node count.
        z = z_set(Indicator(graph, u, v), p, q, budget=SolveBudget(max_nodes=100 * cap.max_nodes))
        assert z.member == want

    @settings(max_examples=300, deadline=None)
    @given(graph=gen.signed_graphs(min_n=2, max_n=9, max_m=20), grid=gen.grids(16),
           data=st.data())
    def test_members_are_the_pinned_feasible_pq_verdicts(self, graph, grid, data):
        self._assert_pinned_verdicts(graph, *grid, data)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(graph=gen.gadget_compositions(), grid=gen.grids(12), data=st.data())
    def test_members_are_the_pinned_verdicts_through_the_quotient(self, graph, grid, data):
        # feasible_pq refutes through the quotient of the repeated gadgets;
        # z_set searches the whole graph under each pinned separation.
        assume(graph._pieces is not None)
        self._assert_pinned_verdicts(graph, *grid, data)

    def test_apex_z_set_takes_under_20000_nodes(self):
        # The separations branch on the most unassigned neighbors;
        # feasible_pq's canonical order, pinned at each d, takes 72,943 nodes
        # in all.
        budget = SolveBudget(max_nodes=3_000_000)
        z = z_set(Indicator(wenger_tilde(), 8, 9), 18, 4, budget=budget)
        assert z.members() == (3, 4, 5, 6, 7, 8, 9)
        assert budget.nodes <= 20_000


class TestReplaceEdges:
    def test_positive_triangle_with_four_vertex_gadget(self):
        # Gadget: u=0, v=1, internals 2 and 3; one asymmetric negative edge.
        gadget = Indicator(
            SignedGraph.from_triples(
                4, [(0, 2, "+"), (2, 1, "+"), (0, 3, "+"), (3, 1, "-")]
            ),
            0,
            1,
        )
        out = replace_edges(positive_clique(3), gadget)
        assert out.n == 9
        assert [(e.u, e.v, e.sign.symbol) for e in out.edges] == [
            (0, 3, "+"), (3, 1, "+"), (0, 4, "+"), (4, 1, "-"),
            (0, 5, "+"), (5, 2, "+"), (0, 6, "+"), (6, 2, "-"),
            (1, 7, "+"), (7, 2, "+"), (1, 8, "+"), (8, 2, "-"),
        ]

    def test_edgeless_host_is_unchanged(self):
        host = SignedGraph.from_triples(4, [])
        out = replace_edges(host, DIGON)
        assert out.n == 4 and out.edges == ()

    def test_host_edge_orientation_is_canonical(self):
        asym = Indicator(
            SignedGraph.from_triples(3, [(0, 1, "+"), (1, 2, "-")]), 0, 2
        )
        fwd = replace_edges(SignedGraph.from_triples(3, [(0, 2, "+")]), asym)
        rev = replace_edges(SignedGraph.from_triples(3, [(2, 0, "+")]), asym)
        assert fwd == rev

    def test_negative_host_edges_need_their_own_indicator(self):
        host = SignedGraph.from_triples(2, [(0, 1, "-")])
        with pytest.raises(ValueError):
            replace_edges(host, DIGON)
        out = replace_edges(host, DIGON, i_neg=POS_PATH)
        assert out.n == 3
        assert [(e.u, e.v, e.sign.symbol) for e in out.edges] == [
            (0, 2, "+"), (2, 1, "+")
        ]

    def test_sign_routing_uses_both_indicators(self):
        host = SignedGraph.from_triples(2, [(0, 1, "+"), (0, 1, "-")])
        out = replace_edges(host, DIGON, i_neg=POS_PATH)
        assert [(e.u, e.v, e.sign.symbol) for e in out.edges] == [
            (0, 1, "+"), (1, 0, "-"), (0, 2, "+"), (2, 1, "+")
        ]

    def test_host_loops_are_rejected(self):
        host = SignedGraph.from_triples(1, [(0, 0, "-")])
        with pytest.raises(ValueError):
            replace_edges(host, DIGON)


class TestPredictScaledChi:
    def test_symmetric_window(self):
        # Z = [d, half - d]: the digon at (4, 1) is the singleton case.
        z = z_set(DIGON, 4, 1)
        assert predict_scaled_chi(z, 3) == 6
        assert predict_scaled_chi(z, Fraction(5, 2)) == 5

    def test_low_trimmed_window(self):
        z = z_set(gamma_ind(2), 18, 5)
        assert z.as_interval() == (2, 9)
        assert predict_scaled_chi(z, 3) == Fraction(6, 5)
        assert predict_scaled_chi(z, Fraction(9, 1)) == Fraction(18, 5)

    def test_high_trimmed_window(self):
        z = z_set(gamma_ind(1), 18, 5)
        assert z.as_interval() == (0, 8)
        assert predict_scaled_chi(z, 3) == Fraction(3, 5)

    @pytest.mark.parametrize("chi", [0.1, 3.0, True, "3"])
    def test_chi_must_be_an_int_or_a_fraction(self, chi):
        # 0.1 used to scale its binary fraction, 3602879701896397/2**55,
        # and True to read as 1.
        z = ZSet(8, 2, (False, True, True, True, False))
        with pytest.raises(ValueError, match="chi"):
            predict_scaled_chi(z, chi)

    @pytest.mark.parametrize(
        "member",
        [
            (False,) * 10,                                    # empty
            (True, False, True) + (False,) * 7,               # holes
            (True,) * 10,                                     # full [0, half]
            (False, False, True, True, True, True) + (False,) * 4,  # [2, 5]
        ],
    )
    def test_unusable_shapes_are_rejected(self, member):
        with pytest.raises(ShapeError):
            predict_scaled_chi(ZSet(18, 5, member), 3)


class TestCompositionConsistency:
    def test_triangle_host_fixed_point(self):
        # At the composed value 3 (grid 6/2) the prediction is exact.
        z = z_set(gamma_ind(2), 6, 2)
        assert z.members() == (2, 3)
        predicted = predict_scaled_chi(z, 3)
        assert predicted == 3
        composed = replace_edges(positive_clique(3), gamma(2))
        assert chi_c(composed).value == predicted

    def test_five_cycle_host_fixed_point(self):
        # Composed value 20/7 at grid (20, 7); the positive 5-cycle has
        # circular chromatic number 5/2.  Checking the exact value via the
        # full solver walks a large candidate ladder, so straddle instead:
        # feasible at 20/7, infeasible strictly below at 14/5.
        z = z_set(gamma_ind(2), 20, 7)
        assert z.members() == (8, 9, 10)
        predicted = predict_scaled_chi(z, Fraction(5, 2))
        assert predicted == Fraction(20, 7)
        composed = replace_edges(signed_cycle(5, negative=False), gamma(2))
        assert feasible_pq(composed, 20, 7) is not None
        assert feasible_pq(composed, 14, 5) is None
