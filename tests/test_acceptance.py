"""End-to-end acceptance battery.

Each numbered test reproduces one headline requirement at its stated time
bound; the property-suite classes at the bottom each run hundreds of
randomized instances.  Run with -v for one pass/fail line per item.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgc import (
    Coloring,
    Indicator,
    RationalColoring,
    SignedGraph,
    SolveBudget,
    big_gamma,
    candidates,
    cert_value,
    chi_c,
    chi_plus,
    circular_clique_signed,
    circular_to_zero_free,
    feasible_pq,
    find_tight_cycle,
    gamma,
    gamma_prime,
    is_balanced,
    k4_omega,
    k4_omega_coloring,
    omega_d,
    outerplanar_F,
    positive_clique,
    predict_scaled_chi,
    refine,
    replace_edges,
    signed_cycle,
    spal5,
    switch,
    tight_digraph,
    verify_coloring,
    wenger_tilde,
    wenger_tilde_coloring,
    z_set,
    zero_free_to_circular,
)

import gen
import oracles


@contextmanager
def completes_within(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, bound is {seconds}s"


def test_01_cycle_family_values():
    with completes_within(1.0):
        for k in range(1, 5):
            even_neg = chi_c(signed_cycle(2 * k, negative=True)).value
            assert even_neg == Fraction(4 * k, 2 * k - 1)
            odd_pos = chi_c(signed_cycle(2 * k + 1, negative=False)).value
            assert odd_pos == Fraction(2 * k + 1, k)
            odd_neg = chi_c(signed_cycle(2 * k + 1, negative=True)).value
            assert odd_neg == 2


def test_02_outerplanar_value():
    with completes_within(10.0):
        assert chi_c(outerplanar_F()).value == Fraction(10, 3)


def test_03_degree_example_value():
    with completes_within(300.0):
        assert chi_c(omega_d(4)).value == 6


def test_04_parallel_pair_values():
    with completes_within(10.0):
        digon = signed_cycle(2, negative=True)
        assert chi_c(digon).value == 4
        doubled_k4 = SignedGraph.from_triples(
            4,
            [t for i, j in combinations(range(4), 2) for t in ((i, j, "+"), (i, j, "-"))],
        )
        assert chi_c(doubled_k4).value == 8


def test_05_signed_clique_values():
    with completes_within(300.0):
        assert chi_c(circular_clique_signed(6, 2)).value == 3
        assert chi_c(circular_clique_signed(10, 3)).value == Fraction(10, 3)


def test_06_pentagon_pair_embeds_by_search():
    with completes_within(60.0):
        src = spal5()
        dst = circular_clique_signed(10, 3)
        dst_signs: dict[frozenset, set] = {}
        for e in dst.edges:
            if not e.is_loop:
                dst_signs.setdefault(frozenset((e.u, e.v)), set()).add(e.sign.symbol)

        src_edges = [(e.u, e.v, e.sign.symbol) for e in src.edges]

        def compatible(assign: tuple, v: int, target: int) -> bool:
            for a, b, s in src_edges:
                other = None
                if a == v and b < v:
                    other = assign[b]
                elif b == v and a < v:
                    other = assign[a]
                if other is not None and s not in dst_signs.get(
                    frozenset((target, other)), set()
                ):
                    return False
            return True

        def extend(assign: tuple):
            if len(assign) == src.n:
                return assign
            v = len(assign)
            for target in range(dst.n):
                if target in assign:
                    continue
                if compatible(assign, v, target):
                    found = extend(assign + (target,))
                    if found is not None:
                        return found
            return None

        found = extend(())
        assert found is not None
        assert len(set(found)) == src.n
        for a, b, s in src_edges:
            assert s in dst_signs[frozenset((found[a], found[b]))]
        # The doubling map is one explicit such embedding.
        explicit = tuple(2 * k + 1 for k in range(5))
        for a, b, s in src_edges:
            assert s in dst_signs[frozenset((explicit[a], explicit[b]))]


def test_07_ladder_separation_windows():
    half = 9
    for i in range(1, 5):
        with completes_within(60.0):
            members = z_set(gamma(i), 18, 5).members()
        if i % 2:
            assert members == tuple(range(0, half - i + 1))
        else:
            assert members == tuple(range(i, half + 1))
    # Exhaustive cross-check of the two smallest by full enumeration.
    for i in (1, 2):
        ind = gamma(i)
        assert z_set(ind, 18, 5).members() == oracles.oracle_zset(
            ind.graph, ind.u, ind.v, 18, 5
        )


def test_08_glued_ladders_straddle():
    with completes_within(300.0):
        g = gamma_prime(2)
        assert feasible_pq(g, 10, 3) is None
        witness = feasible_pq(g, 8, 2)
        assert witness is not None
        assert verify_coloring(g, witness)


def test_09_composition_closed_form():
    with completes_within(60.0):
        chi = chi_c(positive_clique(3)).value
        assert chi == 3
        closed_form = 4 - Fraction(4, int(chi) + 1)
        assert closed_form == 3
        composed = replace_edges(positive_clique(3), gamma(2))
        assert chi_c(composed).value == closed_form


def test_10_reference_coloring_verifies():
    with completes_within(1.0):
        ind = big_gamma()
        assert verify_coloring(ind.graph, wenger_tilde_coloring(28, 6))


def test_11_apex_separations_exclude_small():
    apexes = Indicator(wenger_tilde(), 8, 9)
    # 1,542 nodes: a node bound, unlike a wall-clock one, holds on any host.
    members = z_set(apexes, 18, 4, budget=SolveBudget(max_nodes=5_000)).members()
    assert 0 not in members
    assert 1 not in members
    assert members == (3, 4, 5, 6, 7, 8, 9)


def test_12_clique_composition_stretch():
    with completes_within(60.0):
        assert verify_coloring(k4_omega(), k4_omega_coloring(28, 6))
    budget = SolveBudget(max_nodes=3_000_000)
    assert feasible_pq(k4_omega(), 18, 4, budget=budget) is None
    assert budget.nodes <= 5_000  # 1,437


# ---------------------------------------------------------------------------
# randomized property suites
# ---------------------------------------------------------------------------

SUITE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.fixture(scope="module")
def suite_stopwatch():
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"property suites took {elapsed:.1f}s, bound is 300s"


@pytest.mark.usefixtures("suite_stopwatch")
class TestPropertySuites:
    @SUITE
    @given(graph=gen.signed_graphs(max_n=5, max_m=8), grid=gen.grids(max_p=8))
    def test_13a_solver_matches_exhaustive_search(self, graph, grid):
        p, q = grid
        witness = feasible_pq(graph, p, q)
        exhaustive = oracles.brute_feasible(graph, p, q)
        assert (witness is None) == (exhaustive is None)
        if witness is not None:
            assert verify_coloring(graph, witness)

    @SUITE
    @given(graph=gen.signed_graphs(max_n=4, max_m=7))
    def test_13b_feasibility_is_monotone_along_candidates(self, graph):
        flags = [
            feasible_pq(graph, c.p, c.q) is not None
            for c in candidates(graph.n, 2, 2 * graph.n)
        ]
        assert all(b or not a for a, b in zip(flags, flags[1:]))

    @SUITE
    @given(graph=gen.signed_graphs(max_n=4, max_m=7), data=st.data())
    def test_13c_value_is_switching_invariant(self, graph, data):
        subset = frozenset(
            v for v in range(graph.n) if data.draw(st.booleans())
        )
        switched = switch(graph, subset)
        base = chi_c(graph)
        assert chi_c(switched).value == base.value
        if base.witness is not None:
            p, q = base.witness.p, base.witness.q
            transported = tuple(
                (c + p // 2) % p if v in subset else c
                for v, c in enumerate(base.witness.colors)
            )
            assert verify_coloring(switched, Coloring(p, q, transported))

    @SUITE
    @given(graph=gen.signed_graphs(max_n=4, max_m=7, min_m=1))
    def test_13d_optimal_witness_carries_a_tight_cycle(self, graph):
        result = chi_c(graph)
        rc = RationalColoring.from_coloring(result.witness)
        cycle = find_tight_cycle(tight_digraph(graph, rc))
        assert cycle is not None
        assert cert_value(graph, rc, cycle).r == result.value

    @SUITE
    @given(graph=gen.signed_graphs(max_n=4, max_m=7, min_m=1))
    def test_13e_refine_strictly_shrinks_slack_colorings(self, graph):
        witness = chi_c(graph).witness
        p, q = witness.p, witness.q
        slack = Coloring(2 * p, 2 * q - 1, tuple(2 * c for c in witness.colors))
        refined = refine(graph, RationalColoring.from_coloring(slack))
        assert refined.r < Fraction(2 * p, 2 * q - 1)

    @SUITE
    @given(graph=gen.signed_graphs(max_n=5, max_m=8, min_m=1))
    def test_13f_value_two_means_negation_balances(self, graph):
        negated = SignedGraph(
            graph.n, tuple(type(e)(e.u, e.v, -e.sign) for e in graph.edges)
        )
        assert (chi_c(graph).value == 2) == is_balanced(negated)[0]

    @SUITE
    @given(graph=gen.signed_graphs(max_n=6, max_m=9))
    def test_13g_value_sits_in_the_switching_minimum_window(self, graph):
        plus = chi_plus(graph)
        value = chi_c(graph).value
        assert 2 * plus - 2 < value <= 2 * plus

    @SUITE
    @given(graph=gen.simple_positive_graphs(max_n=5, min_edges=1))
    def test_13h_doubling_every_edge_doubles_the_value(self, graph):
        doubled = SignedGraph.from_triples(
            graph.n,
            [
                t
                for e in graph.edges
                for t in ((e.u, e.v, "+"), (e.u, e.v, "-"))
            ],
        )
        assert chi_c(doubled).value == 2 * chi_c(graph).value

    @SUITE
    @given(graph=gen.signed_graphs(max_n=4, max_m=7), data=st.data())
    def test_13i_zero_free_round_trip(self, graph, data):
        k = data.draw(st.integers(1, 4))
        nonzero = st.integers(-k, k).filter(lambda x: x != 0)
        f = [data.draw(nonzero) for _ in range(graph.n)]
        coloring = zero_free_to_circular(f, k)
        assert circular_to_zero_free(coloring) == f
        valid_inline = all(
            (f[e.u] != f[e.v]) if e.sign.symbol == "+" else (f[e.u] != -f[e.v])
            for e in graph.edges
        )
        assert verify_coloring(graph, coloring) == valid_inline
