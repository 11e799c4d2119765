"""The exact search: feasibility, chi_c, chi_s, budgets, color conversions."""

from __future__ import annotations

import functools
import itertools
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from gen import gadget_compositions, grids, seeded_multigraphs, signed_graphs
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from sgc import solver
from sgc.arith import candidate_pairs
from sgc.constructions import (big_gamma, circular_clique_signed, k4_omega,
                               positive_clique, signed_cycle)
from sgc.core import (NEG, POS, CapacityError, SignedGraph, UncolorableError,
                      is_balanced)
from sgc.indicators import Indicator, replace_edges
from sgc.solver import (BudgetExhausted, ChiUndecided, Coloring, Pin,
                        SolveBudget, chi_c, chi_s, circular_to_zero_free,
                        feasible_pq, verify_coloring, zero_free_to_circular)


def sg(n, triples):
    return SignedGraph.from_triples(n, triples)


C4_NEG = sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 0, NEG)])
DIGON = sg(2, [(0, 1, POS), (0, 1, NEG)])
K4 = [(a, b, POS) for a, b in itertools.combinations(range(4), 2)]
# The edge kinds of oracles.oracle_search, as oracles.oracle_masks indexes
# them, mapped to the signs of a 2-vertex pair that carries that kind.
KINDS = {oracles._KIND_POS: (POS,), oracles._KIND_NEG: (NEG,), oracles._KIND_BOTH: (POS, NEG)}


def pair_mask(signs, p, q):
    """The offset mask solver._adjacency gives one pair carrying these signs."""
    adj = solver._adjacency(sg(2, [(0, 1, sign) for sign in signs]), p, q)
    (mask, ws), = adj[0]
    assert list(ws) == [1] and [(m, list(w)) for m, w in adj[1]] == [(mask, [0])]
    return mask


def rotate(bits, c, p):
    return (bits << c | bits >> (p - c)) & ((1 << p) - 1)


@st.composite
def offset_masks(draw, p):
    """p-bit masks: empty, full, arbitrary, or a union of runs that may wrap."""
    full = (1 << p) - 1
    runs = st.tuples(st.integers(0, p - 1), st.integers(1, p)).map(
        lambda run: rotate((1 << run[1]) - 1, run[0], p))
    union = st.lists(runs, min_size=1, max_size=3).map(
        lambda parts: functools.reduce(operator.or_, parts))
    return draw(st.one_of(st.just(0), st.just(full), st.integers(0, full), union))


class TestVerifyColoring:
    def test_valid_and_invalid(self):
        assert verify_coloring(C4_NEG, Coloring(8, 3, (0, 3, 6, 1)))
        assert not verify_coloring(C4_NEG, Coloring(8, 3, (0, 3, 6, 0)))

    def test_loops(self):
        assert verify_coloring(sg(1, [(0, 0, NEG)]), Coloring(4, 2, (1,)))
        assert not verify_coloring(sg(1, [(0, 0, POS)]), Coloring(4, 1, (1,)))

    @pytest.mark.parametrize("c", [
        Coloring(8, 3, (0, 3, 6)),        # wrong length
        Coloring(8, 3, (0, 3, 6, 8)),     # color out of range
        Coloring(7, 3, (0, 3, 6, 1)),     # odd p
        Coloring(8, 5, (0, 3, 6, 1)),     # q > p/2
        Coloring(8, 3, (0, 3, 6, 1.0)),   # non-int color
    ])
    def test_malformed_raises(self, c):
        with pytest.raises(ValueError):
            verify_coloring(C4_NEG, c)

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6, positive_loops=True), grids(8), st.data())
    def test_matches_independent_predicate(self, g, pq, data):
        p, q = pq
        colors = tuple(data.draw(st.integers(0, p - 1)) for _ in range(g.n))
        expected = all(oracles.edge_ok(p, q, e.sign, colors[e.u], colors[e.v])
                       for e in g.edges)
        assert verify_coloring(g, Coloring(p, q, colors)) == expected


class TestFeasiblePq:
    def test_digon_window(self):
        assert feasible_pq(DIGON, 8, 2) is not None
        assert feasible_pq(DIGON, 6, 2) is None

    def test_found_colorings_verify(self):
        c = feasible_pq(C4_NEG, 8, 3)
        assert c is not None and verify_coloring(C4_NEG, c)
        assert (c.p, c.q) == (8, 3)

    def test_deterministic(self):
        a = feasible_pq(C4_NEG, 8, 3)
        b = feasible_pq(C4_NEG, 8, 3)
        assert a == b

    def test_positive_loop_raises(self):
        with pytest.raises(UncolorableError):
            feasible_pq(sg(1, [(0, 0, POS)]), 4, 1)

    def test_pins(self):
        c = feasible_pq(DIGON, 8, 2, pins=(Pin(0, 3), Pin(1, 1)))
        assert c is not None and c.colors == (3, 1)
        assert feasible_pq(DIGON, 8, 2, pins=(Pin(0, 0), Pin(1, 3))) is None
        with pytest.raises(ValueError):
            feasible_pq(DIGON, 8, 2, pins=(Pin(0, 0), Pin(0, 1)))
        with pytest.raises(ValueError):
            feasible_pq(DIGON, 8, 2, pins=(Pin(5, 0),))
        with pytest.raises(ValueError):
            feasible_pq(DIGON, 8, 2, pins=(Pin(0, 9),))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            feasible_pq(DIGON, 7, 2)
        with pytest.raises(ValueError):
            feasible_pq(DIGON, 8, 0)

    def test_output_guard_survives_python_O(self):
        # python -O strips asserts; the check on the emitted coloring must
        # still raise when the search returns a coloring that breaks an edge.
        script = (
            "assert False, 'asserts are on'\n"
            "import sgc.core, sgc.solver\n"
            "sgc.solver._search = lambda n, *rest: [0] * n\n"
            "g = sgc.core.SignedGraph.from_triples(2, [(0, 1, '+')])\n"
            "try:\n"
            "    sgc.solver.feasible_pq(g, 4, 1)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(sys.modules["sgc.solver"].__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "internal error: solver emitted a bad coloring\n"

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhausted):
            feasible_pq(C4_NEG, 8, 3, budget=SolveBudget(max_nodes=1))
        # The node past the cap is the one that raises, and it is counted.
        for cap in (0, 1, 2):
            budget = SolveBudget(max_nodes=cap)
            with pytest.raises(BudgetExhausted) as info:
                feasible_pq(signed_cycle(4, True), 8, 3, budget=budget)
            assert info.value.nodes == budget.nodes == cap + 1

    def test_a_refutation_without_nodes_returns_under_a_zero_cap(self):
        budget = SolveBudget(max_nodes=0)
        assert feasible_pq(signed_cycle(4, True), 4, 2, budget=budget) is None
        assert budget.nodes == 0

    def test_one_budget_counts_across_calls(self):
        budget = SolveBudget()
        feasible_pq(signed_cycle(4, True), 8, 3, budget=budget)
        assert budget.nodes == 4
        feasible_pq(signed_cycle(4, True), 8, 3, budget=budget)
        assert budget.nodes == 8

    @settings(max_examples=250, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6), grids(8))
    def test_agrees_with_brute_force(self, g, pq):
        p, q = pq
        got = feasible_pq(g, p, q)
        assert (got is not None) == (oracles.brute_feasible(g, p, q) is not None)
        if got is not None:
            assert verify_coloring(g, got)

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6), grids(8), st.data())
    def test_pinned_agrees_with_brute_force(self, g, pq, data):
        p, q = pq
        pins = (Pin(data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, p - 1))),)
        got = feasible_pq(g, p, q, pins=pins)
        assert (got is not None) == (
            oracles.brute_feasible(g, p, q, pins=((pins[0].vertex, pins[0].color),)) is not None)
        if got is not None:
            assert got.colors[pins[0].vertex] == pins[0].color


    @pytest.mark.parametrize("pins, message", [
        ((Pin(4, 0),), "pin on non-vertex 4"),
        ((Pin(-1, 0),), "pin on non-vertex -1"),
        ((Pin(0, 8),), "pin color 8 out of range for p=8"),
        ((Pin(1, 2), Pin(1, 3)), "conflicting pins on vertex 1"),
    ])
    def test_bad_pins_are_rejected(self, pins, message):
        with pytest.raises(ValueError, match=message):
            feasible_pq(C4_NEG, 8, 3, pins=pins)

    def test_a_repeated_pin_is_one_pin(self):
        once = feasible_pq(C4_NEG, 8, 3, pins=(Pin(1, 2),))
        assert once is not None and once.colors[1] == 2
        assert feasible_pq(C4_NEG, 8, 3, pins=(Pin(1, 2), Pin(1, 2))) == once

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(st.one_of(signed_graphs(min_n=2, max_n=6, max_m=12),
                     gadget_compositions().filter(lambda g: g._pieces is not None)),
           st.data())
    def test_probes_on_one_graph_match_probes_on_fresh_copies(self, g, data):
        # The graph keeps its search skeleton between probes (and so do the
        # piece graphs of a composition's quotient): a probe that changed it
        # would show up as another colouring or node count at a later rung
        # than a copy that has never been probed gives.  p <= 12 is the whole
        # ladder of the small graphs and keeps the compositions' relations cheap.
        def probe(h, p, q):
            budget = SolveBudget(max_nodes=20_000)
            try:
                found = feasible_pq(h, p, q, budget=budget)
            except BudgetExhausted:
                found = "exhausted"
            return found, budget.nodes

        ladder = [(p, q) for p, q in candidate_pairs(g.n, 2, 2 * g.n) if p <= 12]
        for p, q in data.draw(st.permutations(ladder)):
            assert probe(g, p, q) == probe(SignedGraph(g.n, g.edges), p, q)


class TestRotationPin:
    """Without pins, vertex 0 is fixed to color 0, on any graph."""

    def test_isolated_vertex_costs_no_refutation_nodes(self):
        spent = []
        for n in (4, 5):  # K4(+) alone, then with an isolated vertex 4
            budget = SolveBudget()
            assert feasible_pq(sg(n, K4), 6, 2, budget=budget) is None
            spent.append(budget.nodes)
        assert spent[0] == spent[1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(signed_graphs(max_n=5, max_m=8), min_size=2, max_size=3),
           grids(10), st.data())
    def test_first_solution_of_the_open_search_in_no_more_nodes(self, parts, pq, data):
        p, q = pq
        triples, n = [], 0
        for part in parts:
            triples += [(e.u + n, e.v + n, e.sign) for e in part.edges]
            n += part.n
        perm = data.draw(st.permutations(range(n)))
        g = sg(n, [(perm[u], perm[v], sign) for u, v, sign in triples])
        cap = SolveBudget(max_nodes=20_000)
        try:
            want = oracles.chrono_search(n, solver._adjacency(g, p, q), p,
                                         [(1 << p) - 1] * n, cap)
        except BudgetExhausted:
            assume(False)
        budget = SolveBudget(max_nodes=cap.nodes)
        got = feasible_pq(g, p, q, budget=budget)
        assert (None if got is None else list(got.colors)) == want
        assert budget.nodes <= cap.nodes

    @pytest.mark.parametrize("verdict_only", [False, True])
    def test_full_root_domains_are_pinned_in_the_kernel(self, verdict_only):
        # All four domains full: _search fixes vertex 0 at color 0 itself, so
        # this is the 2-node refutation of TestSearchKernel's [1, 63, 63, 63],
        # not one refutation per color of vertex 0.
        adj = solver._adjacency(sg(4, K4), 6, 2)
        budget = SolveBudget()
        assert solver._search(4, adj, 6, [63] * 4, budget, verdict_only) is None
        assert budget.nodes == 2

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs(min_n=1, max_n=12, max_m=30), grids(16))
    def test_full_root_domains_give_the_open_search_first_solution(self, g, pq):
        p, q = pq
        adj = solver._adjacency(g, p, q)
        cap = SolveBudget(max_nodes=20_000)
        try:
            want = oracles.chrono_search(g.n, adj, p, [(1 << p) - 1] * g.n, cap)
        except BudgetExhausted:
            assume(False)
        budget = SolveBudget(max_nodes=cap.nodes)
        assert solver._search(g.n, adj, p, [(1 << p) - 1] * g.n, budget) == want
        assert budget.nodes <= cap.nodes


class TestSearchKernel:
    """The backjumping kernel against the kernels it replaced."""

    @staticmethod
    def _run(search, *args, max_nodes):
        budget = SolveBudget(max_nodes=max_nodes)
        try:
            out = search(*args, budget)
        except BudgetExhausted as exc:
            out = ("exhausted", exc.nodes)
        return out, budget.nodes

    @pytest.mark.parametrize("negative", [False, True])
    def test_deep_cycle_does_not_recurse(self, negative):
        g = signed_cycle(999, negative)
        c = feasible_pq(g, 6, 2)
        assert c is not None and verify_coloring(g, c)

    @settings(max_examples=500, deadline=None)
    @given(signed_graphs(min_n=2, max_n=14, max_m=40), grids(24), st.data())
    def test_same_solutions_and_nodes_as_recursive_oracle(self, g, pq, data):
        p, q = pq
        full = (1 << p) - 1
        # Mostly open domains, so that searches go deep and backtrack.
        domain = st.integers(0, 9).flatmap(lambda k: (
            st.just(full) if k < 7 else
            st.integers(0, p - 1).map(lambda c: 1 << c) if k == 7 else
            st.integers(1, full)))
        domains = [data.draw(domain) for _ in range(g.n)]
        max_nodes = data.draw(st.integers(1, 2000))
        got, got_nodes = self._run(solver._search, g.n, solver._adjacency(g, p, q), p,
                                   list(domains), max_nodes=max_nodes)
        want, want_nodes = self._run(oracles.oracle_search, g.n, oracles.oracle_adjacency(g),
                                     oracles.oracle_masks(p, q), list(domains),
                                     max_nodes=max_nodes)
        # Backjumping and reflection only skip subtrees without a solution:
        # the same answer whenever the oracle decides, never more nodes, and
        # an exhausted budget only where the oracle's is exhausted too.
        assert got_nodes <= want_nodes
        if not isinstance(want, tuple):
            assert got == want
        if isinstance(got, tuple):
            assert isinstance(want, tuple)

    @settings(max_examples=500, deadline=None)
    @given(signed_graphs(min_n=2, max_n=14, max_m=40), grids(24), st.booleans(), st.data())
    def test_first_solution_of_the_chronological_kernel_in_no_more_nodes(
            self, g, pq, closed, data):
        p, q = pq
        full = (1 << p) - 1
        fixed = st.sampled_from([0, p // 2]).map(lambda c: 1 << c)
        # When closed, every root domain is closed under c -> -c, so the
        # reflection pruning can fire; otherwise pins and domains are free.
        if closed:
            closure = st.integers(1, full).map(lambda d: functools.reduce(
                operator.or_, (1 << (-c % p) | 1 << c for c in range(p) if d >> c & 1)))
            domain = st.one_of(st.just(full), st.just(full), fixed, closure)
        else:
            domain = st.one_of(st.just(full), st.just(full), fixed,
                               st.integers(0, p - 1).map(lambda c: 1 << c), st.integers(1, full))
        domains = [data.draw(domain) for _ in range(g.n)]
        adj = solver._adjacency(g, p, q)
        want, want_nodes = self._run(oracles.chrono_search, g.n, adj, p, list(domains),
                                     max_nodes=20_000)
        got, got_nodes = self._run(solver._search, g.n, adj, p, list(domains),
                                   max_nodes=20_000)
        assert got_nodes <= want_nodes
        if not isinstance(want, tuple):
            assert got == want

    def test_every_single_pin_of_tight_instances_matches_the_chronological_kernel(self):
        # At a graph's own chi_c grid a coloring exists but is hard to find,
        # so the search backs up often before it succeeds: a backjump past a
        # choice that mattered, or a mirror dropped outside symmetry, shows
        # up as a different first solution under some pin.
        rng = random.Random(2)
        for _ in range(150):
            n = rng.randint(8, 16)
            g = sg(n, [(u, (u + 1 + rng.randrange(n - 1)) % n, rng.choice([POS, NEG]))
                       for u in (rng.randrange(n) for _ in range(rng.randint(2 * n, 3 * n)))])
            try:
                witness = chi_c(g, budget=SolveBudget(max_nodes=5000)).witness
            except ChiUndecided:
                continue
            p, full = witness.p, (1 << witness.p) - 1
            adj = solver._adjacency(g, p, witness.q)
            for v, c in itertools.product(range(n), range(p)):
                domains = [full] * n
                domains[v] = 1 << c
                cap = SolveBudget(max_nodes=5000)
                try:
                    want = oracles.chrono_search(n, adj, p, list(domains), cap)
                except BudgetExhausted:
                    continue
                budget = SolveBudget()
                assert solver._search(n, adj, p, domains, budget) == want
                assert budget.nodes <= cap.nodes

    @settings(max_examples=400, deadline=None)
    @given(signed_graphs(min_n=2, max_n=14, max_m=40), grids(24), st.data())
    def test_degree_weighted_order_keeps_the_chronological_verdict(self, g, pq, data):
        # The verdict-only searches branch on domain size over degree; that
        # order may find another solution, never another verdict.
        p, q = pq
        full = (1 << p) - 1
        pins = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.integers(0, p - 1),
                                         max_size=3))
        domains = [1 << pins[v] if v in pins else full for v in range(g.n)]
        adj = solver._adjacency(g, p, q)
        cap = SolveBudget(max_nodes=20_000)
        try:
            want = oracles.chrono_search(g.n, adj, p, list(domains), cap)
        except BudgetExhausted:
            assume(False)
        # The cap only stops a broken kernel from running on; the weighted
        # order is not held to the oracle's node count.
        budget = SolveBudget(max_nodes=100 * cap.max_nodes)
        got = solver._search(g.n, adj, p, list(domains), budget, verdict_only=True)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_coloring(g, Coloring(p, q, tuple(got)))
            assert all(got[v] == c for v, c in pins.items())

    def test_degree_weighted_order_never_branches_an_assigned_vertex_again(self):
        # Vertex 0 (three neighbors) is branched first; then the others keep
        # five colors each, and 0's key must still top theirs, 5/2 and 5/1.
        g = sg(4, [(0, 1, POS), (0, 2, POS), (0, 3, POS), (1, 2, NEG)])
        adj = solver._adjacency(g, 8, 2)
        budget = SolveBudget(max_nodes=100)
        assert solver._search(4, adj, 8, [255] * 4, budget, verdict_only=True) == [0, 2, 2, 2]
        assert budget.nodes == 4

    @pytest.mark.parametrize("g", [signed_cycle(5, False), signed_cycle(6, True), sg(4, K4),
                                   circular_clique_signed(6, 2)],
                             ids=["C5+", "C6-", "K4", "clique6/2"])
    def test_verdict_only_is_the_canonical_order_when_degrees_are_equal(self, g):
        # Every vertex has as many distinct neighbors as any other, so domain
        # size over degree ranks the vertices as domain size does: the same
        # first solution in the same number of nodes.
        for p in range(2, 13, 2):
            for q in range(1, p // 2 + 1):
                adj = solver._adjacency(g, p, q)
                full = (1 << p) - 1
                for pin in [None, *range(g.n)]:
                    domains = [2 if v == pin else full for v in range(g.n)]
                    want = self._run(solver._search, g.n, adj, p, list(domains),
                                     max_nodes=20_000)
                    got = self._run(lambda *args: solver._search(*args, verdict_only=True),
                                    g.n, adj, p, list(domains), max_nodes=20_000)
                    assert got == want

    def test_empty_root_domain_is_refuted_at_set_up(self):
        # No pair mask reaches either vertex, so propagation never sees the
        # empty domain; the set-up must.
        budget = SolveBudget()
        assert solver._search(2, [[], []], 4, [0, 15], budget) is None
        assert budget.nodes == 0

    def test_reflection_drops_the_mirror_of_a_refuted_color(self):
        # K4(+) at (6,2), vertex 0 at 0: vertex 1 keeps {2, 4}; color 2
        # fails, so color 4 = -2 is never tried.
        adj = solver._adjacency(sg(4, K4), 6, 2)
        budgets = []
        for search in (oracles.chrono_search, solver._search):
            budgets.append(SolveBudget())
            assert search(4, adj, 6, [1, 63, 63, 63], budgets[-1]) is None
        assert [b.nodes for b in budgets] == [3, 2]

    def test_backjumping_skips_an_independent_component(self):
        # The pin lands in C13; K4's refutation does not depend on C13's
        # colors, so the search does not repeat it under each of them.
        c13 = [(i, (i + 1) % 13, POS) for i in range(13)]
        k4 = [(a + 13, b + 13, sign) for a, b, sign in K4]
        budget = SolveBudget(max_nodes=2_000_000)
        assert feasible_pq(sg(17, c13 + k4), 6, 2, budget=budget) is None
        assert budget.nodes < 100

    @pytest.mark.parametrize("p", range(2, 121, 2))
    def test_singleton_supports_equal_mask_tables(self, p):
        half = p // 2
        # Every q up to p = 40; above that, q at the ends of the offset windows.
        window_edges = {1, 2, 3, half // 2 - 1, half // 2, half // 2 + 1, half - 1, half}
        qs = range(1, half + 1) if p <= 40 else sorted(q for q in window_edges if q >= 1)
        for q in qs:
            masks = oracles.oracle_masks(p, q)
            for kind, signs in KINDS.items():
                mask = pair_mask(signs, p, q)
                assert [solver._support(mask, 1 << c, p) for c in range(p)] == masks[kind]

    @settings(max_examples=200, deadline=None)
    @given(grids(60), st.sampled_from(sorted(KINDS)), st.data())
    def test_support_of_a_domain_is_the_union_over_its_colors(self, pq, kind, data):
        p, q = pq
        dx = data.draw(st.integers(1, (1 << p) - 1))
        masks = oracles.oracle_masks(p, q)[kind]
        union = 0
        for c in range(p):
            if dx >> c & 1:
                union |= masks[c]
        assert solver._support(pair_mask(KINDS[kind], p, q), dx, p) == union

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda p: st.tuples(
        st.just(p), offset_masks(p), st.integers(0, (1 << p) - 1))))
    def test_support_is_the_or_of_the_mask_rotated_by_each_color(self, case):
        p, mask, dx = case
        want = 0
        for c in range(p):
            if dx >> c & 1:
                want |= rotate(mask, c, p)
        assert solver._support(mask, dx, p) == want


class TestRepeatedPieces:
    """feasible_pq refutes through one relation per repeated 2-separated piece."""

    def test_k4_omega_at_18_4_takes_under_20000_nodes(self):
        # The piece relation's searches branch on domain size over degree;
        # in the canonical order the same refutation takes 72,935 nodes.
        budget = SolveBudget(max_nodes=3_000_000)
        assert feasible_pq(k4_omega(), 18, 4, budget=budget) is None
        assert budget.nodes <= 20_000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k4_omega_in_shuffled_edge_order_is_refuted_as_fast(self, seed):
        # Piece keys are sorted, so the edge order cannot hide the repeats;
        # the whole-graph search does not finish within this budget.
        g = k4_omega()
        edges = list(g.edges)
        random.Random(seed).shuffle(edges)
        budget = SolveBudget(max_nodes=20_000)
        assert feasible_pq(SignedGraph(g.n, tuple(edges)), 18, 4, budget=budget) is None

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(gadget_compositions(), grids(10), st.randoms(use_true_random=False))
    def test_edge_order_changes_no_cut_and_no_search(self, g, pq, rng):
        edges = list(g.edges)
        rng.shuffle(edges)
        h = SignedGraph(g.n, tuple(edges))
        if g._pieces is None:
            assert h._pieces is None
        else:
            _, kept, terminals, graphs = g._pieces
            assert h._pieces[1:3] == (kept, terminals)
            assert [x._pair_signs for x in h._pieces[3]] == [x._pair_signs for x in graphs]
        runs = []
        for graph in (g, h):
            budget = SolveBudget(max_nodes=100_000)
            found = feasible_pq(graph, *pq, budget=budget)
            runs.append((found, budget.nodes))
        assert runs[0] == runs[1]

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs(min_n=2, max_n=9, max_m=20), grids(16))
    def test_relation_is_the_chronological_verdict_at_every_offset(self, h, pq):
        # Bit d of the relation is set exactly when the chronological search
        # colors h with vertex 0 at 0 and vertex 1 at d, for every d: the
        # half circle the relation searches gives the rest by reflection.
        p, q = pq
        full = (1 << p) - 1
        adj = solver._adjacency(h, p, q)
        want = 0
        for d in range(p):
            domains = [1, 1 << d] + [full] * (h.n - 2)
            if oracles.chrono_search(h.n, adj, p, domains, SolveBudget()) is not None:
                want |= 1 << d
        assert solver._relation(h, 0, 1, p, q, SolveBudget(max_nodes=1_000_000)) == want

    def test_back_to_back_calls_spend_identical_nodes(self):
        spent = []
        for _ in range(2):
            budget = SolveBudget(max_nodes=3_000_000)
            assert feasible_pq(k4_omega(), 18, 4, budget=budget) is None
            spent.append(budget.nodes)
        assert spent[0] == spent[1]

    def test_k4_omega_has_one_piece_key_on_every_host_edge(self):
        quotient, kept, terminals, graphs = k4_omega()._pieces
        assert kept == (0, 1, 2, 3) and quotient.m == 6
        assert sorted(terminals) == [(a, b, 0) for a, b in itertools.combinations(range(4), 2)]
        assert len(graphs) == 1 and graphs[0].n == big_gamma().graph.n

    @pytest.mark.parametrize("p", [4, 8, 12])
    @pytest.mark.parametrize("host", [3, 4])
    @pytest.mark.parametrize("far", [False, True])
    def test_relations_reach_both_ends_of_the_half_circle(self, p, host, far):
        # At q = p/2 a positive edge forces offset p/2 and a negative one
        # offset 0.  x and y sit opposite terminal 0; terminal 1 then sits
        # at offset p/2 (far) or 0 from terminal 0.  A host triangle or C4
        # of such gadgets has a coloring except for a far triangle.
        s = NEG if far else POS
        ind = Indicator(sg(4, [(0, 2, POS), (0, 3, POS), (2, 3, NEG), (2, 1, s), (3, 1, s)]), 0, 1)
        g = replace_edges(sg(host, [(i, (i + 1) % host, POS) for i in range(host)]), ind)
        assert g._pieces is not None
        want = oracles.chrono_search(g.n, solver._adjacency(g, p, p // 2), p,
                                     [1] + [(1 << p) - 1] * (g.n - 1), SolveBudget())
        got = feasible_pq(g, p, p // 2)
        assert (None if got is None else list(got.colors)) == want
        assert (want is None) == (far and host == 3)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(gadget_compositions(), grids(12), st.data())
    def test_compositions_agree_with_the_chronological_search(self, g, pq, data):
        p, q = pq
        assume(g._pieces is not None)
        full = (1 << p) - 1
        pins = ()
        domains = [1] + [full] * (g.n - 1)
        if data.draw(st.booleans()):
            pin = Pin(data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, p - 1)))
            pins, domains = (pin,), [full] * g.n
            domains[pin.vertex] = 1 << pin.color
        cap = SolveBudget(max_nodes=20_000)
        try:
            want = oracles.chrono_search(g.n, solver._adjacency(g, p, q), p, domains, cap)
        except BudgetExhausted:
            assume(False)
        got = feasible_pq(g, p, q, pins=pins)
        assert (None if got is None else list(got.colors)) == want


class TestChiC:
    def test_edgeless(self):
        res = chi_c(sg(3, []))
        assert (res.value, res.witness, res.refuted) == (1, None, None)

    def test_balanced_families(self):
        res = chi_c(sg(2, [(0, 1, POS)]))
        assert res.value == 2 and res.refuted is None
        assert verify_coloring(sg(2, [(0, 1, POS)]), res.witness)
        # A negative loop alone also sits at exactly 2.
        assert chi_c(sg(1, [(0, 0, NEG)])).value == 2

    def test_negative_four_cycle(self):
        res = chi_c(C4_NEG)
        assert res.value == Fraction(8, 3)
        assert res.refuted == 2
        assert verify_coloring(C4_NEG, res.witness)
        assert (res.witness.p, res.witness.q) == (8, 3)

    def test_digon(self):
        # On 2 vertices the candidate ladder is just {2, 4}.
        res = chi_c(DIGON)
        assert res.value == 4 and res.refuted == 2

    def test_positive_loop_raises(self):
        with pytest.raises(UncolorableError):
            chi_c(sg(1, [(0, 0, POS)]))

    def test_budget_reports_bracket(self):
        with pytest.raises(ChiUndecided) as exc:
            chi_c(C4_NEG, budget=SolveBudget(max_nodes=1))
        err = exc.value
        assert err.lower == 2
        assert err.lower < err.undecided.value <= err.upper
        assert verify_coloring(C4_NEG, err.witness)

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=8, max_m=16, min_m=1))
    def test_value_two_exactly_when_the_negated_graph_is_balanced(self, g):
        negated = SignedGraph(g.n, tuple(e._replace(sign=-e.sign) for e in g.edges))
        balanced, sset = is_balanced(negated)
        res = chi_c(g, budget=SolveBudget(max_nodes=200_000))
        assert (res.value == 2) == balanced
        if balanced:
            assert res.witness == Coloring(4, 2, tuple(2 * (v in sset) for v in range(g.n)))

    # chi_c on seeded_multigraphs(2, 20) under a 300-node budget, as the
    # benchmark runs it: (value, largest refuted rung, nodes), or for an
    # undecided instance (its bracket, the undecided rung, nodes).
    SEEDED_GOLDEN = [
        ('4', '11/3', 0),
        ('4', '15/4', 48),
        ('4', '26/7', 13),
        ('4', '15/4', 16),
        ('4', '26/7', 0),
        ('4', '11/3', 12),
        ('4', '26/7', 0),
        ('4', '15/4', 49),
        ('(3, 16/5]', '28/9', 301),
        ('4', '19/5', 20),
        ('4', '11/3', 12),
        ('6', '11/2', 38),
        ('4', '15/4', 15),
        ('4', '34/9', 17),
        ('4', '34/9', 18),
        ('4', '11/3', 12),
        ('4', '15/4', 0),
        ('4', '15/4', 48),
        ('4', '34/9', 0),
        ('4', '34/9', 19),
    ]

    def test_seeded_values_and_node_counts_are_pinned(self):
        rows = []
        for g in seeded_multigraphs(2, 20):
            budget = SolveBudget(max_nodes=300)
            try:
                res = chi_c(g, budget=budget)
            except ChiUndecided as exc:
                rows.append((f"({exc.lower}, {exc.upper}]", str(exc.undecided), budget.nodes))
            else:
                rows.append((str(res.value), str(res.refuted), budget.nodes))
        assert rows == self.SEEDED_GOLDEN

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=3, max_m=5))
    def test_agrees_with_ascending_oracle_scan(self, g):
        res = chi_c(g)
        assert res.value == oracles.oracle_chi(g)
        if res.witness is not None:
            assert verify_coloring(g, res.witness)


class TestGreedySeed:
    @settings(max_examples=400, deadline=None)
    @given(signed_graphs(min_n=1, max_n=9, max_m=30))
    def test_same_coloring_as_the_sign_bit_seed(self, g):
        # The strategy draws parallel +- pairs and negative loops; one vertex
        # with a loop, or a few with many parallel edges, takes the
        # identity-spread branch.
        assert solver._greedy_seed(g) == oracles.oracle_greedy_seed(g)

    @pytest.mark.parametrize("g,want", [
        (sg(2, [(0, 1, POS), (0, 1, NEG)] * 2), Coloring(4, 1, (0, 1))),  # d = 4 > 2n - 2
        (sg(1, [(0, 0, NEG)]), Coloring(2, 1, (0,))),
        (sg(3, [(0, 1, POS), (0, 1, NEG), (1, 2, NEG), (2, 2, NEG)]), Coloring(4, 1, (1, 0, 0))),
    ])
    def test_both_branches_match_the_sign_bit_seed(self, g, want):
        assert solver._greedy_seed(g) == oracles.oracle_greedy_seed(g) == want


class TestChiS:
    def test_frozen(self):
        assert chi_s(sg(2, [(0, 1, POS)])) == 2
        assert chi_s(sg(3, [(0, 1, POS), (1, 2, POS), (2, 0, POS)])) == 3
        assert chi_s(sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 0, POS)])) == Fraction(8, 3)
        assert chi_s(sg(2, [])) == 1

    def test_signature_choice_is_irrelevant(self):
        # Same skeleton, different starting signs: the scan covers all classes.
        a = sg(3, [(0, 1, POS), (1, 2, NEG), (2, 0, POS)])
        b = sg(3, [(0, 1, NEG), (1, 2, NEG), (2, 0, NEG)])
        assert chi_s(a) == chi_s(b) == 3

    def test_non_simple_rejected(self):
        with pytest.raises(ValueError):
            chi_s(DIGON)
        with pytest.raises(ValueError):
            chi_s(sg(1, [(0, 0, NEG)]))

    def test_one_budget_across_the_signatures(self, monkeypatch):
        spent = []
        chi_c_of_one = solver.chi_c

        def counted(h, budget):
            before = budget.nodes
            res = chi_c_of_one(h, budget=budget)
            spent.append(budget.nodes - before)
            return res

        monkeypatch.setattr(solver, "chi_c", counted)
        budget = SolveBudget(max_nodes=26)  # the whole scan's spend, exactly
        assert chi_s(positive_clique(4), budget=budget) == 4
        assert spent == [2, 4, 4, 4, 4, 4, 4, 0]
        assert budget.nodes == 26

    @pytest.mark.parametrize("cap", [10, 25])
    def test_the_shared_budget_stops_the_scan(self, cap):
        budget = SolveBudget(max_nodes=cap)
        with pytest.raises(ChiUndecided) as info:
            chi_s(positive_clique(4), budget=budget)
        assert info.value.nodes == budget.nodes == cap + 1

    def test_capacity_guard(self):
        k7 = sg(7, [(i, j, POS) for i in range(7) for j in range(i + 1, 7)])
        with pytest.raises(CapacityError):
            chi_s(k7)

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs(max_n=4, max_m=5, loops=False, parallel=False))
    def test_dominates_every_signature(self, g):
        # chi_s is a max over switching classes, so it dominates the given
        # signature and is attained by some signature on the same skeleton.
        bound = chi_s(g)
        assert chi_c(g).value <= bound

    @settings(max_examples=25, deadline=None)
    @given(signed_graphs(max_n=4, max_m=5, loops=False, parallel=False))
    def test_equals_brute_force_max_over_all_signatures(self, g):
        brute = max(
            oracles.oracle_chi(SignedGraph(g.n, tuple(
                e._replace(sign=s) for e, s in zip(g.edges, signs))))
            for signs in itertools.product((POS, NEG), repeat=g.m)
        )
        assert chi_s(g) == brute


class TestZeroFreeConversions:
    def test_frozen_tables(self):
        assert zero_free_to_circular([1, -1], 1).colors == (0, 1)
        assert zero_free_to_circular([1, 2, -1, -2], 2).colors == (0, 1, 2, 3)
        assert circular_to_zero_free(Coloring(4, 1, (0, 1, 2, 3))) == [1, 2, -1, -2]

    def test_round_trip_errors(self):
        with pytest.raises(ValueError):
            zero_free_to_circular([0], 1)
        with pytest.raises(ValueError):
            zero_free_to_circular([3], 2)
        with pytest.raises(ValueError):
            zero_free_to_circular([1], 0)
        with pytest.raises(ValueError):
            circular_to_zero_free(Coloring(8, 2, (0,)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_round_trip_identity(self, k, data):
        n = data.draw(st.integers(1, 5))
        f = [data.draw(st.sampled_from([x for x in range(-k, k + 1) if x])) for _ in range(n)]
        c = zero_free_to_circular(f, k)
        assert circular_to_zero_free(c) == f
        again = data.draw(st.lists(st.integers(0, 2 * k - 1), min_size=n, max_size=n))
        c2 = Coloring(2 * k, 1, tuple(again))
        assert zero_free_to_circular(circular_to_zero_free(c2), k) == c2
