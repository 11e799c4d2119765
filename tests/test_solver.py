"""The exact search: feasibility, chi_c, chi_s, budgets, color conversions."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import unittest.mock
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from gen import (gadget_compositions, grids, joined_compositions, necklaces, prism, prisms,
                 seeded_multigraphs, signed_graphs)
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sgc import core, solver
from sgc.arith import EvenRational, candidate_pairs, normalize_even
from sgc.constructions import (big_gamma, circular_clique_signed, k4_omega,
                               positive_clique, signed_cycle, wenger_tilde)
from sgc.core import (NEG, POS, CapacityError, Edge, SignedGraph, UncolorableError,
                      is_balanced)
from sgc.indicators import Indicator, replace_edges, z_set
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


def root_domains(p, closed):
    """One vertex's root domain at p: often full or one of the colors 0 and
    p/2; otherwise, when closed, a set closed under c -> -c (so that the
    reflection cut can fire), and when not, any one color or any set."""
    full = (1 << p) - 1
    fixed = st.sampled_from([0, p // 2]).map(lambda c: 1 << c)
    if closed:
        closure = st.integers(1, full).map(lambda d: functools.reduce(
            operator.or_, (1 << (-c % p) | 1 << c for c in range(p) if d >> c & 1)))
        return st.one_of(st.just(full), st.just(full), fixed, closure)
    return st.one_of(st.just(full), st.just(full), fixed,
                     st.integers(0, p - 1).map(lambda c: 1 << c), st.integers(1, full))


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

    @pytest.mark.parametrize("c,message", [
        (Coloring(4, 1, (False, True)), "color False of vertex 0"),
        (Coloring(4, True, (0, 2)), "p, q must be ints"),
    ])
    def test_bools_are_not_colors(self, c, message):
        # bool subclasses int: the first used to verify, and render_coloring
        # wrote "0 False".
        with pytest.raises(ValueError, match=message):
            verify_coloring(sg(2, []), c)

    def test_a_list_of_colors_is_kept_as_a_tuple(self):
        # Like SignedGraph's edges: a caller's list is copied, so the
        # coloring is hashable, equals its tuple twin and cannot change.
        colors = [0, 2]
        c = Coloring(4, 1, colors)
        colors[0] = 1
        assert c.colors == (0, 2)
        assert c == Coloring(4, 1, (0, 2))
        assert hash(c) == hash(Coloring(4, 1, (0, 2)))

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6, positive_loops=True), grids(8), st.data())
    def test_matches_independent_predicate(self, g, pq, data):
        p, q = pq
        colors = tuple(data.draw(st.integers(0, p - 1)) for _ in range(g.n))
        expected = all(oracles.edge_ok(p, q, e.sign, colors[e.u], colors[e.v])
                       for e in g.edges)
        assert verify_coloring(g, Coloring(p, q, colors)) == expected

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs(max_n=6, max_m=14, positive_loops=True), grids(10), st.data())
    def test_same_verdicts_as_the_per_edge_helper(self, g, pq, data):
        # A coloring that verifies, when there is one, with a few colors
        # redrawn at random, and at times malformed (a bool, a float, a color
        # out of range, one color too many or too few): the same verdict, or
        # the same ValueError.
        p, q = pq
        found = None if g.has_positive_loop() else feasible_pq(g, p, q)
        colors = list(found.colors) if found else [0] * g.n
        odd = st.sampled_from([True, False, 1.0, -1, p, p + 3])
        for v in range(g.n):
            redraw = data.draw(st.integers(0, 19))
            if redraw < 4:
                colors[v] = data.draw(odd if redraw == 0 else st.integers(0, p - 1))
        extra = data.draw(st.sampled_from([0] * 8 + [1, -1]))
        colors = colors + [0] if extra > 0 else colors[:g.n + extra]
        c = Coloring(p, q, tuple(colors))

        def verdict(verify):
            try:
                return verify(g, c)
            except ValueError as exc:
                return str(exc)
        assert verdict(verify_coloring) == verdict(oracles.oracle_verify_coloring)


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

    def test_the_graph_without_vertices_has_the_empty_coloring(self):
        assert feasible_pq(SignedGraph(0, ()), 2, 1) == Coloring(2, 1, ())

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
            feasible_pq(C4_NEG, 8, 3, budget=SolveBudget(max_nodes=0))
        # The node past the cap is the one that raises, and it is counted.
        # The negative 6-cycle branches three times at 8/3.
        for cap in (0, 1, 2):
            budget = SolveBudget(max_nodes=cap)
            with pytest.raises(BudgetExhausted) as info:
                feasible_pq(signed_cycle(6, True), 8, 3, budget=budget)
            assert info.value.nodes == budget.nodes == cap + 1

    @pytest.mark.parametrize("max_nodes", [True, False, -1, 1.0, 2.5, "10"])
    def test_budget_cap_must_be_a_nonnegative_int(self, max_nodes):
        # max_nodes=True used to build a budget of 1 node, and -1 one that
        # refused the first node.
        with pytest.raises(ValueError, match="max_nodes"):
            SolveBudget(max_nodes=max_nodes)

    @pytest.mark.parametrize("max_nodes", [None, 0, 1, 10**12])
    def test_budget_cap_accepts_none_and_nonnegative_ints(self, max_nodes):
        assert SolveBudget(max_nodes=max_nodes).max_nodes == max_nodes

    @pytest.mark.parametrize("nodes", [True, -1, -10, 1.0, "0"])
    def test_budget_spent_nodes_must_be_a_nonnegative_int(self, nodes):
        # nodes=-10 under max_nodes=5 used to allow 15 nodes.
        with pytest.raises(ValueError, match="nodes must"):
            SolveBudget(max_nodes=5, nodes=nodes)

    def test_a_refutation_without_nodes_returns_under_a_zero_cap(self):
        budget = SolveBudget(max_nodes=0)
        assert feasible_pq(signed_cycle(4, True), 4, 2, budget=budget) is None
        assert budget.nodes == 0

    def test_one_budget_counts_across_calls(self):
        budget = SolveBudget()
        feasible_pq(signed_cycle(4, True), 8, 3, budget=budget)
        assert budget.nodes == 1
        feasible_pq(signed_cycle(4, True), 8, 3, budget=budget)
        assert budget.nodes == 2

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

    @pytest.mark.parametrize("pin, message", [
        (Pin(0.0, 0), "pin on non-vertex 0.0"),
        (Pin(True, 0), "pin on non-vertex True"),
        (Pin(0, 2.0), "pin color 2.0 out of range for p=8"),
        (Pin(0, False), "pin color False out of range for p=8"),
    ])
    def test_pins_are_ints_not_bools_or_floats(self, pin, message):
        # Pin(0.0, 0) used to fail inside the search with a TypeError.
        with pytest.raises(ValueError, match=message):
            feasible_pq(C4_NEG, 8, 3, pins=(pin,))

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
        # this is the 1-node refutation of TestSearchKernel's [1, 63, 63, 63],
        # not one refutation per color of vertex 0.
        adj = solver._adjacency(sg(4, K4), 6, 2)
        budget = SolveBudget()
        assert solver._search(4, adj, 6, [63] * 4, budget, verdict_only) is None
        assert budget.nodes == 1

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


@contextlib.contextmanager
def refuted_parts_met():
    """Collect the keys of the refuted parts _search meets again while the
    context is open: it keeps those keys in sets, so a set that notes each
    key it holds stands in for the built-in in solver's namespace."""
    met = []

    class Keys(set):
        def __contains__(self, k):
            found = super().__contains__(k)
            if found:
                met.append(k)
            return found

    with unittest.mock.patch.object(solver, "set", Keys, create=True):
        yield met


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

    @staticmethod
    def _picks(n, adj, p, verdict_only, neighbors=None):
        """_search from full root domains: its result, the vertex each node
        branched on, and the nodes."""
        budget, picks = SolveBudget(), []

        class Picks(list):  # root domains that note each node's vertex
            def __setitem__(self, x, d):
                if budget.nodes > len(picks):  # a node is spent, then its vertex set
                    picks.append(x)
                super().__setitem__(x, d)

        solution = solver._search(n, adj, p, Picks([(1 << p) - 1] * n), budget, verdict_only,
                                  neighbors)
        return solution, picks, budget.nodes

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
        adj = solver._adjacency(g, p, q)
        assume(all(mask for groups in adj for mask, _ in groups))  # else refuted at set-up
        domains = [data.draw(root_domains(p, closed)) for _ in range(g.n)]
        want, want_nodes = self._run(oracles.chrono_search, g.n, adj, p, list(domains),
                                     max_nodes=20_000)
        got, got_nodes = self._run(solver._search, g.n, adj, p, list(domains),
                                   max_nodes=20_000)
        assert got_nodes <= want_nodes
        if not isinstance(want, tuple):
            assert got == want

    @staticmethod
    def _agrees(got, want, verdict_only, met, g, p, q, domains):
        """The kernel's run against the backjumping kernel's, each (result
        or ("exhausted", nodes), nodes).  That kernel spends a node on every
        picked vertex with an unassigned neighbor; _search takes a color
        that cuts no unassigned neighbor without one.  In the canonical
        order only the lowest color is free, which is the color that kernel
        tries first and cannot fail, so _search keeps its first solution in
        no more nodes.  The verdict order may take another free color, so
        another solution: the same verdict where both decide.  Meeting a
        refuted part again, which that kernel never does, takes other steps:
        then the same answer where both decide.  A coloring _search returns
        keeps its root domains and verifies."""
        if isinstance(got[0], list):
            assert all(d >> c & 1 for d, c in zip(domains, got[0]))
            assert verify_coloring(g, Coloring(p, q, tuple(got[0])))
        if not verdict_only and not met:
            if not isinstance(want[0], tuple):
                assert got[0] == want[0] and got[1] <= want[1]
        elif not isinstance(got[0], tuple) and not isinstance(want[0], tuple):
            assert (got[0] is None) == (want[0] is None)
            if not verdict_only:
                assert got[0] == want[0]

    @settings(max_examples=500, deadline=None)
    @given(signed_graphs(min_n=2, max_n=14, max_m=40), grids(24), st.booleans(),
           st.booleans(), st.data())
    def test_the_backjumping_kernels_answers_in_no_more_nodes(
            self, g, pq, closed, verdict_only, data):
        # Undoing a decision through its trail entry, cutting a picked vertex
        # to colors 0..p/2 while reflection holds, and free colors (_agrees).
        # The canonical order is held to the budget drawn; the verdict
        # order, which may spend more, gets the same cap as that kernel.
        p, q = pq
        adj = solver._adjacency(g, p, q)
        # A pair that allows no offset refutes at set-up, before any step.
        assume(all(mask for groups in adj for mask, _ in groups))
        domains = [data.draw(root_domains(p, closed)) for _ in range(g.n)]
        max_nodes = 20_000 if verdict_only else data.draw(st.integers(1, 2000))
        with refuted_parts_met() as met:
            got = self._run(lambda *args: solver._search(*args, verdict_only, g._neighbors),
                            g.n, adj, p, list(domains), max_nodes=max_nodes)
        want = self._run(lambda *args: oracles.backjump_search(*args, verdict_only, g._neighbors),
                         g.n, adj, p, list(domains), max_nodes=20_000 if met else max_nodes)
        self._agrees(got, want, verdict_only, met, g, p, q, domains)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(gadget_compositions(), signed_graphs(min_n=2, max_n=14, max_m=40)),
           st.one_of(grids(24), st.sampled_from([(8, 2), (10, 3), (14, 3), (18, 4), (22, 5)])),
           st.booleans(), st.data())
    def test_free_colors_keep_the_first_solution_and_the_verdict(self, g, pq, closed, data):
        # A color that cuts no unassigned neighbor takes no node.  In the
        # canonical order (only the lowest color) the first solution is the
        # chronological search's, in no more nodes; in the verdict order
        # (any such color) the verdict is the backjumping kernel's.  Every
        # coloring keeps its root domains and verifies.  Gadget compositions
        # sit near their values at these rungs (4, 10/3, 14/3, 9/2, 22/5).
        p, q = pq
        adj = solver._adjacency(g, p, q)
        assume(all(mask for groups in adj for mask, _ in groups))
        domains = [data.draw(root_domains(p, closed)) for _ in range(g.n)]
        first, first_nodes = self._run(oracles.chrono_search, g.n, adj, p, list(domains),
                                       max_nodes=20_000)
        assume(not isinstance(first, tuple))
        runs = [self._run(lambda *args: solver._search(*args, verdict_only, g._neighbors),
                          g.n, adj, p, list(domains), max_nodes=20_000)
                for verdict_only in (False, True)]
        (got, nodes), (verdict, _) = runs
        assert got == first and nodes <= first_nodes
        want, _ = self._run(lambda *args: oracles.backjump_search(*args, True, g._neighbors),
                            g.n, adj, p, list(domains), max_nodes=20_000)
        if not isinstance(verdict, tuple) and not isinstance(want, tuple):
            assert (verdict is None) == (want is None)
        for found, _ in runs:
            if isinstance(found, list):
                assert all(d >> c & 1 for d, c in zip(domains, found))
                assert verify_coloring(g, Coloring(p, q, tuple(found)))

    @pytest.mark.parametrize("verdict_only", [False, True])
    def test_same_trace_as_the_backjumping_kernel_on_a_pinned_refutation(self, verdict_only):
        # A positive triangle 1, 2, 3 with vertex 0 hung on 2, at 8/3 < 3.
        # The rotation pin puts 0 at 0, and 2 is left {3, 4, 5}, closed
        # under c -> -c, so its first pick tries 3 and 4 only: 2 nodes.
        # Trying the mirror color 5 as well costs a third.  The random
        # draws above rarely back up at such a state, so this case is fixed.
        g = sg(4, [(0, 2, POS), (1, 2, POS), (2, 3, POS), (1, 3, POS)])
        adj = solver._adjacency(g, 8, 3)
        runs = [self._run(lambda *args: search(*args, verdict_only, g._neighbors),
                          4, adj, 8, [255] * 4, max_nodes=100)
                for search in (oracles.backjump_search, solver._search)]
        assert runs[0] == runs[1] == (None, 2)

    def test_the_backjumping_kernels_answers_at_tight_rungs(self):
        # Random simple graphs at their value and at the rung refuted below
        # it: there the first picks fail and back up often, so trying a
        # mirror color the kernel before skipped, a restore that misses a
        # field, or a free color that cuts a neighbor, shows as another
        # answer or more nodes (_agrees).  Open roots, vertex 0 pinned at p/2
        # (still closed under c -> -c) and at 1 (not closed).
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(8, 16)
            pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(2 * n, 3 * n))
            g = sg(n, [(a, b, rng.choice([POS, NEG])) for a, b in pairs])
            try:
                res = chi_c(g, budget=SolveBudget(max_nodes=5000))
            except ChiUndecided:
                continue
            rungs = {(res.witness.p, res.witness.q)}
            if res.refuted is not None and res.refuted > 2:
                below = normalize_even(*res.refuted.as_integer_ratio())
                rungs.add((below.p, below.q))
            for (p, q), verdict_only in itertools.product(sorted(rungs), (False, True)):
                adj = solver._adjacency(g, p, q)
                full = (1 << p) - 1
                for root in (full, 1 << p // 2, 2):
                    domains = [root] + [full] * (n - 1)
                    with refuted_parts_met() as met:
                        got = self._run(lambda *args: solver._search(*args, verdict_only,
                                                                     g._neighbors),
                                        n, adj, p, list(domains), max_nodes=5000)
                    want = self._run(lambda *args: oracles.backjump_search(*args, verdict_only,
                                                                           g._neighbors),
                                     n, adj, p, list(domains), max_nodes=5000)
                    self._agrees(got, want, verdict_only, met, g, p, q, domains)

    @pytest.mark.parametrize("p,q,nodes,searches", [
        (14, 3, 82, 5), (20, 4, 65, 4), (22, 5, 1_469, 4), (24, 5, 172, 6), (28, 6, 271, 6)])
    def test_relation_searches_keep_the_backjumping_kernels_masks(
            self, monkeypatch, p, q, nodes, searches):
        # k4_omega's piece around its 14/3: the verdict-only searches of
        # _relation (none of chi_random's 500 graphs at seed 1 has a
        # repeated piece) keep the mask of the kernel before, in no more
        # nodes: that kernel has no refuted parts to meet again (at 22/5,
        # where they are met, it spends 2,772) and no free colors.  A free
        # color may be another than the one that kernel finds, so a coloring
        # may show other separations, and the number of searches may differ
        # (5 there at 24/5 and at 28/6).
        h = k4_omega()._pieces[3][0]
        got = []
        for search in (oracles.backjump_search, solver._search):
            calls = []

            def counted(*args, search=search, calls=calls):
                calls.append(args)
                return search(*args)

            monkeypatch.setattr(solver, "_search", counted)
            budget = SolveBudget()
            got.append((solver._relation(h, 0, 1, p, q, budget), budget.nodes, len(calls)))
        (want_mask, want_nodes, _), (mask, spent, made) = got
        assert mask == want_mask
        assert (spent, made) == (nodes, searches)
        assert spent <= want_nodes

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
        # The verdict-only searches branch on the most unassigned neighbors,
        # then domain size; that order may find another solution, never
        # another verdict.
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
        # Vertex 0 (three neighbors, the most) is pinned by rotation; then
        # the others keep the five colors 2..6 each, 1 and 2 one unassigned
        # neighbor (key 5 - 9) and 3 none (key 5), and 0's key, taken = 9,
        # must still top theirs.  Vertex 1 is the one branch: no color of it
        # is at least 2 from each of 2's five, so none is free.  At 2 it cuts
        # 2 to 4..6; then 2 and 3, left with no unassigned neighbor, take
        # their lowest colors without a node.
        g = sg(4, [(0, 1, POS), (0, 2, POS), (0, 3, POS), (1, 2, POS)])
        adj = solver._adjacency(g, 8, 2)
        budget = SolveBudget(max_nodes=100)
        assert solver._search(4, adj, 8, [255] * 4, budget, verdict_only=True) == [0, 2, 4, 2]
        assert budget.nodes == 1

    @staticmethod
    def _both_orders(g):
        """Every (canonical run, verdict-only run) on g for p up to 12, from
        full domains and with each vertex pinned to color 0 in turn; each
        coloring either run returns verifies and keeps the pin."""
        for p in range(2, 13, 2):
            for q in range(1, p // 2 + 1):
                adj = solver._adjacency(g, p, q)
                full = (1 << p) - 1
                for pin in [None, *range(g.n)]:
                    domains = [2 if v == pin else full for v in range(g.n)]
                    want = TestSearchKernel._run(solver._search, g.n, adj, p, list(domains),
                                                 max_nodes=20_000)
                    got = TestSearchKernel._run(
                        lambda *args: solver._search(*args, verdict_only=True),
                        g.n, adj, p, list(domains), max_nodes=20_000)
                    for colors, _ in (want, got):
                        if colors is not None:
                            assert verify_coloring(g, Coloring(p, q, tuple(colors)))
                            assert pin is None or colors[pin] == 1
                    yield want, got

    def test_verdict_only_is_the_canonical_order_when_degrees_are_equal(self):
        # K4(+) is complete, so at every pick each unassigned vertex has as
        # many unassigned neighbors as any other, and the verdict order
        # ranks the vertices as domain size does.  It takes no free color
        # the canonical order does not, so it finds the same first solution
        # in the same nodes.
        for want, got in self._both_orders(sg(4, K4)):
            assert got == want

    def test_verdict_only_on_a_signed_clique_keeps_the_verdict_in_no_more_nodes(self):
        # The signed clique is complete too, so the two orders rank the
        # vertices alike, but the verdict order takes free colors above the
        # lowest where the canonical order branches: the same verdict, in
        # no more nodes.
        for want, got in self._both_orders(circular_clique_signed(6, 2)):
            assert (got[0] is None) == (want[0] is None) and got[1] <= want[1]

    @pytest.mark.parametrize("g,canonical,verdict_only", [
        (signed_cycle(5, False), [1, 2, 3], [2, 3]),
        (signed_cycle(6, True), [1, 2, 3], [2, 4])], ids=["C5+", "C6-"])
    def test_verdict_only_branches_on_the_most_unassigned_neighbors_first(
            self, g, canonical, verdict_only):
        # At 6/2, vertex 0 pinned by rotation: its neighbors 1 and n-1 keep
        # three colors and one unassigned neighbor, the rest more colors and
        # two.  The canonical order picks 1, the smaller domain; the verdict
        # order picks 2.  Next it picks 3 on C5+ (3 and 4 have one unassigned
        # neighbor and two colors each: the lower index) and 4 on C6-, the
        # one vertex with two unassigned neighbors left.  Vertex 1, left with
        # none, takes its lowest color without a node.  On C6- the canonical
        # order leaves 4 with {4, 5} and 5 with {0, 1}; color 4 of vertex 4
        # cuts no color of 5, so 4 takes it without a node.
        adj = solver._adjacency(g, 6, 2)
        for order, want in ((False, canonical), (True, verdict_only)):
            solution, picks, nodes = self._picks(g.n, adj, 6, order, g._neighbors)
            assert verify_coloring(g, Coloring(6, 2, tuple(solution)))
            assert picks == want and nodes == len(want)

    def test_a_free_color_counts_for_its_neighbors_keys(self):
        # A wheel at 8/2: hub 0, pinned by rotation, with spoke 0-1 negative
        # and 0-2, 0-3, 0-4 positive, and the rim 1-2-3-4-1 positive.  Vertex
        # 1 keeps {6, 7, 0, 1, 2} and the others {2, ..., 6}; all four have
        # two unassigned neighbors, so the verdict order picks 1, and its
        # color 0 is at least 2 from every color 2 and 4 have left: free.
        # Then 2 and 4 have one unassigned neighbor left and 3 two, so 3 is
        # the one branch; still counting 1 as unassigned would branch 2.
        g = sg(5, [(0, 1, NEG), (0, 2, POS), (0, 3, POS), (0, 4, POS), (1, 2, POS),
                   (2, 3, POS), (3, 4, POS), (4, 1, POS)])
        adj = solver._adjacency(g, 8, 2)
        assert self._picks(5, adj, 8, True, g._neighbors) == ([0, 0, 4, 2, 4], [3], 1)

    def test_a_full_relation_still_counts_its_neighbor_as_assigned(self):
        # A quotient path 0-1-2-3 (signs +, +, -) whose relation on the
        # edge-free pair 1, 3 is full, at 6/2: that pair's mask supports
        # every color, so 1's color cuts nothing from 3, and still 3 has one
        # unassigned neighbor fewer once 1 is assigned.  Vertex 0 pinned by
        # rotation, the verdict order picks 1 (two unassigned neighbors) at
        # 2, which cuts 2 to {4, 5, 0}; then 2 (three colors, key 3 - 7)
        # comes before 3 (six colors, key 6 - 7).  Counting 1 as unassigned
        # for 3 would pick 3 first (key 6 - 14), where color 5 is free.
        quotient = sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, NEG)])
        adj = solver._adjacency(quotient, 6, 2, [(1, 3, 63)])
        assert [mask for mask, ws in adj[1] if 3 in ws] == [63]
        solution, picks, nodes = self._picks(4, adj, 6, True)
        assert (solution, picks, nodes) == ([0, 2, 0, 0], [1, 2], 2)

    def test_empty_root_domain_is_refuted_at_set_up(self):
        # No pair mask reaches either vertex, so propagation never sees the
        # empty domain; the set-up must.
        budget = SolveBudget()
        assert solver._search(2, [[], []], 4, [0, 15], budget) is None
        assert budget.nodes == 0

    def test_reflection_drops_the_mirror_of_a_refuted_color(self):
        # K4(+) at (6,2), vertex 0 at 0: vertex 1 keeps {2, 4}; color 2
        # fails, so color 4 = -2 is never tried.  Without color 1 in vertex
        # 3's root domain propagation reaches the same domains, but the root
        # is not closed under c -> -c, so color 4 costs a node.  (The
        # chronological kernel branches the pinned vertex 0 too.)
        adj = solver._adjacency(sg(4, K4), 6, 2)
        nodes = []
        for search, domains in ((oracles.chrono_search, [1, 63, 63, 63]),
                                (solver._search, [1, 63, 63, 63]),
                                (solver._search, [1, 63, 63, 0b111101])):
            budget = SolveBudget()
            assert search(4, adj, 6, domains, budget) is None
            nodes.append(budget.nodes)
        assert nodes == [3, 1, 2]

    @pytest.mark.parametrize("k", [0, 10, 200])
    def test_only_real_choices_cost_a_node(self, k):
        # A positive triangle plus k isolated vertices at (6,2): vertex 0 is
        # pinned by rotation, vertex 1 is the one branch and cuts vertex 2
        # to one color, and an isolated vertex has no unassigned neighbor,
        # so it takes color 0 without a node.  The chronological kernel
        # branches all 3 + k vertices on the way to the same coloring.
        g = sg(3 + k, [(0, 1, POS), (1, 2, POS), (2, 0, POS)])
        cap = SolveBudget()
        want = oracles.chrono_search(g.n, solver._adjacency(g, 6, 2), 6, [63] * g.n, cap)
        budget = SolveBudget()
        got = feasible_pq(g, 6, 2, budget=budget)
        assert list(got.colors) == want == [0, 2, 4] + [0] * k
        assert (budget.nodes, cap.nodes) == (1, 3 + k)

    def test_a_vertex_without_unassigned_neighbors_ends_reflection_below_it(self):
        # The root is closed under c -> -c.  Vertex 1's only neighbor is the
        # pinned vertex 0, so vertex 1 takes its lowest color, 1, which is
        # not its own mirror, and reflection no longer holds below it.
        # Then vertex 2 is branched at 2 and vertex 3's color 0 is refuted
        # before 5 succeeds: the chronological kernel's first solution, in
        # no more nodes.
        g = sg(6, [(0, 1, NEG), (2, 3, POS), (2, 4, POS), (2, 5, POS), (3, 4, NEG),
                   (3, 5, NEG), (4, 5, POS), (0, 2, POS), (0, 3, NEG)])
        adj = solver._adjacency(g, 6, 2)
        domains = [1, 0b100010, 63, 63, 63, 63]
        cap = SolveBudget()
        want = oracles.chrono_search(g.n, adj, 6, list(domains), cap)
        budget = SolveBudget()
        assert solver._search(g.n, adj, 6, domains, budget) == want == [0, 1, 2, 5, 0, 4]
        assert (budget.nodes, cap.nodes) == (4, 7)

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
                runs = solver._runs(mask, p)
                assert [solver._support(mask, 1 << c, p, runs) for c in range(p)] == masks[kind]

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
        mask = pair_mask(KINDS[kind], p, q)
        assert solver._support(mask, dx, p, solver._runs(mask, p)) == union

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda p: st.tuples(
        st.just(p), offset_masks(p), st.integers(0, (1 << p) - 1))))
    def test_support_is_the_or_of_the_mask_rotated_by_each_color(self, case):
        p, mask, dx = case
        want = 0
        for c in range(p):
            if dx >> c & 1:
                want |= rotate(mask, c, p)
        assert solver._support(mask, dx, p, solver._runs(mask, p)) == want

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda p: st.tuples(st.just(p), offset_masks(p))),
           st.sampled_from([0, 1, None]), st.data())
    def test_support_agrees_with_doubling_at_the_pigeonhole_boundary(self, case, above, data):
        # |dx| = p - |mask| has a support the doubling must compute; one more
        # color and every color is supported.  None draws one color.
        p, mask = case
        size = 1 if above is None else p - mask.bit_count() + above
        assume(size <= p)
        colors = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size,
                                    unique=True))
        dx = sum(1 << c for c in colors)
        want = oracles.chrono_support(mask, dx, p)
        assert solver._support(mask, dx, p, solver._runs(mask, p)) == want
        if mask and dx.bit_count() + mask.bit_count() > p:
            assert want == (1 << p) - 1


# K5 less the edge 8-9 and K4 on 0, 3, 5 and 8 share the cut vertex 8
# (vertices 1 and 7 are isolated).  At 18/5, the rung refuted below its
# value 4, the canonical search meets a part it refuted again and fails it
# without a node: 109 nodes, where the kernel without records spends 281.
TWO_BLOCKS = sg(10, [(8, 6, POS), (8, 4, NEG), (8, 2, NEG), (6, 9, POS), (6, 4, NEG),
                     (6, 2, NEG), (9, 4, POS), (9, 2, NEG), (4, 2, POS), (8, 0, NEG),
                     (8, 5, POS), (8, 3, NEG), (0, 5, POS), (5, 3, POS)])
# The triangle 0, 3, 4 with each edge s-t inside a K6 on s, t, a, b, c, d
# whose edges s-a, t-a and c-d are negative (vertices 1 and 2 are
# isolated).  At its value 18/4 both orders meet a refuted part on the way
# to the first coloring, which they still find: 67 and 63 nodes, where the
# kernel without records spends 79 and 75.
THREE_GADGETS = sg(17, [
    (x, y, NEG if {x, y} in ({s, a}, {t, a}, {c, d}) else POS)
    for s, t, a, b, c, d in ((0, 3, 5, 6, 8, 9), (0, 4, 10, 11, 12, 13), (3, 4, 14, 15, 16, 7))
    for x, y in itertools.combinations((s, t, a, b, c, d), 2)])


class TestRefutedParts:
    """_search fails a branch point whose part it has refuted before."""

    def test_a_refuted_part_met_again_keeps_every_answer(self):
        # At each drawn graph's value and the rung refuted below it, where
        # searches back up most, in both orders: the verdict of the search
        # without records, and in the canonical order its first solution
        # and the chronological search's, in no more nodes than the latter;
        # the verdict-only order, whose free colors may differ from that
        # search's, keeps its verdict with a coloring that verifies.  Meeting a
        # part again saves nodes against the search without records on some
        # drawn graph, though its conflict, every why in the part, may hold
        # decisions that the part's own refutation did not need, so not on
        # every one.  Few graphs meet a part again (about one in twenty
        # joined compositions), so the draws are fixed.  The searches get
        # 40,000 nodes: on one drawn joined composition (n = 35) the
        # verdict-only order refutes 70/18 in 35,986, where the
        # chronological search spends 2,450 and the canonical order 17.
        fewer = []

        @settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.one_of(gadget_compositions(), joined_compositions()))
        @example(TWO_BLOCKS)
        @example(THREE_GADGETS)
        def check(g):
            try:
                res = chi_c(g, budget=SolveBudget(max_nodes=20_000))
            except ChiUndecided:
                assume(False)
            assume(res.witness is not None)
            rungs = {(res.witness.p, res.witness.q)}
            if res.refuted is not None and res.refuted > 2:
                below = normalize_even(*res.refuted.as_integer_ratio())
                rungs.add((below.p, below.q))
            saved, meets = False, False
            for p, q in sorted(rungs):
                adj = solver._adjacency(g, p, q)
                domains = [(1 << p) - 1] * g.n
                first, first_nodes = TestSearchKernel._run(
                    oracles.chrono_search, g.n, adj, p, list(domains), max_nodes=5_000)
                for verdict_only in (False, True):
                    with refuted_parts_met() as met:
                        got, nodes = TestSearchKernel._run(
                            lambda *args: solver._search(*args, verdict_only, g._neighbors),
                            g.n, adj, p, list(domains), max_nodes=40_000)
                    want, want_nodes = TestSearchKernel._run(
                        lambda *args: oracles.backjump_search(*args, verdict_only, g._neighbors),
                        g.n, adj, p, list(domains), max_nodes=40_000)
                    if not isinstance(want, tuple):  # the search without records decided
                        assert (got is None) == (want is None)
                        assert verdict_only or got == want
                        saved = saved or nodes < want_nodes
                    if isinstance(got, list):
                        assert verify_coloring(g, Coloring(p, q, tuple(got)))
                    if not isinstance(first, tuple):  # the chronological search decided
                        if verdict_only:
                            assert (got is None) == (first is None)
                        else:
                            assert got == first and nodes <= first_nodes
                    meets = meets or bool(met)
            if g is TWO_BLOCKS or g is THREE_GADGETS:
                assert saved and meets
            else:
                fewer.append(saved)

        check()
        assert any(fewer)


class TestRepeatedPieces:
    """feasible_pq refutes through one relation per repeated 2-separated piece."""

    def test_k4_omega_at_18_4_takes_under_20000_nodes(self):
        # The piece relation's searches branch on the most unassigned
        # neighbors; in the canonical order the same refutation takes 72,935
        # nodes.
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
    # A negative edge at 6/3 forces offset 0: the first search colors
    # vertex 1 at 0, and the search over every other offset refutes.
    @example(SignedGraph.from_triples(2, [(0, 1, NEG)]), (6, 3))
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

    def test_a_found_coloring_settles_the_separations_it_shows(self, monkeypatch):
        # wenger_tilde at 18/4 with its terminals 8 and 9: each search lets
        # vertex 9 take every separation not yet shown.  The first colors it
        # at 8 and shows 8 to 10; the next, over the rest, colors it at 4 and
        # shows 4 to 7 and their mirrors; the third colors it at 15, which
        # shows 3 and 15; the last, over {0, 1, 2, 16, 17}, is refuted.
        g, p, q = wenger_tilde(), 18, 4
        adj = solver._adjacency(g, p, q)
        full = (1 << p) - 1
        want = 0
        for d in range(p // 2 + 1):
            domains = [full] * g.n
            domains[8], domains[9] = 1, 1 << d
            if solver._search(g.n, adj, p, domains, SolveBudget(), True) is not None:
                want |= 1 << d | 1 << (p - d) % p
        calls = []
        search = solver._search

        def counted(*args):
            at_9 = args[3][9]  # vertex 9's root domain
            calls.append(tuple(c for c in range(p) if at_9 >> c & 1))
            return search(*args)

        monkeypatch.setattr(solver, "_search", counted)
        assert solver._relation(g, 8, 9, p, q, SolveBudget()) == want
        assert calls == [tuple(range(p)), (*range(8), *range(11, p)),
                         (0, 1, 2, 3, 15, 16, 17), (0, 1, 2, 16, 17)]

    @pytest.mark.parametrize("p,q", [(18, 5), (14, 4), (22, 6)])
    def test_a_digon_refutes_below_4_before_any_relation(self, p, q):
        # A + and a - edge on one pair allow no offset when p < 4q.  The
        # pieces are still cut, but no relation or quotient is searched.
        g = k4_omega()
        h = SignedGraph(g.n, g.edges + (Edge(0, 1, POS), Edge(0, 1, NEG)))
        assert h._pieces is not None and h._pieces[1] == (0, 1, 2, 3)
        budget = SolveBudget(max_nodes=1_000)
        assert feasible_pq(h, p, q, budget=budget) is None
        assert budget.nodes == 0

    # ROADMAP item 5's gate: each 2-separated piece, not only repeated ones
    # numbered alike, is cut.  Today one ear (a vertex on two host vertices)
    # turns the cut off, and a relabelling hides the repeats, so the whole
    # graph is searched and the budget runs out.
    @pytest.mark.xfail(strict=True, raises=BudgetExhausted,
                       reason="the cut needs every 2-separated piece (ROADMAP item 5)")
    @pytest.mark.parametrize("variant", ["ear", "relabelled"])
    def test_k4_omega_variant_at_18_4_takes_under_20000_nodes(self, variant):
        g = k4_omega()
        if variant == "ear":
            h = SignedGraph(g.n + 1, g.edges + (Edge(0, g.n, POS), Edge(1, g.n, POS)))
        else:
            perm = list(range(g.n))
            random.Random(1).shuffle(perm)
            h = SignedGraph(g.n, tuple(Edge(perm[u], perm[v], s) for u, v, s in g.edges))
        assert feasible_pq(h, 18, 4, budget=SolveBudget(max_nodes=20_000)) is None

    def test_back_to_back_calls_spend_identical_nodes(self):
        # Nothing a search records, refuted parts included, outlives its call.
        for solve, want in (
                (lambda budget: feasible_pq(k4_omega(), 18, 4, budget=budget), None),
                (lambda budget: z_set(Indicator(wenger_tilde(), 8, 9), 18, 4,
                                      budget=budget).members(), (3, 4, 5, 6, 7, 8, 9))):
            spent = []
            for _ in range(2):
                budget = SolveBudget(max_nodes=3_000_000)
                assert solve(budget) == want
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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(st.one_of(signed_graphs(min_n=4, max_n=10, min_m=6, max_m=30),
                     gadget_compositions(), joined_compositions(), necklaces(), prisms()))
    def test_same_pieces_as_one_block_search_per_vertex(self, g):
        # One DFS of the graph gives the blocks, and the separation pairs
        # that removing each vertex of a block in turn and looking for a
        # cut vertex gave.
        assert core._block_pairs(g._neighbors) == oracles.oracle_block_pairs(g._neighbors)
        assert core._repeated_pieces(g) == oracles.oracle_repeated_pieces(g)

    @pytest.mark.parametrize("case", ["as built", "relabelled", "with an ear"])
    def test_k4_omega_has_the_pieces_of_one_block_search_per_vertex(self, case):
        g = k4_omega()
        if case == "relabelled":
            perm = random.Random(1).sample(range(g.n), g.n)
            g = SignedGraph(g.n, tuple(Edge(perm[e.u], perm[e.v], e.sign) for e in g.edges))
        elif case == "with an ear":
            g = SignedGraph(g.n + 1, g.edges + (Edge(0, g.n, POS), Edge(1, g.n, POS)))
        assert core._repeated_pieces(g) == oracles.oracle_repeated_pieces(g)

    def test_k4_omega_takes_one_block_search(self, monkeypatch):
        # Its blocks and separation pairs come from one DFS of the graph,
        # not from one block search with each of its 124 vertices removed.
        calls = []
        block_pairs = core._block_pairs

        def counted(*args):
            calls.append(args)
            return block_pairs(*args)

        monkeypatch.setattr(core, "_block_pairs", counted)
        assert k4_omega()._pieces is not None
        assert len(calls) == 1

    def test_a_2000_vertex_prism_has_no_pieces(self):
        # The DFS tree of its one block is deeper than the recursion limit.
        assert prism(1000)._pieces is None


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
            chi_c(C4_NEG, budget=SolveBudget(max_nodes=0))
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
    # benchmark runs it: (value, largest refuted rung, nodes, witness), or
    # for an undecided instance (its bracket, the undecided rung, nodes, the
    # witness at its upper side).  A witness is (p, q, colors).
    SEEDED_GOLDEN = [
        ('4', '11/3', 0, (4, 1, (0, 1, 1, 2, 1, 1, 1, 0, 0, 0, 0, 0))),
        ('4', '15/4', 7, (4, 1, (0, 0, 2, 1, 1, 0, 1, 2, 0, 0, 1, 0, 0, 2, 2, 1))),
        ('4', '26/7', 6, (4, 1, (0, 0, 2, 0, 1, 0, 1, 0, 1, 2, 1, 0, 1))),
        ('4', '15/4', 6, (4, 1, (0, 2, 3, 1, 3, 2, 2, 0, 1, 0, 3, 2, 3, 2, 0))),
        ('4', '26/7', 0, (4, 1, (0, 0, 0, 3, 2, 1, 0, 0, 1, 1, 1, 2, 1, 0))),
        ('4', '11/3', 5, (4, 1, (0, 1, 0, 0, 1, 0, 1, 1, 2, 1, 0, 3))),
        ('4', '26/7', 0, (4, 1, (1, 1, 0, 1, 0, 0, 2, 0, 3, 2, 2, 1, 1, 0))),
        ('4', '15/4', 10, (4, 1, (0, 1, 0, 1, 0, 3, 0, 2, 0, 0, 1, 3, 1, 0, 0, 3))),
        ('(3, 16/5]', '22/7', 301, (16, 5, (0, 0, 3, 3, 8, 5, 8, 1, 10, 5, 14, 15, 3, 4, 6, 3))),
        ('4', '19/5', 13, (4, 1, (0, 0, 1, 0, 0, 1, 1, 0, 2, 0, 1, 0, 0, 1, 2, 0, 3, 3, 2, 0))),
        ('4', '11/3', 3, (4, 1, (0, 0, 1, 3, 0, 1, 0, 0, 2, 0, 3, 1))),
        ('6', '11/2', 20, (6, 1, (0, 2, 1, 1, 0, 0, 0, 0, 2, 1, 1, 3, 0))),
        ('4', '15/4', 9, (4, 1, (0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 2, 1, 0, 0, 1))),
        ('4', '34/9', 4, (4, 1, (0, 0, 0, 1, 0, 0, 1, 0, 2, 1, 3, 0, 0, 0, 0, 1, 1))),
        ('4', '34/9', 9, (4, 1, (0, 0, 0, 0, 1, 0, 2, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0))),
        ('4', '11/3', 3, (4, 1, (0, 1, 2, 0, 0, 0, 3, 1, 3, 3, 1, 0))),
        ('4', '15/4', 0, (4, 1, (0, 0, 1, 0, 0, 2, 1, 0, 2, 0, 0, 0, 3, 1, 1))),
        ('4', '15/4', 5, (4, 1, (0, 1, 1, 0, 1, 3, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1))),
        ('4', '34/9', 0, (4, 1, (0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 1, 1, 0, 0, 1))),
        ('4', '34/9', 11, (4, 1, (0, 1, 2, 0, 0, 1, 0, 0, 0, 3, 3, 0, 1, 0, 0, 3, 2, 1))),
    ]

    def test_seeded_values_and_node_counts_are_pinned(self):
        rows = []
        for g in seeded_multigraphs(2, 20):
            budget = SolveBudget(max_nodes=300)
            try:
                res = chi_c(g, budget=budget)
            except ChiUndecided as exc:
                row = (f"({exc.lower}, {exc.upper}]", str(exc.undecided), budget.nodes)
                w = exc.witness
            else:
                row = (str(res.value), str(res.refuted), budget.nodes)
                w = res.witness
            assert verify_coloring(g, w)
            rows.append((*row, (w.p, w.q, w.colors)))
        assert rows == self.SEEDED_GOLDEN

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=3, max_m=5))
    def test_agrees_with_ascending_oracle_scan(self, g):
        res = chi_c(g)
        assert res.value == oracles.oracle_chi(g)
        if res.witness is not None:
            assert verify_coloring(g, res.witness)

    @staticmethod
    def _outcome(solve, g, max_nodes=None):
        try:
            return solve(g, budget=SolveBudget(max_nodes=max_nodes))
        except ChiUndecided as exc:
            return exc

    @staticmethod
    def _agree(a, b):
        # Both walks end on two adjacent rungs of the same ladder, so where
        # both decide they return the same result; an undecided bracket
        # holds the other side's value, and two brackets share the value.
        if isinstance(a, ChiUndecided) and isinstance(b, ChiUndecided):
            assert max(a.lower, b.lower) < min(a.upper, b.upper)
        elif isinstance(a, ChiUndecided) or isinstance(b, ChiUndecided):
            exc, res = (a, b) if isinstance(a, ChiUndecided) else (b, a)
            assert exc.lower < res.value <= exc.upper
        else:
            assert (a.value, a.refuted, a.witness) == (b.value, b.refuted, b.witness)

    @pytest.mark.parametrize("seed, min_n, max_n", [(3, 12, 20), (4, 12, 20), (5, 20, 40)])
    def test_same_answers_as_the_midpoint_walk_on_seeded_graphs(self, seed, min_n, max_n):
        decided = 0
        for g in seeded_multigraphs(seed, 60, min_n, max_n):
            got = self._outcome(chi_c, g, 300)
            want = self._outcome(oracles.midpoint_chi_c, g, 300)
            self._agree(got, want)
            decided += not isinstance(got, ChiUndecided) and not isinstance(want, ChiUndecided)
        assert decided >= 50

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs(max_n=6))
    def test_same_answers_as_the_midpoint_walk(self, g):
        self._agree(self._outcome(chi_c, g), self._outcome(oracles.midpoint_chi_c, g))

    @pytest.mark.parametrize("g", [signed_cycle(201, False), signed_cycle(200, True),
                                   positive_clique(7), wenger_tilde(),
                                   *seeded_multigraphs(6, 4, 30, 40)],
                             ids=["C201+", "C200-", "K7", "wenger_tilde", *"abcd"])
    def test_probes_stay_logarithmic_in_the_ladder(self, g, monkeypatch):
        # Each probe lies at least 9/20 of the open span from either end, so
        # the span shrinks by 11/20 or better per probe.
        probes = []

        def counted(*args, **kwargs):
            probes.append(args[1:3])
            return feasible_pq(*args, **kwargs)

        monkeypatch.setattr(solver, "feasible_pq", counted)
        try:
            chi_c(g, budget=SolveBudget(max_nodes=5000))
        except ChiUndecided:
            pass
        seed = solver._greedy_seed(g)
        ladder = candidate_pairs(g.n, 2, Fraction(seed.p, seed.q))
        assert 0 < len(probes) <= math.ceil(math.log(len(ladder)) / math.log(20 / 11)) + 1

    @staticmethod
    def _digon_probes(monkeypatch):
        """The (p, q) of each feasible_pq call chi_c makes from now on; the
        ladder, if built, raises."""
        def no_ladder(*args):
            raise AssertionError("chi_c built the candidate ladder")

        calls = []

        def counted(g, p, q, **kwargs):
            calls.append((p, q))
            return feasible_pq(g, p, q, **kwargs)

        monkeypatch.setattr(solver, "candidates", no_ladder)
        monkeypatch.setattr(solver, "feasible_pq", counted)
        return calls

    @pytest.mark.parametrize("g, below", [
        (DIGON, (2, 1)),
        (sg(4, [(0, 1, POS), (0, 1, NEG), (1, 2, POS), (2, 3, NEG)]), (6, 2)),
        (sg(1999, [(0, 1, POS), (0, 1, NEG)]), (3998, 1000)),
    ], ids=["digon", "digon_path", "digon_and_1997_isolated"])
    def test_digon_with_seed_rung_four_refutes_one_rung(self, g, below, monkeypatch):
        # The rung below 4 is refuted at set-up; the greedy seed at 4/1 is
        # the witness, with no search and no ladder (which has O(n^2)
        # rungs on 1,999 vertices).
        calls = self._digon_probes(monkeypatch)
        res = chi_c(g, budget=SolveBudget(max_nodes=0))
        assert calls == [below]
        assert (res.value, res.refuted) == (4, Fraction(*below))
        assert res.witness == solver._greedy_seed(g)

    def test_digon_colored_at_four_makes_two_calls(self, monkeypatch):
        # The positive octahedron K_{2,2,2} (degeneracy 4, seed rung 6)
        # with a negative edge doubling 0-2: its value is 4, and the
        # canonical coloring at 4/1 is the witness.
        pairs = [(a, b) for a, b in itertools.combinations(range(6), 2) if b != a + 1 or a % 2]
        g = sg(6, [(a, b, POS) for a, b in pairs] + [(0, 2, NEG)])
        assert solver._greedy_seed(g).p == 6
        calls = self._digon_probes(monkeypatch)
        res = chi_c(g)
        assert calls == [(10, 3), (4, 1)]
        assert (res.value, res.refuted) == (4, Fraction(10, 3))
        assert res.witness == feasible_pq(g, 4, 1)

    @pytest.mark.parametrize("g, value, refuted", [
        # positive K5 plus a disjoint digon: 4/1 refuted, the walk over (4, 6]
        (sg(7, K4 + [(a, 4, POS) for a in range(4)] + [(5, 6, POS), (5, 6, NEG)]), 5,
         Fraction(14, 3)),
        # positive K5 with its edge 0-1 doubled by a negative one
        (sg(5, K4 + [(a, 4, POS) for a in range(4)] + [(0, 1, NEG)]), 5, 4),
    ], ids=["K5_and_digon", "K5_with_digon"])
    def test_digon_refuted_at_four_walks_the_ladder_above(self, g, value, refuted):
        res = chi_c(g)
        assert (res.value, res.refuted) == (value, refuted)
        self._agree(res, oracles.midpoint_chi_c(g))

    def test_digon_undecided_at_four_keeps_the_bound(self):
        # K6 with a negative edge doubling 0-1: the 4/1 probe needs a node.
        g = sg(6, [(a, b, POS) for a, b in itertools.combinations(range(6), 2)] + [(0, 1, NEG)])
        with pytest.raises(ChiUndecided) as exc:
            chi_c(g, budget=SolveBudget(max_nodes=0))
        err = exc.value
        assert (err.undecided, err.lower, err.upper) == (EvenRational(4, 1), Fraction(10, 3), 6)
        assert err.witness == solver._greedy_seed(g) and verify_coloring(g, err.witness)
        self._agree(err, oracles.midpoint_chi_c(g))

    @settings(max_examples=300, deadline=None)
    @given(signed_graphs(min_n=2, max_n=7, max_m=12), st.data())
    def test_graphs_with_a_digon_get_the_midpoint_walks_answers(self, g, data):
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1).filter(lambda b: b != a))
        g = SignedGraph(g.n, g.edges + (Edge(a, b, POS), Edge(a, b, NEG)))
        max_nodes = data.draw(st.one_of(st.none(), st.integers(0, 30)))
        got = self._outcome(chi_c, g, max_nodes)
        self._agree(got, self._outcome(oracles.midpoint_chi_c, g, max_nodes))
        if not isinstance(got, ChiUndecided):
            assert got.value >= 4 and verify_coloring(g, got.witness)

    def test_rung_below_four_is_the_ladders(self):
        for n in range(2, 60):
            below = solver._rung_below_four(n)
            ladder = candidate_pairs(n, 2, 4)
            assert ladder[-1] == (4, 1) and ladder[-2] == below
            assert Fraction(*below) == max(Fraction(p, p // 4 + 1) for p in range(2, 2 * n + 1, 2))

    def test_probe_is_the_cheapest_rung_near_the_midpoint(self):
        rng = random.Random(0)
        for span in range(2, 200):
            ladder = [(2 * rng.randint(1, 40), 1) for _ in range(span + 5)]
            lo = rng.randint(0, 4)
            hi = lo + span
            w = max(1, 9 * span // 20)
            mid = (lo + hi) // 2
            window = range(lo + w, hi - w + 1)
            cheapest = [j for j in window if ladder[j][0] == min(ladder[k][0] for k in window)]
            nearest = [j for j in cheapest if abs(j - mid) == min(abs(k - mid) for k in cheapest)]
            assert lo < nearest[0] < hi and solver._probe(ladder, lo, hi) == nearest[0]


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
        budget = SolveBudget(max_nodes=7)  # the whole scan's spend, exactly
        assert chi_s(positive_clique(4), budget=budget) == 4
        assert spent == [1, 1, 1, 1, 1, 1, 1, 0]
        assert budget.nodes == 7

    @pytest.mark.parametrize("cap", [10, 25])
    def test_the_shared_budget_stops_the_scan(self, cap):
        # K5's first signatures spend 9, 6 and 5 nodes: both caps run out
        # part way through the scan, not in its first chi_c.
        budget = SolveBudget(max_nodes=cap)
        with pytest.raises(ChiUndecided) as info:
            chi_s(positive_clique(5), budget=budget)
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
        for k in (1.5, True, 2.0, "1"):
            with pytest.raises(ValueError, match=f"need an int k >= 1, got {k!r}"):
                zero_free_to_circular([1], k)
        with pytest.raises(ValueError):
            circular_to_zero_free(Coloring(8, 2, (0,)))
        with pytest.raises(ValueError, match="color 7 of vertex 1 out of range for p=4"):
            circular_to_zero_free(Coloring(4, 1, (0, 7)))

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
