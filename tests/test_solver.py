"""The exact search: feasibility, chi_c, chi_s, budgets, color conversions."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from gen import grids, signed_graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from sgc import solver
from sgc.constructions import signed_cycle
from sgc.core import NEG, POS, CapacityError, SignedGraph, UncolorableError
from sgc.solver import (BudgetExhausted, ChiUndecided, Coloring, Pin,
                        SolveBudget, chi_c, chi_s, circular_to_zero_free,
                        feasible_pq, verify_coloring, zero_free_to_circular)


def sg(n, triples):
    return SignedGraph.from_triples(n, triples)


C4_NEG = sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 0, NEG)])
DIGON = sg(2, [(0, 1, POS), (0, 1, NEG)])
KINDS = (solver._KIND_POS, solver._KIND_NEG, solver._KIND_BOTH)


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


class TestSearchKernel:
    """The iterative kernel against the recursive one it replaced."""

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
        adj = solver._adjacency(g)
        got = self._run(solver._search, g.n, adj, p, q, list(domains), max_nodes=max_nodes)
        want = self._run(oracles.oracle_search, g.n, adj, oracles.oracle_masks(p, q),
                         list(domains), max_nodes=max_nodes)
        assert got == want

    @pytest.mark.parametrize("p", range(2, 121, 2))
    def test_singleton_supports_equal_mask_tables(self, p):
        half = p // 2
        # Every q up to p = 40; above that, q at the ends of the offset windows.
        window_edges = {1, 2, 3, half // 2 - 1, half // 2, half // 2 + 1, half - 1, half}
        qs = range(1, half + 1) if p <= 40 else sorted(q for q in window_edges if q >= 1)
        for q in qs:
            masks = oracles.oracle_masks(p, q)
            for kind in KINDS:
                assert [solver._support(kind, 1 << c, p, q) for c in range(p)] == masks[kind]

    @settings(max_examples=200, deadline=None)
    @given(grids(60), st.sampled_from(KINDS), st.data())
    def test_support_of_a_domain_is_the_union_over_its_colors(self, pq, kind, data):
        p, q = pq
        dx = data.draw(st.integers(1, (1 << p) - 1))
        masks = oracles.oracle_masks(p, q)[kind]
        union = 0
        for c in range(p):
            if dx >> c & 1:
                union |= masks[c]
        assert solver._support(kind, dx, p, q) == union


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

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=3, max_m=5))
    def test_agrees_with_ascending_oracle_scan(self, g):
        res = chi_c(g)
        assert res.value == oracles.oracle_chi(g)
        if res.witness is not None:
            assert verify_coloring(g, res.witness)


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
