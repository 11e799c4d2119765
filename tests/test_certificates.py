"""Tight-cycle certificates and coloring refinement."""

from __future__ import annotations

from fractions import Fraction

import oracles
import pytest
from gen import grids, signed_graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from sgc.certificates import (CorruptCertificateError, NotRefinableError,
                              RationalColoring, TightDigraph, _edge_gaps, cert_value,
                              find_tight_cycle, refine, tight_digraph,
                              verify_rational)
from sgc.core import NEG, POS, SignedGraph
from sgc.solver import Coloring, chi_c, feasible_pq, verify_coloring


def sg(n, triples):
    return SignedGraph.from_triples(n, triples)


C4_NEG = sg(4, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 0, NEG)])
OPT = RationalColoring.from_coloring(Coloring(8, 3, (0, 3, 6, 1)))


@st.composite
def off_grid_colorings(draw):
    """A small signed graph with a coloring off any one solver grid.

    r may have an odd numerator, and colors have mixed denominators.  Each
    vertex sits at a random point, or one step (or one step past the
    antipode) clockwise of an earlier vertex, nudged off it at times; so
    tight steps, tight cycles and chains of refine moves with odd slack all
    come up.  Edges are kept where they hold, and a few where they do not.
    """
    n = draw(st.integers(1, 6))
    r = max(Fraction(draw(st.integers(4, 24)), draw(st.integers(1, 4))), Fraction(2))
    fracs = st.builds(Fraction, st.integers(0, 40), st.integers(1, 9))
    xs = []
    for v in range(n):
        if v and draw(st.booleans()):
            x = xs[draw(st.integers(0, v - 1))] + 1 + draw(st.sampled_from((0, r / 2)))
            if draw(st.booleans()):
                x += draw(fracs)
        else:
            x = draw(fracs)
        xs.append(x % r)
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        sign = NEG if u == v else draw(st.sampled_from((POS, NEG)))
        target = xs[v] if sign is POS else oracles.frac_antipode(xs[v], r)
        if oracles.frac_circ_dist(xs[u], target, r) >= 1 or draw(st.integers(0, 19)) == 0:
            edges.append((u, v, sign))
    return sg(n, edges), RationalColoring(r, tuple(xs))


def outcome(fn, *args):
    """fn's result, or the type and text of the ValueError or RuntimeError
    it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def expected_arcs(g, c):
    """Recompute the tight steps directly from the definition."""
    arcs = []
    for idx, e in enumerate(g.edges):
        pairs = [(e.u, e.u)] if e.is_loop else [(e.u, e.v), (e.v, e.u)]
        for u, w in pairs:
            target = c.colors[w] if e.sign is POS else oracles.frac_antipode(c.colors[w], c.r)
            if oracles.rational_point(target - c.colors[u], c.r) == 1:
                arcs.append((u, w, idx))
    return sorted(arcs)


class TestRationalColoring:
    @pytest.mark.parametrize("r, colors, message", [
        (Fraction(3), (Fraction(3),), r"vertex 0: point Fraction\(3, 1\) not in \[0, 3\)"),
        (Fraction(3), (Fraction(-1, 2),), r"vertex 0: point Fraction\(-1, 2\) not in"),
        (3, (Fraction(1),), "circumference must be a positive Fraction, got 3"),
        (Fraction(0), (), r"circumference must be a positive Fraction, got Fraction\(0, 1\)"),
        (Fraction(-3), (Fraction(1),), "circumference must be a positive Fraction"),
        (Fraction(3), (Fraction(0), 1), "vertex 1: point 1 not in"),
        (Fraction(3), (Fraction(0), 1.5), r"vertex 1: point 1\.5 not in"),
    ])
    def test_validation(self, r, colors, message):
        with pytest.raises(ValueError, match=message):
            RationalColoring(r, colors)

    def test_keeps_no_reference_to_the_callers_list(self):
        colors = [Fraction(0), Fraction(1)]
        rc = RationalColoring(Fraction(3), colors)
        colors.append(Fraction(7))
        assert rc.colors == (Fraction(0), Fraction(1))
        assert hash(rc) == hash(RationalColoring(Fraction(3), (Fraction(0), Fraction(1))))

    def test_grid_round_trip(self):
        c = Coloring(8, 3, (0, 3, 6, 1))
        rc = RationalColoring.from_coloring(c)
        assert rc.r == Fraction(8, 3)
        assert rc.colors == (0, 1, 2, Fraction(1, 3))
        assert rc.to_coloring(8, 3) == c
        # Any grid with the same circumference works when the points fit it.
        assert rc.to_coloring(16, 6) == Coloring(16, 6, (0, 6, 12, 2))

    @pytest.mark.parametrize("c, message", [
        (Coloring(4, 1, (True, 2, 0)), "color True of vertex 0 out of range for p=4"),
        (Coloring(4, 1, (0, 2.0)), r"color 2\.0 of vertex 1 out of range for p=4"),
        (Coloring(4, 1, (0, 4)), "color 4 of vertex 1 out of range for p=4"),
        (Coloring(5, 2, (0,)), "p must be an even integer >= 2, got 5"),
        (Coloring(4, True, (0,)), "p, q must be ints, got 4, True"),
    ])
    def test_from_coloring_checks_the_coloring(self, c, message):
        with pytest.raises(ValueError, match=message):
            RationalColoring.from_coloring(c)

    def test_to_coloring_errors(self):
        with pytest.raises(ValueError):
            OPT.to_coloring(4, 1)
        off_grid = RationalColoring(Fraction(4), (Fraction(1, 3),))
        with pytest.raises(ValueError):
            off_grid.to_coloring(4, 1)

    @pytest.mark.parametrize("p, q, message", [
        (4, True, "p, q must be ints, got 4, True"),
        (4.0, 1, r"p, q must be ints, got 4\.0, 1"),
    ])
    def test_to_coloring_checks_p_and_q(self, p, q, message):
        rc = RationalColoring(Fraction(4), (Fraction(0), Fraction(2)))
        with pytest.raises(ValueError, match=message):
            rc.to_coloring(p, q)


class TestVerifyRational:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_rational(C4_NEG, RationalColoring(Fraction(4), (Fraction(0),)))

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6, positive_loops=True), grids(8), st.data())
    def test_matches_integer_verifier(self, g, pq, data):
        p, q = pq
        colors = tuple(data.draw(st.integers(0, p - 1)) for _ in range(g.n))
        c = Coloring(p, q, colors)
        assert verify_rational(g, RationalColoring.from_coloring(c)) == verify_coloring(g, c)


class TestTightDigraph:
    def test_rejects_invalid_coloring(self):
        with pytest.raises(ValueError):
            tight_digraph(C4_NEG, RationalColoring.from_coloring(Coloring(8, 3, (0, 3, 6, 0))))

    def test_optimal_four_cycle_arcs(self):
        d = tight_digraph(C4_NEG, OPT)
        assert sorted(d.arcs) == [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 0, 3)]

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6), grids(8))
    def test_matches_definition_on_solver_output(self, g, pq):
        c = feasible_pq(g, *pq)
        if c is None:
            return
        rc = RationalColoring.from_coloring(c)
        assert sorted(tight_digraph(g, rc).arcs) == expected_arcs(g, rc)
        # refine's output holds points off the solver's 1/q grid.
        try:
            out = refine(g, rc)
        except ValueError:  # a tight cycle (NotRefinableError), or no edges
            return
        assert sorted(tight_digraph(g, out).arcs) == expected_arcs(g, out)


class TestFindTightCycle:
    @pytest.mark.parametrize("n, arcs", [
        (2, ((-1, 0, 0), (0, 1, 1))),  # -1 would be read as vertex 1
        (2, ((0, -2, 0),)),
        (2, ((0, 5, 0),)),
        (-1, ()),
    ])
    def test_endpoints_outside_the_vertices_are_rejected(self, n, arcs):
        with pytest.raises(ValueError):
            TightDigraph(n, arcs)

    @pytest.mark.parametrize("n, arcs", [
        (3, ((0.5, 1, 0),)),
        (3, ((0, 1.0, 0),)),
        (3, ((0, 1, 0.0),)),
        (3, ((True, 1, 0),)),
        (3, ((0, 1, False),)),
        (3, ((0, 1, "0"),)),
        (3, ((0, 1),)),
        (3, ((0, 1, 0, 0),)),
        (3, ([0, 1, 0],)),
        (True, ()),
        (2.0, ()),
        ("3", ()),
    ])
    def test_fields_that_are_not_ints_are_rejected(self, n, arcs):
        with pytest.raises(ValueError, match="int"):
            TightDigraph(n, arcs)

    def test_a_list_of_arcs_is_kept_as_a_tuple(self):
        # Like Coloring and RationalColoring: a caller's list is copied, so
        # appending to it later neither changes the digraph nor slips an
        # unchecked arc past the endpoint check, and the digraph hashes.
        arcs = [(0, 1, 0), (1, 0, 0)]
        d = TightDigraph(2, arcs)
        arcs.append((5, 9, "x"))
        assert d.arcs == ((0, 1, 0), (1, 0, 0))
        assert find_tight_cycle(d) == ((0, 1, 0), (1, 0, 0))
        assert d == TightDigraph(2, ((0, 1, 0), (1, 0, 0)))
        assert hash(d) == hash(TightDigraph(2, ((0, 1, 0), (1, 0, 0))))

    def test_empty(self):
        assert find_tight_cycle(TightDigraph(3, ())) is None

    def test_two_cycle(self):
        d = TightDigraph(2, ((0, 1, 0), (1, 0, 0)))
        assert find_tight_cycle(d) == ((0, 1, 0), (1, 0, 0))

    def test_path_has_no_cycle(self):
        assert find_tight_cycle(TightDigraph(3, ((0, 1, 0), (1, 2, 1), (0, 2, 2)))) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_same_cycle_as_the_chain_dfs(self, n, data):
        # Self-loops, parallel arcs (repeated edge indices too) and any order.
        vertex = st.integers(0, n - 1)
        arcs = data.draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 13)), max_size=14))
        d = TightDigraph(n, tuple(arcs))
        assert find_tight_cycle(d) == oracles.oracle_find_tight_cycle(d)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_agrees_with_kahn_peeling(self, n, data):
        arcs = tuple({(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)), i)
                      for i in range(data.draw(st.integers(0, 8)))})
        cycle = find_tight_cycle(TightDigraph(n, arcs))
        # Independent acyclicity check: repeatedly peel vertices with no
        # outgoing arc; everything peels iff there is no directed cycle.
        remaining = set(arcs)
        while True:
            has_out = {a[0] for a in remaining}
            drop = {a for a in remaining if a[1] not in has_out}
            if not drop:
                break
            remaining -= drop
        assert (cycle is not None) == bool(remaining)
        if cycle is not None:
            assert set(cycle) <= set(arcs)
            for i, arc in enumerate(cycle):
                assert arc[1] == cycle[(i + 1) % len(cycle)][0]


class TestCertValue:
    def test_optimal_four_cycle_certificate(self):
        cycle = find_tight_cycle(tight_digraph(C4_NEG, OPT))
        cert = cert_value(C4_NEG, OPT, cycle)
        assert (cert.s, cert.t, cert.a) == (3, 1, 1)
        assert cert.r == Fraction(8, 3)
        assert len(cert.cycle) == 4

    def test_corrupt_cycles_rejected(self):
        good = find_tight_cycle(tight_digraph(C4_NEG, OPT))
        with pytest.raises(CorruptCertificateError):
            cert_value(C4_NEG, OPT, ())
        with pytest.raises(CorruptCertificateError):
            cert_value(C4_NEG, OPT, good[:2])  # not closed
        with pytest.raises(CorruptCertificateError):
            cert_value(C4_NEG, OPT, ((0, 1, 3),))  # edge 3 does not join 0,1
        with pytest.raises(CorruptCertificateError):
            cert_value(C4_NEG, OPT, ((0, 1, 9),))  # no such edge
        with pytest.raises(CorruptCertificateError):
            cert_value(C4_NEG, OPT, ((1, 0, 0), (0, 1, 0)))  # slack direction

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("spoil", [float, bool, str], ids=["float", "bool", "str"])
    def test_arc_fields_that_are_not_ints_are_rejected(self, field, spoil):
        # Every field of the C4 cycle takes the values 0 and 1, so a bool
        # spoils an arc without changing what the field reads as.
        good = find_tight_cycle(tight_digraph(C4_NEG, OPT))
        i = next(i for i, arc in enumerate(good) if arc[field] in (0, 1))
        arc = list(good[i])
        arc[field] = spoil(arc[field])
        cycle = good[:i] + (tuple(arc),) + good[i + 1:]
        with pytest.raises(CorruptCertificateError, match=f"arc {i}: .* is not a triple of ints"):
            cert_value(C4_NEG, OPT, cycle)

    @pytest.mark.parametrize("arc", [(0, 1), (0, 1, 0, 0), [0, 1, 0], None],
                             ids=["pair", "quadruple", "list", "none"])
    def test_arcs_that_are_not_triples_are_rejected(self, arc):
        good = find_tight_cycle(tight_digraph(C4_NEG, OPT))
        with pytest.raises(CorruptCertificateError, match="arc 0: .* is not a triple of ints"):
            cert_value(C4_NEG, OPT, (arc,) + good[1:])

    def test_negative_a_is_accepted(self):
        # The tight cycle 0 -> 2 -> 4 -> 3 -> 1 -> 0 of this optimal witness
        # runs backwards around the circle: s = 0, t = 5 and a = -1 give
        # r = 2*5/(2*(-1) + 5) = 10/3.
        g = sg(5, [(0, 1, NEG), (0, 2, NEG), (0, 3, POS), (1, 2, POS),
                   (1, 3, NEG), (2, 4, NEG), (3, 4, NEG)])
        res = chi_c(g)
        assert res.value == Fraction(10, 3)
        rc = RationalColoring.from_coloring(res.witness)
        cert = cert_value(g, rc, find_tight_cycle(tight_digraph(g, rc)))
        assert (cert.s, cert.t, cert.a, cert.r) == (0, 5, -1, Fraction(10, 3))

    def test_requires_valid_coloring(self):
        bad = RationalColoring.from_coloring(Coloring(8, 3, (0, 3, 6, 0)))
        with pytest.raises(ValueError):
            cert_value(C4_NEG, bad, ((0, 1, 0),))

    @settings(max_examples=120, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6, min_m=1))
    def test_reproduces_chi_c_at_optimum(self, g):
        res = chi_c(g)
        if res.witness is None:
            return
        rc = RationalColoring.from_coloring(res.witness)
        cycle = find_tight_cycle(tight_digraph(g, rc))
        assert cycle is not None
        assert cert_value(g, rc, cycle).r == res.value


class TestRefine:
    def test_strictly_improves_loose_coloring(self):
        loose = RationalColoring.from_coloring(Coloring(12, 3, (0, 4, 8, 11)))
        out = refine(C4_NEG, loose)
        assert out.r < 4
        assert verify_rational(C4_NEG, out)

    def test_all_tight_but_acyclic_still_improves(self):
        # Every constraint is tight here, yet all tight steps point the same
        # way around, so no cycle exists and improvement is possible.
        flat = RationalColoring.from_coloring(Coloring(12, 3, (0, 3, 6, 9)))
        out = refine(C4_NEG, flat)
        assert out.r < 4

    def test_optimal_coloring_refuses(self):
        with pytest.raises(NotRefinableError):
            refine(C4_NEG, OPT)

    def test_tight_cycle_with_a_tight_tail_refuses(self):
        # 2 -> 3 is tight and 3 is the only sink, so peeling moves 3 first;
        # the triangle's tight cycle 0 -> 1 -> 2 -> 0 is left with no sink.
        g = sg(4, [(0, 1, POS), (1, 2, POS), (2, 0, POS), (2, 3, POS)])
        rc = RationalColoring(Fraction(3), tuple(map(Fraction, (0, 1, 2, 0))))
        assert tight_digraph(g, rc).arcs == ((0, 1, 0), (1, 2, 1), (2, 0, 2), (2, 3, 3))
        with pytest.raises(NotRefinableError, match="tight cycle present"):
            refine(g, rc)

    def test_invalid_coloring_rejected(self):
        with pytest.raises(ValueError):
            refine(C4_NEG, RationalColoring.from_coloring(Coloring(8, 3, (0, 3, 6, 0))))

    def test_unconstrained_graphs_rejected(self):
        with pytest.raises(ValueError):
            refine(sg(2, []), RationalColoring(Fraction(3), (Fraction(0), Fraction(1))))

    def test_negative_loop_only_shrinks_toward_two(self):
        g = sg(1, [(0, 0, NEG)])
        rc = RationalColoring(Fraction(8, 3), (Fraction(1),))
        out = refine(g, rc)
        assert 2 < out.r < Fraction(8, 3)
        assert verify_rational(g, out)

    @settings(max_examples=120, deadline=None)
    @given(signed_graphs(max_n=4, max_m=6, min_m=1))
    def test_scaled_optimum_strictly_decreases(self, g):
        res = chi_c(g)
        if res.witness is None:
            return
        w = res.witness
        # Doubling the grid but shaving one grid unit off the threshold makes
        # every constraint strictly slack at a slightly larger circumference.
        scaled = Coloring(2 * w.p, 2 * w.q - 1, tuple(2 * x for x in w.colors))
        assert verify_coloring(g, scaled)
        rc = RationalColoring.from_coloring(scaled)
        out = refine(g, rc)
        assert out.r < rc.r
        assert verify_rational(g, out)

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs(max_n=5, max_m=7, min_m=1), grids(10), st.data())
    def test_matches_rescanning_oracle(self, g, pq, data):
        # Random colorings, or the solver's when the draw breaks an edge:
        # both tight-cycle and acyclic (refinable) colorings come up.
        p, q = pq
        c = Coloring(p, q, tuple(data.draw(st.integers(0, p - 1)) for _ in range(g.n)))
        if not verify_coloring(g, c):
            c = feasible_pq(g, p, q)
            if c is None:
                return
        rc = RationalColoring.from_coloring(c)
        want = oracles.oracle_refine(g, rc.r, rc.colors)
        if want is None:
            with pytest.raises(NotRefinableError):
                refine(g, rc)
        else:
            out = refine(g, rc)
            assert (out.r, out.colors) == want


class TestIntegerGrid:
    """The integer-grid layer against its Fraction original and the
    rescanning refine oracle, on colorings off the solver's grids."""

    @settings(max_examples=400, deadline=None)
    @given(off_grid_colorings(), st.data())
    def test_matches_the_fraction_layer(self, gc, data):
        g, rc = gc
        ok = verify_rational(g, rc)
        assert ok == oracles.frac_verify_rational(g, rc)
        assert _edge_gaps(g, rc) == oracles.oracle_edge_gaps(g, rc)
        d = outcome(tight_digraph, g, rc)
        assert d == outcome(oracles.frac_tight_digraph, g, rc)
        cycle = find_tight_cycle(d) if ok else None
        if cycle:
            k = data.draw(st.integers(0, len(cycle) - 1))
            reverse = tuple((v, u, idx) for u, v, idx in reversed(cycle))
            for cyc in (cycle[k:] + cycle[:k], cycle + cycle, reverse, cycle[1:]):
                assert outcome(cert_value, g, rc, cyc) == outcome(oracles.frac_cert_value,
                                                                  g, rc, cyc)
        out = outcome(refine, g, rc)
        assert out == outcome(oracles.frac_refine, g, rc)
        if ok and g.edges:
            want = oracles.oracle_refine(g, rc.r, rc.colors)
            if want is None:
                assert out == (NotRefinableError, "tight cycle present")
            else:
                assert (out.r, out.colors) == want
