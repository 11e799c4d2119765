"""Exact circular arithmetic and the candidate value ladder."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import frac_antipode, frac_circ_dist, rational_point
from sgc.arith import (EvenRational, antipode, candidate_pairs, candidates, circ_dist,
                       circle_edge_ok, circle_gap, normalize_even)


class TestEvenRational:
    def test_valid_forms(self):
        for p, q in ((2, 1), (4, 1), (6, 2), (8, 3), (10, 4), (14, 3)):
            er = EvenRational(p, q)
            assert er.value == Fraction(p, q)

    @pytest.mark.parametrize("p,q", [
        (3, 1),    # odd numerator
        (8, 4),    # gcd 4
        (12, 2),   # gcd 2 but p/2 even
        (2, 2),    # value 1 < 2
        (0, 1), (4, 0), (-4, 1), (4, -2),
    ])
    def test_invalid_forms(self, p, q):
        with pytest.raises(ValueError):
            EvenRational(p, q)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            EvenRational(4.0, 1)

    def test_order_and_display(self):
        assert EvenRational(8, 3) < EvenRational(6, 2) <= EvenRational(6, 2)
        assert str(EvenRational(8, 3)) == "8/3"

    @pytest.mark.parametrize("other", [Fraction(5), 5, Fraction(7, 2), 4.5])
    @pytest.mark.parametrize("compare", [
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b,
        lambda a, b: b < a, lambda a, b: b <= a], ids=["lt", "le", "gt", "ge", "rlt", "rle"])
    def test_compares_only_with_even_rationals(self, other, compare):
        with pytest.raises(TypeError):
            compare(EvenRational(4, 1), other)

    def test_sorting_is_by_value(self):
        ladder = [EvenRational(6, 2), EvenRational(14, 3), EvenRational(8, 3),
                  EvenRational(2, 1), EvenRational(10, 4)]
        assert sorted(ladder) == sorted(ladder, key=lambda x: x.value)
        assert [str(x) for x in sorted(ladder)] == ["2/1", "10/4", "8/3", "6/2", "14/3"]

    def test_equality_is_value_equality(self):
        # Normal form is unique per value, so dataclass equality suffices.
        assert EvenRational(6, 2) == EvenRational(6, 2)
        assert EvenRational(6, 2) != EvenRational(8, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 200))
    def test_normal_form_is_twice_half_in_lowest_terms(self, q, k):
        # An even p >= 2q is accepted iff p/(2q) in lowest terms keeps p/2
        # as its numerator.
        p = 2 * (q + k)
        if 2 * Fraction(p, 2 * q).numerator == p:
            assert EvenRational(p, q).value == Fraction(p, q)
        else:
            with pytest.raises(ValueError, match="not in normal form"):
                EvenRational(p, q)


class TestNormalizeEven:
    @pytest.mark.parametrize("p,q,ep,eq", [
        (3, 1, 6, 2),
        (10, 4, 10, 4),
        (8, 4, 2, 1),
        (28, 6, 14, 3),
        (4, 2, 2, 1),
        (16, 6, 8, 3),
        (9, 3, 6, 2),
    ])
    def test_frozen(self, p, q, ep, eq):
        assert normalize_even(p, q) == EvenRational(ep, eq)

    @pytest.mark.parametrize("p,q", [(3, 2), (0, 1), (4, -2), (1, 1)])
    def test_below_two_or_nonpositive(self, p, q):
        with pytest.raises(ValueError):
            normalize_even(p, q)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            normalize_even(Fraction(4), 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 120))
    def test_normal_form_invariants(self, q, extra):
        p = 2 * q + extra
        er = normalize_even(p, q)
        assert er.value == Fraction(p, q)
        assert er.p % 2 == 0
        g = gcd(er.p, er.q)
        assert g in (1, 2)
        if g == 2:
            assert (er.p // 2) % 2 == 1
        assert normalize_even(er.p, er.q) == er

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 400))
    def test_doubles_half_the_value_in_lowest_terms(self, q, extra):
        p = 2 * q + extra
        half = Fraction(p, 2 * q)
        er = normalize_even(p, q)
        assert (er.p, er.q) == (2 * half.numerator, half.denominator)


class TestIntegerCircle:
    def test_circ_dist(self):
        assert circ_dist(0, 3, 8) == 3
        assert circ_dist(0, 5, 8) == 3
        assert circ_dist(7, 0, 8) == 1
        assert circ_dist(4, 4, 8) == 0

    @pytest.mark.parametrize("i,j,p,message", [
        (0, 8, 8, "out of range"), (-1, 0, 8, "out of range"),
        (0, 1, 3, "p must be even"), (0, 0, 7, "p must be even"),
        (True, 0, 4, "colors must be ints"), (0, False, 4, "colors must be ints"),
        (1.0, 0, 4, "colors must be ints"), (0, Fraction(1), 4, "colors must be ints")])
    def test_circ_dist_range_check(self, i, j, p, message):
        with pytest.raises(ValueError, match=message):
            circ_dist(i, j, p)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 15).map(lambda half: 2 * half), st.data())
    def test_circ_dist_symmetric_and_bounded(self, p, data):
        i = data.draw(st.integers(0, p - 1))
        j = data.draw(st.integers(0, p - 1))
        d = circ_dist(i, j, p)
        assert d == circ_dist(j, i, p)
        assert 0 <= d <= p // 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 15), st.data())
    def test_antipode_involution_and_distance(self, half, data):
        p = 2 * half
        i = data.draw(st.integers(0, p - 1))
        assert antipode(antipode(i, p), p) == i
        assert circ_dist(i, antipode(i, p), p) == half

    def test_antipode_odd_p_rejected(self):
        with pytest.raises(ValueError):
            antipode(0, 7)

    def test_antipode_of_a_color_off_the_circle_rejected(self):
        with pytest.raises(ValueError, match="color 5 out of range for p=4"):
            antipode(5, 4)

    @pytest.mark.parametrize("i,p", [(True, 4), (False, 4), (1.5, 4), (1.0, 4), (1, 4.0),
                                     (1, True), (Fraction(1), 4), ("1", 4)])
    def test_antipode_takes_only_ints(self, i, p):
        # antipode(True, 4) was 3, antipode(1.5, 4) 3.5 and antipode(1, 4.0)
        # 3.0: the same colors and circles circ_dist refuses.
        with pytest.raises(ValueError):
            antipode(i, p)
        with pytest.raises(ValueError):
            circ_dist(i, 0, p)

    @pytest.mark.parametrize("p", [4.0, 8.0, True, Fraction(4), "4"])
    def test_circ_dist_takes_only_an_int_p(self, p):
        # circ_dist(1, 2, 4.0) used to return 1.
        with pytest.raises(ValueError, match="p must be even"):
            circ_dist(1, 2, p)
        with pytest.raises(ValueError, match="p must be even"):
            antipode(1, p)


class TestRationalCircle:
    def test_rational_point(self):
        assert rational_point(Fraction(7, 2), Fraction(3)) == Fraction(1, 2)
        assert rational_point(Fraction(-1, 3), Fraction(2)) == Fraction(5, 3)
        assert rational_point(Fraction(4), Fraction(2)) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=-50, max_value=50),
           st.fractions(min_value=Fraction(1, 4), max_value=20))
    def test_rational_point_canonical_range(self, x, r):
        y = rational_point(x, r)
        assert 0 <= y < r
        assert (x - y) % r == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_agreement_with_integer_circle(self, half, data):
        p = 2 * half
        i = data.draw(st.integers(0, p - 1))
        j = data.draw(st.integers(0, p - 1))
        r = Fraction(p)
        assert frac_circ_dist(Fraction(i), Fraction(j), r) == circ_dist(i, j, p)
        assert frac_antipode(Fraction(i), r) == antipode(i, p)

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=0, max_value=10),
           st.fractions(min_value=Fraction(1, 2), max_value=12))
    def test_antipode_involution(self, x, r):
        x = rational_point(x, r)
        assert frac_antipode(frac_antipode(x, r), r) == x
        assert frac_circ_dist(x, frac_antipode(x, r), r) == r / 2


class TestCircleEdge:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_agrees_with_distances_on_both_circles(self, half, data):
        p = 2 * half
        q = data.draw(st.integers(1, half))
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        assert circle_edge_ok(a, b, 0, p, q) == (circ_dist(a, b, p) >= q)
        assert circle_edge_ok(a, b, half, p, q) == (circ_dist(a, antipode(b, p), p) >= q)
        r = Fraction(p, q)
        x, y = Fraction(a, q), Fraction(b, q)
        assert circle_edge_ok(x, y, 0, r) == (frac_circ_dist(x, y, r) >= 1)
        assert circle_edge_ok(x, y, r / 2, r) == (frac_circ_dist(x, frac_antipode(y, r), r) >= 1)
        assert circle_gap(x, y, 0, r) == rational_point(x - y, r)
        assert circle_gap(x, y, r / 2, r) == rational_point(x - frac_antipode(y, r), r)


class TestCandidates:
    def test_frozen_small(self):
        assert [c.value for c in candidates(2, 2, 4)] == [2, 4]
        assert [c.value for c in candidates(3, 2, 6)] == [2, 3, 4, 6]

    def test_inclusive_bounds_and_types(self):
        assert candidates(4, Fraction(8, 3), Fraction(8, 3)) == [EvenRational(8, 3)]
        assert candidates(4, EvenRational(8, 3), 3) == [EvenRational(8, 3), EvenRational(6, 2)]

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            candidates(0, 2, 4)

    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2), "2"])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        # candidates(True, 2, 3) used to return [EvenRational(2, 1)].
        with pytest.raises(ValueError, match="int n"):
            candidates(n, 2, 3)

    @pytest.mark.parametrize("bound", [2.5, 6.0, True, "2", None])
    def test_rejects_a_bound_that_is_not_exact(self, bound):
        # candidate_pairs(3, 2.5, 6) used to return [(6, 2), (4, 1), (6, 1)],
        # and True, '2' and 6.0 were read as bounds.
        for lo, hi in ((bound, 6), (2, bound)):
            with pytest.raises(ValueError, match="bound"):
                candidate_pairs(3, lo, hi)
            with pytest.raises(ValueError, match="bound"):
                candidates(3, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.fractions(-1, 90, max_denominator=50),
           st.fractions(-1, 90, max_denominator=50))
    def test_matches_the_fraction_ladder_it_replaced(self, n, lo, hi):
        assert candidates(n, lo, hi) == oracles.oracle_candidate_ladder(n, lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5))
    def test_matches_denominator_scan(self, n):
        got = [c.value for c in candidates(n, 2, 2 * n)]
        assert got == oracles.oracle_candidates(n)
        assert got == sorted(set(got))
