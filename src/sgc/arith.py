"""Exact circular arithmetic and the candidate value ladder.

Circular colorings live either on the integer color circle {0, ..., p-1}
(p even) or on the rational circle of circumference r.  Both views are kept
exact: integers for the discrete circle, fractions.Fraction for the rational
one.  No floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# A point on the rational circle of circumference r is an exact nonnegative
# Fraction < r.  Helpers below (rational_point, frac_circ_dist, frac_antipode)
# keep values in that canonical range.
RationalPoint = Fraction


@dataclass(frozen=True)
class EvenRational:
    """A rational p/q >= 2 in even-numerator normal form.

    Normal form: p is even and cannot be halved to a smaller even-numerator
    representation.  Equivalently gcd(p, q) is 1, or it is 2 and p/2 is odd.
    Two EvenRationals are equal iff their values are equal, so dataclass
    equality on (p, q) is value equality.
    """

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError(f"p, q must be ints, got {self.p!r}/{self.q!r}")
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"not a positive rational: {self.p}/{self.q}")
        if self.p % 2:
            raise ValueError(f"numerator must be even: {self.p}/{self.q}")
        g = gcd(self.p, self.q)
        if g > 2 or (g == 2 and (self.p // 2) % 2 == 0):
            raise ValueError(f"not in normal form: {self.p}/{self.q}")
        if self.p < 2 * self.q:
            raise ValueError(f"value below 2: {self.p}/{self.q}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __lt__(self, other: "EvenRational"):
        return self.value < other.value

    def __le__(self, other: "EvenRational"):
        return self.value <= other.value

    def __str__(self):
        return f"{self.p}/{self.q}"


def normalize_even(p: int, q: int) -> EvenRational:
    """Bring p/q >= 2 into even-numerator normal form.

    Reduce to lowest terms, then double numerator and denominator if the
    numerator came out odd.  Raises ValueError for values below 2 (no such
    graph has a coloring) or nonpositive input.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise TypeError(f"p, q must be ints, got {p!r}/{q!r}")
    if p <= 0 or q <= 0:
        raise ValueError(f"not a positive rational: {p}/{q}")
    if p < 2 * q:
        raise ValueError(f"value below 2: {p}/{q}")
    g = gcd(p, q)
    p, q = p // g, q // g
    if p % 2:
        p, q = 2 * p, 2 * q
    return EvenRational(p, q)


def circ_dist(i: int, j: int, p: int) -> int:
    """Distance on the integer color circle: min(|i-j|, p-|i-j|)."""
    if not 0 <= i < p or not 0 <= j < p:
        raise ValueError(f"colors {i},{j} out of range for p={p}")
    d = abs(i - j)
    return min(d, p - d)


def circle_edge_ok(a, b, shift, r, q=1) -> bool:
    """The one edge constraint, on the integer or the rational circle.

    a and b are the endpoint colors on the circle of circumference r (ints
    on the (r, q) grid, or Fractions with q = 1); shift is 0 for a positive
    edge and r/2 for a negative one, whose constraint is measured against
    the antipode of b.  The edge holds when a is at least q away from
    b + shift both ways round the circle.
    """
    d = (a - b - shift) % r
    return q <= d <= r - q


def antipode(i: int, p: int) -> int:
    """The color opposite i on the even circle: i + p/2 mod p."""
    if p % 2:
        raise ValueError(f"p must be even, got {p}")
    if not 0 <= i < p:
        raise ValueError(f"color {i} out of range for p={p}")
    return (i + p // 2) % p


def rational_point(x: Fraction, r: Fraction) -> Fraction:
    """Reduce x modulo r into the canonical range [0, r)."""
    return x - (x / r).__floor__() * r


def frac_circ_dist(a: Fraction, b: Fraction, r: Fraction) -> Fraction:
    """Distance on the rational circle of circumference r."""
    d = rational_point(a - b, r)
    return min(d, r - d)


def frac_antipode(x: Fraction, r: Fraction) -> Fraction:
    """The point opposite x on the rational circle."""
    return rational_point(x + r / 2, r)


def _as_fraction(x) -> Fraction:
    if isinstance(x, EvenRational):
        return x.value
    return Fraction(x)


def candidates(n: int, lo, hi) -> list[EvenRational]:
    """All possible chi_c values in [lo, hi] of an n-vertex signed graph.

    Any signed graph on n vertices that has a cycle attains its chi_c at a
    rational p/q with even p <= 2n; this enumerates those, normalizes, and
    returns them deduplicated in ascending value order.  lo/hi accept ints,
    Fractions, or EvenRationals.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lo_v, hi_v = _as_fraction(lo), _as_fraction(hi)
    vals = set()
    for p in range(2, 2 * n + 1, 2):
        for q in range(1, p // 2 + 1):
            v = Fraction(p, q)
            if lo_v <= v <= hi_v:
                vals.add(v)
    return [normalize_even(v.numerator, v.denominator) for v in sorted(vals)]
