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

__all__ = ["EvenRational", "antipode", "candidates", "circ_dist", "normalize_even"]


def _is_int(x) -> bool:
    """Whether x is an int and not a bool (bool subclasses int, but True is
    no vertex, color or count)."""
    return isinstance(x, int) and not isinstance(x, bool)


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
        if not (_is_int(self.p) and _is_int(self.q)):
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

    # Only EvenRationals compare: against a Fraction or an int, Python
    # raises TypeError rather than mix the two orders.
    def __lt__(self, other: "EvenRational"):
        if not isinstance(other, EvenRational):
            return NotImplemented
        return self.value < other.value

    def __le__(self, other: "EvenRational"):
        if not isinstance(other, EvenRational):
            return NotImplemented
        return self.value <= other.value

    def __str__(self):
        return f"{self.p}/{self.q}"


def normalize_even(p: int, q: int) -> EvenRational:
    """Bring p/q >= 2 into even-numerator normal form.

    Reduce to lowest terms, then double numerator and denominator if the
    numerator came out odd.  Raises ValueError for values below 2 (no such
    graph has a coloring) or nonpositive input.
    """
    if not (_is_int(p) and _is_int(q)):
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


def _check_colors(p: int, *colors: int) -> None:
    """Raise ValueError unless p is an even int and each color an int in
    0..p-1, none of them a bool."""
    if not _is_int(p) or p % 2:
        raise ValueError(f"p must be even (an int, not a bool), got {p!r}")
    if not all(map(_is_int, colors)):
        raise ValueError(f"colors must be ints, got {', '.join(map(repr, colors))}")
    for x in colors:
        if not 0 <= x < p:
            raise ValueError(f"color {x} out of range for p={p}")


def circ_dist(i: int, j: int, p: int) -> int:
    """Distance on the integer color circle: min(|i-j|, p-|i-j|).

    p must be an even int and i, j ints in 0..p-1, none a bool; ValueError
    otherwise.
    """
    _check_colors(p, i, j)
    d = abs(i - j)
    return min(d, p - d)


def circle_gap(a, b, shift, r):
    """Clockwise gap from the point b + shift to a, in [0, r).

    a and b are colors on the circle of circumference r (ints on an integer
    grid, or Fractions); shift is 0 for a positive edge and r/2 for a
    negative one, whose constraint is measured against the antipode of b.
    Going the other way round, the gap is r minus this one (or 0).
    """
    return (a - b - shift) % r


def circle_edge_ok(a, b, shift, r, q=1) -> bool:
    """The one edge constraint, on the integer or the rational circle.

    The edge holds when a is at least q away from b + shift both ways round
    the circle of circumference r (q = 1 on the rational circle).
    """
    return q <= circle_gap(a, b, shift, r) <= r - q


def antipode(i: int, p: int) -> int:
    """The color opposite i on the even circle: i + p/2 mod p.

    p must be an even int and i an int in 0..p-1, neither a bool;
    ValueError otherwise.
    """
    _check_colors(p, i)
    return (i + p // 2) % p


def _as_fraction(x) -> Fraction:
    if isinstance(x, EvenRational):
        return x.value
    return Fraction(x)


def candidate_pairs(n: int, lo, hi) -> list[tuple[int, int]]:
    """The (p, q) of every EvenRational that candidates(n, lo, hi) returns,
    in the same ascending order, built as integer pairs only.

    The bounds cut each numerator's q range by integer cross-multiplication
    (lo <= p/q <= hi).  Distinct fractions with denominators <= n differ by
    at least 1/n^2, so floor(p * n^2 / q) is one exact key per value, and it
    orders them.  p ascends, so the first (p, q) seen at a key has the least
    even numerator: it is the value's even-numerator normal form.  No gcd
    and no Fraction is taken.  n must be an int, not a bool, that is at
    least 1; lo and hi each an int (not a bool), a Fraction or an
    EvenRational, since a float or a str has no exact value to cut by.
    """
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"need an int n >= 1, got {n!r}")
    for x in (lo, hi):
        if not (_is_int(x) or isinstance(x, (Fraction, EvenRational))):
            raise ValueError(f"need an int, Fraction or EvenRational bound, got {x!r}")
    lo_v, hi_v = _as_fraction(lo), _as_fraction(hi)
    if hi_v <= 0:
        return []
    lo_n, lo_d = lo_v.numerator, lo_v.denominator
    hi_n, hi_d = hi_v.numerator, hi_v.denominator
    scale = n * n
    first: dict[int, tuple[int, int]] = {}
    for p in range(2, 2 * n + 1, 2):
        q_min = -(-p * hi_d // hi_n)  # p/q <= hi  <=>  q >= p*hi_d/hi_n
        q_max = p // 2 if lo_n <= 0 else min(p // 2, p * lo_d // lo_n)
        ps = p * scale
        for q in range(max(q_min, 1), q_max + 1):
            key = ps // q
            if key not in first:
                first[key] = (p, q)
    return [first[key] for key in sorted(first)]


def candidates(n: int, lo, hi) -> list[EvenRational]:
    """All possible chi_c values in [lo, hi] of an n-vertex signed graph.

    Any signed graph on n vertices that has a cycle attains its chi_c at a
    rational p/q with even p <= 2n; this enumerates those, normalizes, and
    returns them deduplicated in ascending value order (candidate_pairs).
    lo/hi accept ints, Fractions, or EvenRationals; anything else raises
    ValueError.
    """
    return [EvenRational(p, q) for p, q in candidate_pairs(n, lo, hi)]
