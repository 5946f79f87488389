"""Places of Q, normalized absolute values, and vector norms/heights.

The normalizations satisfy the product formula prod_v |x|_v = 1 for
x != 0, which makes every height projectively invariant.  Points live in
Q^n; all values are exact (FactoredReal for products, Fraction for the
squared Euclidean data).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .exact_reals import FactoredReal, is_prime
from .rational_linalg import qvec

__all__ = [
    "Place",
    "INF",
    "abs_value",
    "valuation",
    "vec_norm",
    "height",
    "height_one",
    "height_two_squared",
    "primitive_scale",
    "parse_int",
]

_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(s) -> int:
    """The integer of an int or of a string of ASCII digits with an optional sign.

    ValueError for any other string: int() would also read surrounding
    spaces, underscores between digits and non-ASCII digits.  TypeError for
    any other type (a float or a bool would be truncated to an int).
    """
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise TypeError(f"expected an integer, got {s!r}")
    if isinstance(s, str) and not _INTEGER.fullmatch(s):
        raise ValueError(f"not an integer: {s!r}")
    return int(s)


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: the real absolute value or a p-adic one.

    `p` is None for the infinite place, a prime otherwise.  Ordering puts
    the infinite place first, then primes ascending (used for canonical
    JSON output).
    """

    sort_key: int
    p: int | None

    @staticmethod
    def infinite() -> "Place":
        return Place(0, None)

    @staticmethod
    def finite(p: int) -> "Place":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return Place(p, p)

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def label(self):
        return "inf" if self.p is None else self.p

    @staticmethod
    def parse(label) -> "Place":
        """The place of "inf" or None, or of a prime given as parse_int reads it."""
        if label == "inf" or label is None:
            return INF
        return Place.finite(parse_int(label))

    def __repr__(self):
        return "Place(inf)" if self.p is None else f"Place({self.p})"


INF = Place.infinite()


def abs_value(x, v: Place) -> FactoredReal | None:
    """Normalized absolute value |x|_v; None is the distinguished zero."""
    x = Fraction(x)
    if x == 0:
        return None
    if v.is_infinite:
        return FactoredReal.from_rational(abs(x))
    return FactoredReal.prime_power(v.p, -valuation(x, v.p))


def valuation(x: Fraction, p: int) -> int:
    """v_p(x), the exponent of p in a nonzero rational x."""
    n, d = x.numerator, x.denominator
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


def primitive_scale(x) -> tuple[int, ...]:
    """The primitive integer representative of the line through x.

    Clears denominators and divides by the gcd; the first nonzero
    coordinate is made positive.  Requires x != 0.
    """
    x = qvec(x)
    if all(c == 0 for c in x):
        raise ValueError("zero vector has no primitive representative")
    den = math.lcm(*(c.denominator for c in x))
    ints = [int(c * den) for c in x]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def vec_norm(x, v: Place, kind: str = "sup"):
    """|x|_v (sup), |x|_{v,1} or |x|_{v,2}^2 of a rational vector.

    For finite places all kinds coincide with the sup norm.  At the
    infinite place `one` is the exact sum of absolute values and
    `two_squared` the exact rational sum of squares (the square of the
    Euclidean norm).  Nonzero vectors give FactoredReal for sup/one;
    `two_squared` returns a Fraction (0 for the zero vector).
    """
    x = qvec(x)
    if kind not in ("sup", "one", "two_squared"):
        raise ValueError(f"unknown norm kind {kind!r}")
    if v.is_infinite and kind == "two_squared":
        return Fraction(sum(c * c for c in x))
    nonzero = [c for c in x if c != 0]
    if not nonzero:
        return Fraction(0) if kind == "two_squared" else None
    if v.is_infinite:
        if kind == "one":
            return FactoredReal.from_rational(sum(abs(c) for c in nonzero))
        return FactoredReal.from_rational(max(abs(c) for c in x))
    val = min(valuation(c, v.p) for c in nonzero)
    if kind == "two_squared":
        return Fraction(v.p) ** (-2 * val)
    return FactoredReal.prime_power(v.p, -val)


def height(x) -> FactoredReal:
    """H(x) = prod_v |x|_v, exact; only finitely many places contribute."""
    prim = primitive_scale(x)
    return FactoredReal.from_rational(max(abs(c) for c in prim))


def height_one(x) -> FactoredReal:
    """H_1(x), the product of the per-place 1-norms."""
    prim = primitive_scale(x)
    return FactoredReal.from_rational(sum(abs(c) for c in prim))


def height_two_squared(x) -> Fraction:
    """H_2(x)^2 as an exact rational (finite part is 1 after scaling)."""
    prim = primitive_scale(x)
    return Fraction(sum(c * c for c in prim))


def height_two(x) -> FactoredReal:
    """H_2(x) as a FactoredReal with exponent 1/2 where needed."""
    return FactoredReal.from_rational(height_two_squared(x)) ** Fraction(1, 2)
