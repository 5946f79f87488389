import random
from fractions import Fraction

import pytest

from heightlab.exact_reals import ONE, FactoredReal
from heightlab.places_heights import (
    INF,
    Place,
    abs_value,
    height,
    height_one,
    height_two,
    height_two_squared,
    primitive_scale,
    vec_norm,
)

from conftest import random_fraction, random_vector

F = Fraction
FR = FactoredReal


def _support_places(q: Fraction):
    out = {INF}
    for p in FR.from_rational(abs(q)).factors:
        out.add(Place.finite(p))
    return out


def test_abs_value_examples():
    assert abs_value(12, Place.finite(2)) == FR({2: -2})
    assert abs_value(12, INF) == FR({2: 2, 3: 1})
    assert abs_value(F(-5, 3), Place.finite(3)) == FR({3: 1})
    assert abs_value(0, INF) is None


def test_place_parse():
    assert Place.parse("inf") == INF
    assert Place.parse(7) == Place.finite(7)
    with pytest.raises(ValueError):
        Place.finite(6)


def test_product_formula():
    rng = random.Random(10)
    for _ in range(1000):
        q = random_fraction(rng, lo=-400, hi=400, max_den=60, nonzero=True)
        prod = ONE
        for v in _support_places(q):
            prod = prod * abs_value(q, v)
        assert prod == ONE


def test_vec_norm_examples():
    assert vec_norm((3, 4), INF, "sup") == FR.from_rational(4)
    assert vec_norm((3, 4), INF, "two_squared") == 25
    assert vec_norm((2, 4), Place.finite(2), "sup") == FR({2: -1})
    assert vec_norm((0, 0), INF, "two_squared") == 0
    assert vec_norm((0, 0), INF, "sup") is None


def test_finite_place_kinds_coincide():
    rng = random.Random(11)
    for _ in range(50):
        x = random_vector(rng, 3)
        v = Place.finite(rng.choice([2, 3, 5]))
        sup = vec_norm(x, v, "sup")
        assert vec_norm(x, v, "one") == sup
        assert vec_norm(x, v, "two_squared") == sup.to_fraction() ** 2


def test_height_examples():
    assert height((3, 4)) == FR.from_rational(4)
    assert height_two_squared((3, 4)) == 25
    assert height((1, 0, 0)) == ONE
    with pytest.raises(ValueError):
        height((0, 0))


def test_primitive_scale():
    assert primitive_scale((F(2, 3), F(-4, 3))) == (1, -2)
    assert primitive_scale((-3, -6)) == (1, 2)


def test_scale_invariance():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 5)
        x = random_vector(rng, n)
        alpha = random_fraction(rng, nonzero=True)
        ax = tuple(alpha * c for c in x)
        assert height(ax) == height(x)
        assert height_two_squared(ax) == height_two_squared(x)


def test_height_chain():
    # n^-1 H1 <= n^(-1/2) H2 <= H <= H2 <= H1, all exact comparisons
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(1, 5)
        x = random_vector(rng, n)
        h = height(x)
        h1 = height_one(x)
        h2 = height_two(x)
        nfr = FR.from_rational(n)
        assert nfr ** F(-1) * h1 <= nfr ** F(-1, 2) * h2
        assert nfr ** F(-1, 2) * h2 <= h
        assert h <= h2
        assert h2 <= h1


def test_cauchy_schwarz_all_places():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 4)
        x = random_vector(rng, n)
        y = random_vector(rng, n)
        dot = sum(a * b for a, b in zip(x, y))
        # infinite place, squared form
        assert dot * dot <= vec_norm(x, INF, "two_squared") * vec_norm(y, INF, "two_squared")
        if dot == 0:
            continue
        for p in (2, 3, 5, 7):
            v = Place.finite(p)
            lhs = abs_value(dot, v)
            rhs = vec_norm(x, v, "sup") * vec_norm(y, v, "sup")
            assert lhs <= rhs
