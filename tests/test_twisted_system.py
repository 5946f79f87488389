import json
import math
import random
from fractions import Fraction

import pytest

from heightlab.exact_reals import ONE, FactoredReal
from heightlab.exterior_algebra import Subspace
from heightlab.filtration import exceptional_subspace, weight
from heightlab.places_heights import INF, Place, abs_value
from heightlab.rational_linalg import det, mat_mul
from heightlab.suite import pair_e1, pair_e2, random_pair
from heightlab.twisted_system import (
    TwistedPair,
    compose,
    form_union,
    pair_from_json,
    pair_invariants,
    pair_to_json,
    shift_exponents,
    theta_of,
    twisted_height,
    validate,
)

from conftest import random_fraction, random_vector

F = Fraction
FR = FactoredReal


def _untwisted_reference(pair, x):
    """Direct product over active places + infinity of per-place maxima."""
    from heightlab.places_heights import primitive_scale

    prim = primitive_scale(x)
    places = set(pair.active) | {INF}
    total = ONE
    for v in places:
        pd = pair.place_data(v)
        best = None
        for form in pd.forms:
            val = sum(a * b for a, b in zip(form, prim))
            av = abs_value(val, v)
            if av is None:
                continue
            if best is None or av > best:
                best = av
        total = total * best
    return total


def test_validate_examples():
    rep = validate(pair_e1())
    assert rep.core_ok and rep.normalized_ok and rep.r == 2

    bad_norm = TwistedPair(2, {INF: (((F(1), F(0)), (F(0), F(1))), (F(1), F(1)))})
    rep = validate(bad_norm)
    assert rep.core_ok and not rep.normalized_ok

    dependent = TwistedPair(2, {INF: (((F(1), F(0)), (F(2), F(0))), (F(1), F(-1)))})
    rep = validate(dependent)
    assert not rep.core_ok and not rep.normalized_ok


def test_form_union_counts_a_repeated_form_once_and_its_multiple_apart():
    # L = X1 + X2 at inf and at 2, and 2L at 3: forms are not rescaled before dedup
    l, two_l = (1, 1), (2, 2)
    pair = TwistedPair(
        2,
        {
            INF: ((l, (1, -1)), (F(1, 2), F(-1, 2))),
            Place.finite(2): ((l, (0, 1)), (1, -1)),
            Place.finite(3): ((two_l, (1, 0)), (1, -1)),
        },
    )
    # the coordinate forms first, then each new form in place order
    assert form_union(pair) == [(1, 0), (0, 1), l, (1, -1), two_l]
    assert validate(pair).r == 5


def test_twisted_height_examples():
    e1 = pair_e1()
    assert twisted_height(e1, 100, (1, 0)) == FR({2: -2, 5: -2})
    assert twisted_height(e1, 100, (0, 1)) == FR({2: 2, 5: 2})


def test_twisted_height_q1_untwisted():
    rng = random.Random(30)
    for _ in range(50):
        pair = random_pair(rng, rng.randint(2, 3), places=rng.choice([1, 2]))
        x = random_vector(rng, pair.n)
        assert twisted_height(pair, 1, x) == _untwisted_reference(pair, x)


def test_twisted_height_zero_vector():
    with pytest.raises(ValueError):
        twisted_height(pair_e1(), 10, (0, 0))


def test_twisted_height_q_below_one():
    with pytest.raises(ValueError):
        twisted_height(pair_e1(), F(1, 2), (1, 0))


def test_projective_invariance():
    rng = random.Random(31)
    for _ in range(100):
        pair = random_pair(rng, rng.randint(2, 3))
        x = random_vector(rng, pair.n)
        alpha = random_fraction(rng, nonzero=True)
        q = F(rng.randint(1, 50))
        ax = tuple(alpha * c for c in x)
        assert twisted_height(pair, q, ax) == twisted_height(pair, q, x)


def test_default_place_neutrality():
    e1 = pair_e1()
    n = 2
    ident = tuple(tuple(F(i == j) for j in range(n)) for i in range(n))
    zeros = (F(0), F(0))
    padded = TwistedPair(2, dict(e1.active) | {Place.finite(7): (ident, zeros)})
    for q in (1, 5, 100):
        for x in ((1, 0), (3, 4), (-2, 5)):
            assert twisted_height(padded, q, x) == twisted_height(e1, q, x)
    assert weight(padded, Subspace.span(2, [(1, 0)])) == weight(e1, Subspace.span(2, [(1, 0)]))


def test_pair_invariants_examples():
    delta, h = pair_invariants(pair_e1())
    assert delta == ONE and h == ONE

    skew = TwistedPair(2, {INF: (((F(1), F(0)), (F(2), F(3))), (F(0), F(0)))})
    delta, h = pair_invariants(skew)
    # form union {X1, X2, 2X1+3X2}: dets 1, 3, -2; only infinity sees 3
    assert h == FR.from_rational(3)
    assert delta == FR.from_rational(3)


def test_invariants_sandwich_random():
    rng = random.Random(32)
    for _ in range(60):
        pair = random_pair(rng, rng.randint(2, 3), places=rng.choice([1, 2]))
        rep = validate(pair)
        delta, h = pair_invariants(pair)
        binom = math.comb(rep.r, pair.n)
        assert h ** (1 - binom) <= delta
        assert delta <= h


def test_universal_height_floor():
    rng = random.Random(33)
    for _ in range(40):
        pair = random_pair(rng, 2)
        rep = validate(pair)
        _, h = pair_invariants(pair)
        theta = theta_of(pair)
        binom = math.comb(rep.r, pair.n)
        for _ in range(5):
            x = random_vector(rng, 2)
            q = F(rng.randint(1, 30))
            bound = (
                FR.from_rational(F(1, pair.n))
                * h ** F(-binom)
                * FR.from_rational(q) ** (-theta)
            )
            assert twisted_height(pair, q, x) >= bound


def test_shift_exponents_examples():
    e1 = pair_e1()
    shifted = shift_exponents(e1, {INF: 1})
    assert shifted.place_data(INF).exps == (F(0), F(-2))
    assert shift_exponents(e1, {INF: 0}) == e1

    rng = random.Random(34)
    for _ in range(50):
        pair = random_pair(rng, 2)
        theta = {INF: random_fraction(rng), Place.finite(3): random_fraction(rng)}
        big_theta = sum(theta.values())
        moved = shift_exponents(pair, theta)
        x = random_vector(rng, 2)
        q = F(rng.randint(1, 20))
        qfr = FR.from_rational(q)
        assert twisted_height(moved, q, x) == qfr**big_theta * twisted_height(pair, q, x)
        # weights move by Theta * dim U
        u = Subspace.span(2, [random_vector(rng, 2)])
        assert weight(moved, u) == weight(pair, u) - big_theta * u.dim


def test_shift_preserves_exceptional_subspace():
    rng = random.Random(35)
    for _ in range(20):
        pair = random_pair(rng, rng.randint(2, 3))
        theta = {INF: random_fraction(rng)}
        assert exceptional_subspace(shift_exponents(pair, theta)) == exceptional_subspace(pair)


def _random_invertible(rng, n, coeff=3):
    while True:
        m = [[F(rng.randint(-coeff, coeff)) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def _preimage(phi, t: Subspace) -> Subspace:
    from heightlab.exterior_algebra import orth_complement

    ann = orth_complement(t)
    if ann.dim == 0:
        return Subspace.full(t.n)
    rows = mat_mul([list(r) for r in ann.rows], [list(r) for r in phi])
    return Subspace.kernel(t.n, rows)


def test_compose_identity_noop():
    e1 = pair_e1()
    ident = [[1, 0], [0, 1]]
    assert compose(e1, ident) == e1


def test_compose_swap_moves_exceptional_space():
    e1 = pair_e1()
    swapped = compose(e1, [[0, 1], [1, 0]])
    assert exceptional_subspace(swapped) == Subspace.span(2, [(0, 1)])


def test_compose_height_identity():
    rng = random.Random(36)
    for _ in range(100):
        n = rng.randint(2, 3)
        pair = random_pair(rng, n)
        phi = _random_invertible(rng, n)
        # occasionally make phi genuinely rational
        if rng.random() < 0.4:
            phi[0][0] += F(1, 2)
            if det(phi) == 0:
                phi[0][0] += F(1, 2)
        composed = compose(pair, phi)
        x = random_vector(rng, n)
        q = F(rng.randint(1, 30))
        phi_x = tuple(sum(F(a) * b for a, b in zip(row, x)) for row in phi)
        assert twisted_height(composed, q, x) == twisted_height(pair, q, phi_x)


def test_compose_delta_invariant():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(2, 3)
        pair = random_pair(rng, n)
        phi = _random_invertible(rng, n)
        d0, _ = pair_invariants(pair)
        d1, _ = pair_invariants(compose(pair, phi))
        assert d0 == d1


def test_compose_exceptional_subspace_pullback():
    rng = random.Random(38)
    for _ in range(25):
        n = rng.randint(2, 3)
        pair = random_pair(rng, n)
        phi = _random_invertible(rng, n)
        t = exceptional_subspace(pair)
        assert exceptional_subspace(compose(pair, phi)) == _preimage(phi, t)


def test_pair_json_round_trip():
    pairs = [pair_e1(), pair_e2()]
    rng = random.Random(39)
    pairs += [random_pair(rng, 3, places=2) for _ in range(10)]
    for pair in pairs:
        blob = json.dumps(pair_to_json(pair), sort_keys=True)
        again = pair_from_json(json.loads(blob))
        assert again == pair
        assert json.dumps(pair_to_json(again), sort_keys=True) == blob


def test_structural_validation():
    with pytest.raises(ValueError):
        TwistedPair(0, {})
    with pytest.raises(ValueError):
        TwistedPair(2, {INF: (((F(1), F(0)),), (F(0),))})
