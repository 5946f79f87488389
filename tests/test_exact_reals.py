import json
import math
import operator
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab import bounds_reduction, exact_reals
from heightlab.exact_reals import (
    MAX_DPS,
    ONE,
    POWER_BITS,
    CertificationError,
    FactoredReal,
    cmp_power_product,
    enclose,
)

from conftest import random_positive_fraction

F = Fraction
FR = FactoredReal


def test_from_rational_examples():
    assert FR.from_rational(12).factors == {2: F(2), 3: F(1)}
    assert FR.from_rational(1).factors == {}
    assert FR.from_rational(F(3, 4)).factors == {2: F(-2), 3: F(1)}


def test_from_rational_rejects_nonpositive():
    with pytest.raises(ValueError):
        FR.from_rational(0)
    with pytest.raises(ValueError):
        FR.from_rational(F(-3, 4))


def test_mul_pow_examples():
    assert FR({2: 1}) * FR({2: -1}) == ONE
    assert FR({2: 2}) ** F(1, 2) == FR({2: 1})
    assert FR({2: 1, 3: 1}) * FR({3: -1, 5: 1}) == FR({2: 1, 5: 1})


def test_cmp_examples():
    # 2^(1/2) vs 3^(1/3): sixth powers are 8 vs 9
    assert FR({2: F(1, 2)}).cmp(FR({3: F(1, 3)})) == -1
    assert ONE.cmp(ONE) == 0
    assert FR({2: -1}) < ONE


def test_canonical_equality():
    assert FR({2: F(0)}) == ONE
    assert FR({2: 1}) != FR({3: 1})
    assert hash(FR({2: 1})) == hash(FR.from_rational(2))


def test_prime_validation():
    with pytest.raises(ValueError):
        FR({4: 1})


def test_log10_examples():
    val, err = FR({2: 1}).log10(6)
    assert err <= F(1, 10**6)
    assert abs(val - F(30103, 100000)) < F(1, 10**4)
    assert ONE.log10(6) == (0, 0)
    # 1/10 = 2^-1 * 5^-1 has exact log10
    assert FR({2: -1, 5: -1}).log10(6) == (F(-1), F(0))


def test_log10_high_precision():
    val, err = FR({3: F(7, 3)}).log10(30)
    assert err <= F(1, 10**30)
    # below 1 the bound is relative: log10 2^(10^-30) = 3.0103e-31
    val, err = FR({2: F(1, 10**30)}).log10(12)
    assert err <= F(1, 10**12) * F(3, 10**31) and abs(val - F(30103, 10**35)) < F(1, 10**35)


_PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % d for d in range(2, p))]


def _oracle_log10(x: FR, dps: int):
    with mpmath.workdps(dps):
        return mpmath.fsum(mpmath.mpf(e.numerator) / e.denominator * mpmath.log10(p) for p, e in x.factors.items())


def _assert_log10_certified(x: FR, digits: int):
    """(approximation, error) encloses the oracle at three times the digits, and
    error <= 10^-digits min(1, |log10|), with |val| - error <= |log10|."""
    val, err = x.log10(digits)
    oracle = _oracle_log10(x, 3 * digits + 30)
    assert err <= F(1, 10**digits) * min(1, abs(val) - err)
    with mpmath.workdps(3 * digits + 30):
        mid, rad = mpmath.mpf(val.numerator) / val.denominator, mpmath.mpf(err.numerator) / err.denominator
        assert mid - rad <= oracle <= mid + rad


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_PRIMES_BELOW_100),
        st.builds(F, st.integers(-60, 60), st.integers(1, 30)).filter(bool),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 100),
)
def test_log10_encloses_the_mpmath_oracle(factors, digits):
    _assert_log10_certified(FR(factors), digits)


def _convergents_of_log2_3(count: int) -> list[tuple[int, int]]:
    """(a, b) with a/b the convergents of log 3 / log 2, so 2^a 3^-b is near 1."""
    with mpmath.workdps(200):
        theta = mpmath.log(3) / mpmath.log(2)
        out, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
        for _ in range(count):
            a = int(mpmath.floor(theta))
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            out.append((h1, k1))
            theta = 1 / (theta - a)
    return out


_CONVERGENTS = _convergents_of_log2_3(60)


def test_near_cancelling_log10_doubles_its_digits(monkeypatch):
    # a/b a convergent of log 3/log 2: 2^a 3^-b has |log10| below 1/b, far
    # below its terms, so the kernel's first sum misses the relative bound
    a, b = next((h, k) for h, k in _CONVERGENTS if k > 10**8)
    calls = []  # the bits of each sum: one division by ln 10 a sum
    real = exact_reals._atanh_sum

    def spy(terms, w):
        if terms == exact_reals._LN10:
            calls.append(w)
        return real(terms, w)

    def bits(dps):
        return dps * 10 // 3 + 5

    monkeypatch.setattr(exact_reals, "_atanh_sum", spy)
    x = FR({2: a, 3: -b})
    for digits in (1, 12, 40):
        calls.clear()
        _assert_log10_certified(x, digits)
        assert calls[:2] == [bits(digits + 15), bits(2 * (digits + 15))]
    # a value far from 0 takes one sum
    calls.clear()
    _assert_log10_certified(FR({2: 1, 3: F(-1, 7)}), 12)
    assert calls == [bits(27)]


def test_cmp_consistent_with_log10():
    rng = random.Random(1)
    for _ in range(300):
        a = FR.from_rational(random_positive_fraction(rng)) ** F(
            rng.randint(-3, 3), rng.randint(1, 4)
        )
        b = FR.from_rational(random_positive_fraction(rng)) ** F(
            rng.randint(-3, 3), rng.randint(1, 4)
        )
        va, ea = a.log10(15)
        vb, eb = b.log10(15)
        if va - ea > vb + eb:
            assert a > b
        elif va + ea < vb - eb:
            assert a < b
        else:
            assert a == b


def test_pow_distributes_over_mul():
    rng = random.Random(2)
    for _ in range(1000):
        a = FR.from_rational(random_positive_fraction(rng))
        b = FR.from_rational(random_positive_fraction(rng))
        e = F(rng.randint(-6, 6), rng.randint(1, 5))
        assert (a * b) ** e == a**e * b**e


def test_rational_round_trip():
    rng = random.Random(3)
    for _ in range(1000):
        q = random_positive_fraction(rng)
        assert FR.from_rational(q) * FR.from_rational(1 / q) == ONE


def test_to_fraction():
    assert FR.from_rational(F(9, 20)).to_fraction() == F(9, 20)
    with pytest.raises(ValueError):
        FR({2: F(1, 2)}).to_fraction()


def test_json_round_trip():
    x = FR({2: F(3, 2), 7: F(-1, 3)})
    blob = json.dumps(x.to_json())
    assert FR.from_json(json.loads(blob)) == x
    assert x.to_json() == [[2, 3, 2], [7, -1, 3]]


def test_total_order():
    rng = random.Random(4)
    vals = [FR.from_rational(random_positive_fraction(rng)) for _ in range(30)]
    s = sorted(vals)
    for a, b in zip(s, s[1:]):
        assert a <= b


# -- cmp_power_product ------------------------------------------------------

power_terms = st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(-8, 8)), max_size=4)


def _sign_of_fraction_product(terms):
    value = math.prod((F(a, b) ** k for a, b, k in terms), start=F(1))
    return (value > 1) - (value < 1)


@settings(max_examples=400, deadline=None)
@given(power_terms, st.integers(1, 6))
def test_cmp_power_product_matches_fraction_product(terms, scale):
    terms = [(a, b, k * scale) for a, b, k in terms]  # a common factor of the k, divided out
    assert cmp_power_product(terms) == _sign_of_fraction_product(terms)


@settings(max_examples=200, deadline=None)
@given(power_terms, st.integers(1, 5), st.randoms(use_true_random=False))
def test_cmp_power_product_equal_and_nearly_equal_products(terms, c, rnd):
    # the inverse of each (a/b)^k as the two terms (b/1)^k and (1/a)^k, times (c/1)^k
    # and (1/c)^k: the product is exactly 1 with no single term cancelling another
    inverse = [t for a, b, k in terms for t in ((b * c, 1, k), (1, a * c, k))]
    both = terms + inverse
    rnd.shuffle(both)
    assert cmp_power_product(both) == 0
    assert cmp_power_product(both + [(c + 1, c, 1)]) == 1
    assert cmp_power_product(both + [(c + 1, c, -1)]) == -1


@settings(max_examples=200, deadline=None)
@given(power_terms, st.integers(POWER_BITS, 10**400), st.randoms(use_true_random=False))
def test_cmp_power_product_repeated_base_pairs(terms, big, rnd):
    # each (a/b)^k as (a/b)^(k + big) times (a/b)^-big, written as (a, b, -big) or (b, a, big):
    # over the bit budget unless the terms on one base pair are merged first
    split = []
    for a, b, k in terms:
        split += [(a, b, k + big), rnd.choice([(a, b, -big), (b, a, big)])]
    rnd.shuffle(split)
    assert cmp_power_product(split) == _sign_of_fraction_product(terms)


def test_cmp_power_product_examples():
    assert cmp_power_product([]) == 0
    assert cmp_power_product([(1, 1, 5), (7, 7, -3), (2, 3, 0)]) == 0  # bases 1 and k = 0 are skipped
    assert cmp_power_product([(1, 2, 3)]) == -1
    assert cmp_power_product([(2, 1, -1)]) == -1
    assert cmp_power_product([(1, 2, -1)]) == 1
    # 2^(1/2) vs 3^(1/3): sixth powers are 8 vs 9
    assert cmp_power_product([(2, 1, 3), (3, 1, -2)]) == -1
    # the k share the factor POWER_BITS; without dividing it out this needs 3 * POWER_BITS bits
    assert cmp_power_product([(2, 1, 3 * POWER_BITS), (3, 1, -2 * POWER_BITS)]) == -1
    assert cmp_power_product([(2, 3, 4 * POWER_BITS), (3, 2, 4 * POWER_BITS)]) == 0


def test_cmp_power_product_budget():
    # coprime k, so that the gcd leaves them as they are; 2^POWER_BITS has POWER_BITS + 1 bits
    assert cmp_power_product([(2, 1, POWER_BITS), (3, 1, -1)]) == 1
    start = time.perf_counter()
    for terms in (
        [(2, 1, POWER_BITS + 1), (3, 1, -1)],
        [(3, 2, -(POWER_BITS // 2 + 1)), (5, 1, 1)],  # the 3^k on the right-hand side
        [(2, 1, 1), (3, 1, -(10**400))],
        [(10**40000, 1, 7), (3, 1, -1)],  # a large base
    ):
        with pytest.raises(CertificationError, match="more than"):
            cmp_power_product(terms)
    # FactoredReal.cmp goes through the same routine and budget
    with pytest.raises(CertificationError):
        FR({2: F(1, 10**400), 3: F(-1, 10**400 + 1)}).cmp(ONE)
    assert FR({2: F(1, 10**400)}).cmp(ONE) == 1  # a single exponent clears to 2^1
    assert cmp_power_product([(10**400, 10**400 + 1, 10**400 + 7)]) == -1  # so does a single term
    assert time.perf_counter() - start < 1


# -- enclose ----------------------------------------------------------------


def test_enclose_escalates_until_done():
    seen = []

    def build(iv):
        seen.append(iv.dps)
        return iv.log(2)

    lo, hi, one = enclose(build, lambda lo, hi, one: (hi - lo) * 10**100 < one, 30)
    assert F(69314718055994530941, 10**20) < F(lo, one) < F(hi, one) < F(69314718055994530942, 10**20)  # ln 2
    assert seen == [30, 60, 120]


def test_enclose_refines_past_infinite_endpoints():
    # 1 / (ln(x + 10^-40) - ln x) at 30 digits divides by an interval spanning 0,
    # which mpmath encloses as [-inf, inf]; no endpoint may be read as 0
    seen = []
    x = F(10**40 + 1, 10**40)

    def build(iv):
        seen.append(iv.dps)
        return 1 / (iv.log(iv.mpf(x.numerator)) - iv.log(iv.mpf(x.denominator)))

    lo, hi, one = enclose(build, lambda lo, hi, one: lo // one == hi // one, 30)
    assert seen[0] == 30 and len(seen) > 1
    assert lo // one == 10**40  # 1/ln(1 + u) = 1/u + 1/2 - u/12 + ...


def test_enclose_refuses_an_interval_that_stays_infinite():
    def build(iv):
        return 1 / iv.mpf([-1, 1])

    with pytest.raises(CertificationError, match=f"more than {MAX_DPS} digits"):
        enclose(build, lambda lo, hi, one: True, 30)


def test_enclose_refuses_an_endpoint_past_power_bits_at_once():
    seen = []

    def build(iv):  # 2**(10**19) is computed, but its endpoints would have some 10**19 bits
        seen.append(iv.dps)
        return iv.mpf([2, 3]) ** 10**19

    with pytest.raises(CertificationError, match=f"more than {POWER_BITS} bits"):
        enclose(build, lambda lo, hi, one: True, 30)
    assert seen == [30]


def test_enclose_refuses_past_max_dps():
    seen = []

    def build(iv):  # a width that never shrinks
        assert iv.dps <= MAX_DPS
        seen.append(iv.dps)
        return iv.mpf([0, 1])

    with pytest.raises(CertificationError, match=f"more than {MAX_DPS} digits"):
        enclose(build, lambda lo, hi, one: hi - lo < one, 30)
    assert seen[-1] <= MAX_DPS < 2 * seen[-1]


# -- the binary first stage of enclose ------------------------------------------


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _binary(args):
    (f, g), op = args
    return lambda iv: _OPS[op](f(iv), g(iv))


def _with_int(args):
    f, k, op, left = args  # an int on the left-hand side or on the right
    return (lambda iv: _OPS[op](k, f(iv))) if left else (lambda iv: _OPS[op](f(iv), k))


_positive = st.builds(F, st.integers(1, 10**30), st.integers(1, 10**30))
_leaves = st.one_of(
    st.integers(-(10**6), 10**6).map(lambda k: lambda iv: iv.mpf(k)),
    st.fractions(-(10**40), 10**40, max_denominator=10**40).map(lambda q: lambda iv: exact_reals.iv_fr(iv, q)),
    # logs of small, huge (past the cached integers and the exact size cap) and near-1 rationals
    _positive.map(lambda q: lambda iv: iv.log(exact_reals.iv_fr(iv, q))),
    st.integers(2, 10**6).map(lambda k: lambda iv: iv.log(k)),
    st.integers(70, 5000).map(lambda b: lambda iv: iv.log(iv.mpf(3**b + 1) / iv.mpf(2**b))),
    st.integers(5, 60).map(lambda d: lambda iv: iv.log(exact_reals.iv_fr(iv, 1 + F(1, 10**d)))),
    st.lists(st.integers(-(10**12), 10**12), min_size=2, max_size=2).map(lambda ab: lambda iv: iv.mpf(sorted(ab))),
)


def _extend(children):
    ops = st.sampled_from("+-*/")
    return st.one_of(
        st.tuples(st.tuples(children, children), ops).map(_binary),
        st.tuples(children, st.integers(-20, 20), ops, st.booleans()).map(_with_int),
        st.tuples(children, st.one_of(st.integers(-7, 7), st.sampled_from([10**6 + 1, -(10**6), 2 * 10**9]))).map(
            lambda fk: lambda iv: fk[0](iv) ** fk[1]
        ),
        children.map(lambda f: lambda iv: iv.log(f(iv))),  # nested logs
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_expressions, st.integers(5, 480))
def test_first_stage_encloses_the_mpmath_oracle(build, dps):
    """The binary intervals meet mpmath.iv's at three times the digits and
    100 more, whose width is far below one unit in their last place: so
    they enclose the value.  Whatever mpmath cannot bound there (an infinite
    interval, a log of a value <= 0) they leave unbounded; the 100 digits
    hold every leaf exactly enough for that, since the ln of an exact
    rational such as 1 + 10^-60 does not round its argument first."""
    stage = exact_reals._BinaryIV(dps)
    x = build(stage)
    iv = mpmath.iv
    old, iv.dps = iv.dps, 3 * dps + 100
    try:
        try:
            oracle = build(iv)
            bounded = mpmath.isfinite(oracle.a) and mpmath.isfinite(oracle.b)
        except (mpmath.libmp.ComplexResult, ZeroDivisionError):
            bounded = False
        if not bounded:
            assert x is stage.unbounded
            return
        if x is stage.unbounded:
            return  # looser than mpmath: enclose then doubles the digits
        if x.q is not None:
            mine = iv.mpf(x.q.numerator) / x.q.denominator
        else:
            mine = iv.mpf([x.lo, x.hi]) * iv.mpf(2) ** x.e  # exact: the mantissas fit, and 2**e is a binary exponent
        assert mine.a <= oracle.b and oracle.a <= mine.b
    finally:
        iv.dps = old


def test_first_stage_negates_without_rounding():
    # the cover's enclosure of ln(omega)/ln(3/2), whose true value is 12 + 1.9e-43,
    # must not lie below it (a negation that rounded to fewer digits once made the count 12)
    assert bounds_reduction.interval_cover(F(3, 2) ** 12 + F(1, 10**40), 1) == 13
    stage = exact_reals._BinaryIV(60)
    x, y = -stage.log(3), stage.log(3)
    assert (x.lo, x.hi, x.e) == (-y.hi, -y.lo, y.e)


def _ends(x) -> tuple[F, F]:
    lo, hi, one = exact_reals._endpoints(x)
    return F(lo, one), F(hi, one)


def test_first_stage_adds_terms_far_apart():
    # a term below the other's last unit widens that unit by one, on the side of its sign
    stage = exact_reals._BinaryIV(30)
    big = stage.log(3)
    for tiny in (F(1, 10**5000), -F(1, 10**5000), stage.log(1 + F(1, 10**3000))):
        lo, hi = _ends(big + tiny)
        (blo, bhi), (tlo, thi) = _ends(big), _ends(stage.mpf(tiny))
        assert lo <= blo + tlo and bhi + thi <= hi
        unit = F(1, 2 ** -(big.e))
        assert (lo, hi) == (blo - unit * (tlo < 0), bhi + unit * (thi > 0))
    # and the sum of 2**(10**6) and 1 keeps the larger's bits, with no shift by 10**6 bits
    huge = stage.mpf([2, 2]) ** 10**6
    s = huge + 1
    assert s.e == huge.e and (s.lo, s.hi) == (huge.lo, huge.hi + 1)
    # a zero, exact or [0, 0] 2**e, adds nothing: a small term keeps its own bits
    small = stage.log(2) * F(1, 10**60)
    for zero in (stage.mpf(0), stage.mpf(0) * stage.log(3), stage.log(1)):
        assert _ends(zero + small) == _ends(small) == _ends(small + zero)
    # terms on the same scale add exactly
    assert _ends(stage.mpf([1, 2]) + stage.mpf([F(1, 4), F(1, 2)])) == (F(5, 4), F(5, 2))


@pytest.mark.parametrize(
    "ends, k, expected",
    [
        ((-2, 3), 3, (-8, 27)),
        ((-3, 2), 3, (-27, 8)),
        ((-2, 3), 2, (0, 9)),
        ((-3, 2), 4, (0, 81)),
        ((-3, -2), 3, (-27, -8)),
        ((-3, -2), 2, (4, 9)),
        ((-3, 2), -1, None),  # 1 / an interval that holds 0
    ],
)
def test_first_stage_powers_of_mixed_sign_intervals(ends, k, expected):
    x = exact_reals._BinaryIV(30).mpf(list(ends)) ** k
    assert (x is x.ns.unbounded) if expected is None else _ends(x) == tuple(map(F, expected))


def test_first_stage_divides_mixed_signs():
    stage = exact_reals._BinaryIV(30)
    assert _ends(stage.mpf([-6, 3]) / stage.mpf([2, 3])) == (-3, F(3, 2))
    assert _ends(stage.mpf([-6, 3]) / stage.mpf([-3, -2])) == (F(-3, 2), 3)
    lo, hi = _ends(stage.mpf([2, 6]) / stage.mpf([-3, -1]))
    assert lo == -6 and F(-2, 3) < hi < F(-2, 3) + F(1, 2**100)
    assert stage.mpf([1, 2]) / stage.mpf([-1, 1]) is stage.unbounded
    lo, hi = _ends(stage.mpf([-1, 1]) / 3)  # 1/3 is rounded outward, on both sides
    assert lo == -hi and F(1, 3) < hi < F(1, 3) + F(1, 2**100)


def test_cover_near_one_settles_at_the_first_digits(monkeypatch):
    # ln(1 + 10^-4000) and ln(1 + 4 10^-4000) are one exact ln each at 30 digits
    seen = []

    class Counting(exact_reals._BinaryIV):
        def __init__(self, dps):
            seen.append(dps)
            super().__init__(dps)

    monkeypatch.setattr(exact_reals, "_BinaryIV", Counting)
    assert bounds_reduction.interval_cover(1 + F(1, 10**4000), F(2, 10**4000)) == 1
    # (1 + u)**4 > 1 + 4u > (1 + u)**3 at u = 10^-4000
    assert bounds_reduction.interval_cover(1 + F(4, 10**4000), F(2, 10**4000)) == 4
    assert seen == [30, 30]


# -- the integer ln ------------------------------------------------------------


def _ln_oracle(num: int, den: int, t: int, digits: int) -> tuple[F, F]:
    """(ln(num/den 2**t) from mpmath, a bound on its error), with 3 digits + 15
    significant digits left after any cancellation between its terms."""
    dps = 3 * digits + max(num, den).bit_length() // 3 + len(str(abs(t))) + 20
    with mpmath.workdps(dps):
        sign, man, exp, _ = (mpmath.log(num) - mpmath.log(den) + t * mpmath.log(2))._mpf_
    o = (-1) ** sign * F(man) * F(2) ** exp
    return o, abs(o) / 10 ** (3 * digits)


_ints = st.one_of(
    st.just(1),
    st.builds(lambda j, d: max(1, 2**j + d), st.integers(0, 13_000), st.sampled_from([-1, 0, 1])),
    st.integers(1, 2**13_000),
)
# endpoints m 2**e as _BinaryIV holds them: m of up to a few thousand bits, e of either sign and any size
_endpoints = st.tuples(
    st.one_of(st.integers(1, 2**7000), st.builds(lambda j: 2**j, st.integers(0, 7000))),
    st.one_of(st.integers(-20_000, 20_000), st.integers(-(10**20), 10**20)),
)
_near_one = st.builds(  # within 10^(3 - d) of 1, on either side
    lambda d, m: F(10**d + m, 10**d), st.integers(4, 1000), st.integers(-999, 999).filter(bool)
)
_rationals = st.one_of(_ints.map(F), _near_one, st.builds(F, _ints, _ints))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_rationals, _endpoints), st.integers(5, 2000))
def test_integer_ln_encloses_the_mpmath_oracle(x, digits):
    """The ln of an exact rational (_exact_ln) or of an endpoint m 2**e
    (_dyadic_ln) at bits = digits log2(10) + 5 meets mpmath's ln at three
    times the digits, with a width of at most eight units in the last of
    its bits."""
    bits = digits * 10 // 3 + 5
    if isinstance(x, F):
        num, den, t = x.numerator, x.denominator, 0
        lo, hi, e = exact_reals._exact_ln(x, bits)
    else:
        (num, t), den = x, 1
        lo, hi, e = exact_reals._dyadic_ln(num, t, bits)
    if x == 1 or den == 1 and t <= 0 and num.bit_length() == 1 - t and not num & (num - 1):  # x = 1, or m 2**e = 1
        assert lo == hi == 0
        return
    o, slack = _ln_oracle(num, den, t, digits)
    assert lo * F(2) ** e <= o + slack and o - slack <= hi * F(2) ** e
    ulp = F(2) ** (max(-lo, hi).bit_length() + e - bits)
    assert (hi - lo) * F(2) ** e <= 8 * ulp


@pytest.mark.parametrize("t", [1, 2, 7, 1000, 2**40])
def test_ln_of_a_power_of_two_carries_only_the_error_of_ln2(t):
    # ln 1 adds no error to t ln 2: at t = 1 the width is 3 units of 2**-bits, not 5
    bits = 70
    lo, hi, e = exact_reals._dyadic_ln(1, t, bits)
    assert e == -(bits + t.bit_length())
    _, err = exact_reals._atanh_sum(exact_reals._LN2, -e)
    assert hi - lo == 2 * t * err
    if t == 1:
        assert (hi - lo) * F(2) ** e == 3 * F(2) ** -bits
    with mpmath.workdps(60):
        value = t * mpmath.log(2) * 2 ** -e
        assert lo <= value <= hi


def test_integer_ln_constants(monkeypatch):
    # ln 2 and ln 10 from their atanh series, against mpmath at 700 digits:
    # computed at the widest bits asked for, and shifted for fewer
    monkeypatch.setattr(exact_reals, "_WIDEST", {})
    with mpmath.workdps(700):
        for terms, value in ((exact_reals._LN2, mpmath.log(2)), (exact_reals._LN10, mpmath.log(10))):
            for w in (20, 333, 1000, 999, 333, 20, 1100, 1200):
                total, err = exact_reals._atanh_sum(terms, w)
                assert abs(total - value * 2**w) <= err <= 16
            assert exact_reals._WIDEST[terms][0] == 1200 + 64


# -- the log10 kernel ------------------------------------------------------------


def _next_prime(n: int) -> int:
    while not exact_reals.is_prime(n):
        n += 1
    return n


_exponents = st.one_of(
    st.builds(F, st.integers(-60, 60), st.integers(1, 30)),
    st.builds(F, st.integers(-(10**50), 10**50), st.integers(1, 10**50)),  # huge values, and values near 1
).filter(bool)
_kernel_values = st.one_of(
    st.dictionaries(st.integers(2, 10**6).map(_next_prime), _exponents, min_size=1, max_size=6).map(FR),
    st.builds(  # near-cancelling: 2^a 3^-b at a convergent a/b, |log10| about 1/b^2
        lambda ab, sign: FR({2: sign * ab[0], 3: -sign * ab[1]}), st.sampled_from(_CONVERGENTS), st.sampled_from([-1, 1])
    ),
    st.integers(1, 10**9).map(lambda k: FR.from_rational(F(k + 1, k))),  # near 1
)


@settings(max_examples=300, deadline=None)
@given(_kernel_values, st.integers(5, 300))
def test_log10_kernel_encloses_the_mpmath_oracle(x, dps):
    """One sum of log10_enclosure at dps digits holds log10 x from mpmath at three
    times the digits, and is no wider than its proven bound: 2**-w times the
    sum of its term errors and ln 10's error over ln 10, plus a unit for each
    outward rounding, at w = dps log2(10) + 5 bits, where each ln p and ln 10
    carries at most 4 units."""
    lo, hi, one = exact_reals.log10_enclosure(x, lambda lo, hi, one: True, dps)
    lo, hi = F(lo, one), F(hi, one)
    scale = sum(abs(e) * math.log10(p) for p, e in x.factors.items())
    digits = 3 * dps + len(str(int(scale))) + 20
    with mpmath.workdps(digits):
        oracle = mpmath.fsum(mpmath.mpf(e.numerator) / e.denominator * mpmath.log10(p) for p, e in x.factors.items())
        slack = mpmath.mpf(scale + 1) * mpmath.mpf(10) ** (-3 * dps - 10)
        assert mpmath.mpf(lo.numerator) / lo.denominator <= oracle + slack
        assert oracle - slack <= mpmath.mpf(hi.numerator) / hi.denominator
    w = dps * 10 // 3 + 5
    term_errors = sum(4 * abs(e) + 2 for e in x.factors.values())
    assert (hi - lo) * 2**w <= 2 * (term_errors + 4 * max(abs(lo), abs(hi))) / F(23025, 10**4) + 2  # ln 10 > 2.3025


def test_log10_kernel_refuses_past_max_dps(monkeypatch):
    seen = []
    real = exact_reals._ln_prime

    def spy(p, q, w):
        seen.append(w)
        return real(p, q, w)

    monkeypatch.setattr(exact_reals, "_ln_prime", spy)
    with pytest.raises(CertificationError, match=f"more than {MAX_DPS} digits"):
        exact_reals.log10_enclosure(FR({2: 1}), lambda lo, hi, one: False, 30)
    assert seen == [dps * 10 // 3 + 5 for dps in (30, 60, 120, 240, 480, 960, 1920, 3840, 7680, 15360)]


# -- decimal_str ------------------------------------------------------------


def _nstr(q: F, sig: int) -> str:
    """decimal_str as it was: q as an mpmath number at sig + 10 digits, written by mpmath.nstr."""
    with mpmath.workdps(sig + 10):
        return mpmath.nstr(mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator), sig)


@st.composite
def _decimal_str_cases(draw):
    sig = draw(st.integers(1, 40))
    # decimal exponents on both sides of the fixed-point range (min(-(sig//3), -5), sig)
    e = draw(st.integers(min(-(sig // 3), -5) - 3, sig + 3))
    k = draw(st.integers(10 ** (sig - 1), 10**sig - 1))
    unit = F(10) ** (e - sig + 1)  # the last kept place: k units has exponent e
    kind = draw(st.sampled_from(["any", "half", "tie"]))
    if kind == "any":
        q = (k + draw(st.fractions(0, 1).filter(lambda f: abs(f - F(1, 2)) > F(1, 1000)))) * unit
    elif kind == "half":  # a hair from the half-way point, past the error of nstr's own digits
        q = (k + F(1, 2) + draw(st.sampled_from([-1, 1])) * F(1, 1000)) * unit
    else:  # k.5 units exactly
        q = (k + F(1, 2)) * unit
    sign = draw(st.sampled_from([-1, 1]))
    # an exact tie rounds away from zero, as a value a hair past it does; nstr
    # writes the tie itself from binary digits that may land on either side
    oracle = q + F(1, 1000) * unit if kind == "tie" else q
    return sign * q, sig, sign * oracle


@settings(max_examples=500, deadline=None)
@given(_decimal_str_cases())
def test_decimal_str_matches_mpmath_nstr(case):
    q, sig, oracle = case
    assert exact_reals.decimal_str(q.numerator, q.denominator, sig) == _nstr(oracle, sig)


def test_decimal_str_examples():
    ds = exact_reals.decimal_str
    assert ds(0, 1, 5) == ds(0, 7, 5) == "0.0"
    assert ds(1, 8, 2) == ds(2, 16, 2) == "0.13"  # a tie, away from zero
    assert ds(-1, 8, 2) == "-0.13"
    assert ds(12300, 1, 5) == ds(24600, 2, 5) == "12300.0"
    assert ds(12300, 1, 3) == "1.23e+4"
    assert ds(1, 10**7, 12) == "1.0e-7"
    assert ds(999996, 10**6, 5) == "1.0"
    assert ds(2, 3, 40) == "0." + "6" * 39 + "7"


def _rounded(q: F, sig: int, half_even: bool) -> F:
    """q != 0 rounded to sig significant digits, half-even or half away from
    zero, in exact rational arithmetic."""
    a = abs(q)
    e = len(str(a.numerator)) - len(str(a.denominator))
    if a < F(10) ** e:
        e -= 1
    unit = F(10) ** (e - sig + 1)  # a / unit lies in [10**(sig - 1), 10**sig)
    k = math.floor(a / unit)
    rest = a / unit - k
    if rest > F(1, 2) or rest == F(1, 2) and (not half_even or k % 2):
        k += 1
    return (1 if q > 0 else -1) * k * unit


@st.composite
def _printed_values(draw):
    """(q, k, sig): q a rational with sig digits and any rest, an exact half
    of the last kept digit, or no rest, and a factor k > 0 it is printed
    from as k q.numerator / k q.denominator."""
    sig = draw(st.integers(1, 100))
    e = draw(st.integers(-40, 140))
    m = draw(st.integers(10 ** (sig - 1), 10**sig - 1))
    kind = draw(st.sampled_from(["any", "tie", "exact"]))
    if kind == "any":
        m = m + draw(st.fractions(0, 1))
    elif kind == "tie":  # m.5 units in the last kept place
        m = m + F(1, 2)
    q = draw(st.sampled_from([-1, 1])) * m * F(10) ** (e - sig + 1)
    return q, draw(st.one_of(st.just(1), st.integers(2, 10**20))), sig


@settings(max_examples=500, deadline=None)
@given(_printed_values())
def test_printing_from_num_den_matches_the_fraction_route(case):
    """decimal_str and g_str of num/den, in lowest terms or not, print the
    rational rounded in exact arithmetic: half away from zero for
    decimal_str and half-even for g_str, exact halves included."""
    q, k, sig = case
    num, den = k * q.numerator, k * q.denominator
    for half_even, write in ((False, exact_reals.decimal_str), (True, exact_reals.g_str)):
        text = write(num, den, sig)
        assert F(text) == _rounded(q, sig, half_even)
        assert text == write(q.numerator, q.denominator, sig)
