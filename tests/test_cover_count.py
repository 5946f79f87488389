"""The cover count against the enclosure-only count it replaced.

_enclosure_count is bounds_reduction._cover_count as it was before rational
targets were first counted in exact integer powers.  On every rational
(base, target) pair the two give the same count, or the same refusal: the
same exception with the same message.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from heightlab.bounds_reduction import COVER_COUNT_CAP, _cover_count
from heightlab.exact_reals import POWER_BITS, enclose, iv_ln
from heightlab.twisted_system import ValidationError


def _enclosure_count(base: F, target: F) -> int:
    """Minimal s >= 1 with base**s >= target, read off an interval enclosure of ln(target)/ln(base)."""
    lo, hi, one = enclose(lambda iv: iv_ln(iv, target) / iv_ln(iv, base), lambda lo, hi, one: True, 30)
    s = max(1, -(-lo // one))
    top = -(-hi // one)
    if s <= COVER_COUNT_CAP and top > s:  # the enclosure holds an integer
        if top * base.numerator.bit_length() > POWER_BITS:
            raise ValidationError(f"the cover needs exact powers (1+delta/2)^k of more than {POWER_BITS} bits")
        while base**s < target:
            s += 1
    if s > COVER_COUNT_CAP:
        raise ValidationError(f"the cover needs more than {COVER_COUNT_CAP} intervals")
    return s


def _outcome(count, base, target):
    try:
        return count(base, target)
    except ValidationError as exc:
        return "refused", str(exc)


def _same(base, target):
    expected = _outcome(_enclosure_count, base, target)
    assert _outcome(_cover_count, base, target) == expected, (base, target)
    return expected


_DELTAS = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)).filter(lambda d: d <= 1)
_NEAR = st.sampled_from([0, 1, -1]).flatmap(lambda sign: st.builds(lambda k: F(sign, 10**k), st.integers(1, 60)))


@settings(max_examples=400, deadline=None)
@given(
    st.builds(F, st.integers(1, 10**9), st.integers(1, 10**9)),
    st.builds(F, st.integers(2, 10**12), st.integers(1, 10**6)),
)
@example(F(1, 2), F(9, 4))
@example(F(1, 10**4000), F(10**4000))
@example(F(1, 10**4), F(10**6))
@example(F(10**4000), F(3, 2))
def test_random_rationals(step, target):
    if target > 1:
        _same(1 + step, target)


@settings(max_examples=400, deadline=None)
@given(_DELTAS, st.integers(1, 400), _NEAR)
@example(F(1, 1000), COVER_COUNT_CAP, F(0))
@example(F(1, 1000), COVER_COUNT_CAP, F(1, 10**9))
@example(F(1, 1000), COVER_COUNT_CAP + 1, F(-1, 10**9))
@example(F(1), 1, F(0))
def test_exact_powers_and_their_neighbours(delta, k, near):
    base = 1 + delta / 2
    target = base**k + near
    if target > 1:
        _same(base, target)


@settings(max_examples=60, deadline=None)
@given(st.integers(40, 900), st.integers(0, 2**40), st.integers(-2, 1), _NEAR)
def test_powers_at_the_bit_budget(bits, odd, extra, near):
    """base**s and its neighbours with s * bits of base's numerator at POWER_BITS, give or take one power."""
    base = 1 + F(2 * odd + 1, 2**bits)
    s = POWER_BITS // base.numerator.bit_length() + extra
    _same(base, base**s + near)


@settings(max_examples=300, deadline=None)
@given(_DELTAS, st.builds(F, st.integers(1, 10**6), st.integers(1, 10**3)), st.integers(1, 80))
def test_s1_and_s2_targets(delta, excess, m):
    """Theorem 2.1's cover targets: delta r for C0 = n^r with r > 1/delta, and 1 + m/2 for n = 2^m."""
    base = 1 + delta / 2
    _same(base, delta * (1 / delta + excess))
    _same(base, 1 + F(m, 2))


def test_the_counts_of_s1_and_s2_on_rational_targets():
    # n = 2, delta = 1, R = 4, H_L = 512: C0 = 2^(9/4), and delta r = 9/4 = (3/2)^2 is a power of the base
    assert _cover_count(F(3, 2), F(9, 4)) == _enclosure_count(F(3, 2), F(9, 4)) == 2
    for m in (1, 7, 40):
        for delta in (F(1), F(2, 9), F(1, 7)):
            assert _cover_count(1 + delta / 2, 1 + F(m, 2)) == _enclosure_count(1 + delta / 2, 1 + F(m, 2))


def test_both_refusals():
    assert _same(1 + F(1, 2000), F(1000)) == ("refused", f"the cover needs more than {COVER_COUNT_CAP} intervals")
    # base**2 with 2^17 + 1 bits: the enclosure holds 2 and checks the budget of power 3
    base = 1 + F(1, 2**(2**17))
    message = f"the cover needs exact powers (1+delta/2)^k of more than {POWER_BITS} bits"
    assert _same(base, base**2) == ("refused", message)
