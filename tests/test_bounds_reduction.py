import copy
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightlab import bounds_reduction, exact_reals
from heightlab.bounds_reduction import (
    COVER_COUNT_CAP,
    THEOREMS,
    bound_constants,
    cover_list,
    internal_t0_consistency,
    interval_cover,
    reduce_system,
)
from heightlab.exact_reals import CertificationError, FactoredReal, enclose
from heightlab.infima_lab import SystemInstance
from heightlab.places_heights import INF, Place
from heightlab.twisted_system import ValidationError, validate

F = Fraction
FR = FactoredReal


def _mp_oracle(expr_fn, dps=60):
    """Second evaluation path: plain high-precision floats, no intervals."""
    with mpmath.workdps(dps):
        return expr_fn(mpmath.mp)


def test_m0_frozen_value():
    # n=2, R=2, delta=1: floor(10^5 * 2^4 * 2^10 * ln 6)
    rep = bound_constants("2.3", {"n": 2, "delta": 1, "R": 2, "H_L": 1})
    assert rep.constants["m0"]["value"] == "2935618714"
    oracle = _mp_oracle(lambda mp: mp.floor(mp.mpf(10) ** 5 * 16 * 1024 * mp.log(6)))
    assert int(oracle) == 2935618714


def test_omega_values():
    rep = bound_constants("2.3", {"n": 2, "delta": 1, "R": 2, "H_L": 1})
    omega0 = 10 ** float(rep.constants["omega0"]["log10"])
    assert abs(omega0 - math.log(6)) < 1e-9

    rep = bound_constants("1.2", {"n": 2, "delta": 1})
    omega = 10 ** float(rep.constants["omega"]["log10"])
    assert abs(omega - math.log(12)) < 1e-8
    assert abs(omega - 2.48490665) < 1e-7


def test_c0_examples():
    rep = bound_constants("2.3", {"n": 2, "delta": 1, "R": 2, "H_L": 1})
    assert rep.constants["C0"]["factored"] == [[2, 1, 1]]  # max(1, 2) = 2

    # large H_L flips the max to the other branch
    rep = bound_constants("2.3", {"n": 2, "delta": 1, "R": 2, "H_L": 25})
    assert FR.from_json(rep.constants["C0"]["factored"]) == FR.from_rational(5)


def test_t3_matches_oracle():
    rep = bound_constants("1.1", {"n": 3, "delta": F(1, 2)})
    oracle = _mp_oracle(
        lambda mp: mp.mpf(10) ** 6 * 2**6 * 3**10 * 8 * mp.log(36) ** 2
    )
    assert abs(float(rep.constants["t3"]["log10"]) - float(mpmath.log10(oracle))) < 1e-9


def test_all_theorems_evaluate():
    reports = {
        "1.1": bound_constants("1.1", {"n": 2, "delta": 1}),
        "1.2": bound_constants("1.2", {"n": 2, "delta": 1}),
        "1.3": bound_constants("1.3", {"n": 2, "eps": 1}),
        "2.1": bound_constants("2.1", {"n": 2, "delta": 1, "R": 2, "H_L": 1}),
        "2.2": bound_constants("2.2", {"n": 2, "delta": 1, "R": 2, "H_L": 5, "d": 1}),
        "2.3": bound_constants("2.3", {"n": 2, "delta": 1, "R": 2, "H_L": 1}),
        "3.1": bound_constants("3.1", {"n": 2, "eps": 1, "R": 2, "D": 1, "H_star": 5}),
        "3.1b": bound_constants("3.1b", {"n": 2, "eps": 1, "D": 1, "s": 1}),
        "3.2": bound_constants("3.2", {"n": 2, "eps": 1, "R": 2, "D": 1, "H_star": 5}),
        "8.1": bound_constants("8.1", {"n": 2, "delta": 1, "R": 2, "H_L": 1}),
    }
    for tid, rep in reports.items():
        assert rep.log_convention == "ln"
        assert rep.constants, tid


def test_two_precision_ladders_agree():
    # every constant reproduces to 10 significant digits at doubled precision
    cases = [
        ("2.3", {"n": 3, "delta": F(1, 3), "R": 5, "H_L": F(7, 2)}),
        ("2.1", {"n": 4, "delta": F(2, 3), "R": 6, "H_L": 11}),
        ("3.2", {"n": 3, "eps": F(1, 2), "R": 4, "D": 2, "H_star": 9}),
        ("8.1", {"n": 3, "delta": F(1, 2), "R": 4, "H_L": 3}),
    ]
    for tid, params in cases:
        lo = bound_constants(tid, params, precision=12)
        hi = bound_constants(tid, params, precision=24)
        for name, entry in lo.constants.items():
            other = hi.constants[name]
            if entry["value"] is not None:
                assert entry["value"] == other["value"]
            for key in ("log10", "loglog10"):
                if entry.get(key) is not None:
                    a, b = float(entry[key]), float(other[key])
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_thm_8_1_loglog():
    rep = bound_constants("8.1", {"n": 2, "delta": 1, "R": 2, "H_L": 1})
    m2 = int(rep.constants["m2"]["value"])
    oracle = _mp_oracle(
        lambda mp: mp.floor(61 * 2**6 * 2**4 * mp.log(22 * 4 * 4 * 2))
    )
    assert m2 == int(oracle)
    # omega2 = m2^(5/2) exactly
    assert FR.from_json(rep.constants["omega2"]["factored"]) == FR.from_rational(
        m2
    ) ** F(5, 2)
    loglog = float(rep.constants["C2"]["loglog10"])
    expected = _mp_oracle(
        lambda mp: 2 * m2 * mp.log10(m2) + mp.log10(mp.log10(2))
    )
    assert abs(loglog - float(expected)) < 1e-6 * abs(float(expected))


def test_parameter_validation():
    with pytest.raises(ValidationError):
        bound_constants("2.3", {"n": 1, "delta": 1, "R": 2, "H_L": 1})
    with pytest.raises(ValidationError):
        bound_constants("2.3", {"n": 2, "delta": 2, "R": 2, "H_L": 1})
    with pytest.raises(ValidationError):
        bound_constants("2.3", {"n": 2, "delta": 1, "R": 1, "H_L": 1})
    with pytest.raises(ValidationError):
        bound_constants("nope", {})
    with pytest.raises(ValidationError):
        bound_constants("2.3", {"n": 2, "delta": 1})  # missing R, H_L


@pytest.mark.parametrize(
    "thm, params",
    [
        ("3.1", {"n": 2, "eps": 1, "R": 1, "D": 1, "H_star": 1}),  # R < n
        ("3.2", {"n": 3, "eps": 1, "R": F(5, 2), "D": 1, "H_star": 1}),
        ("2.1", {"n": 2, "delta": 1, "R": 2, "H_L": F(3, 4)}),  # H_L < 1
        ("3.2", {"n": 2, "eps": 1, "R": 2, "D": 1, "H_star": 0}),
        ("2.2", {"n": 2, "delta": 1, "R": 2, "H_L": 1, "d": 0}),
        ("3.1b", {"n": 2, "eps": 1, "D": 1, "s": F(3, 2)}),  # not an integer
        ("1.1", {"n": F(5, 2), "delta": 1}),
        ("1.3", {"n": 2, "eps": "x"}),
    ],
)
def test_each_parameter_is_range_checked_before_evaluation(thm, params):
    with pytest.raises(ValidationError):
        bound_constants(thm, params)


def test_inputs_are_echoed_as_read():
    rep = bound_constants("2.2", {"n": "2", "delta": "1/2", "R": 3, "H_L": F(9, 2), "d": "2", "unused": "x"})
    assert rep.to_json()["inputs"] == {"n": "2", "delta": "1/2", "R": "3", "H_L": "9/2", "d": "2"}
    assert rep.inputs["n"] == 2 and isinstance(rep.inputs["n"], int)


def test_monotonicity_in_parameters():
    def m0(n, delta, R):
        rep = bound_constants("2.3", {"n": n, "delta": delta, "R": R, "H_L": 1})
        return int(rep.constants["m0"]["value"])

    assert m0(2, 1, 2) < m0(2, 1, 5) < m0(2, 1, 9)
    assert m0(2, 1, 2) < m0(2, F(1, 2), 2) < m0(2, F(1, 4), 2)
    assert m0(2, 1, 2) < m0(3, 1, 3) < m0(4, 1, 4)

    def t0(n, delta, R):
        rep = bound_constants("2.1", {"n": n, "delta": delta, "R": R, "H_L": 1})
        return float(rep.constants["t0"]["log10"])

    assert t0(2, 1, 2) < t0(2, 1, 7)
    assert t0(2, 1, 2) < t0(2, F(1, 3), 2)


def test_internal_t0_consistency_small_grid():
    for n in (2, 3):
        for r_extra in (0, 2):
            for delta in (F(1), F(1, 2)):
                assert internal_t0_consistency(n, n + r_extra, delta)


def test_reduction_constants_dominated_by_corollary():
    # the generic interval constants at the special-shape parameters stay
    # below the dedicated corollary constants
    for n in (2, 3, 4):
        for eps in (F(1), F(1, 2), F(1, 4)):
            delta = eps / (n + eps)
            m0 = int(
                bound_constants("2.3", {"n": n, "delta": delta, "R": 2 * n, "H_L": 1})
                .constants["m0"]["value"]
            )
            cor = bound_constants("1.3", {"n": n, "eps": eps})
            m_prime = int(cor.constants["m_prime"]["value"])
            assert m0 <= m_prime
            w0 = float(
                bound_constants("2.3", {"n": n, "delta": delta, "R": 2 * n, "H_L": 1})
                .constants["omega0"]["log10"]
            )
            w_prime = float(cor.constants["omega_prime"]["log10"])
            assert w0 <= w_prime


def test_interval_cover_examples():
    assert interval_cover(F(17918, 10000), 1) == 2
    assert interval_cover(F(101, 100), 1) == 1
    assert interval_cover(F(9, 4), 1) == 2  # boundary: (3/2)^2 = 9/4
    with pytest.raises(ValueError):
        interval_cover(1, 1)


def test_cover_list():
    ends = cover_list(100, 2, 1)
    assert ends == [2.0, 3.0, 4.5]
    # endpoints grow by factors (1+delta/2)
    ends = cover_list(10, F(17918, 10000), 1)
    assert len(ends) == 3


def _cover_by_multiplication(omega, delta):
    base = 1 + delta / 2
    s, power = 0, F(1)
    while power < omega:
        power *= base
        s += 1
    return s


@settings(max_examples=150, deadline=None)
@given(
    st.builds(F, st.integers(11, 10**4), st.integers(1, 10)),
    st.builds(F, st.integers(1, 3), st.integers(1, 100)).filter(lambda d: d <= 1),
    st.integers(-1, 1),
)
def test_interval_cover_matches_exact_multiplication(omega, delta, near):
    """Includes omega = (1+delta/2)^k exactly and a hair either side of it."""
    if near or omega.numerator % 2:
        k = omega.numerator % 300 + 1
        omega = (1 + delta / 2) ** k + near * F(1, 10**40)
    assume(omega > 1)
    s = _cover_by_multiplication(omega, delta)
    assume(s <= COVER_COUNT_CAP)
    assert interval_cover(omega, delta) == s
    base = 1 + delta / 2
    logq = math.log10(float(F(37, 3)))
    assert cover_list(F(37, 3), omega, delta) == [float(base**k) * logq for k in range(s + 1)]


def test_interval_cover_near_one_and_at_the_cap():
    tiny = F(1, 10**4000)
    assert interval_cover(1 + tiny, 2 * tiny) == 1
    assert interval_cover(1 + 2 * tiny, 2 * tiny) == 2
    base = 1 + F(1, 2000)
    assert interval_cover(base**COVER_COUNT_CAP, F(1, 1000)) == COVER_COUNT_CAP
    with pytest.raises(ValidationError):
        interval_cover(base**COVER_COUNT_CAP + F(1, 10**9), F(1, 1000))


_FLAGS = {"n": 3, "delta": F(1, 2), "eps": F(2, 3), "R": 5, "D": 2, "H_L": F(7, 2), "H_star": F(9, 4), "d": 2, "s": 2}


def _params(thm, **changes):
    names, _ = THEOREMS[thm]
    return {k: changes.get(k, _FLAGS[k]) for k in names}


@pytest.fixture
def memo():
    """The memo of bound_constants, empty at the start of the test."""
    bounds_reduction._frozen_constants.cache_clear()
    yield bounds_reduction._frozen_constants
    bounds_reduction._frozen_constants.cache_clear()


@pytest.fixture
def builder_calls(monkeypatch):
    """One count per enclose call of bounds_reduction: how often it evaluated its builder."""
    counts = []

    def spy(build, done, dps):
        counts.append(0)
        k = len(counts) - 1

        def counted(iv):
            counts[k] += 1
            return build(iv)

        return enclose(counted, done, dps)

    monkeypatch.setattr(bounds_reduction, "enclose", spy)
    return counts


@pytest.mark.parametrize("thm", sorted(THEOREMS))
def test_bounds_at_high_precision_evaluate_each_builder_once(thm, memo, builder_calls):
    # every decimal starts at --precision + 15 digits, which settle it at once
    bound_constants(thm, _params(thm), precision=40)
    assert builder_calls and set(builder_calls) == {1}


@pytest.mark.parametrize("thm", sorted(THEOREMS))
def test_a_repeated_bound_report_equals_a_fresh_one(thm, memo):
    bound_constants(thm, _params(thm))
    repeat = bound_constants(thm, _params(thm))
    assert memo.cache_info().hits == 1
    memo.cache_clear()
    fresh = bound_constants(thm, _params(thm))
    assert memo.cache_info().misses == 1
    assert repeat == fresh and repeat.to_json() == fresh.to_json()


def test_precisions_and_parameters_never_share_a_memo_entry(memo):
    reports = {}
    for r in (5, 6):
        for precision in (12, 24):
            reports[r, precision] = bound_constants("2.3", _params("2.3", R=r), precision=precision)
    assert memo.cache_info().misses == 4 and memo.cache_info().currsize == 4
    assert len({str(rep.to_json()) for rep in reports.values()}) == 4
    for (r, precision), rep in reports.items():
        memo.cache_clear()
        assert rep == bound_constants("2.3", _params("2.3", R=r), precision=precision)


def test_equal_parameters_spelled_differently_evaluate_once(memo, builder_calls):
    reports = [bound_constants("2.3", _params("2.3", delta=delta)) for delta in ("1/2", F(1, 2), "2/4")]
    evaluated = len(builder_calls)
    assert evaluated and set(builder_calls) == {1}
    assert reports[0] == reports[1] == reports[2]
    bound_constants("2.3", _params("2.3", delta="0.5"))
    assert len(builder_calls) == evaluated
    assert memo.cache_info().misses == 1 and memo.cache_info().hits == 3


def test_refused_and_uncertifiable_bounds_are_not_stored(memo):
    for _ in range(2):
        with pytest.raises(ValidationError):
            bound_constants("2.3", _params("2.3", delta=2))
    assert memo.cache_info().misses == 0
    # the floor bracket of m needs an endpoint of about 2^(2 10^9): refused, not built
    for _ in range(2):
        with pytest.raises(CertificationError):
            bound_constants("1.2", {"n": 10**9, "delta": 1})
    assert memo.cache_info().misses == 2 and memo.cache_info().currsize == 0


def test_mutating_a_bound_report_leaves_the_next_unchanged(memo):
    params = _params("2.3")
    first = bound_constants("2.3", params)
    expected = copy.deepcopy(first.to_json())
    first.constants["C0"]["factored"][0][0] = 99
    first.constants["C0"]["factored"].append([3, 1, 1])
    first.constants["m0"]["value"] = "0"
    del first.constants["omega0"]
    first.inputs["n"] = 7
    assert bound_constants("2.3", params).to_json() == expected


def test_mutating_to_json_leaves_the_report_unchanged(memo):
    rep = bound_constants("2.3", _params("2.3"))
    constants, expected = copy.deepcopy(rep.constants), copy.deepcopy(rep.to_json())
    data = rep.to_json()
    data["constants"]["C0"]["factored"][0][0] = 99
    data["constants"]["C0"]["factored"].append([3, 1, 1])
    data["constants"]["m0"]["value"] = "0"
    del data["constants"]["omega0"]
    data["inputs"]["n"] = "7"
    assert rep.constants == constants and rep.to_json() == expected


def test_a_float_precision_gets_one_outcome_in_either_order(memo):
    """12.0 never shares the decimal context (or the memo entry) of 12."""

    def at_12_0():
        try:
            return bound_constants("2.3", _params("2.3"), precision=12.0).to_json()
        except TypeError as exc:
            return repr(exc)

    outcomes = []
    for warm in (False, True):
        memo.cache_clear()
        exact_reals._context.cache_clear()
        if warm:
            bound_constants("2.3", _params("2.3"), precision=12)
        outcomes.append(at_12_0())
    assert outcomes[0] == outcomes[1]


def test_interval_cover_refuses_large_counts_quickly():
    start = time.perf_counter()
    for omega, delta in [(10**6, F(1, 10**4)), (2, F(1, 10**4000)), (10**4000, 1)]:
        with pytest.raises(ValidationError):
            interval_cover(omega, delta)
    assert time.perf_counter() - start < 1


def test_reduce_system_examples():
    ident = ((F(1), F(0)), (F(0), F(1)))
    sys_inst = SystemInstance(2, 1, {INF: (ident, (F(-3), F(0)))})
    pair, delta, qexp = reduce_system(sys_inst)
    assert pair.place_data(INF).exps == (F(-1), F(1))
    assert delta == F(1, 3)
    assert qexp == F(3, 2)
    assert validate(pair).normalized_ok

    # equal exponents at a place center to zero and the place disappears
    sys_inst = SystemInstance(2, 1, {INF: (ident, (F(-3, 2), F(-3, 2)))})
    pair, _, _ = reduce_system(sys_inst)
    assert pair.active == {}


def test_reduce_system_always_normalized():
    rng = random.Random(72)
    for _ in range(40):
        n = rng.randint(2, 4)
        eps = F(rng.randint(1, 4), 4)
        # random nonpositive exponents with total -n-eps
        total = -n - eps
        places = [INF] + ([Place.finite(2)] if rng.random() < 0.5 else [])
        cuts = sorted(rng.random() for _ in range(n * len(places) - 1))
        shares = []
        prev = 0.0
        for c in cuts + [1.0]:
            shares.append(c - prev)
            prev = c
        fracs = [F(int(s * 840), 840) for s in shares]
        fracs[-1] = 1 - sum(fracs[:-1])
        exps = [total * f for f in fracs]
        data = {}
        idx = 0
        ident = tuple(tuple(F(i == j) for j in range(n)) for i in range(n))
        for v in places:
            data[v] = (ident, tuple(exps[idx : idx + n]))
            idx += n
        sys_inst = SystemInstance(n, eps, data)
        pair, delta, qexp = reduce_system(sys_inst)
        assert validate(pair).normalized_ok
        assert delta == eps / (n + eps)
        assert qexp == 1 + eps / n
