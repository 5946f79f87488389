"""Explicit theorem constants, interval covers, and the system reduction.

All closed-form constants are evaluated by exact_reals.enclose, with
outward-rounded interval arithmetic, on the interval helpers of
exact_reals (iv_fr, iv_ln, certified_floor); the log10 of an exact factored
entry comes from exact_reals.log10_enclosure.  Both give integer endpoints
(lo, hi, one), and every test on them here compares integers.  Floor
brackets are only taken once the enclosure pins the integer, and reported
decimals carry certified significant digits.  Each builder is written once
against mpmath.iv's interface and runs on enclose's binary intervals, at
digits that double until the enclosure decides.  A constant that needs more than
exact_reals.MAX_DPS digits raises CertificationError.  Every cover count
is one routine, _cover_count, on a rational target: the float count
accepted by two exact integer power comparisons or, when they refuse it,
one enclosure.  "log" in the formulas is the natural logarithm throughout
(recorded in every report).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_reals import (
    POWER_BITS, CertificationError, FactoredReal, certified_floor, decimal_str, enclose, iv_fr, iv_ln, log10_enclosure,
    log10_rational,
)
from .places_heights import height
from .twisted_system import PlaceData, TwistedPair, ValidationError, delta_l, parse_frac, twisted_height, validate

__all__ = [
    "CertificationError",
    "BoundReport",
    "bound_constants",
    "THEOREMS",
    "interval_cover",
    "cover_list",
    "reduce_system",
    "reduction_inequality_holds",
    "internal_t0_consistency",
]


# Most intervals a cover may have.
COVER_COUNT_CAP = 10_000

# Most (theorem, parameters, precision) evaluations a process keeps the constants of.
BOUND_MEMO_SIZE = 256


# -- interval plumbing ------------------------------------------------------


def _certified_decimal(evaluate, target, sig: int) -> str:
    """Decimal string of a positive-width target with sig certified digits,
    from sig + 15 digits (at least 30), as report log10s start: enclose of
    a builder, or log10_enclosure of a FactoredReal."""
    inv_rel = 10 ** (sig + 2)

    def done(lo, hi, one):  # a relative width of at most 10**-(sig + 2), or lo = hi = 0
        return (hi - lo) * inv_rel <= max(abs(lo), abs(hi))

    lo, hi, one = evaluate(target, done, max(30, sig + 15))
    if lo == hi == 0:
        return "0"
    return decimal_str(lo + hi, 2 * one, sig)


# -- the constant calculator -------------------------------------------------


@dataclass
class BoundReport:
    """Constants of one theorem, with a representation tier per entry."""

    theorem: str
    inputs: dict
    constants: dict
    log_convention: str = "ln"

    def to_json(self) -> dict:
        """The report as JSON data, in dicts and lists of its own."""
        return {
            "theorem": self.theorem,
            "log_convention": self.log_convention,
            "inputs": {k: _text(v) for k, v in self.inputs.items()},
            "constants": {name: _thaw_entry(entry) for name, entry in self.constants.items()},
        }


def _as_height(x) -> FactoredReal:
    if isinstance(x, FactoredReal):
        return x
    return FactoredReal.from_rational(Fraction(x))


def _text(x) -> str:
    """str(x) of an int or Fraction; CertificationError when it has more digits than Python writes out."""
    try:
        return str(x)
    except ValueError:
        raise CertificationError("a number of the report has too many digits to print") from None


def _entry_int(m: int) -> dict:
    return {"tier": "exact", "value": _text(m), "log10": None, "loglog10": None}


def _entry_factored(x: FactoredReal, sig: int) -> dict:
    factored = x.to_json()
    for _, num, den in factored:  # the report prints these integers
        _text(num)
        _text(den)
    log10 = _certified_decimal(log10_enclosure, x, sig) if not x.is_one() else "0"
    return {"tier": "exact", "value": None, "factored": factored, "log10": log10, "loglog10": None}


def _entry_real(build, sig: int) -> dict:
    log10 = _certified_decimal(enclose, lambda iv: iv.log(build(iv)) / iv.log(10), sig)
    return {"tier": "log10", "value": None, "log10": log10, "loglog10": None}


def _entry_loglog(build_log10log10, sig: int) -> dict:
    s = _certified_decimal(enclose, build_log10log10, sig)
    return {"tier": "loglog10", "value": None, "log10": None, "loglog10": s}


# Every parameter of a theorem: (integer?, range test on the value and the
# parameters read before it, the range in words).  n comes first in every
# theorem, so the test of R can see it.
_PARAMS = {
    "n": (True, lambda x, read: x >= 2, "an integer >= 2"),
    "delta": (False, lambda x, read: 0 < x <= 1, "in (0, 1]"),
    "eps": (False, lambda x, read: 0 < x <= 1, "in (0, 1]"),
    "R": (False, lambda x, read: x >= read["n"], ">= n (R bounds the number r >= n of distinct forms)"),
    "D": (False, lambda x, read: x >= 1, ">= 1"),
    "d": (True, lambda x, read: x >= 1, "an integer >= 1"),
    "s": (True, lambda x, read: x >= 1, "an integer >= 1"),
    "H_L": (False, lambda x, read: x >= 1, ">= 1"),
    "H_star": (False, lambda x, read: x >= 1, ">= 1"),
}


def _read_params(names, params) -> dict:
    """The named parameters of params, parsed and range-checked; ValidationError otherwise.

    A value is an int, a Fraction or a string parse_frac reads.
    """
    missing = [k for k in names if params.get(k) is None]
    if missing:
        raise ValidationError(f"missing parameters: {', '.join(missing)}")
    read = {}
    for name in names:
        integer, ok, need = _PARAMS[name]
        raw = params[name]
        try:
            x = parse_frac(raw)
        except (ValueError, TypeError, ZeroDivisionError):
            raise ValidationError(f"{name} must be a rational, got {raw!r}") from None
        value = x.numerator if x.denominator == 1 else x  # an integer is range-checked as an int
        if (integer and x.denominator != 1) or not ok(value, read):
            raise ValidationError(f"{name} must be {need}")
        read[name] = value if integer else x
    return read


def bound_constants(theorem: str, params: dict, precision: int = 12) -> BoundReport:
    """Evaluate every named constant of the given theorem.

    Recognized ids: the keys of THEOREMS.  The theorem's parameters are
    read from params by _read_params, checked against their _PARAMS ranges
    and echoed in the report's inputs.

    A process evaluates each (theorem, validated parameters, precision)
    once and keeps the finished constants, for the last BOUND_MEMO_SIZE of
    them, so equal values spelled differently ("1/2", "2/4", Fraction(1, 2))
    share one evaluation.  A refusal (ValidationError) or a CertificationError
    is not kept and is raised again on every request.  Each report gets
    constants of its own, equal to those of a fresh evaluation.
    """
    theorem = str(theorem)
    if theorem not in THEOREMS:
        raise ValidationError(f"unknown theorem id {theorem!r}")
    inputs = _read_params(THEOREMS[theorem][0], params)
    frozen = _frozen_constants(theorem, tuple(inputs.items()), precision)
    return BoundReport(theorem, inputs, {name: _thaw_entry(entry) for name, entry in frozen})


# typed: a precision of another type (12.0, True) gets an entry of its own, evaluated as given
@functools.lru_cache(maxsize=BOUND_MEMO_SIZE, typed=True)
def _frozen_constants(theorem: str, inputs: tuple, precision: int) -> tuple:
    """The constants of one evaluation as (name, entry items) pairs, with tuples for lists."""
    constants = THEOREMS[theorem][1](precision, **dict(inputs))
    return tuple(
        (name, tuple((k, tuple(map(tuple, v)) if k == "factored" else v) for k, v in entry.items()))
        for name, entry in constants.items()
    )


def _thaw_entry(items) -> dict:
    """A fresh entry dict of an entry or its (key, value) items, a fresh list for each factor of "factored"."""
    entry = dict(items)
    if "factored" in entry:
        entry["factored"] = [list(t) for t in entry["factored"]]
    return entry


def _two_pow_2n(iv, n):
    return iv.mpf(2) ** (2 * n)


def _thm_1_1(sig, n, delta):
    def t3(iv):
        core = iv.mpf(10) ** 6 * _two_pow_2n(iv, n) * iv.mpf(n) ** 10
        core = core * iv_fr(iv, delta) ** -3
        return core * iv.log(iv_fr(iv, Fraction(6 * n) / delta)) ** 2

    return {"t3": _entry_real(t3, sig), "Q0": _entry_factored(FactoredReal.from_rational(n) ** (1 / delta), sig)}


def _thm_1_2(sig, n, delta):
    def m_val(iv):
        core = iv.mpf(10) ** 5 * _two_pow_2n(iv, n) * iv.mpf(n) ** 10
        core = core * iv_fr(iv, delta) ** -2
        return core * iv.log(iv_fr(iv, Fraction(6 * n) / delta))

    def omega(iv):
        return iv_fr(iv, 1 / delta) * iv.log(6 * n)

    return {
        "m": _entry_int(certified_floor(m_val)),
        "omega": _entry_real(omega, sig),
        "Q0": _entry_factored(FactoredReal.from_rational(n) ** (1 / delta), sig),
    }


def _cor_1_3(sig, n, eps):
    def m_val(iv):
        core = iv.mpf(10) ** 6 * _two_pow_2n(iv, n) * iv.mpf(n) ** 12
        core = core * iv_fr(iv, eps) ** -2
        return core * iv.log(iv_fr(iv, Fraction(6 * n) / eps))

    def omega(iv):
        return iv_fr(iv, 2 * n / eps) * iv.log(6 * n)

    return {
        "m_prime": _entry_int(certified_floor(m_val)),
        "omega_prime": _entry_real(omega, sig),
        "H0": _entry_factored(FactoredReal.from_rational(n) ** (Fraction(n) / eps), sig),
    }


def _c0_of(n, delta, R, h_l) -> FactoredReal:
    a = _as_height(h_l) ** (1 / Fraction(R))
    b = FactoredReal.from_rational(n) ** (1 / delta)
    return a if a > b else b


def _t0(iv, n, delta, R):
    """t0 of theorem 2.1."""
    core = iv.mpf(10) ** 6 * _two_pow_2n(iv, n) * iv.mpf(n) ** 10
    core = core * iv_fr(iv, delta) ** -3
    core = core * iv.log(iv_fr(iv, 3 * R / delta))
    return core * iv.log(_omega0(iv, delta, R))


def _omega0(iv, delta, R):
    """omega0 of theorem 2.3."""
    return iv_fr(iv, 1 / delta) * iv.log(iv_fr(iv, 3 * R))


def _thm_2_1(sig, n, delta, R, H_L):
    return {
        "t0": _entry_real(lambda iv: _t0(iv, n, delta, R), sig),
        "C0": _entry_factored(_c0_of(n, delta, R, H_L), sig),
    }


def _thm_2_2(sig, n, delta, R, H_L, d):
    h_l = _as_height(H_L)

    def t1(iv):
        big = iv.mpf(90 * n) ** (n * d)
        inner = iv.log(3) + iv_ln(iv, h_l) / iv_fr(iv, R)
        return iv_fr(iv, 1 / delta) * (big + 3 * iv.log(inner))

    return {"t1": _entry_real(t1, sig), "C0": _entry_factored(_c0_of(n, delta, R, h_l), sig)}


def _thm_2_3(sig, n, delta, R, H_L):
    def m0(iv):
        core = iv.mpf(10) ** 5 * _two_pow_2n(iv, n) * iv.mpf(n) ** 10
        core = core * iv_fr(iv, delta) ** -2
        return core * iv.log(iv_fr(iv, 3 * R / delta))

    return {
        "m0": _entry_int(certified_floor(m0)),
        "omega0": _entry_real(lambda iv: _omega0(iv, delta, R), sig),
        "C0": _entry_factored(_c0_of(n, delta, R, H_L), sig),
    }


def _c1_of(n, eps, R, D, h_star) -> FactoredReal:
    a = _as_height(h_star) ** (1 / (3 * Fraction(R) * Fraction(D)))
    b = FactoredReal.from_rational(n) ** (Fraction(n) / eps)
    return a if a > b else b


def _thm_3_1(sig, n, eps, R, D, H_star):
    def t(iv):
        core = iv.mpf(10) ** 9 * _two_pow_2n(iv, n) * iv.mpf(n) ** 14
        core = core * iv_fr(iv, eps) ** -3
        core = core * iv.log(iv_fr(iv, 3 * R * D / eps))
        return core * iv.log(iv_fr(iv, 1 / eps) * iv.log(iv_fr(iv, 3 * R * D)))

    return {"t": _entry_real(t, sig), "C1": _entry_factored(_c1_of(n, eps, R, D, H_star), sig)}


def _cor_3_1b(sig, n, eps, D, s):
    def t(iv):
        head = (iv_fr(iv, 9 * n * n / eps)) ** (n * s)
        core = iv.mpf(10) ** 10 * _two_pow_2n(iv, n) * iv.mpf(n) ** 15
        core = core * iv_fr(iv, eps) ** -3
        core = core * iv.log(iv_fr(iv, 3 * D / eps))
        return head * core * iv.log(iv_fr(iv, 1 / eps) * iv.log(iv_fr(iv, 3 * D)))

    return {"t": _entry_real(t, sig)}


def _thm_3_2(sig, n, eps, R, D, H_star):
    def m1(iv):
        core = iv.mpf(10) ** 8 * _two_pow_2n(iv, n) * iv.mpf(n) ** 14
        core = core * iv_fr(iv, eps) ** -2
        return core * iv.log(iv_fr(iv, 3 * R * D / eps))

    def omega1(iv):
        return iv_fr(iv, 3 * n / eps) * iv.log(iv_fr(iv, 3 * R * D))

    return {
        "m1": _entry_int(certified_floor(m1)),
        "omega1": _entry_real(omega1, sig),
        "C1": _entry_factored(_c1_of(n, eps, R, D, H_star), sig),
    }


def _thm_8_1(sig, n, delta, R, H_L):
    h_l = _as_height(H_L)

    def m2_val(iv):
        core = iv.mpf(61) * iv.mpf(n) ** 6 * _two_pow_2n(iv, n)
        core = core * iv_fr(iv, delta) ** -2
        return core * iv.log(iv_fr(iv, 22 * n * n * 2 ** n * R / delta))

    m2 = certified_floor(m2_val)

    def loglog_c2(iv):
        # log10 log10 C2 = 2 m2 log10 m2 + log10 log10 (2 H_L)
        l10 = iv.log(10)
        log10_2h = (iv.log(2) + iv_ln(iv, h_l)) / l10
        return 2 * m2 * iv.log(m2) / l10 + iv.log(log10_2h) / l10

    return {
        "m2": _entry_int(m2),
        "omega2": _entry_factored(FactoredReal.from_rational(m2) ** Fraction(5, 2), sig),
        "C2": _entry_loglog(loglog_c2, sig),
    }


# theorem id -> (its parameters, in reading order; its evaluator)
THEOREMS = {
    "1.1": (("n", "delta"), _thm_1_1),
    "1.2": (("n", "delta"), _thm_1_2),
    "1.3": (("n", "eps"), _cor_1_3),
    "2.1": (("n", "delta", "R", "H_L"), _thm_2_1),
    "2.2": (("n", "delta", "R", "H_L", "d"), _thm_2_2),
    "2.3": (("n", "delta", "R", "H_L"), _thm_2_3),
    "3.1": (("n", "eps", "R", "D", "H_star"), _thm_3_1),
    "3.1b": (("n", "eps", "D", "s"), _cor_3_1b),
    "3.2": (("n", "eps", "R", "D", "H_star"), _thm_3_2),
    "8.1": (("n", "delta", "R", "H_L"), _thm_8_1),
}


def internal_t0_consistency(n: int, R, delta) -> bool:
    """Certified check that the t0 bound dominates 1 + 3 m0 (1+ln w0)/delta."""
    delta = Fraction(delta)
    R = Fraction(R)
    m0 = bound_constants("2.3", {"n": n, "delta": delta, "R": R, "H_L": 1})
    m0_int = int(m0.constants["m0"]["value"])

    def lhs_minus_rhs(iv):
        rhs = 1 + 3 * iv_fr(iv, 1 / delta) * m0_int * (1 + iv.log(_omega0(iv, delta, R)))
        return _t0(iv, n, delta, R) - rhs

    lo, _, _ = enclose(lhs_minus_rhs, lambda lo, hi, one: lo >= 0 or hi < 0, 30)
    return lo >= 0


# -- interval covers ---------------------------------------------------------


def _cover_count(base: Fraction, target: Fraction) -> int:
    """Minimal s >= 1 with base**s >= target, for a rational base > 1 and a rational target > 1.

    The count is first tried in integers (_integer_count); otherwise s is
    the ceiling of ln(target)/ln(base), read off one interval enclosure of
    that ratio, and an enclosure that holds an integer is settled by exact
    powers.  ValidationError when s > COVER_COUNT_CAP, or when those powers
    would have more than exact_reals.POWER_BITS bits.
    """
    s = _integer_count(base, target)
    if s is not None:
        return s
    lo, hi, one = enclose(lambda iv: iv_ln(iv, target) / iv_ln(iv, base), lambda lo, hi, one: True, 30)
    s = max(1, -(-lo // one))
    top = -(-hi // one)
    if s <= COVER_COUNT_CAP and top > s:  # the enclosure holds an integer
        _check_power_bits(base, top)
        while base**s < target:
            s += 1
    if s > COVER_COUNT_CAP:
        raise ValidationError(f"the cover needs more than {COVER_COUNT_CAP} intervals")
    return s


def _integer_count(base: Fraction, target: Fraction) -> int | None:
    """_cover_count's s for a rational target, from exact integer powers; None leaves it to the enclosure.

    The float ceiling s of ln(target)/ln(base) is the count when
    num**(s-1) * t_den < den**(s-1) * t_num and num**s * t_den >= den**s * t_num,
    for base = num/den and target = t_num/t_den.  Those powers are built only
    for s <= COVER_COUNT_CAP and (s + 1) * bits of num <= POWER_BITS: the
    enclosure checks the budget of power s + 1 at most, so every refusal
    of that route is left to it.
    """
    num, den = base.numerator, base.denominator
    t_num, t_den = target.numerator, target.denominator
    try:
        s = max(1, math.ceil((math.log(t_num) - math.log(t_den)) / math.log1p((num - den) / den)))
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if s > COVER_COUNT_CAP or (s + 1) * num.bit_length() > POWER_BITS:
        return None
    low, high = num ** (s - 1) * t_den, den ** (s - 1) * t_num
    return s if low < high and low * num >= high * den else None


def interval_cover(omega, delta) -> int:
    """Minimal s with (1+delta/2)^s >= omega, for omega > 1, exact (_cover_count)."""
    omega = Fraction(omega)
    delta = Fraction(delta)
    if omega <= 1:
        raise ValueError("omega must be > 1")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    return _cover_count(1 + delta / 2, omega)


def _check_power_bits(base: Fraction, k: int) -> None:
    if k * base.numerator.bit_length() > POWER_BITS:
        raise ValidationError(f"the cover needs exact powers (1+delta/2)^k of more than {POWER_BITS} bits")


def cover_list(q1, omega, delta) -> list[float]:
    """log10 endpoints of the subintervals [Q1^(1+d/2)^k], k = 0..s."""
    q1 = Fraction(q1)
    if q1 <= 1:
        raise ValueError("Q1 must be > 1")
    s = interval_cover(omega, delta)
    base = 1 + Fraction(delta) / 2
    _check_power_bits(base, s)
    logq = log10_rational(q1)
    if log10_rational(Fraction(omega) * base) + math.log10(logq) > 308:  # the last endpoint is below
        raise ValidationError("the cover's log10 endpoints lie past the float range")
    out = []
    num = den = 1
    for _ in range(s + 1):
        out.append(num / den * logq)  # float(base**k), base**k = num/den in lowest terms
        num *= base.numerator
        den *= base.denominator
    return out


# -- reduction from Diophantine systems --------------------------------------


def reduce_system(sys) -> tuple[TwistedPair, Fraction, Fraction]:
    """Build the twisted pair of a system: centered exponents, same forms.

    Returns (pair, delta, q_exponent) with delta = eps/(n+eps) and the
    map H -> H^q_exponent, q_exponent = 1 + eps/n.  The output pair is
    always fully normalized.
    """
    n = sys.n
    eps = sys.epsilon
    active = {}
    for v, pd in sys.places.items():
        mean = sum(pd.exps, Fraction(0)) / n
        c = tuple(Fraction(n, n + eps) * (d - mean) for d in pd.exps)
        active[v] = PlaceData(pd.forms, c)
    pair = TwistedPair(n, active).without_neutral_places()
    rep = validate(pair)
    if not rep.normalized_ok:
        raise ValidationError("reduced pair failed normalization (internal)")
    return pair, eps / (n + eps), 1 + eps / Fraction(n)


def reduction_inequality_holds(pair: TwistedPair, delta, q_exponent, x) -> bool:
    """H_{L,c,Q}(x) <= Delta^{1/n} Q^{-delta} with Q = H(x)^{q_exponent}."""
    h = height(x)
    q = h ** Fraction(q_exponent)  # H(x) >= 1, so Q >= 1
    lhs = twisted_height(pair, q, x)
    rhs = delta_l(pair) ** Fraction(1, pair.n) * q ** (-Fraction(delta))
    return lhs <= rhs
