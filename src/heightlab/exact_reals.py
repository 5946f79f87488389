"""Exact arithmetic for positive reals of the form prod p**e_p.

Every height value produced by this package over the rationals is a
finite product of prime powers with rational exponents.  FactoredReal
stores that exponent map exactly, so multiplication, rational powers and
order comparisons never round.  The factorizations behind them come
from trial division, Pollard-Brent rho and a Miller-Rabin test that is a
proof in the range where it is used; an integer that cannot be factored
into certified primes within a fixed budget raises CertificationError,
and so does an exact comparison (cmp_power_product) past POWER_BITS bits.

Certified reals are evaluated to exact endpoints, at digits that double
from the caller's start until those endpoints decide what the caller needs;
a value that needs more than MAX_DPS decimal digits raises
CertificationError.  Two routines do it.  log10_enclosure gives the log10
of a FactoredReal (every report log10, and the factored entries of the
bound tables) as one sum in fixed point: the cached ln of each prime
(_ln_fixed: square roots, then atanh's series in Python integers, with a
proven error bound), times its exponent, over ln 10.  enclose evaluates
every other value: outward-rounded interval arithmetic on builders written
once against mpmath.iv's interface, with the interval helpers beside it
(iv_fr, iv_ln and certified_floor) for the theorem constants and floors,
cover counts and the scan's histogram bins.  It runs them on the standard
library's decimal (_DecimalIV: exact rationals until a size cap, directed
rounding past it), with _ln_fixed again for its ln.  The package needs no
library outside the standard one.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from fractions import Fraction

__all__ = [
    "FactoredReal", "ONE", "CertificationError", "is_prime", "factorint", "log10_rational",
    "cmp_power_product", "POWER_BITS", "enclose", "log10_enclosure", "iv_fr", "iv_ln", "certified_floor", "MAX_DPS",
    "decimal_str",
]

_RatLike = (int, Fraction)


class CertificationError(RuntimeError):
    """A result could not be certified: a value within MAX_DPS digits,
    a number short enough to print, an integer factored into certified primes,
    or an exact comparison within POWER_BITS bits."""


# -- primality and factorization ----------------------------------------------

# Strong Miller-Rabin on the first 13 primes proves primality below PSI_13, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981
# Larger integers without a small factor are refused: one rho step or test at
# this size costs about a microsecond, so the budget below stays under a second.
BITS_CAP = 128
# Trial division by the primes below _TRIAL; a cofactor below _TRIAL**2 is prime.
_TRIAL = 1024
_SMALL_PRIMES = tuple(p for p in range(2, _TRIAL) if all(p % d for d in range(2, math.isqrt(p) + 1)))
# Pollard-Brent rho steps one factorization may take (Brent, BIT 20, 1980).
RHO_BUDGET = 1 << 19


def is_prime(n: int) -> bool:
    """Primality of n, proved for n < PSI_13.

    At or above PSI_13 a witness still proves n composite; without one,
    and for n of more than BITS_CAP bits with no factor among the bases,
    CertificationError is raised.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n.bit_length() > BITS_CAP:
        raise CertificationError(f"an integer of {n.bit_length()} bits is beyond the {BITS_CAP}-bit primality bound")
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13:
        raise CertificationError(f"{n} passes Miller-Rabin on the first 13 primes but is not below PSI_13")
    return True


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} of a positive integer, ascending, every prime certified.

    Trial division, then Pollard-Brent rho on composite cofactors with at
    most RHO_BUDGET steps in all; CertificationError when a cofactor can
    be neither split nor certified.
    """
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n, out[p] = _strip(n, p)
    budget = RHO_BUDGET
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < _TRIAL * _TRIAL or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d, budget = _rho(m, budget)
            todo += (d, m // d)
    return dict(sorted(out.items()))


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p**e, e) for the largest such e; a large e costs O(log e) divisions."""
    if n % p:
        return n, 0
    n, e = _strip(n // p, p * p)  # what is left may hold p once more
    if n % p == 0:
        return n // p, 2 * e + 2
    return n, 2 * e + 1


def _rho(n: int, budget: int) -> tuple[int, int]:
    """(a proper divisor of the composite n, the steps left of budget)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r  # r steps to the cycle start, r steps in batches
            if budget < 0:
                raise CertificationError(f"{n} could not be split within {RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


# -- exact comparison of power products -------------------------------------

# Most bits either side of an exact comparison may have (a few milliseconds to
# multiply out at this size); also the bound on the exact powers of interval covers.
POWER_BITS = 1 << 18


def cmp_power_product(terms) -> int:
    """Sign of prod (a/b)**k - 1 over terms (a, b, k): positive ints a, b, int k.

    Skips a == b and k == 0, divides the k by their gcd g (t -> t**(1/g) keeps
    the sign), and bounds both cross-multiplied sides from bit_length before
    any power: CertificationError above POWER_BITS bits, else one comparison.
    Over the budget, terms on one base pair ((a, b, k) and (b, a, -k) alike)
    are first merged into one, whose exponents may cancel.
    """
    g = bits_a = bits_b = 0  # bits: g times an upper bound of either side's bit length
    live = []
    for a, b, k in terms:
        if k and a != b:
            if k < 0:
                a, b, k = b, a, -k
            live.append((a, b, k))
            g = math.gcd(g, k)
            bits_a += k * (a - 1).bit_length()  # a <= 2**bit_length(a - 1); 1 costs none
            bits_b += k * (b - 1).bit_length()
    if not g:
        return 0
    if bits_a > POWER_BITS * g or bits_b > POWER_BITS * g:
        # merged only here: on every call it would slow the common small comparison
        merged: dict[tuple[int, int], int] = {}
        for a, b, k in live:
            key, k = ((a, b), k) if a < b else ((b, a), -k)
            merged[key] = merged.get(key, 0) + k
        if len(merged) == len(live):
            raise CertificationError(f"an exact comparison needs more than {POWER_BITS} bits")
        return cmp_power_product([(a, b, k) for (a, b), k in merged.items()])
    lhs = rhs = 1
    for a, b, k in live:
        k //= g
        lhs *= a**k
        rhs *= b**k
    return (lhs > rhs) - (lhs < rhs)


# -- interval plumbing ----------------------------------------------------------

# Bits past which an exact numerator or denominator of _DecimalIV becomes
# an outward-rounded interval, so that exact powers such as 2**(2 * 10**9) are never built.
_EXACT_BITS = 4096


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# -- the integer ln -------------------------------------------------------------

# Bits _ln_fixed carries past its working precision and the r bits its square roots lose.
_GUARD = 40
# ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749) and ln 10 = 3 ln 2 + 2 atanh(1/9),
# as the (k, n) of sums of k atanh(1/n).
_LN2 = ((18, 26), (-2, 4801), (8, 8749))
_LN10 = ((54, 26), (-6, 4801), (24, 8749), (2, 9))


# The widest (v, L, E) _atanh_sum has computed, per terms.
_WIDEST: dict = {}


def _atanh_sum(terms, w: int) -> tuple[int, int]:
    """(L, E) with |L - 2**w sum k atanh(1/n)| <= E over terms (k, n), n >= 3.

    At W = v + 32 bits, t_j = floor(t_{j-1} / n**2) from t_0 = floor(2**W / n)
    lies less than 9/8 below 2**W n**-(2j+1) (a loss of at most a ninth of
    the last plus 1), so each t_j // (2j + 1) lies less than 3 below its
    term, and the tail after the last nonzero t_j less than 2.

    The sum is computed once per terms, at v = w + 64 for the widest w
    asked for so far, and a lower w gets that L shifted right by d = v - w
    with one more unit of error: the shift floors L / 2**d, which loses less
    than 1, and |L / 2**d - 2**w c| <= E / 2**d <= E for the constant c.
    """
    widest = _WIDEST.get(terms)
    if widest is None or widest[0] < w:
        v = w + 64  # one precision's w vary by the bits of r and s in _ln_fixed: take them at once
        total = err = 0
        for k, n in terms:
            t, j = (1 << (v + 32)) // n, 1
            while t:
                total += k * (t // j)
                t //= n * n
                j += 2
            err += abs(k) * (3 * (j // 2) + 2)
        widest = _WIDEST[terms] = (v, total >> 32, (err >> 32) + 2)
    v, total, err = widest
    return (total >> (v - w), err + 1) if v > w else (total, err)


def _ln_fixed(num: int, den: int, w: int) -> tuple[int, int]:
    """(L, E) with |L - 2**w ln(num/den)| <= E, for integers num >= den >= 1.

    num/den = 2**s m with m in [1, 2).  r floored square roots take m to u
    near 1 (fewer when m is near 1 already), and ln m = 2**(r+1) atanh(y),
    y = (u - 1)/(u + 1) < 1/3, whose series in y**2 then gains about 2 r
    bits a term.  All in fixed point at W bits; errors in units of 2**-W.

    Every floor rounds a nonnegative value down, so L never exceeds ln m.
    Each root loses less than one unit more than the last (sqrt(a - b) >=
    sqrt(a) - b for a >= 1): u less than r + 1, ln u less than r + 2.  y
    loses less than 1, so 2 atanh(y) less than 9/4; each power of y less
    than 3/2 (less than y**k + y**2 e + 1 more a term), so each of the N
    terms less than 5/2 and their tail less than 27/16, both doubled.  In
    all 5 N + r + 9, times 2**r for ln m: W carries r + _GUARD bits past w
    for them, and as many as s has for the error of s ln 2.
    """
    s = (num // den).bit_length() - 1
    base = den << s
    r = max(0, math.isqrt(w) // 4 - base.bit_length() + (num - base).bit_length())
    W = w + r + _GUARD + s.bit_length()
    u = (num << W) // base  # 2**W <= u < 2**(W + 1), so y >= 0 and >> rounds down
    for _ in range(r):
        u = math.isqrt(u << W)
    one = 1 << W
    y = ((u - one) << W) // (u + one)
    y2 = y * y >> W
    total = terms = 0
    while y:
        terms += 1
        total += y // (2 * terms - 1)
        y = y * y2 >> W
    total <<= r + 1
    err = (5 * terms + r + 9) << r
    if s:
        l2, e2 = _atanh_sum(_LN2, W)
        total += s * l2
        err += s * e2
    shift = W - w
    return total >> shift, (err >> shift) + 2


# _ln_fixed of the primes of report log10s, at the few w their digits give
_ln_prime = functools.lru_cache(maxsize=1024)(_ln_fixed)


def _ln(x, prec: int) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(lo, hi) with lo <= ln x <= hi, rounded outward at prec digits, for
    a positive int, Fraction or Decimal x.

    A Decimal c 10**e, c of d digits, adjusted exponent a = e + d - 1, is
    ln(c / 10**(d-1)) + a ln 10 when a >= 0, and -(ln(10**d / c) + (-a - 1) ln 10)
    when a < 0: two terms >= 0 that never cancel.  A rational is +-ln num/den,
    num >= den, and ln num/den >= (num - den)/num: without an ln 10 term,
    that many more bits are carried."""
    if isinstance(x, decimal.Decimal):
        _, digits, e = x.as_tuple()
        c, a = int(decimal.Decimal((0, digits, 0))), e + len(digits) - 1
        if a >= 0:
            num, den, k, neg = c, 10 ** (len(digits) - 1), a, False
        else:
            num, den, k, neg = 10 ** len(digits), c, -a - 1, True
    else:
        num, den, k = x.numerator, x.denominator, 0
        neg = num < den
        if neg:
            num, den = den, num
    if num == den and not k:
        return decimal.Decimal(0), decimal.Decimal(0)
    w = prec * 10 // 3 + 5 + k.bit_length()  # prec log2(10) + 4 bits and more
    if not k:
        w += num.bit_length() - (num - den).bit_length() + 1
    total, err = _ln_fixed(num, den, w)
    if k:
        l10, e10 = _atanh_sum(_LN10, w)
        total, err = total + k * l10, err + k * e10
    down, up = _decimal_contexts(prec)
    lo, hi = down.divide(total - err, 1 << w), up.divide(total + err, 1 << w)
    return (hi.copy_negate(), lo.copy_negate()) if neg else (lo, hi)


# _ln of exact rationals, which recur in every builder (primes, 10, the theorems' parameters)
_exact_ln = functools.lru_cache(maxsize=1024)(_ln)


def _power(x: decimal.Decimal, k: int, ctx: decimal.Context) -> decimal.Decimal:
    """x**k for x >= 0 and k >= 1 by squaring, every product rounded by ctx."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else ctx.multiply(out, x)
        k >>= 1
        if not k:
            return out
        x = ctx.multiply(x, x)


class _DecimalIV:
    """The interval arithmetic of enclose: what builders use of mpmath.iv
    (mpf, log, dps, and + - * / and integer ** on its values), on the
    standard library's decimal at dps digits, every result rounded outward."""

    def __init__(self, dps: int):
        self.dps = dps
        self.down, self.up = _decimal_contexts(dps)
        self.unbounded = _Ival(self, None)

    def mpf(self, x) -> "_Ival":
        """An int or Fraction, kept exact, or the interval [lo, hi] of x = [lo, hi]."""
        if isinstance(x, _Ival):
            return x
        if isinstance(x, (list, tuple)):
            lo, hi = (Fraction(e) for e in x)
            lo, hi = self.down.divide(lo.numerator, lo.denominator), self.up.divide(hi.numerator, hi.denominator)
            return _Ival(self, None, lo, hi)
        return _Ival(self, x if isinstance(x, _RatLike) else Fraction(x))

    def log(self, x) -> "_Ival":
        """ln x.  A positive rational is _ln's enclosure of it; anything else
        is ln of its interval [lo, hi], lo > 0: _ln's enclosure of ln lo, plus
        (hi - lo)/lo above it, as ln is concave.  Unbounded for an x that may
        be <= 0."""
        x = self.mpf(x)
        q = x.q
        if q is not None:
            return _Ival(self, None, *_exact_ln(q, self.dps)) if q > 0 else self.unbounded
        if x is self.unbounded:
            return x
        lo, hi = x.ends()
        if lo <= 0:
            return self.unbounded
        ln_lo, ln_hi = _ln(lo, self.dps)
        return _Ival(self, None, ln_lo, self.up.add(ln_hi, self.up.divide(self.up.subtract(hi, lo), lo)))


class _Ival:
    """A value of _DecimalIV: the exact rational q (an int or a
    Fraction) or, when q is None, the interval [lo, hi] of Decimals.  Its
    namespace's `unbounded` (lo = hi = None) stands for what no finite
    interval encloses here: a quotient by an interval that holds 0, or a
    log of one that reaches 0."""

    __slots__ = ("ns", "q", "lo", "hi")

    def __init__(self, ns: _DecimalIV, q, lo=None, hi=None):
        if q is not None and (q.numerator.bit_length() > _EXACT_BITS or q.denominator.bit_length() > _EXACT_BITS):
            lo, hi, q = *_round_long(ns, q), None
        self.ns, self.q, self.lo, self.hi = ns, q, lo, hi

    def ends(self) -> tuple[decimal.Decimal, decimal.Decimal]:
        q = self.q
        if q is None:
            return self.lo, self.hi
        return self.ns.down.divide(q.numerator, q.denominator), self.ns.up.divide(q.numerator, q.denominator)

    def _other(self, x):
        if isinstance(x, _Ival):
            return x
        if isinstance(x, _RatLike):
            return _Ival(self.ns, x)
        return None

    def __add__(self, other):
        b = self._other(other)
        if b is None:
            return NotImplemented
        ns = self.ns
        if self.q is not None and b.q is not None:
            return _Ival(ns, self.q + b.q)
        if self is ns.unbounded or b is ns.unbounded:
            return ns.unbounded
        (alo, ahi), (blo, bhi) = self.ends(), b.ends()
        return _Ival(ns, None, ns.down.add(alo, blo), ns.up.add(ahi, bhi))

    __radd__ = __add__

    def __neg__(self):
        if self.q is not None:
            return _Ival(self.ns, -self.q)
        if self is self.ns.unbounded:
            return self
        # copy_negate is exact; unary minus would round to the thread's context
        return _Ival(self.ns, None, self.hi.copy_negate(), self.lo.copy_negate())

    def __sub__(self, other):
        b = self._other(other)
        return NotImplemented if b is None else self + -b

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = self._other(other)
        if b is None:
            return NotImplemented
        ns = self.ns
        if self.q is not None and b.q is not None:
            return _Ival(ns, self.q * b.q)
        if self is ns.unbounded or b is ns.unbounded:
            return ns.unbounded
        (alo, ahi), (blo, bhi) = self.ends(), b.ends()
        down, up = ns.down, ns.up
        if alo >= 0 and blo >= 0:
            return _Ival(ns, None, down.multiply(alo, blo), up.multiply(ahi, bhi))
        pairs = [(x, y) for x in (alo, ahi) for y in (blo, bhi)]
        return _Ival(ns, None, min(down.multiply(x, y) for x, y in pairs), max(up.multiply(x, y) for x, y in pairs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._other(other)
        return NotImplemented if b is None else _divide(self, b)

    def __rtruediv__(self, other):
        a = self._other(other)
        return NotImplemented if a is None else _divide(a, self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        ns, q = self.ns, self.q
        if q is not None:
            if k < 0 and q == 0:
                return ns.unbounded
            if abs(k) * max(q.numerator.bit_length(), q.denominator.bit_length()) <= _EXACT_BITS:
                return _Ival(ns, q**k if k >= 0 else Fraction(q) ** k)
        elif self is ns.unbounded:
            return self
        if k <= 0:
            return 1 / self**-k if k else _Ival(ns, 1)
        lo, hi = self.ends()
        if lo >= 0:
            return _Ival(ns, None, _power(lo, k, ns.down), _power(hi, k, ns.up))
        if hi <= 0:
            p = (-self) ** k
            return p if k % 2 == 0 else -p
        if k % 2:
            return _Ival(ns, None, _power(lo.copy_negate(), k, ns.up).copy_negate(), _power(hi, k, ns.up))
        return _Ival(ns, None, decimal.Decimal(0), _power(max(lo.copy_negate(), hi), k, ns.up))


def _divide(a: _Ival, b: _Ival) -> _Ival:
    ns = a.ns
    if b.q is not None and b.q == 0:
        return ns.unbounded
    if a.q is not None and b.q is not None:
        return _Ival(ns, Fraction(a.q, b.q))
    if a is ns.unbounded or b is ns.unbounded:
        return ns.unbounded
    (alo, ahi), (blo, bhi) = a.ends(), b.ends()
    if blo <= 0 <= bhi:
        return ns.unbounded
    down, up = ns.down, ns.up
    if alo >= 0 and blo > 0:
        return _Ival(ns, None, down.divide(alo, bhi), up.divide(ahi, blo))
    pairs = [(x, y) for x in (alo, ahi) for y in (blo, bhi)]
    return _Ival(ns, None, min(down.divide(x, y) for x, y in pairs), max(up.divide(x, y) for x, y in pairs))


def _round_long(ns: _DecimalIV, q: Fraction) -> tuple[decimal.Decimal, decimal.Decimal]:
    """Outward-rounded endpoints of a rational too long to convert directly
    (decimal converts an integer in quadratic time): q lies in [m, m + 1] 2**t
    with m = floor(q / 2**t) of about 4 dps + 64 bits, and 2**t is a power by squaring."""
    a, b = q.numerator, q.denominator
    t = a.bit_length() - b.bit_length() - 4 * ns.dps - 64
    m = (a >> t) // b if t >= 0 else (a << -t) // b
    two = decimal.Decimal(2)
    if t > 0:
        small, large = _power(two, t, ns.down), _power(two, t, ns.up)
    elif t < 0:
        small, large = ns.down.divide(1, _power(two, -t, ns.up)), ns.up.divide(1, _power(two, -t, ns.down))
    else:
        small = large = decimal.Decimal(1)
    lo = ns.down.multiply(m, small if m >= 0 else large)
    hi = ns.up.multiply(m + 1, large if m + 1 >= 0 else small)
    return lo, hi


# Most decimal digits a certified value may be evaluated at.
MAX_DPS = 20_000
# Most digits of a Decimal exponent an endpoint may have before it is built
# as a Fraction: POWER_BITS in decimal digits.
_POWER_DIGITS = int(POWER_BITS * math.log10(2))


def _decimal_endpoints(x: _Ival) -> tuple[Fraction, Fraction] | None:
    """Exact Fraction endpoints of a _DecimalIV value; None when it is
    unbounded, CertificationError for an endpoint whose decimal exponent
    lies past POWER_BITS, before it is built."""
    if x.q is not None:
        return Fraction(x.q), Fraction(x.q)
    if x is x.ns.unbounded:
        return None
    for d in (x.lo, x.hi):
        if abs(d.as_tuple().exponent) > _POWER_DIGITS:
            raise CertificationError(f"an interval endpoint needs more than {POWER_BITS} bits")
    return Fraction(x.lo), Fraction(x.hi)


def enclose(build, done, dps: int) -> tuple[Fraction, Fraction]:
    """Exact endpoints (lo, hi) of build(iv), an interval expression in mpmath.iv's interface.

    build runs on _DecimalIV at dps digits, and the digits double until
    both endpoints are finite and done(lo, hi) holds; CertificationError
    past MAX_DPS digits, and at once for a value past decimal's exponent
    range, which more digits do not widen.
    """
    while dps <= MAX_DPS:
        try:
            ends = _decimal_endpoints(build(_DecimalIV(dps)))
        except decimal.Overflow:
            raise CertificationError("a certified value lies past decimal's exponent range") from None
        if ends is not None and done(*ends):
            return ends
        dps *= 2
    raise CertificationError(f"a certified value needs more than {MAX_DPS} digits")


def log10_enclosure(x: "FactoredReal", done, dps: int) -> tuple[Fraction, Fraction]:
    """Exact endpoints (lo, hi) of log10 x, as enclose gives those of
    iv_ln(iv, x) / iv.log(10), from one sum in fixed point instead.

    At w = dps log2(10) + 5 bits or more, each prime power p**(a/b) of x
    adds floor(a L_p / b), where |L_p - 2**w ln p| <= E_p (_ln_fixed): the
    term lies less than |a/b| E_p + 1 from 2**w (a/b) ln p.  The sum T, with
    E the sum of those bounds, is divided by ln 10's [L - E', L + E']
    (_atanh_sum), and the quotients of [T - E, T + E] by it, rounded outward
    to units of 2**-w, are lo and hi.  The digits double until
    done(lo 2**w, hi 2**w, 2**w), on integers; CertificationError past MAX_DPS.
    """
    factors = x._f.items()
    while dps <= MAX_DPS:
        w = dps * 10 // 3 + 5
        total = err = 0
        for p, e in factors:
            ln_p, err_p = _ln_prime(p, 1, w)
            a, b = e.numerator, e.denominator
            total += a * ln_p // b
            err += -(-abs(a) * err_p // b) + 1
        ln10, err10 = _atanh_sum(_LN10, w)
        lo, hi = total - err, total + err
        lo = (lo << w) // (ln10 + err10 if lo >= 0 else ln10 - err10)
        hi = -((-hi << w) // (ln10 - err10 if hi >= 0 else ln10 + err10))
        if done(lo, hi, 1 << w):
            return Fraction(lo, 1 << w), Fraction(hi, 1 << w)
        dps *= 2
    raise CertificationError(f"a certified value needs more than {MAX_DPS} digits")


def iv_fr(iv, x: Fraction):
    """A Fraction as an interval of iv: on _DecimalIV that exact value, on mpmath.iv num / den."""
    if isinstance(iv, _DecimalIV):
        return iv.mpf(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def iv_ln(iv, x):
    """Natural log of a positive Fraction or FactoredReal, as an interval of iv.

    A Fraction on _DecimalIV is one ln of the exact value; on mpmath.iv,
    which takes no Fraction, ln num - ln den."""
    if isinstance(x, FactoredReal):
        total = iv.mpf(0)
        for p, e in sorted(x.factors.items()):
            total = total + iv.log(p) * iv_fr(iv, e)
        return total
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive value")
    if isinstance(iv, _DecimalIV):
        return iv.log(x)
    return iv.log(iv.mpf(x.numerator)) - iv.log(iv.mpf(x.denominator))


def certified_floor(build) -> int:
    """floor of build(iv), from an enclosure refined until both endpoints have the same floor."""
    lo, _ = enclose(build, lambda lo, hi: math.floor(lo) == math.floor(hi), 30)
    return math.floor(lo)


def decimal_str(q: Fraction, sig: int) -> str:
    """q rounded half-up to sig significant digits, laid out as mpmath.nstr lays it out.

    Fixed point when the decimal exponent e satisfies
    min(-(sig // 3), -5) < e < sig, else with e+N or e-N; trailing zeros
    are stripped, but one is kept after the point.
    """
    if q == 0:
        return "0.0"
    ctx = decimal.Context(prec=sig, rounding=decimal.ROUND_HALF_UP, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    d = ctx.divide(q.numerator, q.denominator)
    sign, digits, _ = d.as_tuple()
    digits = "".join(map(str, digits))
    e = d.adjusted()
    split = 1
    if min(-(sig // 3), -5) < e < sig:
        if e < 0:
            digits = "0" * -e + digits
        else:
            digits, split = digits.ljust(e + 1, "0"), e + 1
        e = 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return "-" * sign + text + (f"e{e:+d}" if e else "")


@functools.lru_cache(maxsize=64)
def _decimal_contexts(prec: int) -> tuple[decimal.Context, decimal.Context]:
    """(round toward -inf, round toward +inf) decimal contexts at prec digits, with no exponent limit in reach."""
    return tuple(
        decimal.Context(prec=prec, rounding=r, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        for r in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)
    )


def log10_rational(q) -> float:
    """Float log10 of a positive rational: log10(float(q)) while float(q) is
    finite and nonzero, log10(numerator) - log10(denominator) beyond."""
    try:
        return math.log10(q)
    except (OverflowError, ValueError):
        return math.log10(q.numerator) - math.log10(q.denominator)


class FactoredReal:
    """A positive real number prod_p p**e_p with rational exponents e_p.

    The exponent map is canonical (no zero exponents, prime keys only),
    so two values are equal iff their maps are equal.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_f", "_hash")

    def __init__(self, factors=None, _trusted: bool = False):
        if factors is None:
            f = {}
        elif _trusted:
            f = dict(factors)
        else:
            f = {}
            for p, e in dict(factors).items():
                e = _as_fraction(e)
                if e == 0:
                    continue
                if not (isinstance(p, int) and is_prime(p)):
                    raise ValueError(f"key {p!r} is not prime")
                f[int(p)] = e
        object.__setattr__(self, "_f", f)
        object.__setattr__(self, "_hash", None)

    # -- construction -------------------------------------------------

    @classmethod
    def one(cls) -> "FactoredReal":
        return cls({}, _trusted=True)

    @classmethod
    def from_rational(cls, q) -> "FactoredReal":
        """Prime factorization of a positive rational."""
        q = _as_fraction(q)
        if q <= 0:
            raise ValueError(f"from_rational needs a positive rational, got {q}")
        f: dict[int, Fraction] = {}
        for p, e in factorint(q.numerator).items():
            f[p] = Fraction(e)
        for p, e in factorint(q.denominator).items():
            f[p] = f.get(p, Fraction(0)) - e
        return cls({p: e for p, e in f.items() if e != 0}, _trusted=True)

    @classmethod
    def prime_power(cls, p: int, e) -> "FactoredReal":
        e = _as_fraction(e)
        if e == 0:
            return cls.one()
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls({p: e}, _trusted=True)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "FactoredReal") -> "FactoredReal":
        if not isinstance(other, FactoredReal):
            return NotImplemented
        f = dict(self._f)
        for p, e in other._f.items():
            s = f.get(p, Fraction(0)) + e
            if s == 0:
                f.pop(p, None)
            else:
                f[p] = s
        return FactoredReal(f, _trusted=True)

    def __truediv__(self, other: "FactoredReal") -> "FactoredReal":
        if not isinstance(other, FactoredReal):
            return NotImplemented
        return self * other ** -1

    def __pow__(self, e) -> "FactoredReal":
        e = _as_fraction(e)
        if e == 0:
            return FactoredReal.one()
        return FactoredReal({p: ex * e for p, ex in self._f.items()}, _trusted=True)

    # -- comparisons ----------------------------------------------------

    def cmp(self, other: "FactoredReal") -> int:
        """Exact ordering: -1, 0 or 1.

        Clears the exponent denominators of self/other by their lcm M and
        hands prod p**(e_p M) to cmp_power_product; (a/b)**M > 1 iff a > b.
        """
        diff: dict[int, Fraction] = dict(self._f)
        for p, e in other._f.items():
            s = diff.get(p, Fraction(0)) - e
            if s == 0:
                diff.pop(p, None)
            else:
                diff[p] = s
        if not diff:
            return 0
        m = math.lcm(*(e.denominator for e in diff.values()))
        return cmp_power_product([(p, 1, e.numerator * (m // e.denominator)) for p, e in diff.items()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredReal):
            return NotImplemented
        return self._f == other._f

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self._f.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- views -----------------------------------------------------------

    @property
    def factors(self) -> dict[int, Fraction]:
        return dict(self._f)

    def is_one(self) -> bool:
        return not self._f

    def to_fraction(self) -> Fraction:
        """Exact rational value; raises if some exponent is non-integral."""
        num = 1
        den = 1
        for p, e in self._f.items():
            if e.denominator != 1:
                raise ValueError(f"{self!r} is not rational")
            k = e.numerator
            if k > 0:
                num *= p ** k
            else:
                den *= p ** (-k)
        return Fraction(num, den)

    # -- logarithms -------------------------------------------------------

    def log10_exact(self) -> Fraction | None:
        """The exact rational log10, when the value is a power of 10."""
        if not self._f:
            return Fraction(0)
        if set(self._f) == {2, 5} and self._f[2] == self._f[5]:
            return self._f[2]
        return None

    def log10(self, digits: int = 12) -> tuple[Fraction, Fraction]:
        """(approximation, error bound) with error <= 10**-digits * min(1, |log10|).

        So the error lies below the digits-th significant digit when
        |log10| < 1, and below the digits-th decimal otherwise.  One
        log10_enclosure, from digits + 15 digits: its first sum settles it
        unless the terms nearly cancel, and then the digits double.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        exact = self.log10_exact()
        if exact is not None:
            return exact, Fraction(0)
        scale = 2 * 10**digits

        def done(lo, hi, one):  # in units of 1/one
            least = min(abs(lo), abs(hi), one) if (lo > 0) == (hi > 0) else 0  # <= min(1, |log10|) one
            return (hi - lo) * scale <= least

        lo, hi = log10_enclosure(self, done, digits + 15)
        return (lo + hi) / 2, (hi - lo) / 2

    def log10_float(self) -> float:
        """Fast float approximation of log10 (about 1e-12 absolute error)."""
        return math.fsum(float(e) * math.log10(p) for p, e in self._f.items())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """[[prime, exp_numerator, exp_denominator], ...] sorted by prime."""
        return [[p, e.numerator, e.denominator] for p, e in sorted(self._f.items())]

    @classmethod
    def from_json(cls, data) -> "FactoredReal":
        return cls({int(p): Fraction(int(n), int(d)) for p, n, d in data})

    def __repr__(self):
        if not self._f:
            return "FactoredReal(1)"
        parts = []
        for p, e in sorted(self._f.items()):
            parts.append(f"{p}^{e}" if e.denominator != 1 or e < 0 else f"{p}^{e.numerator}")
        return "FactoredReal(" + " * ".join(parts) + ")"


ONE = FactoredReal.one()
