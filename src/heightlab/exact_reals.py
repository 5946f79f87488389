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
CertificationError.  The endpoints are integers (lo, hi, one), one > 0,
with the value in [lo / one, hi / one]: the caller's test done(lo, hi, one)
and the caller compare integers, and build no Fraction.  Two routines do
it.  log10_enclosure gives the log10 of a FactoredReal (every report
log10, and the factored entries of the bound tables) as one sum in fixed
point: the cached ln of each prime (_ln_fixed: square roots, then atanh's
series in Python integers, with a proven error bound), times its
exponent, over ln 10.  enclose evaluates
every other value: outward-rounded interval arithmetic on builders written
once against mpmath.iv's interface, with the interval helpers beside it
(iv_fr, iv_ln and certified_floor) for the theorem constants and floors,
cover counts and the scan's histogram bins.  It runs them on integer
mantissas over a power of 2 (_BinaryIV: exact rationals until a size cap,
outward rounding past it), with _ln_fixed again for its ln.  decimal
serves only the printing of digits (decimal_str, g_str, of an integer
num/den such as the midpoint (lo + hi) / (2 one)).  The package needs no
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
    "decimal_str", "g_str",
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

# Bits past which an exact numerator or denominator of _BinaryIV becomes
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


def _ln(num: int, den: int, t: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2**e <= ln(num/den 2**t) <= hi 2**e, for integers
    num >= den >= 1 and t >= 0.

    ln num/den (_ln_fixed) and t ln 2 (_atanh_sum) are two terms >= 0 that
    never cancel, at w = bits + t.bit_length() bits, so that t times the
    error of ln 2 stays within a few units of 2**-bits.  Without t,
    ln num/den >= (num - den)/num, and w carries that many more bits.  ln 1
    is 0 exactly, so the ln of a power of 2 carries the error of t ln 2 only."""
    w = bits + t.bit_length()
    if num == den:
        total = err = 0
    else:
        if not t:
            w += num.bit_length() - (num - den).bit_length() + 1
        total, err = _ln_fixed(num, den, w)
    if t:
        l2, e2 = _atanh_sum(_LN2, w)
        total, err = total + t * l2, err + t * e2
    return total - err, total + err, -w


@functools.lru_cache(maxsize=1024)
def _exact_ln(q, bits: int) -> tuple[int, int, int]:
    """_ln of a positive rational, which recur in every builder (primes, 10, the
    theorems' parameters): +-ln num/den with num >= den, of any size."""
    num, den = q.numerator, q.denominator
    if num >= den:
        return _ln(num, den, 0, bits)
    lo, hi, e = _ln(den, num, 0, bits)
    return -hi, -lo, e


def _dyadic_ln(m: int, e: int, bits: int) -> tuple[int, int, int]:
    """_ln of m 2**e, m >= 1: ln m + e ln 2 when e >= 0, ln(m / 2**-e) when
    that is >= 1, and else -(ln(2**b / m) + t ln 2) with b the bits of m and
    t = -e - b >= 0."""
    if e >= 0:
        return _ln(m, 1, e, bits)
    b = m.bit_length()
    if b > -e:
        return _ln(m, 1 << -e, 0, bits)
    lo, hi, w = _ln(1 << b, m, -e - b, bits)
    return -hi, -lo, w


def _floor(num: int, den: int, e: int) -> int:
    """floor(num / (den 2**e)), den > 0."""
    return (num << -e) // den if e < 0 else num // (den << e)


def _outward(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """(a, b, e) with a 2**e <= num/den <= b 2**e, den > 0, with about bits
    bits in |a| and |b| (a = b for a dyadic that fits)."""
    e = abs(num).bit_length() - den.bit_length() - bits
    return _floor(num, den, e), -_floor(-num, den, e), e


def _shift(m: int, k: int) -> int:
    """floor(m 2**k)."""
    return m << k if k >= 0 else m >> -k


class _BinaryIV:
    """The interval arithmetic of enclose: what builders use of mpmath.iv
    (mpf, log, dps, and + - * / and integer ** on its values), on integer
    mantissas over a power of 2 at bits = dps log2(10) + 5 bits, every
    result rounded outward."""

    def __init__(self, dps: int):
        self.dps = dps
        self.bits = dps * 10 // 3 + 5
        self.unbounded = _Ival(self, None)

    def mpf(self, x) -> "_Ival":
        """An int or Fraction, kept exact, or the interval [lo, hi] of x = [lo, hi]."""
        if isinstance(x, _Ival):
            return x
        if isinstance(x, (list, tuple)):
            lo, hi = (Fraction(v) for v in x)
            big = max(-lo, hi)
            e = big.numerator.bit_length() - big.denominator.bit_length() - self.bits
            lo, hi = _floor(lo.numerator, lo.denominator, e), -_floor(-hi.numerator, hi.denominator, e)
            return _Ival(self, None, lo, hi, e)
        return _Ival(self, x if isinstance(x, _RatLike) else Fraction(x))

    def log(self, x) -> "_Ival":
        """ln x.  A positive rational, of any size, is one _ln of it; anything
        else is ln of its interval [lo, hi] 2**e, lo > 0: _ln's enclosure of
        ln lo 2**e, plus (hi - lo)/lo above it, as ln is concave.  Unbounded
        for an x that may be <= 0."""
        if isinstance(x, _RatLike):
            q = x
        else:
            x = self.mpf(x)
            q = x.q
        if q is not None:
            return _interval(self, *_exact_ln(q, self.bits)) if q > 0 else self.unbounded
        if x is self.unbounded or x.lo <= 0:
            return self.unbounded
        lo, hi, e = _dyadic_ln(x.lo, x.e, self.bits)
        return _interval(self, lo, hi - ((x.lo - x.hi) << -e) // x.lo, e)


class _Ival:
    """A value of _BinaryIV: the exact rational q (an int or a Fraction) or,
    when q is None, the interval [lo, hi] 2**e of integers lo <= hi.  Its
    namespace's `unbounded` (lo = hi = None) stands for what no finite
    interval encloses here: a quotient by an interval that holds 0, or a
    log of one that reaches 0."""

    __slots__ = ("ns", "q", "lo", "hi", "e")

    def __init__(self, ns: _BinaryIV, q, lo=None, hi=None, e=0):
        if q is not None and (q.numerator.bit_length() > _EXACT_BITS or q.denominator.bit_length() > _EXACT_BITS):
            lo, hi, e = _outward(q.numerator, q.denominator, ns.bits)
            q = None
        self.ns, self.q, self.lo, self.hi, self.e = ns, q, lo, hi, e

    def ends(self) -> tuple[int, int, int]:
        q = self.q
        if q is None:
            return self.lo, self.hi, self.e
        return _outward(q.numerator, q.denominator, self.ns.bits)

    def _other(self, x):
        if isinstance(x, _Ival):
            return x
        if isinstance(x, _RatLike):
            return _Ival(self.ns, x)
        return None

    def __add__(self, other):
        """Both terms in units of 2**e, e bits below the top of the larger:
        a term below that unit floors to 0 or -1 there, and so widens it by
        one.  A zero has no top, and adds nothing."""
        b = self._other(other)
        if b is None:
            return NotImplemented
        ns = self.ns
        if self.q is not None and b.q is not None:
            return _Ival(ns, self.q + b.q)
        if self is ns.unbounded or b is ns.unbounded:
            return ns.unbounded
        (alo, ahi, ae), (blo, bhi, be) = self.ends(), b.ends()
        if not alo and not ahi:
            return b
        if not blo and not bhi:
            return self
        e = max(max(-alo, ahi).bit_length() + ae, max(-blo, bhi).bit_length() + be) - ns.bits
        lo = _shift(alo, ae - e) + _shift(blo, be - e)
        return _Ival(ns, None, lo, -_shift(-ahi, ae - e) - _shift(-bhi, be - e), e)

    __radd__ = __add__

    def __neg__(self):
        if self.q is not None:
            return _Ival(self.ns, -self.q)
        if self is self.ns.unbounded:
            return self
        return _Ival(self.ns, None, -self.hi, -self.lo, self.e)

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
        (alo, ahi, ae), (blo, bhi, be) = self.ends(), b.ends()
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return _interval(ns, min(products), max(products), ae + be)

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
        lo, hi, e = self.ends()
        x = _Ival(ns, None, lo, hi, e)
        if lo >= 0:
            return _power(x, k)
        if hi <= 0:
            return -_power(-x, k) if k % 2 else _power(-x, k)
        if k % 2:  # [lo, 0]**k + [0, hi]**k
            return -_power(_Ival(ns, None, 0, -lo, e), k) + _power(_Ival(ns, None, 0, hi, e), k)
        return _power(_Ival(ns, None, 0, max(-lo, hi), e), k)


def _interval(ns: _BinaryIV, lo: int, hi: int, e: int) -> _Ival:
    """[lo, hi] 2**e rounded outward to ns.bits bits."""
    k = max(-lo, hi).bit_length() - ns.bits
    if k > 0:
        lo, hi, e = lo >> k, -(-hi >> k), e + k
    return _Ival(ns, None, lo, hi, e)


def _power(x: _Ival, k: int) -> _Ival:
    """x**k for an interval x >= 0 and k >= 1, by squaring."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _divide(a: _Ival, b: _Ival) -> _Ival:
    """The floor and ceiling quotients of the endpoints, a's mantissas shifted
    left by s bits so that the largest has about ns.bits bits."""
    ns = a.ns
    if b.q is not None and b.q == 0:
        return ns.unbounded
    if a.q is not None and b.q is not None:
        return _Ival(ns, Fraction(a.q, b.q))
    if a is ns.unbounded or b is ns.unbounded:
        return ns.unbounded
    (alo, ahi, ae), (blo, bhi, be) = a.ends(), b.ends()
    if blo <= 0 <= bhi:
        return ns.unbounded
    s = max(0, ns.bits + (blo if blo > 0 else -bhi).bit_length() - max(-alo, ahi).bit_length() + 1)
    lo = min((x << s) // y for x in (alo, ahi) for y in (blo, bhi))
    hi = -min((-x << s) // y for x in (alo, ahi) for y in (blo, bhi))
    return _interval(ns, lo, hi, ae - be - s)


# Most decimal digits a certified value may be evaluated at.
MAX_DPS = 20_000


def _endpoints(x: _Ival) -> tuple[int, int, int] | None:
    """Integer endpoints (lo, hi, one) of a _BinaryIV value, which lies in
    [lo / one, hi / one]; None when it is unbounded, CertificationError for
    an endpoint whose exponent lies past POWER_BITS, before it is built."""
    q = x.q
    if q is not None:
        return q.numerator, q.numerator, q.denominator
    if x is x.ns.unbounded:
        return None
    e = x.e
    if abs(e) > POWER_BITS:
        raise CertificationError(f"an interval endpoint needs more than {POWER_BITS} bits")
    if e >= 0:
        return x.lo << e, x.hi << e, 1
    return x.lo, x.hi, 1 << -e


def enclose(build, done, dps: int) -> tuple[int, int, int]:
    """Integer endpoints (lo, hi, one) of build(iv), an interval expression in
    mpmath.iv's interface: lo / one <= build <= hi / one, with one > 0.

    build runs on _BinaryIV at dps digits, and the digits double until both
    endpoints are finite and done(lo, hi, one) holds; CertificationError past
    MAX_DPS digits, and at once for an endpoint past POWER_BITS bits,
    which more digits do not shrink.
    """
    while dps <= MAX_DPS:
        ends = _endpoints(build(_BinaryIV(dps)))
        if ends is not None and done(*ends):
            return ends
        dps *= 2
    raise CertificationError(f"a certified value needs more than {MAX_DPS} digits")


def log10_enclosure(x: "FactoredReal", done, dps: int) -> tuple[int, int, int]:
    """Integer endpoints (lo, hi, one) of log10 x, as enclose gives those of
    iv_ln(iv, x) / iv.log(10), from one sum in fixed point instead.

    At w = dps log2(10) + 5 bits or more, each prime power p**(a/b) of x
    adds floor(a L_p / b), where |L_p - 2**w ln p| <= E_p (_ln_fixed): the
    term lies less than |a/b| E_p + 1 from 2**w (a/b) ln p.  The sum T, with
    E the sum of those bounds, is divided by ln 10's [L - E', L + E']
    (_atanh_sum), and the quotients of [T - E, T + E] by it, rounded outward
    to units of 2**-w, are lo and hi, over one = 2**w.  The digits double
    until done(lo, hi, one); CertificationError past MAX_DPS.
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
            return lo, hi, 1 << w
        dps *= 2
    raise CertificationError(f"a certified value needs more than {MAX_DPS} digits")


def iv_fr(iv, x: Fraction):
    """A Fraction as an interval of iv: on _BinaryIV that exact value, on mpmath.iv num / den."""
    if isinstance(iv, _BinaryIV):
        return iv.mpf(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def iv_ln(iv, x):
    """Natural log of a positive Fraction or FactoredReal, as an interval of iv.

    A Fraction on _BinaryIV is one ln of the exact value, at any size; on
    mpmath.iv, which takes no Fraction, ln num - ln den."""
    if isinstance(x, FactoredReal):
        total = iv.mpf(0)
        for p, e in sorted(x.factors.items()):
            total = total + iv.log(p) * iv_fr(iv, e)
        return total
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive value")
    if isinstance(iv, _BinaryIV):
        return iv.log(x)
    return iv.log(iv.mpf(x.numerator)) - iv.log(iv.mpf(x.denominator))


def certified_floor(build) -> int:
    """floor of build(iv), from an enclosure refined until both endpoints have the same floor."""
    lo, _, one = enclose(build, lambda lo, hi, one: lo // one == hi // one, 30)
    return lo // one


# -- printing ---------------------------------------------------------------------


# typed: a sig of another type (12.0) gets an entry of its own, and decimal refuses it as it would uncached
@functools.lru_cache(maxsize=None, typed=True)
def _context(sig: int, rounding: str) -> decimal.Context:
    """The decimal context of sig significant digits, with no exponent limit in reach."""
    return decimal.Context(prec=sig, rounding=rounding, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _decimal_digits(num: int, den: int, sig: int, rounding: str) -> tuple[int, str, int]:
    """(sign, digits, adjusted exponent) of num/den, den > 0, rounded to sig significant digits."""
    d = _context(sig, rounding).divide(num, den)
    sign, digits, _ = d.as_tuple()
    return sign, "".join(map(str, digits)), d.adjusted()


def decimal_str(num: int, den: int, sig: int) -> str:
    """num/den (den > 0) rounded half-up to sig significant digits, laid out as mpmath.nstr lays it out.

    Fixed point when the decimal exponent e satisfies
    min(-(sig // 3), -5) < e < sig, else with e+N or e-N; trailing zeros
    are stripped, but one is kept after the point.
    """
    if not num:
        return "0.0"
    sign, digits, e = _decimal_digits(num, den, sig, decimal.ROUND_HALF_UP)
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


def g_str(num: int, den: int, sig: int) -> str:
    """num/den (den > 0) rounded half-even to sig significant digits, laid out as f"{x:.{sig}g}" lays out a float x."""
    sign, digits, e = _decimal_digits(num, den, sig, decimal.ROUND_HALF_EVEN)
    digits = digits.rstrip("0") or "0"
    if not -4 <= e < sig:
        return "-" * sign + digits[0] + ("." + digits[1:] if digits[1:] else "") + f"e{e:+03d}"
    if e >= 0:
        whole, frac = digits[: e + 1].ljust(e + 1, "0"), digits[e + 1 :]
    else:
        whole, frac = "0", "0" * (-e - 1) + digits
    return "-" * sign + whole + ("." + frac if frac else "")


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

        lo, hi, one = log10_enclosure(self, done, digits + 15)
        return Fraction(lo + hi, 2 * one), Fraction(hi - lo, 2 * one)

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
