"""Brute-force estimation of successive infima and related experiments.

One kernel, enumerate_primitive, serves every search (infima, slopes,
minkowski, gap and scan): it enumerates the primitive integer vectors up
to a box bound in product order, row by row.  A row fixes every
coordinate but the last; rows with a negative lead are
skipped whole, the prefix gcd is taken once per row, and the values of
the integer forms (each place's forms cleared of denominators) are set
once per row and stepped along it, so no vector costs a dot product.  The
height kernel splits each twisted height at Q: the part that does not
depend on Q (the integer form values, their logs, p-adic valuations) is
computed once per vector, and each Q adds only a float shift per form, so
a vector carries ints and floats only.  Its exact value
mantissa * Q^exponent is built when a float comparison is too close to
call or the value is reported, and two such values are compared by
exact_reals.cmp_power_product.  A streaming matroid greedy per Q keeps
the current best independent n-tuple, deciding most steps by one dot
product with a normal of the span of its n-1 best, and one enumeration
feeds the greedies of a whole grid of Q values.  For a pair whose only
active place is infinite, a vector is skipped before its logs are taken
when one of its integer form values exceeds a float bound under which
every greedy's own float test would reject it (_reject_bounds), so each
greedy still sees the same vectors in the same order.  The reported lambda-bar values are
upper estimates of the true infima: lambda_i <= lambda_bar_i always.
A Diophantine system is the twisted pair of its forms and exponents plus
eps (SystemInstance).  The scan reads each vector's terms from the same
integer-forms kernel, over the system's listed places, and decides them
by a float log comparison, and cmp_power_product on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, gt, mul

from .bounds_reduction import reduce_system
from .exact_reals import FactoredReal, certified_floor, cmp_power_product, iv_ln, log10_rational
from .exterior_algebra import Subspace
from .filtration import FiltrationChain, exceptional_subspace, filtration
from .places_heights import INF, Place, valuation
from .rational_linalg import RankTracker, clear_forms, det, int_kernel
from .twisted_system import (
    TwistedPair,
    ValidationError,
    alpha_of,
    delta_l,
    pair_invariants,
    theta_of,
    validate,
)

__all__ = [
    "InfimaEstimate",
    "successive_infima",
    "enumerate_primitive",
    "default_box_policy",
    "minkowski_check",
    "MinkowskiReport",
    "slope_profile",
    "SlopeReport",
    "slope_csv",
    "gap_experiment",
    "GapReport",
    "SystemInstance",
    "scan_system",
    "ScanReport",
    "height_floor",
    "check_box",
    "RAW_BOX_CAP",
]

_LOG_TOL = 1e-9
# the most raw tuples (2*box+1)^n any search may enumerate
RAW_BOX_CAP = 2_000_000


def enumerate_primitive(n: int, box: int, forms=()):
    """Primitive integer vectors x with sup norm <= box, one per line, with
    the values of the integer forms `forms` at x.

    gcd 1, first nonzero coordinate positive: every rational line through
    the box is hit exactly once, in product order.  Yields (x, values) with
    values[i] = forms[i](x).  The vectors come row by row: a row is a
    prefix x_1..x_{n-1} whose last coordinate t runs over [-box, box].  A
    prefix whose first nonzero entry is negative holds no vector and the
    zero prefix holds only t = 1.  Otherwise the prefix gcd g is taken once
    per row and t is kept when gcd(g, t) == 1 (tested once per g and t).
    Each form value is b_i + F_i[n-1] t, with b_i = F_i(prefix) taken once
    per row and F_i[n-1] t once per t, so no vector needs a dot product.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    rng = range(-box, box + 1)
    heads = [f[:-1] for f in forms]
    last = tuple(f[-1] for f in forms)
    steps = [(t, tuple(c * t for c in last)) for t in rng]
    coprime = {}  # g -> the steps (t, F[n-1] t) with gcd(g, t) == 1
    for prefix in product(rng, repeat=n - 1):
        for lead in prefix:
            if lead:
                break
        else:
            yield prefix + (1,), last
            continue
        if lead < 0:
            continue
        g = math.gcd(*prefix)
        row = coprime.get(g)
        if row is None:
            row = coprime[g] = [st for st in steps if math.gcd(g, st[0]) == 1]
        base = tuple(sum(map(mul, head, prefix)) for head in heads)
        for t, ct in row:
            yield prefix + (t,), tuple(map(add, base, ct))


def _form_values(forms, x) -> tuple[int, ...]:
    """The values of integer forms at one given vector x (the seed vectors of a search)."""
    return tuple(sum(map(mul, f, x)) for f in forms)


def _check_float_exponents(pair: TwistedPair) -> float:
    """max |c_iv|; ValidationError, before any enumeration, for one past the float range."""
    try:
        return max((abs(float(c)) for pd in pair.active.values() for c in pd.exps), default=0.0)
    except OverflowError:
        raise ValidationError("pair exponents must lie within the float range") from None


class _IntegerForms:
    """The part of a pair's twisted heights that does not depend on Q.

    Per place (the given places in order, by default the infinite place
    and then the active primes) the forms are cleared to integer forms F_i,
    and the exponents are written as integers e_i over one common
    denominator `exp_den`, so that
    |L_i(x)|_v Q^(-c_iv) = corr_v |F_i(x)|_v Q^(e_i/exp_den).  The constant
    corr = prod corr_v is left out of every comparison and enters only
    the float logs and the reported values.  `flat` lists the integer
    forms of all places in place order, n per place, as enumerate_primitive
    takes them.
    """

    def __init__(self, pair: TwistedPair, places=None):
        pair.ensure_core_valid()
        _check_float_exponents(pair)
        self.n = pair.n
        self.exp_den = math.lcm(*(c.denominator for pd in pair.active.values() for c in pd.exps))
        self.places = []
        self.corr = Fraction(1)
        for v in sorted(set(pair.active) | {INF}) if places is None else places:
            pd = pair.place_data(v)
            den, int_forms = clear_forms(pd.forms)
            if v.is_infinite:
                self.corr /= den
            else:
                while den % v.p == 0:
                    den //= v.p
                    self.corr *= v.p
            exps = tuple(int(-c * self.exp_den) for c in pd.exps)
            self.places.append((v, int_forms, exps))
        self.flat = tuple(f for _, int_forms, _ in self.places for f in int_forms)
        # per place: p (None at infinity), log10 p, and the slice of `flat` it owns
        self.parts = [
            (v.p, math.log10(v.p) if v.p else 0.0, slice(k * self.n, (k + 1) * self.n))
            for k, (v, _, _) in enumerate(self.places)
        ]
        self.logcorr = log10_rational(self.corr)

    def terms(self, values):
        """Per place, (log10 |F_i(x)|_v, i, m) for every form F_i not vanishing at x.

        `values` are the values F_i(x) of the forms in `flat`, as
        enumerate_primitive yields them.  m is |F_i(x)| at the infinite
        place and the p-adic valuation of F_i(x) at a prime p, where
        |F_i(x)|_p = p^(-m).  The forms at each place have rank n, so
        some form at each place is nonzero at x != 0.
        """
        out = []
        log10 = math.log10
        for p, logp, part in self.parts:
            place_terms = []
            for i, s in enumerate(values[part]):
                if s == 0:
                    continue
                if p is None:
                    m = abs(s)
                    place_terms.append((log10(m), i, m))
                else:
                    m = 0
                    while s % p == 0:
                        s //= p
                        m += 1
                    place_terms.append((-m * logp, i, m))
            out.append(place_terms)
        return out


class _FastHeight:
    """Twisted heights at one Q on top of the Q-free integer kernel.

    A vector's height is carried as its float log10 plus, per place, the
    chosen term of `_IntegerForms.terms`: the form index and |F_i(x)| or
    the p-adic valuation, all integers.  The exact value
    corr * num/den * Q^(qexp/forms.exp_den) is built from the chosen terms
    only when a float comparison falls within _LOG_TOL or the value is
    reported.
    """

    def __init__(self, forms: _IntegerForms, q):
        self.forms = forms
        self.q = Fraction(q)
        if self.q < 1:
            raise ValueError("Q must be >= 1")
        self.logq = log10_rational(self.q) if self.q != 1 else 0.0
        # int / int is correctly rounded even when e or exp_den lies past the float range
        self.shifts = [tuple(e / forms.exp_den * self.logq for e in exps) for _, _, exps in forms.places]
        self._qn, self._qd = self.q.numerator, self.q.denominator
        self._qfr = None

    def value(self, terms):
        """(log10 float, chosen term per place); ties within _LOG_TOL are broken exactly."""
        total = self.forms.logcorr
        picks = []
        for (v, _, exps), place_terms, shift in zip(self.forms.places, terms, self.shifts):
            best = None
            for t in place_terms:
                lv = t[0] + shift[t[1]]
                if best is None or lv > best_log + _LOG_TOL:
                    best, best_log = t, lv
                elif lv > best_log - _LOG_TOL:
                    if self.cmp(_term_exact(v, exps, t), _term_exact(v, exps, best)) > 0:
                        best, best_log = t, lv
            picks.append(best)
            total += best_log
        return total, tuple(picks)

    def cmp(self, a, b) -> int:
        """Sign of a - b for exact values (num, den, qexp): (a/b)^exp_den = (n1 d2/(d1 n2))^exp_den Q^(e1-e2)."""
        n1, d1, e1 = a
        n2, d2, e2 = b
        return cmp_power_product(((n1 * d2, d1 * n2, self.forms.exp_den), (self._qn, self._qd, e1 - e2)))

    def exact(self, picks) -> tuple[int, int, int]:
        """(num, den, qexp) with height = corr * num/den * Q^(qexp/forms.exp_den)."""
        num = den = 1
        qexp = 0
        for (v, _, exps), t in zip(self.forms.places, picks):
            tn, td, te = _term_exact(v, exps, t)
            num, den, qexp = num * tn, den * td, qexp + te
        return num, den, qexp

    def to_factored(self, exact) -> FactoredReal:
        num, den, qexp = exact
        out = FactoredReal.from_rational(self.forms.corr * Fraction(num, den))
        if qexp != 0:
            if self._qfr is None:
                self._qfr = FactoredReal.from_rational(self.q)
            out = out * self._qfr ** Fraction(qexp, self.forms.exp_den)
        return out


def _term_exact(v: Place, exps, term) -> tuple[int, int, int]:
    """(num, den, qexp) of one term: |F_i(x)|_v Q^(e_i/exp_den) without corr_v."""
    _, i, m = term
    return (m, 1, exps[i]) if v.p is None else (1, v.p**m, exps[i])


class _Record:
    """An enumerated vector with its float log height and lazily built exact value."""

    __slots__ = ("vec", "logf", "picks", "_exact")

    def __init__(self, vec, logf, picks):
        self.vec = vec
        self.logf = logf
        self.picks = picks
        self._exact = None

    def exact(self, fh: _FastHeight):
        if self._exact is None:
            self._exact = fh.exact(self.picks)
        return self._exact


def _cmp_records(a: _Record, b: _Record, fh: _FastHeight) -> int:
    """Value comparison with float prefilter; 0 means equal values."""
    if a.logf > b.logf + _LOG_TOL:
        return 1
    if a.logf < b.logf - _LOG_TOL:
        return -1
    return fh.cmp(a.exact(fh), b.exact(fh))


class _Greedy:
    """The streaming matroid greedy at one (Q, box).

    `sel` is the greedy basis of the vectors fed so far, ordered by value
    and then by feed order: each vector is kept when independent of the
    kept ones before it.
    The greedy on sel plus a new vector gives the greedy basis of all of
    them (a matroid), and every vector fed lies in the span of the sel
    records at or before it in that order.  So the span of the fed vectors
    of value <= v is the span of the sel records of value <= v, and the
    spans need no other record.  feed turns a vector away without a greedy
    step when its value is above the worst selected one (which only falls),
    or ties it while sel spans Q^n.  It walks the vector's terms once
    (_FastHeight.value) and rejects on that float total before a record is
    built; a total within _LOG_TOL of the worst is decided exactly
    (_cmp_records).  A vector x below the worst record r_n
    but not below r_{n-1} (a tie goes after r_{n-1}, as x was fed later)
    comes between them in the greedy order, so the hyperplane
    H = span(r_1..r_{n-1}) decides it: x in H leaves sel as it is, and
    otherwise x replaces r_n and H stays.  One dot product with an integer
    normal of H, taken when first needed after _insert changed sel, tests
    this; at n = 1, H = {0}.  `bound` holds this greedy's reject bounds
    (_reject_bounds), taken again only when its worst record changes.
    """

    def __init__(self, forms: _IntegerForms, q, box: int):
        self.fh = _FastHeight(forms, q)
        self.box = box
        self.n = forms.n
        self.sel: list[_Record] = []
        self.bound: tuple[float, ...] = ()
        self._normal = None  # an integer normal of span(sel[:-1]) once sel is full, or None

    def feed(self, vec, terms) -> bool:
        """Offer one vector; True when the worst selected record of a full sel changed."""
        sel = self.sel
        full = len(sel) == self.n
        logf, picks = self.fh.value(terms)
        # reject on the float alone before building a record
        if full and logf > sel[-1].logf + _LOG_TOL:
            return False
        rec = _Record(vec, logf, picks)
        worst = sel[-1] if full else None
        if full:
            if _cmp_records(rec, worst, self.fh) >= 0:
                return False
            if self.n == 1 or _cmp_records(rec, sel[-2], self.fh) >= 0:
                if self._normal is None:
                    self._normal = int_kernel([r.vec for r in sel[:-1]], self.n)[0]
                if not sum(map(mul, self._normal, vec)):
                    return False
                sel[-1] = rec
                self._take_bound()
                return True
        self._insert(rec)
        self._normal = None
        if len(self.sel) < self.n or self.sel[-1] is worst:
            return False
        self._take_bound()
        return True

    def _insert(self, rec: _Record):
        """Greedy over sel plus rec, ordered by value and then by feed order; rec was fed last."""
        sel = self.sel
        pos = len(sel)
        while pos and _cmp_records(rec, sel[pos - 1], self.fh) < 0:
            pos -= 1
        tracker = RankTracker()
        out = []
        for r in (*sel[:pos], rec, *sel[pos:]):
            if tracker.try_add(r.vec):
                out.append(r)
                if len(out) == self.n:
                    break
        self.sel = out

    def _take_bound(self):
        """This greedy's reject bounds from its worst record, whose float log is w (see _reject_bounds)."""
        w = self.sel[-1].logf
        logcorr = self.fh.forms.logcorr
        self.bound = tuple(
            _float_bound(w + _LOG_TOL - logcorr - shift, w, logcorr, shift) for shift in self.fh.shifts[0]
        )

    def estimate(self) -> "InfimaEstimate":
        n, sel, fh = self.n, self.sel, self.fh
        if len(sel) < n:
            raise RuntimeError("failed to find n independent vectors (internal)")
        lambdas = tuple(fh.to_factored(r.exact(fh)) for r in sel)
        spans = tuple(Subspace.span(n, [r.vec for r in sel if _cmp_records(r, thr, fh) <= 0]) for thr in sel)
        return InfimaEstimate(fh.q, self.box, lambdas, tuple(r.vec for r in sel), spans)


@dataclass
class InfimaEstimate:
    """Upper estimates of the successive infima at one (Q, box)."""

    q: Fraction
    box: int
    lambdas: tuple[FactoredReal, ...]
    achievers: tuple[tuple[int, ...], ...]
    spans: tuple[Subspace, ...]


def _reject_bounds(forms: _IntegerForms, states) -> tuple[float, ...]:
    """Per form F_i, a float U_i such that every greedy of `states` rejects,
    on its float test alone, a vector x with |F_i(x)| > U_i.

    Only for a pair whose only active place is infinite, and only once
    every greedy holds n records; otherwise the result is (), which bounds
    nothing (nothing bounds a p-adic factor from below).  There the height is
    corr * max_i |F_i(x)| Q^(e_i/exp_den), so a greedy whose worst selected
    record has float log w rejects x once log10 |F_i(x)| exceeds
    w + _LOG_TOL - logcorr - shift_i.  The exponent is widened by 1e-9
    relative to the logs it is made of, far above their float error, so
    the skip never drops a vector the float test would keep.  Each greedy
    keeps its own U_i (_Greedy.bound, taken when its worst record changes);
    U_i here is the largest over the greedies, and infinite past the float
    range.
    """
    if len(forms.places) > 1 or not all(st.bound for st in states):
        return ()
    return tuple(map(max, zip(*(st.bound for st in states))))


def _float_bound(e: float, *logs: float) -> float:
    """10^e with e widened by 1e-9 relative to the logs it is made of, far
    above their float error; inf past the float range, also for a nan e."""
    e += 1e-9 * sum(map(abs, logs), 1)
    return 10.0**e if e < 308 else math.inf


def _infima_grid(pair: TwistedPair, grid) -> list[InfimaEstimate]:
    """successive_infima at every (Q, box) of `grid`, from one enumeration.

    The largest box is enumerated once and the Q-free terms of each
    vector are computed once, from the form values the kernel yields;
    each (Q, box) then feeds its own greedy the vectors of its own box.
    Product order restricted to a smaller box is that box's product order,
    so every greedy sees exactly the sequence a search of its own box
    alone would.  A vector whose integer form values exceed the
    _reject_bounds of the greedies is skipped before its terms are built:
    every greedy would reject it, so no answer changes.  The bounds are
    combined again whenever some greedy's worst record changed.
    """
    n = pair.n
    for _, box in grid:
        check_box(n, box)
    forms = _IntegerForms(pair)
    states = [_Greedy(forms, q, box) for q, box in grid]

    seeds = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for vec in seeds:
        terms = forms.terms(_form_values(forms.flat, vec))
        for st in states:
            st.feed(vec, terms)
    bound = _reject_bounds(forms, states)
    seen = set(seeds)
    bmax = max(box for _, box in grid)
    nested = any(st.box < bmax for st in states)
    for vec, values in enumerate_primitive(n, bmax, forms.flat):
        # map stops at the shorter input, so an empty bound skips nothing
        if any(map(gt, map(abs, values), bound)) or vec in seen:
            continue
        terms = forms.terms(values)
        h = max(map(abs, vec)) if nested else 0
        changed = False
        for st in states:
            if h <= st.box and st.feed(vec, terms):
                changed = True
        if changed:
            bound = _reject_bounds(forms, states)
    return [st.estimate() for st in states]


def successive_infima(pair: TwistedPair, q, box: int) -> InfimaEstimate:
    """Enumerate, sort by exact twisted height, select greedily.

    Returns non-decreasing lambda-bar values achieved by independent
    primitive vectors, plus span estimates: spans[i-1] is spanned by all
    enumerated vectors of height <= lambda_bar_i.  True infima are never
    larger than the reported estimates.
    """
    return _infima_grid(pair, [(q, box)])[0]


def check_box(n: int, box: int) -> None:
    """Refuse an empty box or one of more than RAW_BOX_CAP raw tuples (2*box+1)^n."""
    if box < 1:
        raise ValidationError(f"box must be >= 1, got {box}")
    tuples = 1
    for _ in range(n):  # stops after a few factors; (2*box+1)**n could be huge
        tuples *= 2 * box + 1
        if tuples > RAW_BOX_CAP:
            raise ValidationError(
                f"box {box} in dimension {n} spans (2*{box}+1)^{n} tuples, over the cap of {RAW_BOX_CAP}"
            )


def default_box_policy(pair: TwistedPair):
    """B(Q) = ceil(Q^c_max), capped so the raw box has <= RAW_BOX_CAP tuples."""
    n = pair.n
    cmax = _check_float_exponents(pair)
    bcap = 1
    while (2 * (bcap + 1) + 1) ** n <= RAW_BOX_CAP:
        bcap += 1

    def policy(q) -> int:
        if cmax == 0:
            return 1
        if cmax * log10_rational(Fraction(q)) > math.log10(bcap) + 1:  # also when float(q) overflows
            return bcap
        return max(1, min(math.ceil(float(q) ** cmax), bcap))

    return policy


@dataclass
class MinkowskiReport:
    q: Fraction
    box: int
    product: FactoredReal
    lower: FactoredReal
    upper: FactoredReal
    lower_ok: bool
    upper_ok: bool


def minkowski_check(pair: TwistedPair, q, box: int) -> MinkowskiReport:
    """Sandwich n^{-n/2} Delta Q^{-alpha} <= prod lambda_i <= 2^{n(n-1)/2} Delta Q^{-alpha}.

    The lower bound must hold for any box (estimates only overshoot the
    true infima); the upper bound can fail for small boxes and is
    reported.
    """
    est = successive_infima(pair, q, box)
    n = pair.n
    delta = delta_l(pair)
    alpha = alpha_of(pair)
    qpow = FactoredReal.from_rational(Fraction(q)) ** (-alpha)
    lower = FactoredReal.from_rational(n) ** Fraction(-n, 2) * delta * qpow
    upper = FactoredReal.from_rational(2) ** Fraction(n * (n - 1), 2) * delta * qpow
    prod = math.prod(est.lambdas, start=FactoredReal.one())
    lower_ok = lower <= prod
    upper_ok = prod <= upper
    if not lower_ok:
        raise RuntimeError("Minkowski lower bound violated by an upper estimate")
    return MinkowskiReport(Fraction(q), box, prod, lower, upper, lower_ok, upper_ok)


@dataclass
class SlopeReport:
    """Per-index slope estimates log lambda_i(Q)/log Q against the chain."""

    qs: tuple[Fraction, ...]
    chain: FiltrationChain
    rows: list[tuple[Fraction, int, float, float]]  # (Q, i, log10 lambda, slope)
    expected: tuple[float, ...]  # -mu for each index i
    span_matches: dict[Fraction, bool]


def slope_profile(pair: TwistedPair, q_list, box_policy=None) -> SlopeReport:
    """Estimated slopes for each Q in an increasing list, vs the filtration."""
    qs = [Fraction(q) for q in q_list]
    if any(q < 2 for q in qs) or any(b >= c for b, c in zip(qs, qs[1:])):
        raise ValueError("q_list must be increasing and >= 2")
    if box_policy is None:
        box_policy = default_box_policy(pair)
    estimates = _infima_grid(pair, [(q, box_policy(q)) for q in qs])
    chain = filtration(pair)
    n = pair.n
    expected = tuple(-float(chain.slope_for_index(i)) for i in range(1, n + 1))
    rows = []
    matches = {}
    for q, est in zip(qs, estimates):
        logq = log10_rational(q)
        for i, lam in enumerate(est.lambdas, start=1):
            ll = lam.log10_float()
            rows.append((q, i, ll, ll / logq))
        ok = True
        for l in range(1, len(chain.subspaces) - 1):
            d_l = chain.subspaces[l].dim
            if est.spans[d_l - 1] != chain.subspaces[l]:
                ok = False
        matches[q] = ok
    return SlopeReport(tuple(qs), chain, rows, expected, matches)


def slope_csv(report: SlopeReport) -> str:
    lines = ["Q,i,log10_lambda,slope"]
    for q, i, ll, s in report.rows:
        lines.append(f"{q},{i},{ll:.12f},{s:.12f}")
    return "\n".join(lines) + "\n"


@dataclass
class GapReport:
    a: Fraction
    delta: Fraction
    box: int
    threshold: FactoredReal
    solutions: tuple[tuple[int, ...], ...]
    span: Subspace
    proper: bool


def gap_experiment(pair: TwistedPair, delta, a, box: int) -> GapReport:
    """All x in the box with H_{L,c,A}(x) < Delta^{1/n} A^{-delta/2} span a proper subspace."""
    delta = Fraction(delta)
    a = Fraction(a)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    rep = validate(pair)
    if not rep.normalized_ok:
        raise ValidationError("gap experiment needs a (2.8)/(2.9)-normalized pair")
    n = pair.n
    if FactoredReal.from_rational(a) ** delta < FactoredReal.from_rational(n):
        raise ValueError("need A >= n^(1/delta)")
    threshold = delta_l(pair) ** Fraction(1, n) * FactoredReal.from_rational(a) ** (-delta / 2)
    thr_log = threshold.log10_float()
    check_box(n, box)
    forms = _IntegerForms(pair)
    fh = _FastHeight(forms, a)
    sols = []
    for vec, values in enumerate_primitive(n, box, forms.flat):
        logf, picks = fh.value(forms.terms(values))
        if logf > thr_log + _LOG_TOL:
            continue
        if logf < thr_log - _LOG_TOL or fh.to_factored(fh.exact(picks)) < threshold:
            sols.append(vec)
    span = Subspace.span(n, sols) if sols else Subspace.zero(n)
    return GapReport(a, delta, box, threshold, tuple(sols), span, span.dim < n)


class SystemInstance(TwistedPair):
    """A Diophantine system (L, d, eps): the twisted pair (L, d) plus eps.

    TwistedPair parses the places and checks their arity, ensure_core_valid
    their rank; the system adds n >= 2, eps in (0, 1], every d_iv <= 0 and
    sum d_iv = -n - eps.  `places` is the pair's `active` mapping.
    """

    __slots__ = ("epsilon",)

    def __init__(self, n: int, epsilon, places):
        if n < 2:
            raise ValidationError("system dimension must be >= 2")
        super().__init__(n, places)
        self.epsilon = Fraction(epsilon)
        if not 0 < self.epsilon <= 1:
            raise ValidationError("epsilon must be in (0, 1]")
        self.ensure_core_valid()
        for v, pd in self.active.items():
            if any(d > 0 for d in pd.exps):
                raise ValidationError(f"exponents at {v.label()} must be <= 0")
        total = alpha_of(self)
        if total != -n - self.epsilon:
            raise ValidationError(f"exponent sum is {total}, expected {-n - self.epsilon}")

    @property
    def places(self) -> dict:
        return self.active


@dataclass
class ScanReport:
    solutions: list[dict]
    t_prime: Subspace
    reduced_delta: Fraction
    histogram: dict[int, int]
    bin_ratio: Fraction


class _SolutionTest:
    """The solution test of a system on its integer forms, for primitive vectors.

    A primitive x has |x|_inf = H(x) = h and |x|_p = 1 at every prime.
    With the forms at each listed place v cleared to F_i = den_v L_i
    (_IntegerForms over the system's places), the condition
    |L_i(x)|_v <= |det L_v|_v^(1/n) h^(d_iv) |x|_v reads
    |F_i(x)|_v <= C_v^(1/n) h^(e_iv), with C_v = |det F_v|_v and e_iv =
    d_iv + 1 at the infinite place, d_iv at a prime.  Each term of
    _IntegerForms.terms is checked by a float log comparison unless the two
    logs lie within _LOG_TOL; then cmp_power_product decides
    |F_i(x)|_v^N C_v^(-N/n) h^(-e_iv N) <= 1 with N = lcm(n, den e_iv).  A
    form vanishing at x has no term and imposes nothing.

    `bounds[h - 1]` holds, per form of `forms.flat` up to the infinite
    place's, a float U_i(h) such that a vector of height h with
    |F_i(x)| > U_i(h) fails that float test at the infinite place:
    10^(rhs + _LOG_TOL), its exponent widened by 1e-9 (1 + |rhs|), far above
    the float error of the comparison (as _reject_bounds widens), and
    infinite past the float range and for the p-adic forms before it.
    Without an infinite place the bounds are empty and bound nothing.
    """

    def __init__(self, sys: SystemInstance, h_max: int):
        n = sys.n
        self.forms = _IntegerForms(sys, sys.places)
        logh = [math.log10(h) for h in range(1, h_max + 1)]
        # per place, per form: (log10 of the right-hand side at heights 1..h_max, C_v as num, den, N, -N/n, -e N)
        self.rhs = []
        for v, int_forms, _ in self.forms.places:
            dt = det(int_forms)
            if v.is_infinite:
                c, shift = abs(dt), 1
            else:
                c, shift = Fraction(v.p) ** -valuation(dt, v.p), 0
            logc = (math.log10(c.numerator) - math.log10(c.denominator)) / n  # c may lie outside the float range
            place_rhs = []
            for d in sys.places[v].exps:
                e = d + shift
                big_n = math.lcm(n, e.denominator)
                rhs = [logc + float(e) * lh for lh in logh]
                hk = -e.numerator * (big_n // e.denominator)
                place_rhs.append((rhs, c.numerator, c.denominator, big_n, -(big_n // n), hk))
            self.rhs.append(place_rhs)
        self.bounds = [()] * h_max
        for (p, _, part), place_rhs in zip(self.forms.parts, self.rhs):
            if p is None:
                self.bounds = [
                    (math.inf,) * part.start + tuple(_float_bound(rhs[h] + _LOG_TOL, rhs[h]) for rhs, *_ in place_rhs)
                    for h in range(h_max)
                ]

    def holds(self, values, h: int) -> bool:
        """Whether a primitive vector of height h solves the system, from its values at the forms of `forms.flat`."""
        for (v, _, exps), place_terms, place_rhs in zip(self.forms.places, self.forms.terms(values), self.rhs):
            for t in place_terms:
                rhs, cn, cd, big_n, ck, hk = place_rhs[t[1]]
                r = rhs[h - 1]
                if t[0] < r - _LOG_TOL:
                    continue
                if t[0] > r + _LOG_TOL:
                    return False
                # a tie within the float tolerance, decided exactly
                fn, fd, _ = _term_exact(v, exps, t)
                if cmp_power_product(((fn, fd, big_n), (cn, cd, ck), (h, 1, hk))) > 0:
                    return False
        return True


def scan_system(sys: SystemInstance, h_max, box: int) -> ScanReport:
    """Enumerate primitive solutions of the system, classify against T'.

    A vector solves the system when |L_i(x)|_v / |x|_v <= A_v H(x)^{d_iv},
    A_v = |det L_v|_v^{1/n}, holds exactly at every listed place (decided
    on integer forms by _SolutionTest); solutions are reported with
    their heights, membership in the exceptional subspace of the reduced
    twisted pair, and a multiplicative height histogram.
    """
    h_max = Fraction(h_max)
    bmax = min(box, int(h_max))
    check_box(sys.n, bmax)
    pair, delta, _ = reduce_system(sys)
    t_prime = exceptional_subspace(pair)
    ratio = 1 + delta / 2

    test = _SolutionTest(sys, bmax)
    solutions = []
    hist: dict[int, int] = {}
    for vec, values in enumerate_primitive(sys.n, bmax, test.forms.flat):
        h = max(map(abs, vec))
        # map stops at the shorter input, so an empty bound skips nothing
        if not any(map(gt, map(abs, values), test.bounds[h - 1])) and test.holds(values, h):
            k = _mult_bin(h, ratio)
            hist[k] = hist.get(k, 0) + 1
            solutions.append(
                {"x": vec, "height": h, "in_T_prime": t_prime.contains_vector(vec)}
            )
    return ScanReport(solutions, t_prime, delta, hist, ratio)


def _mult_bin(h: int, ratio: Fraction) -> int:
    """k with ratio^k <= h < ratio^(k+1), for a ratio in (1, 7/6].

    ratio = 1 + delta/2 with delta = eps/(n+eps) <= 1/3, as eps is in
    (0, 1] and n >= 2.  k = floor(ln h / ln ratio), read off one certified
    enclosure.  A ratio in (1, 7/6] is not an integer, so none of its powers
    is an integer h >= 2: the quotient of logs is never an integer, and
    refining the enclosure always pins its floor (CertificationError past
    MAX_DPS digits).
    """
    if h < 1:
        raise ValueError("height must be >= 1")
    if h == 1:
        return 0
    return certified_floor(lambda iv: iv_ln(iv, h) / iv_ln(iv, ratio))


def height_floor(pair: TwistedPair, q) -> FactoredReal:
    """n^{-1} H_L^{-C(r,n)} Q^{-theta}: a floor under every twisted height."""
    _, h = pair_invariants(pair)
    qfr = q if isinstance(q, FactoredReal) else FactoredReal.from_rational(Fraction(q))
    n = pair.n
    return FactoredReal.from_rational(Fraction(1, n)) * h ** -math.comb(validate(pair).r, n) * qfr ** -theta_of(pair)
