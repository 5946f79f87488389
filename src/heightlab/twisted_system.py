"""Twisted-height systems (L, c) over Q and their basic invariants.

A pair assigns to finitely many "active" places a tuple of n independent
rational linear forms and n rational exponents; every other place
carries the coordinate forms with zero exponents.  With rational data
every twisted height value is an exact FactoredReal.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exact_reals import FactoredReal
from .places_heights import INF, Place, abs_value, parse_int, primitive_scale
from .rational_linalg import clear_forms, det, qvec, rank

__all__ = [
    "TwistedPair",
    "PlaceData",
    "ValidationReport",
    "ValidationError",
    "validate",
    "twisted_height",
    "delta_l",
    "pair_invariants",
    "shift_exponents",
    "compose",
    "form_union",
    "theta_of",
    "alpha_of",
    "pair_to_json",
    "pair_from_json",
    "frac_str",
    "parse_frac",
    "parse_rationals",
    "places_from_json",
]


class ValidationError(Exception):
    """Raised when an operation requires a core-valid pair and gets none."""


@functools.lru_cache(maxsize=64)
def _identity_forms(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The coordinate forms of Q^n, built once per n."""
    return tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class PlaceData:
    """Forms and exponents carried by one active place."""

    forms: tuple[tuple[Fraction, ...], ...]
    exps: tuple[Fraction, ...]

    def is_neutral(self, n: int) -> bool:
        return self.forms == _identity_forms(n) and all(e == 0 for e in self.exps)


class TwistedPair:
    """The system (L, c): dimension n plus per-place forms and exponents.

    Any place absent from `active` carries the identity forms and zero
    exponents.  Instances are immutable after construction; structural
    checks happen here, the mathematical conditions in validate().
    """

    __slots__ = ("n", "active", "_core_checked")

    def __init__(self, n: int, active=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        data = {}
        for place, pd in (active or {}).items():
            if not isinstance(place, Place):
                place = Place.parse(place)
            if not isinstance(pd, PlaceData):
                forms, exps = pd
                pd = PlaceData(tuple(qvec(f) for f in forms), qvec(exps))
            if len(pd.forms) != n or any(len(f) != n for f in pd.forms) or len(pd.exps) != n:
                raise ValueError(f"place {place}: need n forms of length n and n exponents")
            data[place] = pd
        self.active = dict(sorted(data.items()))
        self._core_checked = False

    def place_data(self, v: Place) -> PlaceData:
        pd = self.active.get(v)
        if pd is None:
            return PlaceData(_identity_forms(self.n), tuple(Fraction(0) for _ in range(self.n)))
        return pd

    def places(self) -> list[Place]:
        return list(self.active)

    def without_neutral_places(self) -> "TwistedPair":
        kept = {v: pd for v, pd in self.active.items() if not pd.is_neutral(self.n)}
        return TwistedPair(self.n, kept)

    def ensure_core_valid(self):
        if self._core_checked:
            return
        dependent = _dependent_forms(self)
        if dependent:
            raise ValidationError("; ".join(dependent))
        self._core_checked = True

    def __eq__(self, other):
        if not isinstance(other, TwistedPair):
            return NotImplemented
        return self.n == other.n and self.active == other.active

    def __repr__(self):
        return f"TwistedPair(n={self.n}, places={[v.label() for v in self.active]})"


@dataclass
class ValidationReport:
    """Outcome of checking the defining and normalization conditions."""

    core_ok: bool
    normalized_ok: bool
    r: int
    messages: list[str] = field(default_factory=list)


def form_union(pair: TwistedPair) -> list[tuple[Fraction, ...]]:
    """The distinct forms over all places (raw coefficient tuples).

    Inactive places always exist, so the coordinate forms are always
    included.  No rescaling before deduplication: the system invariants
    are sensitive to form scaling.
    """
    seen = dict.fromkeys(_identity_forms(pair.n))
    for pd in pair.active.values():
        seen.update(dict.fromkeys(pd.forms))
    return list(seen)


def _dependent_forms(pair: TwistedPair) -> list[str]:
    """The core condition: one message per active place whose forms are linearly dependent."""
    return [
        f"forms at {v.label()} are linearly dependent" for v, pd in pair.active.items() if rank(pd.forms) != pair.n
    ]


def validate(pair: TwistedPair) -> ValidationReport:
    """Check the core conditions and the two normalizations separately."""
    msgs = _dependent_forms(pair)
    core_ok = not msgs
    sums_ok = True
    max_sum = Fraction(0)
    for v, pd in pair.active.items():
        total = sum(pd.exps[1:], pd.exps[0])  # Fraction + Fraction throughout, no int 0 to start
        if total != 0:
            sums_ok = False
            msgs.append(f"exponent sum at {v.label()} is {total}, not 0")
        max_sum += max(pd.exps)
    if max_sum > 1:
        msgs.append(f"sum of per-place max exponents is {max_sum} > 1")
    normalized_ok = core_ok and sums_ok and max_sum <= 1
    return ValidationReport(core_ok, normalized_ok, len(form_union(pair)), msgs)


def theta_of(pair: TwistedPair) -> Fraction:
    """sum_v max_i c_iv (inactive places contribute 0)."""
    return sum((max(pd.exps) for pd in pair.active.values()), Fraction(0))


def alpha_of(pair: TwistedPair) -> Fraction:
    """sum_v sum_i c_iv."""
    return sum((sum(pd.exps) for pd in pair.active.values()), Fraction(0))


def twisted_height(pair: TwistedPair, q, x) -> FactoredReal:
    """H_{L,c,Q}(x) = prod_v max_i |L_i^(v)(x)|_v Q^{-c_iv}, exact.

    x is scaled to a primitive integer vector first (the height is
    projectively invariant), after which every inactive place
    contributes 1 and the product is finite.  Q may be a rational or a
    FactoredReal (for parameters like H^{1+eps/n}).
    """
    pair.ensure_core_valid()
    if isinstance(q, FactoredReal):
        qfr = q
    else:
        qfr = FactoredReal.from_rational(Fraction(q))
    if qfr < FactoredReal.one():
        raise ValueError("Q must be >= 1")
    prim = primitive_scale(x)  # raises on x = 0
    total = FactoredReal.one()
    places = set(pair.active)
    places.add(INF)
    for v in places:
        pd = pair.place_data(v)
        best = None
        for form, c in zip(pd.forms, pd.exps):
            val = sum(a * b for a, b in zip(form, prim))
            av = abs_value(val, v)
            if av is None:
                continue
            cand = av * qfr ** (-c)
            if best is None or cand > best:
                best = cand
        if best is None:
            raise ValidationError(f"all forms at {v.label()} vanish on x")
        total = total * best
    return total


def delta_l(pair: TwistedPair) -> FactoredReal:
    """Delta_L = prod_v |det L^(v)|_v: one determinant per active place."""
    pair.ensure_core_valid()
    delta = FactoredReal.one()
    for v, pd in pair.active.items():
        av = abs_value(det(pd.forms), v)
        if av is None:
            raise ValidationError(f"singular forms at {v.label()}")
        delta = delta * av
    return delta


def pair_invariants(pair: TwistedPair) -> tuple[FactoredReal, FactoredReal]:
    """(Delta_L, H_L): the determinant product and the n-subset maximum.

    Asserts the sandwich H_L^(1 - C(r,n)) <= Delta_L <= H_L.
    """
    delta = delta_l(pair)
    n = pair.n
    union = form_union(pair)
    # H_L = max |det B| * prod_p max |det B|_p over the n-subsets B.  With the forms
    # cleared by one denominator D the minors are M_B = D^n det B, so the first factor
    # is max |M_B| / D^n and the second D^n / gcd(M_B): no minor is factored
    minors = [abs(d.numerator) for d in map(det, combinations(clear_forms(union)[1], n))]
    h = FactoredReal.from_rational(Fraction(max(minors), math.gcd(*minors)))

    binom = math.comb(len(union), n)
    if not (h ** (1 - binom) <= delta <= h):
        raise AssertionError("determinant sandwich violated (internal error)")
    return delta, h


def shift_exponents(pair: TwistedPair, theta) -> TwistedPair:
    """Replace c_iv by c_iv - theta_v; heights scale by Q^Theta."""
    shifts = {}
    for place, t in theta.items():
        if not isinstance(place, Place):
            place = Place.parse(place)
        shifts[place] = Fraction(t)
    active = dict(pair.active)
    for v, t in shifts.items():
        if t == 0:
            continue
        pd = pair.place_data(v)
        active[v] = PlaceData(pd.forms, tuple(c - t for c in pd.exps))
    return TwistedPair(pair.n, active).without_neutral_places()


def compose(pair: TwistedPair, phi) -> TwistedPair:
    """The system L∘φ for an invertible rational matrix φ.

    Active places keep their exponents with composed forms.  Places where
    φ is not p-adically neutral (entry denominators, primes dividing
    det φ) plus the infinite place become active with the rows of φ and
    zero exponents; everywhere else composing with φ does not change the
    local factor, so the identity-default convention still represents
    L∘φ exactly height-wise.
    """
    n = pair.n
    rows = [qvec(r) for r in phi]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("phi must be n x n")
    d = det(rows)
    if d == 0:
        raise ValueError("phi is singular")

    bad_primes = set()
    primes_of = lambda k: set(FactoredReal.from_rational(Fraction(abs(k))).factors)
    for row in rows:
        for entry in row:
            if entry.denominator != 1:
                bad_primes |= primes_of(entry.denominator)
    bad_primes |= primes_of(d.numerator)
    bad_primes |= primes_of(d.denominator)

    targets = set(pair.active) | {INF} | {Place.finite(p) for p in bad_primes}
    cols = list(zip(*rows))
    active = {}
    for v in targets:
        pd = pair.place_data(v)
        new_forms = tuple(
            tuple(sum(a * c for a, c in zip(form, col)) for col in cols) for form in pd.forms
        )
        active[v] = PlaceData(new_forms, pd.exps)
    return TwistedPair(n, active).without_neutral_places()


# -- JSON ----------------------------------------------------------------


def frac_str(x) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# Largest decimal exponent a rational may carry, as in "1e-4300": Python's
# limit on the digits of an int read from a string.  Without a cap a few
# characters such as "1e1000000" buy a million-digit power of ten.
EXPONENT_CAP = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+)\Z")


@functools.lru_cache(maxsize=256)
def _int_ratio(s: str) -> Fraction | None:
    """The Fraction of [+-]?[0-9]+(/[0-9]+)?, read by int alone; None for any other string.

    Kept for the last 256 strings: pair files and flags spell the same few
    rationals ("0", "1", "-1", "1/2") again and again.  A Fraction is
    immutable, so every reader may share it.
    """
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return None


def parse_frac(s) -> Fraction:
    """The rational of an int, a Fraction, a finite float or a string ("-3/4", "0.25", "1e-3").

    A string is ASCII with no whitespace.  An integer or a fraction of them,
    [+-]?[0-9]+(/[0-9]+)?, is read by int alone (_int_ratio, which keeps
    the last 256); any other string as Fraction reads it.  Raises what
    Fraction raises for other input (also ZeroDivisionError for "1/0"),
    TypeError for a bool, and ValueError for
    a string with whitespace, a non-ASCII character or an underscore (which
    Fraction reads in " 1/2", in Arabic-Indic digits and, from Python 3.11
    on, in "1_000"), a decimal exponent beyond EXPONENT_CAP in magnitude, or
    an infinite float.
    """
    if isinstance(s, str):
        x = _int_ratio(s)
        if x is not None:
            return x
        if not s.isascii() or s.split() != [s] or "_" in s:
            raise ValueError(f"not a rational: {s!r}")
        m = _EXPONENT.search(s)
        if m and abs(int(m.group(1))) > EXPONENT_CAP:
            raise ValueError(f"decimal exponent beyond +-{EXPONENT_CAP}")
    elif isinstance(s, bool):
        raise TypeError("a bool is not a rational")
    try:
        return Fraction(s)
    except OverflowError:
        raise ValueError("not a finite rational") from None


def pair_to_json(pair: TwistedPair) -> dict:
    return {
        "n": pair.n,
        "places": [
            {
                "place": v.label(),
                "forms": [[frac_str(a) for a in form] for form in pd.forms],
                "exps": [frac_str(c) for c in pd.exps],
            }
            for v, pd in pair.active.items()
        ],
    }


# Largest dimension n a pair or system file may declare.  Every check of
# a pair builds its n x n identity forms (the inactive places), so a bare
# {"n": 10**9, "places": []} must be refused before anything is built.
# The cap bounds what a file declares, not the work a command does on it.
DIM_CAP = 32


def places_from_json(data, n_min: int = 1) -> tuple[int, dict]:
    """(n, {Place: (forms, exps)}) from a pair or system JSON object.

    Raises ValidationError unless the input is an object with a dimension
    n_min <= n <= DIM_CAP (an integer or a string of one) and a list of
    distinct places, each with a label ("inf" or a prime), n forms of n
    rationals and n rational exponents.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"expected a JSON object, got {type(data).__name__}")
    for key in ("n", "places"):
        if key not in data:
            raise ValidationError(f"missing key {key!r}")
    try:
        n = parse_int(data["n"])
    except (ValueError, TypeError):
        raise ValidationError(f"n must be an integer, got {data['n']!r}") from None
    if not n_min <= n <= DIM_CAP:
        raise ValidationError(f"n must be in [{n_min}, {DIM_CAP}], got {n}")
    if not isinstance(data["places"], list):
        raise ValidationError("places must be a list")
    places = {}
    for entry in data["places"]:
        if not isinstance(entry, dict) or any(k not in entry for k in ("place", "forms", "exps")):
            raise ValidationError("each place needs the keys 'place', 'forms' and 'exps'")
        try:
            place = Place.parse(entry["place"])
        except (ValueError, TypeError):
            raise ValidationError(f"place must be 'inf' or a prime, got {entry['place']!r}") from None
        if place in places:
            raise ValidationError(f"place {place.label()} is listed twice")
        if not isinstance(entry["forms"], list) or len(entry["forms"]) != n:
            raise ValidationError(f"need {n} forms at place {place.label()}")
        forms = tuple(parse_rationals(f, n, "a form", place) for f in entry["forms"])
        places[place] = (forms, parse_rationals(entry["exps"], n, "the exponents", place))
    return n, places


def parse_rationals(values, n: int, what: str, place: Place | None = None) -> tuple[Fraction, ...]:
    """A list of n rationals read by parse_frac; ValidationError naming `what`
    (and "at place" place, if given) otherwise."""
    if isinstance(values, list) and len(values) == n:
        try:
            return tuple(map(parse_frac, values))
        except (ValueError, TypeError, ZeroDivisionError):
            problem = f"holds a value that is not a rational: {values!r}"
    else:
        problem = f"must be a list of {n} rationals"
    where = "" if place is None else f" at place {place.label()}"
    raise ValidationError(f"{what}{where} {problem}")


def pair_from_json(data) -> TwistedPair:
    n, places = places_from_json(data)
    return TwistedPair(n, {v: PlaceData(*fe) for v, fe in places.items()})
