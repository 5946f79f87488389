"""Named example systems and seeded random generators for the test suites.

The curated pairs have analytically known filtrations whose infima are
attained at small rational points with constant factor 1, so slope
estimates at moderate Q match the chain slopes exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .places_heights import INF, Place
from .twisted_system import PlaceData, TwistedPair
from .rational_linalg import rank

__all__ = [
    "pair_e1",
    "pair_e2",
    "pair_e3",
    "multi_place_pair",
    "diag_pair",
    "curated_slope_suite",
    "curated_falsification_suite",
    "random_pair",
    "random_normalized_pair",
    "random_special_pair",
    "random_subspace_rows",
]

F = Fraction


def _ident(n):
    return tuple(tuple(F(i == j) for j in range(n)) for i in range(n))


def pair_e1() -> TwistedPair:
    """n=2, identity forms at infinity, exponents (1, -1)."""
    return TwistedPair(2, {INF: (_ident(2), (F(1), F(-1)))})


def pair_e2() -> TwistedPair:
    """n=2, forms (X1+X2, X2) at infinity, exponents (1, -1)."""
    return TwistedPair(2, {INF: (((F(1), F(1)), (F(0), F(1))), (F(1), F(-1)))})


def pair_e3() -> TwistedPair:
    """n=3, identity forms at infinity, exponents (1, 0, -1)."""
    return TwistedPair(3, {INF: (_ident(3), (F(1), F(0), F(-1)))})


def diag_pair(exps) -> TwistedPair:
    """Identity forms at infinity with the given exponents."""
    exps = tuple(F(e) for e in exps)
    return TwistedPair(len(exps), {INF: (_ident(len(exps)), exps)})


def multi_place_pair() -> TwistedPair:
    """n=2 with twists split between infinity and p=2; slopes +-3/2."""
    return TwistedPair(
        2,
        {
            INF: (_ident(2), (F(1), F(-1))),
            Place.finite(2): (_ident(2), (F(1, 2), F(-1, 2))),
        },
    )


def curated_slope_suite() -> list[tuple[str, TwistedPair]]:
    """Pairs whose infima are attained at unit vectors (constant 1)."""
    return [
        ("E1", pair_e1()),
        ("E2", pair_e2()),
        ("E3", pair_e3()),
        ("E4-multiplace", multi_place_pair()),
        ("E5-half", diag_pair([F(1, 2), F(-1, 2)])),
        ("E7-repeated", diag_pair([1, 1, -2])),
        ("E8-n4", diag_pair([1, F(1, 3), F(-1, 3), -1])),
    ]


def random_pair(rng: random.Random, n: int, places: int = 1, coeff: int = 3) -> TwistedPair:
    """A core-valid pair with small random forms and zero-sum exponents."""
    active = {}
    primes = (2, 3, 5, 7, 11, 13)
    labels = [INF] + [Place.finite(primes[rng.randint(1, 6) - 1]) for _ in range(places - 1)]
    for v in labels:
        while True:
            forms = tuple(
                tuple(F(rng.randint(-coeff, coeff)) for _ in range(n)) for _ in range(n)
            )
            if rank(forms) == n:
                break
        exps = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1)]
        exps.append(-sum(exps, F(0)))
        active[v] = (forms, tuple(exps))
    return TwistedPair(n, active)


def random_normalized_pair(rng: random.Random, n: int, places: int = 1) -> TwistedPair:
    """A pair satisfying both normalizations (zero sums, max-sum <= 1)."""
    pair = random_pair(rng, n, places)
    total = sum((max(pd.exps) for pd in pair.active.values()), F(0))
    if total <= 1:
        return pair
    scale = F(1) / total
    active = {
        v: PlaceData(pd.forms, tuple(c * scale for c in pd.exps))
        for v, pd in pair.active.items()
    }
    return TwistedPair(n, active)


def random_special_pair(rng: random.Random, n: int, places: int = 1) -> TwistedPair:
    """Forms drawn from the coordinate forms and the all-ones form."""
    candidates = list(_ident(n)) + [tuple(F(1) for _ in range(n))]
    active = {}
    labels = [INF]
    if places > 1:
        labels.append(Place.finite(rng.choice([2, 3, 5])))
    for v in labels:
        while True:
            forms = tuple(rng.sample(candidates, n))
            if rank(forms) == n:
                break
        exps = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n - 1)]
        exps.append(-sum(exps, F(0)))
        active[v] = (forms, tuple(exps))
    return TwistedPair(n, active)


def curated_falsification_suite(seed: int = 0) -> list[TwistedPair]:
    """20 pairs, n <= 4: the named examples plus seeded random ones."""
    rng = random.Random(seed)
    pairs = [p for _, p in curated_slope_suite()]
    pairs.append(diag_pair([F(2), F(-1), F(-1)]))
    pairs.append(random_special_pair(rng, 3, places=2))
    pairs.append(random_special_pair(rng, 4, places=1))
    while len(pairs) < 20:
        n = rng.choice([2, 3, 3, 4])
        pairs.append(random_pair(rng, n, places=rng.choice([1, 2])))
    return pairs[:20]


def random_subspace_rows(rng: random.Random, n: int, dim: int, coeff: int = 5):
    """Basis rows of a random subspace of the given dimension."""
    while True:
        rows = [
            tuple(F(rng.randint(-coeff, coeff), rng.randint(1, 2)) for _ in range(n))
            for _ in range(dim)
        ]
        if rank(rows) == dim:
            return rows
