"""Weights, the exceptional subspace, slope filtrations and derived pairs.

The weight of a subspace U at a place is the minimal exponent sum over
index sets whose restricted forms stay independent on U; after sorting
the exponents ascending a greedy matroid scan computes it exactly.  The
exceptional subspace minimizes the slope (w(V)-w(U))/(dim V - dim U),
ties broken by minimal dimension; iterating this through restricted
pairs yields the Newton-polygon filtration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exterior_algebra import Subspace
from .rational_linalg import RankTracker, int_row, mat_mul
from .twisted_system import PlaceData, TwistedPair, ValidationError

__all__ = [
    "UnsupportedSystemError",
    "weight",
    "local_weight",
    "local_weight_via_flags",
    "flag_subspaces",
    "slope",
    "exceptional_subspace",
    "candidate_subspaces",
    "FiltrationChain",
    "filtration",
    "special_case_T",
    "restrict_pair",
    "embed_through",
]


# Most subspaces the candidate pool may hold; a larger closure is a hard error.
CANDIDATE_CAP = 100_000
# Most meets of all generators whose joins are all built (see candidate_subspaces).
MEET_BUDGET = 48


class UnsupportedSystemError(Exception):
    """The operation's structural precondition on the system fails."""


def _sorted_forms(pd: PlaceData):
    """(form, exponent) pairs sorted by ascending exponent, stable."""
    order = sorted(range(len(pd.exps)), key=lambda i: (pd.exps[i], i))
    return [(pd.forms[i], pd.exps[i]) for i in order]


def _restriction(form, basis_rows):
    """L restricted to span(basis_rows), as the tuple (L(b_1),...,L(b_k))."""
    return tuple(sum(a * b for a, b in zip(form, row)) for row in basis_rows)


def _int_restriction(form, u: Subspace):
    """(c L(b_1), ..., c L(b_k)) over U's integer basis b, with c > 0 clearing L's denominators.

    Scaling a form, or a basis row, scales the restriction or one of its
    coordinates, so which restrictions are independent does not change.
    """
    return _restriction(int_row(form), u.ints)


def _greedy_selection(pd: PlaceData, u: Subspace):
    """Greedy index scan at one place for U.

    Returns (weight, positions) where positions are 1-based indices into
    the exponent-sorted order of the place's forms.
    """
    k = u.dim
    if k == 0:
        return Fraction(0), ()
    tracker = RankTracker()
    total = Fraction(0)
    positions = []
    for pos, (form, c) in enumerate(_sorted_forms(pd), start=1):
        if tracker.try_add(_int_restriction(form, u)):
            total += c
            positions.append(pos)
            if len(positions) == k:
                break
    if len(positions) != k:
        raise ValidationError("forms do not span the dual of U (dependent system)")
    return total, tuple(positions)


def local_weight(pair: TwistedPair, u: Subspace, v) -> Fraction:
    """w_v(U): minimal exponent sum over independent restrictions."""
    return _greedy_selection(pair.place_data(v), u)[0]


def weight(pair: TwistedPair, u: Subspace) -> Fraction:
    """w(U) = sum_v w_v(U); only active places contribute."""
    if u.n != pair.n:
        raise ValueError("ambient dimension mismatch")
    return sum((local_weight(pair, u, v) for v in pair.active), Fraction(0))


def flag_subspaces(pair: TwistedPair, v) -> list[Subspace]:
    """Kernels of the sorted form prefixes at v; dims n, n-1, ..., 0."""
    n = pair.n
    forms = [f for f, _ in _sorted_forms(pair.place_data(v))]
    out = [Subspace.full(n)]
    for i in range(1, n + 1):
        out.append(Subspace.kernel(n, forms[:i]))
    return out


def local_weight_via_flags(pair: TwistedPair, u: Subspace, v) -> Fraction:
    """w_v(U) from flag-intersection dimensions (independent route)."""
    sorted_fc = _sorted_forms(pair.place_data(v))
    flags = flag_subspaces(pair, v)
    dims = [u.intersect(f).dim for f in flags]
    total = Fraction(0)
    for i in range(1, pair.n + 1):
        c = sorted_fc[i - 1][1]
        total += c * (dims[i - 1] - dims[i])
    return total


def slope(pair: TwistedPair, upper: Subspace, lower: Subspace) -> Fraction:
    """mu(U2, U1) = (w(U2) - w(U1)) / (dim U2 - dim U1)."""
    dd = upper.dim - lower.dim
    if dd <= 0:
        raise ValueError("need dim upper > dim lower")
    return Fraction(weight(pair, upper) - weight(pair, lower), 1) / dd


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


@functools.lru_cache(maxsize=64)
def _special_forms(n: int) -> frozenset:
    """The coordinate forms and the all-ones form of Q^n, built once per n."""
    return frozenset({tuple(Fraction(i == j) for j in range(n)) for i in range(n)} | {(Fraction(1),) * n})


def _is_special_shaped(pair: TwistedPair) -> bool:
    allowed = _special_forms(pair.n)
    return all(f in allowed for pd in pair.active.values() for f in pd.forms)


def _partition_families(n: int):
    """All families of pairwise disjoint non-empty subsets of {1..n}."""
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            for part in _set_partitions(support):
                yield tuple(sorted((frozenset(b) for b in part), key=lambda b: min(b)))


def _partition_subspace(n: int, family) -> Subspace:
    rows = [[Fraction(1 if j in block else 0) for j in range(n)] for block in family]
    return Subspace.kernel(n, rows)


def _semilattice_closure(generators, op) -> list[Subspace]:
    """Closure of the generators under one associative idempotent op.

    Combining existing elements with generators only already yields every
    op-combination of generator subsets, and stays finite (unlike the
    full modular-lattice closure, which need not be).
    """
    pool = dict.fromkeys(generators)  # an ordered set: subspaces hash on their basis
    work = list(pool)
    while work:
        fresh = []
        for a in work:
            for g in generators:
                c = op(a, g)
                if c not in pool:
                    if len(pool) >= CANDIDATE_CAP:
                        raise RuntimeError(f"candidate closure exceeded cap {CANDIDATE_CAP}")
                    pool[c] = None
                    fresh.append(c)
        work = fresh
    return list(pool)


def candidate_subspaces(pair: TwistedPair) -> list[Subspace]:
    """Candidate pool for the exceptional subspace.

    Sums of intersections of the per-place kernels: generators are the
    exponent-level flags plus the single-form kernels of every active
    place; the pool is their meet-closure followed by its join-closure.
    (A full alternating closure can generate an infinite modular lattice,
    while the slope optimizer has this join-of-meets shape on every
    system whose answer is known in closed form.)  When the meet set
    exceeds MEET_BUDGET -- generic unrelated places, where the extra
    kernels only breed junk -- the joins are built over the flag meets
    only and the remaining meets enter as bare candidates.  The pool size
    is capped at CANDIDATE_CAP, with a hard error on overflow.  Nothing
    here depends on the forms being coordinate or all-ones forms, so
    special_case_T's partition search checks this pool independently.
    """
    pair.ensure_core_valid()
    n = pair.n
    # ordered sets of subspaces
    flag_gens = dict.fromkeys((Subspace.zero(n), Subspace.full(n)))
    single_gens = {}
    for v, pd in pair.active.items():
        sorted_fc = _sorted_forms(pd)
        for form, _ in sorted_fc:
            single_gens[Subspace.kernel(n, [form])] = None
        for i in range(1, n + 1):
            if i < n and sorted_fc[i][1] == sorted_fc[i - 1][1]:
                continue  # not an exponent jump: flag carries zero weight
            flag_gens[Subspace.kernel(n, [f for f, _ in sorted_fc[:i]])] = None

    all_gens = list({**flag_gens, **single_gens})
    meets = _semilattice_closure(all_gens, Subspace.intersect)
    if len(meets) <= MEET_BUDGET:
        return _semilattice_closure(meets, Subspace.add)
    flag_meets = _semilattice_closure(list(flag_gens), Subspace.intersect)
    return list(dict.fromkeys(_semilattice_closure(flag_meets, Subspace.add) + meets))


def _least_slope(pair: TwistedPair, candidates) -> list[Subspace]:
    """The proper candidates U of least (mu(Q^n, U), dim U), in candidate order."""
    n = pair.n
    w_full = weight(pair, Subspace.full(n))
    scored = [
        ((Fraction(w_full - weight(pair, u), n - u.dim), u.dim), u) for u in candidates if u.dim < n
    ]
    best_key = min(key for key, _ in scored)
    return [u for key, u in scored if key == best_key]


def exceptional_subspace(pair: TwistedPair) -> Subspace:
    """The unique proper subspace minimizing mu(full, U), of minimal dim.

    Under the per-place zero-sum normalization this is the minimal
    maximizer of w(U)/(n - dim U); the slope form is used so the result
    is invariant under exponent shifts.  Tied winners give way to their
    meet, which the pool missed: U -> w(U) - mu* dim U is supermodular, so
    the subspaces of least slope mu* form a sublattice.
    """
    return functools.reduce(Subspace.intersect, _least_slope(pair, candidate_subspaces(pair)))


@dataclass(frozen=True)
class FiltrationChain:
    """{0} = T_0 < T_1 < ... < T_r = Q^n with weights and slopes.

    The points (dim T_l, w(T_l)) are the vertices of the upper convex
    hull of all subspace points; slopes strictly decrease.
    """

    subspaces: tuple[Subspace, ...]
    weights: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)

    def __len__(self):
        return len(self.slopes)

    def slope_for_index(self, i: int) -> Fraction:
        """The slope governing the i-th successive infimum (1-based)."""
        for l in range(1, len(self.subspaces)):
            if self.subspaces[l - 1].dim < i <= self.subspaces[l].dim:
                return self.slopes[l - 1]
        raise IndexError(i)


def filtration(pair: TwistedPair) -> FiltrationChain:
    """The unique slope filtration, built by iterating the top subspace."""
    pair.ensure_core_valid()
    n = pair.n

    def rec(p: TwistedPair) -> list[Subspace]:
        t = exceptional_subspace(p)
        if t.dim == 0:
            return []
        below = rec(restrict_pair(p, t)) if 0 < t.dim < p.n else []
        return [embed_through(t, u) for u in below] + [t]

    middles = rec(pair)
    chain = [Subspace.zero(n)] + middles + [Subspace.full(n)]
    weights = tuple(weight(pair, s) for s in chain)
    slopes = []
    for l in range(1, len(chain)):
        dd = chain[l].dim - chain[l - 1].dim
        slopes.append(Fraction(weights[l] - weights[l - 1], dd))
    for a, b in zip(slopes, slopes[1:]):
        if not a > b:
            raise RuntimeError("filtration slopes are not strictly decreasing")
    return FiltrationChain(tuple(chain), weights, tuple(slopes))


def special_case_T(pair: TwistedPair):
    """Index sets I_1,...,I_p with T = {x : sum_{j in I_i} x_j = 0}.

    Only valid when every active form is a coordinate form or the
    all-ones form.  The least slope is searched over the kernels of all
    families of disjoint index sets, independently of candidate_subspaces;
    the one winner must equal exceptional_subspace, and a tie among the
    families is an error.
    """
    pair.ensure_core_valid()
    if not _is_special_shaped(pair):
        raise UnsupportedSystemError(
            "forms are not all coordinate forms or the all-ones form"
        )
    n = pair.n
    families = list(_partition_families(n))
    cands = [_partition_subspace(n, family) for family in families]
    winners = _least_slope(pair, cands)
    if len(winners) != 1:
        raise RuntimeError("partition optimum not unique")
    if winners[0] != exceptional_subspace(pair):
        raise RuntimeError(
            "combinatorial subspace disagrees with the generic algorithm"
        )
    family = families[cands.index(winners[0])]
    return [tuple(sorted(j + 1 for j in block)) for block in family]


def restrict_pair(pair: TwistedPair, t: Subspace) -> TwistedPair:
    """The induced pair on Q^k through a fixed section of T (basis rows).

    At each place the greedy index set I_v(T) supplies k forms whose
    restrictions are independent on T; their exponents come along
    unchanged.
    """
    pair.ensure_core_valid()
    n, k = pair.n, t.dim
    if not 0 < k < n:
        raise ValueError("T must be proper and nonzero")
    active = {}
    for v, pd in pair.active.items():
        sorted_fc = _sorted_forms(pd)
        chosen = [sorted_fc[pos - 1] for pos in _greedy_selection(pd, t)[1]]
        active[v] = PlaceData(
            tuple(_restriction(f, t.rows) for f, _ in chosen), tuple(c for _, c in chosen)
        )
    return TwistedPair(k, active).without_neutral_places()


def embed_through(t: Subspace, u: Subspace) -> Subspace:
    """phi'(U) for U in Q^k, where phi' sends e_i to the i-th basis row of T."""
    if u.n != t.dim:
        raise ValueError("dimension mismatch")
    if u.dim == 0:
        return Subspace.zero(t.n)
    rows = mat_mul([list(r) for r in u.rows], [list(r) for r in t.rows])
    return Subspace(t.n, rows)
