import importlib
import itertools
import random
from fractions import Fraction
from itertools import combinations

import pytest

from heightlab.exterior_algebra import Subspace, subspace_height_sq
from heightlab.filtration import (
    MEET_BUDGET,
    _greedy_selection,
    UnsupportedSystemError,
    candidate_subspaces,
    embed_through,
    exceptional_subspace,
    filtration,
    flag_subspaces,
    local_weight,
    local_weight_via_flags,
    restrict_pair,
    special_case_T,
    weight,
)
from heightlab.places_heights import INF, Place
from heightlab.rational_linalg import rank
from heightlab.suite import (
    curated_slope_suite,
    diag_pair,
    pair_e1,
    pair_e2,
    pair_e3,
    random_pair,
    random_special_pair,
    random_subspace_rows,
)
from heightlab.twisted_system import TwistedPair

F = Fraction
# the module itself: the package binds the name `filtration` to the function
filtration_module = importlib.import_module("heightlab.filtration")


def _rand_subspace(rng, n, dim=None):
    if dim is None:
        dim = rng.randint(0, n)
    if dim == 0:
        return Subspace.zero(n)
    return Subspace.span(n, random_subspace_rows(rng, n, dim))


def _brute_force_local_weight(pair, u, v):
    """Minimum exponent sum over independent restricted subsets (oracle)."""
    pd = pair.place_data(v)
    k = u.dim
    if k == 0:
        return F(0)
    best = None
    restr = [
        tuple(sum(a * b for a, b in zip(form, row)) for row in u.rows)
        for form in pd.forms
    ]
    for subset in combinations(range(pair.n), k):
        if rank([restr[i] for i in subset]) == k:
            total = sum(pd.exps[i] for i in subset)
            if best is None or total < best:
                best = total
    return best


def test_weight_examples():
    assert weight(pair_e1(), Subspace.span(2, [(1, 0)])) == 1
    assert weight(pair_e2(), Subspace.span(2, [(0, 1)])) == -1
    # full space weight is the total exponent sum (zero when normalized)
    assert weight(pair_e1(), Subspace.full(2)) == 0
    assert weight(pair_e1(), Subspace.zero(2)) == 0


def test_weight_greedy_equals_brute_force():
    rng = random.Random(40)
    for _ in range(500):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n, places=rng.choice([1, 2]))
        u = _rand_subspace(rng, n, rng.randint(1, n))
        for v in pair.active:
            assert local_weight(pair, u, v) == _brute_force_local_weight(pair, u, v)


def test_weight_via_flag_dimensions():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n)
        u = _rand_subspace(rng, n)
        for v in pair.active:
            assert local_weight(pair, u, v) == local_weight_via_flags(pair, u, v)


def test_monotone_index_sets():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n)
        big = _rand_subspace(rng, n, rng.randint(1, n))
        take = rng.randint(1, big.dim)
        small = Subspace.span(n, list(big.rows)[:take])
        for v in pair.active:
            pd = pair.place_data(v)
            assert set(_greedy_selection(pd, small)[1]) <= set(_greedy_selection(pd, big)[1])


def test_flag_subspaces_examples():
    flags = flag_subspaces(pair_e1(), INF)
    # sorted by ascending exponent the first form is X2
    assert [f.dim for f in flags] == [2, 1, 0]
    assert flags[1] == Subspace.span(2, [(1, 0)])
    # inactive places carry the coordinate flags
    flags = flag_subspaces(pair_e1(), Place.finite(5))
    assert flags[1] == Subspace.span(2, [(0, 1)])


def test_submodularity():
    rng = random.Random(43)
    for _ in range(1000):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n)
        u1 = _rand_subspace(rng, n)
        u2 = _rand_subspace(rng, n)
        lhs = weight(pair, u1.intersect(u2)) + weight(pair, u1.add(u2))
        assert lhs >= weight(pair, u1) + weight(pair, u2)


def test_exceptional_subspace_examples():
    assert exceptional_subspace(pair_e1()) == Subspace.span(2, [(1, 0)])
    assert exceptional_subspace(pair_e2()) == Subspace.span(2, [(1, 0)])
    assert exceptional_subspace(diag_pair([0, 0, 0])) == Subspace.zero(3)


def test_exceptional_subspace_falsification_smoke():
    rng = random.Random(44)
    for _ in range(12):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n, places=rng.choice([1, 2]))
        n_dim = pair.n
        t = exceptional_subspace(pair)
        w_full = weight(pair, Subspace.full(n_dim))
        best = F(w_full - weight(pair, t), n_dim - t.dim)
        for _ in range(300):
            u = _rand_subspace(rng, n_dim, rng.randint(0, n_dim - 1))
            mu = F(w_full - weight(pair, u), n_dim - u.dim)
            assert mu >= best


# Tied winners: random forms at three places whose only exponent jumps are the
# line {F_1 = F_2 = F_3 = 0} at inf and the planes {F_1 = F_2 = 0} at 2 and 3.  The
# candidate pool misses the optimum U, and two 3-dim candidates tie at its
# slope; U is their meet.
_TIE_EXPS = {"inf": (-1, -1, -1, 3), 2: (-1, -1, 1, 1), 3: (-1, -1, 1, 1)}


def _tie_pair(seed):
    rng = random.Random(seed)
    active = {}
    for label, exps in _TIE_EXPS.items():
        forms = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        while rank(forms) < 4:
            forms = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        active[Place.parse(label)] = (forms, exps)
    return TwistedPair(4, active)


def _key(pair, u):
    """(mu(full, U), dim U): the exceptional subspace is the least proper U."""
    return F(weight(pair, Subspace.full(pair.n)) - weight(pair, u), pair.n - u.dim), u.dim


def test_exceptional_subspace_is_the_meet_of_tied_winners():
    for seed in range(20):  # all but seed 4 raised "not unique" before
        pair = _tie_pair(seed)
        chain = filtration(pair)  # its top step is exceptional_subspace(pair)
        assert chain.dims == (0, 2, 4)
        assert _key(pair, chain.subspaces[1]) == (F(-1), 2)


# (n, places, seed): the tie recipe (places None, id the seed), then seeded
# general random pairs.
_BRUTE_FORCE_CASES = [pytest.param(4, None, seed, id=str(seed)) for seed in (0, 3)] + [
    pytest.param(n, places, seed, id=f"n{n}-places{places}-seed{seed}")
    for n, places in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2))
    for seed in range(3)
]


@pytest.mark.parametrize("n, places, seed", _BRUTE_FORCE_CASES)
def test_meet_of_tied_winners_against_brute_force(n, places, seed, monkeypatch):
    """No proper subspace spanned by vectors in [-1, 1]^n beats the answer.

    The n = 4 two-place pairs also take the MEET_BUDGET fallback: their meet
    closure is larger than the budget.
    """
    meet_sizes = []
    closure = filtration_module._semilattice_closure

    def spy(generators, op):
        out = closure(generators, op)
        if op is Subspace.intersect:
            meet_sizes.append(len(out))
        return out

    monkeypatch.setattr(filtration_module, "_semilattice_closure", spy)
    pair = _tie_pair(seed) if places is None else random_pair(random.Random(seed), n, places=places)
    best = _key(pair, exceptional_subspace(pair))
    if (n, places) == (4, 2):
        assert meet_sizes[0] > MEET_BUDGET
    vecs = [v for v in itertools.product((-1, 0, 1), repeat=n) if v > (0,) * n]
    spans = {Subspace.span(n, list(vs)) for k in range(1, n) for vs in combinations(vecs, k)}
    assert all(_key(pair, u) >= best for u in spans if u.dim < n)


def test_filtration_examples():
    chain = filtration(pair_e3())
    assert chain.dims == (0, 1, 2, 3)
    assert chain.slopes == (F(1), F(0), F(-1))
    assert chain.subspaces[1] == Subspace.span(3, [(1, 0, 0)])
    assert chain.subspaces[2] == Subspace.span(3, [(1, 0, 0), (0, 1, 0)])

    chain = filtration(pair_e1())
    assert chain.dims == (0, 1, 2)
    assert chain.slopes == (F(1), F(-1))

    chain = filtration(diag_pair([0, 0]))
    assert chain.dims == (0, 2)
    assert chain.slopes == (F(0),)


def test_filtration_top_step_is_exceptional_subspace():
    rng = random.Random(45)
    for _ in range(20):
        pair = random_pair(rng, rng.randint(2, 4))
        chain = filtration(pair)
        assert chain.subspaces[-2] == exceptional_subspace(pair)
        for a, b in zip(chain.slopes, chain.slopes[1:]):
            assert a > b


def test_filtration_polygon_dominates_candidates():
    rng = random.Random(46)
    for _ in range(10):
        pair = random_pair(rng, rng.randint(2, 3))
        chain = filtration(pair)
        pts = list(zip(chain.dims, chain.weights))
        for u in candidate_subspaces(pair) + [
            _rand_subspace(rng, pair.n) for _ in range(50)
        ]:
            wu = weight(pair, u)
            # P(U) lies on or below the polygon: compare against the segment
            for (d0, w0), (d1, w1) in zip(pts, pts[1:]):
                if d0 <= u.dim <= d1 and d1 > d0:
                    bound = w0 + (w1 - w0) * F(u.dim - d0, d1 - d0)
                    assert wu <= bound


def test_slope_for_index():
    chain = filtration(diag_pair([1, 1, -2]))
    assert chain.slope_for_index(1) == F(1)
    assert chain.slope_for_index(2) == F(1)
    assert chain.slope_for_index(3) == F(-2)


def test_special_case_examples():
    assert special_case_T(pair_e1()) == [(2,)]
    assert special_case_T(pair_e2()) == [(2,)]
    assert special_case_T(diag_pair([0, 0, 0])) == [(1,), (2,), (3,)]
    with pytest.raises(UnsupportedSystemError):
        special_case_T(TwistedPair(2, {INF: (((F(1), F(2)), (F(0), F(1))), (F(0), F(0)))}))


def test_special_case_partition_matches_exponent_flag():
    # forms x1, x2, x3, x1+x2+x3+x4 with exponents 2, 2, -2, -2: the optimum is the flag of the
    # two lowest exponents, {x3 = 0, x1 + x2 + x4 = 0}, the partition [(1, 2, 4), (3,)]
    n = 4
    ident = tuple(tuple(F(i == j) for j in range(n)) for i in range(n))
    ones = tuple(F(1) for _ in range(n))
    forms = (ident[0], ident[1], ident[2], ones)
    pair = TwistedPair(4, {INF: (forms, (F(2), F(2), F(-2), F(-2)))})
    t = exceptional_subspace(pair)
    parts = special_case_T(pair)
    assert parts == [(1, 2, 4), (3,)]
    rebuilt = Subspace.kernel(
        4, [[F(1 if j + 1 in block else 0) for j in range(4)] for block in parts]
    )
    assert rebuilt == t


def test_special_case_agreement_seeded():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        pair = random_special_pair(rng, n, places=rng.choice([1, 2]))
        parts = special_case_T(pair)  # raises loudly on disagreement
        t = exceptional_subspace(pair)
        rebuilt = Subspace.kernel(
            n, [[F(1 if j + 1 in block else 0) for j in range(n)] for block in parts]
        )
        assert rebuilt == t
        flat = [j for block in parts for j in block]
        assert len(flat) == len(set(flat))


def test_restrict_pair_examples():
    r = restrict_pair(pair_e1(), Subspace.span(2, [(1, 0)]))
    assert r.n == 1
    pd = r.place_data(INF)
    assert pd.forms == ((F(1),),) and pd.exps == (F(1),)

    r = restrict_pair(pair_e3(), Subspace.span(3, [(1, 0, 0), (0, 1, 0)]))
    assert r.n == 2
    pd = r.place_data(INF)
    assert sorted(pd.exps) == [F(0), F(1)]

    # coordinate restriction of an identity pair stays the identity pair
    r = restrict_pair(diag_pair([0, 0, 0]), Subspace.span(3, [(1, 0, 0), (0, 1, 0)]))
    assert r.active == {}


def test_restrict_pair_weight_correspondence():
    rng = random.Random(48)
    for _ in range(60):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n)
        k = rng.randint(1, n - 1)
        t = _rand_subspace(rng, n, k)
        r = restrict_pair(pair, t)
        u = _rand_subspace(rng, k)
        assert weight(r, u) == weight(pair, embed_through(t, u))


def test_height_cap_on_filtration_subspaces():
    # every chain subspace obeys the doubly exponential Euclidean-height cap
    for _, pair in curated_slope_suite():
        n = pair.n
        h2sq = max(
            (subspace_height_sq(Subspace.span(n, [form])) for pd in pair.active.values() for form in pd.forms),
            default=F(1),
        )
        cap = max(h2sq, F(1)) ** (4**n)
        chain = filtration(pair)
        for sub in chain.subspaces[1:-1]:
            assert subspace_height_sq(sub) <= cap


def test_restrict_quotient_argument_validation():
    with pytest.raises(ValueError):
        restrict_pair(pair_e1(), Subspace.zero(2))
    with pytest.raises(ValueError):
        restrict_pair(pair_e1(), Subspace.full(2))
