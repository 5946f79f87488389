"""Property tests: the enumeration kernel, the integer height kernel and
the shared Q-grid search against the per-vector and exact routes they
replace."""

import math
import random
from fractions import Fraction
from itertools import product
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from heightlab import infima_lab
from heightlab.exact_reals import FactoredReal
from heightlab.infima_lab import (
    _FastHeight,
    _infima_grid,
    _IntegerForms,
    default_box_policy,
    enumerate_primitive,
    slope_profile,
    successive_infima,
)
from heightlab.places_heights import INF, Place, primitive_scale
from heightlab.rational_linalg import RankTracker, echelon_fractions, int_echelon, rank
from heightlab.suite import curated_slope_suite, diag_pair, random_pair
from heightlab.twisted_system import TwistedPair, twisted_height

F = Fraction
FR = FactoredReal

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow]
)

coeffs = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6, 9]))
exponents = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
qs = st.builds(F, st.integers(1, 60), st.integers(1, 4)).filter(lambda q: q >= 1)


def primitive_vectors(n, box):
    """The per-vector route: every tuple of the box in product order, kept
    when its first nonzero coordinate is positive and its gcd is 1."""
    for tup in product(range(-box, box + 1), repeat=n):
        lead = next((c for c in tup if c != 0), 0)
        if lead > 0 and math.gcd(*tup) == 1:
            yield tup


def dot_values(forms, x):
    return tuple(sum(map(mul, f, x)) for f in forms)


def per_vector_route(n, box, forms=()):
    """enumerate_primitive with a dot product per vector and form."""
    for x in primitive_vectors(n, box):
        yield x, dot_values(forms, x)


def old_terms(int_forms, x):
    """_IntegerForms.terms on one vector, by a dot product per form."""
    out = []
    for v, place_forms, _ in int_forms.places:
        place_terms = []
        for i, form in enumerate(place_forms):
            s = sum(map(mul, form, x))
            if s == 0:
                continue
            if v.p is None:
                place_terms.append((math.log10(abs(s)), i, abs(s)))
            else:
                m = 0
                while s % v.p == 0:
                    s //= v.p
                    m += 1
                place_terms.append((-m * math.log10(v.p), i, m))
        out.append(place_terms)
    return out


@st.composite
def pairs(draw, n_max=3, exponents=exponents, labels=("inf", 2, 3, 5)):
    """Core-valid pairs with 1-3 active places among `labels`, p-adic places included."""
    n = draw(st.integers(2, n_max))
    labels = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    active = {}
    for label in labels:
        square = st.lists(st.lists(coeffs, min_size=n, max_size=n), min_size=n, max_size=n)
        forms = draw(square.filter(lambda f: rank(f) == n))
        exps = draw(st.lists(exponents, min_size=n, max_size=n))
        active[Place.parse(label)] = (forms, exps)
    return TwistedPair(n, active)


@st.composite
def pair_and_vector(draw):
    pair = draw(pairs())
    x = draw(st.lists(st.integers(-8, 8), min_size=pair.n, max_size=pair.n))
    assume(any(x))
    return pair, primitive_scale(x)


@SETTINGS
@given(pair_and_vector(), qs)
def test_kernel_matches_twisted_height(px, q):
    pair, x = px
    forms = _IntegerForms(pair)
    fh = _FastHeight(forms, q)
    terms = forms.terms(dot_values(forms.flat, x))
    logf, picks = fh.value(terms)
    exact = fh.to_factored(fh.exact(picks))
    assert exact == twisted_height(pair, q, x)
    assert abs(logf - exact.log10_float()) < 1e-9
    # the float total of the chosen terms never exceeds that of each place's
    # largest float term, so _Greedy.feed may reject on it (a tie is broken exactly)
    top = forms.logcorr
    for place_terms, shift in zip(terms, fh.shifts):
        top += max(lm + shift[i] for lm, i, _ in place_terms)
    assert logf <= top < logf + 1e-9


@SETTINGS
@given(
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(-6, 6)),
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(-6, 6)),
    qs,
    st.integers(1, 6),
)
def test_tie_comparison_matches_factored_reals(a, b, q, d):
    # exponents +-1/d make exp_den = d; a and b are (num, den, qexp) values
    fh = _FastHeight(_IntegerForms(diag_pair([F(1, d), F(-1, d)])), q)
    assert fh.forms.exp_den == d

    def value(t):
        num, den, e = t
        return FR.from_rational(F(num, den)) * FR.from_rational(q) ** F(e, d)

    assert fh.cmp(a, b) == value(a).cmp(value(b))


def _same_estimates(a, b):
    assert a.q == b.q and a.box == b.box
    assert a.lambdas == b.lambdas
    assert a.achievers == b.achievers
    assert a.spans == b.spans


@SETTINGS
@given(
    pairs(n_max=3),
    st.lists(st.integers(2, 400), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
)
def test_shared_grid_matches_per_q_search(pair, q_ints, boxes):
    grid = [(F(q), box) for q, box in zip(sorted(q_ints), boxes)]
    shared = _infima_grid(pair, grid)
    for (q, box), est in zip(grid, shared):
        _same_estimates(est, successive_infima(pair, q, box))


@pytest.mark.parametrize("box", [None, 2])
def test_slope_profile_matches_per_q_search(box):
    pair = diag_pair([1, F(1, 3), F(-4, 3)])
    policy = (lambda q: box) if box else (lambda q: min(4, int(q) // 10))
    grid = [10, 20, 40]
    rep = slope_profile(pair, grid, policy)
    for q in grid:
        est = successive_infima(pair, q, policy(q))
        assert [row[2] for row in rep.rows if row[0] == q] == [l.log10_float() for l in est.lambdas]


def test_exact_ties_use_the_exact_branch_and_seq(monkeypatch):
    calls = []
    real = infima_lab.cmp_power_product

    def spy(*args):
        c = real(*args)
        calls.append(c)
        return c

    monkeypatch.setattr(infima_lab, "cmp_power_product", spy)
    # (0,1), (1,1) and (1,-1) all have height Q: the float logs tie and the
    # exact comparison says equal, so the earliest vector, the seed (0,1), wins
    est = successive_infima(diag_pair([1, -1]), 10, 1)
    assert est.lambdas == (FR.from_rational(F(1, 10)), FR.from_rational(10))
    assert est.achievers == ((1, 0), (0, 1))
    assert 0 in calls

    # at Q=2, |x_1| Q^-1 and |x_2| Q tie exactly within the place at x = (4, 1)
    calls.clear()
    pair = diag_pair([1, -1])
    forms = _IntegerForms(pair)
    fh = _FastHeight(forms, 2)
    logf, picks = fh.value(forms.terms(dot_values(forms.flat, (4, 1))))
    assert 0 in calls
    assert fh.to_factored(fh.exact(picks)) == twisted_height(pair, 2, (4, 1)) == FR.from_rational(2)


def test_ties_across_q_exponents_match_brute_force():
    from test_infima_lab import _brute_force_infima

    pair = TwistedPair(2, {INF: (((1, 0), (0, 1)), (1, -1)), Place.finite(2): (((1, 1), (0, 1)), (F(1, 2), F(-1, 2)))})
    for q in (1, 2, 4, 16):
        est = successive_infima(pair, q, 4)
        lambdas, _ = _brute_force_infima(pair, q, 4)
        assert list(est.lambdas) == lambdas


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=7)
    ),
    st.booleans(),
)
def test_rank_tracker_matches_rank(rows, as_fractions):
    if as_fractions:
        rows = [[F(a, 2) for a in row] for row in rows]
    tracker = RankTracker()
    for k, row in enumerate(rows, start=1):
        before = len(tracker)
        added = tracker.try_add(row)
        assert len(tracker) == rank(rows[:k])
        assert added == (len(tracker) > before)


# -- the enumeration kernel against the per-vector route ----------------------

# integer forms, a third of them with a zero last coefficient
int_forms = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1), st.sampled_from([0, 0, 1, -3, 7])),
            max_size=4,
        ),
    )
)


@SETTINGS
@given(int_forms, st.integers(1, 6))
def test_kernel_matches_per_vector_route(n_forms, box):
    n, rows = n_forms
    forms = [tuple(head) + (c,) for head, c in rows]
    assert list(enumerate_primitive(n, box, forms)) == list(per_vector_route(n, box, forms))


@SETTINGS
@given(pairs(n_max=4), st.integers(1, 3))
def test_kernel_terms_match_per_vector_terms(pair, box):
    # forms with denominators, cleared per place; p-adic places included
    forms = _IntegerForms(pair)
    got = list(enumerate_primitive(pair.n, box, forms.flat))
    assert [x for x, _ in got] == list(primitive_vectors(pair.n, box))
    for x, values in got:
        assert values == dot_values(forms.flat, x)
        assert forms.terms(values) == old_terms(forms, x)


small_exponents = st.builds(F, st.integers(-1, 1), st.integers(1, 2))  # boxes up to Q


@settings(SETTINGS, max_examples=25)
@given(pairs(n_max=3, exponents=small_exponents), st.lists(st.integers(2, 7), min_size=2, max_size=4, unique=True))
@example(diag_pair([1, 0, -1]), [2, 5, 7])  # boxes 2, 5 and 7
def test_nested_grid_matches_per_vector_route(pair, q_ints):
    # the grid of `slopes` without --box: one box per Q from the default policy
    policy = default_box_policy(pair)
    grid = [(F(q), policy(q)) for q in sorted(q_ints)]
    kernel = _infima_grid(pair, grid)
    with patch.object(infima_lab, "enumerate_primitive", per_vector_route):
        oracle = _infima_grid(pair, grid)
    for a, b in zip(kernel, oracle):
        _same_estimates(a, b)


# -- integer reject bounds against the unbounded per-vector route -------------


def unbounded_grid(pair, grid):
    """_infima_grid on the per-vector route with no reject bound: every vector reaches every greedy."""
    with patch.object(infima_lab, "enumerate_primitive", per_vector_route), patch.object(
        infima_lab, "_reject_bounds", lambda forms, states: ()
    ):
        return _infima_grid(pair, grid)


# Q from 1 up to 10^400: the bounds of the large Q lie past the float range
big_qs = st.one_of(
    qs,
    st.builds(lambda k, d: F(10**k, d), st.integers(0, 400), st.sampled_from([1, 3, 7])).filter(lambda q: q >= 1),
)


@st.composite
def bound_grids(draw):
    """(pair, grid): a one-place infinite pair, or now and then one with a p-adic
    place, and one Q or a grid of Qs whose boxes are nested or all equal."""
    pair = draw(st.one_of(pairs(n_max=4, labels=["inf"]), pairs(n_max=3)))
    q_list = sorted(draw(st.lists(big_qs, min_size=1, max_size=3, unique=True)))
    if draw(st.booleans()):
        boxes = draw(st.lists(st.integers(1, 6), min_size=len(q_list), max_size=len(q_list)))
    else:
        boxes = [draw(st.integers(1, 6))] * len(q_list)
    return pair, list(zip(q_list, boxes))


# exponents (1, 1, -2) tie at the first two forms; (3, 0, -3) makes the middle form Q-free
_tied = TwistedPair(3, {INF: (((1, 2, 0), (0, 1, -1), (3, 0, 1)), (1, 1, -2))})
# a grid whose two greedies need different bounds: the smaller one drops a vector the other keeps
_two_bounds = TwistedPair(3, {INF: (((0, -1, 3), (1, 2, 2), (3, -1, -1)), (0, F(1, 3), F(-1, 3)))})
# a p-adic factor below 1 puts a vector past the infinite place's bound among the least
_p_adic = TwistedPair(
    3,
    {
        INF: (((1, 1, 3), (3, 2, -1), (2, -3, -2)), (F(-2, 3), 1, F(-1, 3))),
        Place.finite(5): (((2, -2, -2), (3, 2, -2), (2, 2, -3)), (3, -2, -1)),
    },
)


@settings(SETTINGS, max_examples=100)
@given(bound_grids())
@example((_two_bounds, [(F(10), 3), (F(100), 3)]))
@example((_p_adic, [(F(2), 3)]))
@example((_tied, [(F(10), 4)]))
@example((_tied, [(F(2), 2), (F(50), 4), (F(10**400), 4)]))
@example((diag_pair([1, -1]), [(F(1), 6)]))
@example((diag_pair([3, 0, -3]), [(F(10**300), 1), (F(10**301), 4)]))
def test_reject_bounds_match_unbounded_route(pair_grid):
    pair, grid = pair_grid
    for a, b in zip(_infima_grid(pair, grid), unbounded_grid(pair, grid)):
        _same_estimates(a, b)


@pytest.mark.parametrize("n, box", [(2, 30), (3, 6), (4, 3)])
def test_reject_bounds_skip_most_vectors(n, box):
    # the infima_sweep shapes: fewer than a quarter of the enumerated vectors get terms
    rng = random.Random(n)
    enumerated = built = 0
    real_enum, real_terms = infima_lab.enumerate_primitive, _IntegerForms.terms

    def counting_enum(*args):
        nonlocal enumerated
        for item in real_enum(*args):
            enumerated += 1
            yield item

    def counting_terms(self, values):
        nonlocal built
        built += 1
        return real_terms(self, values)

    with patch.object(infima_lab, "enumerate_primitive", counting_enum), patch.object(
        _IntegerForms, "terms", counting_terms
    ):
        for _ in range(4):
            pair = random_pair(rng, n)
            for q in (10, 100, 1000):
                successive_infima(pair, q, box)
    assert built < enumerated / 4


# -- the streaming greedy against a textbook greedy ----------------------------


def textbook_greedy(pair, q, stream):
    """Sort by exact twisted height, then by feed order; keep a vector when the rank grows."""
    heights = [twisted_height(pair, q, x) for x in stream]
    kept = []
    for k in sorted(range(len(stream)), key=heights.__getitem__):  # a stable sort keeps feed order
        if rank([stream[j] for j in kept] + [stream[k]]) > len(kept):
            kept.append(k)
            if len(kept) == pair.n:
                break
    return [heights[k] for k in kept], [stream[k] for k in kept]


def _dual_basis(basis):
    """The forms f_i with f_i(b_j) = [i == j]: the rows of (B^T)^-1, read off the rref of [B^T | I]."""
    n = len(basis)
    aug = [[b[i] for b in basis] + [int(i == k) for k in range(n)] for i in range(n)]
    return [tuple(row[n:]) for row in echelon_fractions(int_echelon(aug)[0])]


@st.composite
def greedy_streams(draw):
    """(pair, q, stream) at n = 1-4.  The forms are the dual basis of a basis
    b_1..b_n, so x = sum a_j b_j has height max_j |a_j| Q^(c_j) up to a
    constant, and c_n is the largest exponent: the n-1 best records tend to
    lie in span(b_1..b_{n-1}), and so does most of the stream.  Small integer
    exponents, coefficients and Q make exact ties common."""
    n = draw(st.integers(1, 4))
    small = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    basis = draw(st.lists(small, min_size=n, max_size=n).filter(lambda b: rank(b) == n))
    forms = _dual_basis(basis)
    exps = draw(st.lists(st.sampled_from([F(-1), F(0), F(0), F(1, 2), F(1)]), min_size=n - 1, max_size=n - 1))
    pair = TwistedPair(n, {INF: (forms, exps + [F(2)])})
    coords = st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)
    far = st.integers(-1, 1).filter(bool)
    # a_n = 0 for most vectors: those lie in the hyperplane of b_1..b_{n-1}
    combos = st.tuples(coords, st.one_of(st.just(0), st.just(0), st.just(0), far))
    stream = []
    for a, a_n in draw(st.lists(combos, min_size=1, max_size=24)):
        x = [sum(c * b[k] for c, b in zip(a + [a_n], basis)) for k in range(n)]
        if any(x):
            stream.append(primitive_scale(x))
    assume(stream)
    return pair, draw(st.sampled_from([F(1), F(2), F(3), F(10)])), stream


@settings(SETTINGS, max_examples=200)
@given(greedy_streams(), st.booleans())
@example((diag_pair([1, -1]), F(10), [(1, 1), (0, 1), (1, -1), (1, 0), (2, 1)]), True)
@example((TwistedPair(1, {INF: (((2,),), (0,))}), F(3), [(1,), (-1,), (1,)]), False)
def test_greedy_matches_textbook_greedy(pqs, units_first):
    pair, q, stream = pqs
    if units_first:  # as _infima_grid feeds them, so that the selection is full from the start
        stream = [tuple(int(i == j) for j in range(pair.n)) for i in range(pair.n)] + stream
    forms = _IntegerForms(pair)
    greedy = infima_lab._Greedy(forms, q, 1)
    for x in stream:
        greedy.feed(x, forms.terms(dot_values(forms.flat, x)))
        # the greedy's reject bounds are always those of its worst record
        bound = greedy.bound
        if len(greedy.sel) == pair.n:
            greedy._take_bound()
        assert greedy.bound == bound
    fh = greedy.fh
    heights, vecs = textbook_greedy(pair, q, stream)
    assert [r.vec for r in greedy.sel] == vecs
    assert [fh.to_factored(r.exact(fh)) for r in greedy.sel] == heights


def test_hyperplane_rule_halves_rank_tracker_calls(monkeypatch):
    # infima_sweep-shaped requests at Q = 10 on E8-n4 and on random one-place
    # n = 3 pairs; `through_insert` is the count when every greedy step that
    # beats the worst record rebuilds the selection in _insert
    calls = 0
    real = RankTracker.try_add

    def spy(self, vec):
        nonlocal calls
        calls += 1
        return real(self, vec)

    monkeypatch.setattr(RankTracker, "try_add", spy)
    rng = random.Random(3)
    e8 = dict(curated_slope_suite())["E8-n4"]
    requests = [(e8, 3, 720)] + [(random_pair(rng, 3), 6, through_insert) for through_insert in (129, 193, 86, 116)]
    for pair, box, through_insert in requests:
        calls = 0
        successive_infima(pair, 10, box)
        assert calls <= through_insert / 2
