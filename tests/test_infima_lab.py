import random
from fractions import Fraction

import pytest

from heightlab.exact_reals import ONE, FactoredReal
from heightlab.exterior_algebra import Subspace
from heightlab.infima_lab import (
    SystemInstance,
    default_box_policy,
    enumerate_primitive,
    gap_experiment,
    height_floor,
    minkowski_check,
    scan_system,
    slope_csv,
    slope_profile,
    successive_infima,
)
from heightlab.places_heights import INF, Place
from heightlab.rational_linalg import rank
from heightlab.suite import diag_pair, pair_e1, pair_e3, random_pair
from heightlab.twisted_system import ValidationError, shift_exponents, twisted_height
from test_infima_kernel import primitive_vectors

F = Fraction
FR = FactoredReal


def _brute_force_infima(pair, q, box):
    """Reference: full enumeration + exact sort + greedy independence."""
    import functools

    n = pair.n
    recs = []
    for seq, vec in enumerate(primitive_vectors(n, box)):
        recs.append((twisted_height(pair, q, vec), seq, vec))

    def cmp(a, b):
        c = a[0].cmp(b[0])
        return c if c else a[1] - b[1]

    recs.sort(key=functools.cmp_to_key(cmp))
    sel = []
    for h, _, vec in recs:
        if rank([r[1] for r in sel] + [vec]) > len(sel):
            sel.append((h, vec))
            if len(sel) == n:
                break
    return [h for h, _ in sel], [v for _, v in sel]


def test_enumerate_primitive():
    vecs = [x for x, _ in enumerate_primitive(2, 2)]
    assert (1, 0) in vecs and (0, 1) in vecs and (1, -2) in vecs
    assert (2, 0) not in vecs  # not primitive
    assert (-1, 0) not in vecs  # sign-normalized
    assert len(set(vecs)) == len(vecs)


def test_successive_infima_examples():
    est = successive_infima(pair_e1(), 100, 1)
    assert est.lambdas == (FR({2: -2, 5: -2}), FR({2: 2, 5: 2}))
    assert est.achievers == ((1, 0), (0, 1))

    est = successive_infima(pair_e3(), 10, 1)
    assert est.lambdas == (FR({2: -1, 5: -1}), ONE, FR({2: 1, 5: 1}))


def test_lambda1_at_q1_meets_lower_bound():
    rng = random.Random(60)
    for _ in range(15):
        pair = random_pair(rng, 2)
        est = successive_infima(pair, 1, 4)
        assert est.lambdas[0] >= height_floor(pair, 1)


def test_streaming_matches_brute_force():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 3)
        pair = random_pair(rng, n, places=rng.choice([1, 2]))
        q = F(rng.randint(1, 40))
        box = rng.randint(1, 3)
        est = successive_infima(pair, q, box)
        lambdas, _ = _brute_force_infima(pair, q, box)
        # the lambda values are determined; achievers may differ on ties
        assert list(est.lambdas) == lambdas
        assert rank(est.achievers) == n
        for lam, vec in zip(est.lambdas, est.achievers):
            assert twisted_height(pair, q, vec) == lam


def test_lambdas_are_achieved():
    rng = random.Random(62)
    for _ in range(15):
        pair = random_pair(rng, rng.randint(2, 3))
        q = F(rng.randint(1, 30))
        est = successive_infima(pair, q, 3)
        for lam, vec in zip(est.lambdas, est.achievers):
            assert twisted_height(pair, q, vec) == lam
        for a, b in zip(est.lambdas, est.lambdas[1:]):
            assert a <= b
        assert rank(est.achievers) == pair.n


def test_monotone_refinement():
    rng = random.Random(63)
    for _ in range(12):
        pair = random_pair(rng, 2)
        q = F(rng.randint(1, 30))
        small = successive_infima(pair, q, 2)
        large = successive_infima(pair, q, 5)
        for a, b in zip(large.lambdas, small.lambdas):
            assert a <= b


def test_span_estimates():
    est = successive_infima(pair_e1(), 100, 3)
    assert est.spans[0] == Subspace.span(2, [(1, 0)])
    assert est.spans[1] == Subspace.full(2)


def test_strict_gap_implies_exact_dimension():
    # a strict gap between consecutive estimates pins the span dimension
    for pair, q in ((pair_e1(), 50), (pair_e3(), 12), (diag_pair([1, 1, -2]), 9)):
        est = successive_infima(pair, q, 2)
        n = pair.n
        for k in range(n - 1):
            if est.lambdas[k] < est.lambdas[k + 1]:
                assert est.spans[k].dim == k + 1


def test_default_box_policy():
    policy = default_box_policy(pair_e1())
    assert policy(10) == 10
    assert policy(10**6) > 100  # capped by the candidate budget
    flat = default_box_policy(diag_pair([0, 0]))
    assert flat(10**6) == 1


def test_minkowski_examples():
    rep = minkowski_check(pair_e1(), 7, 2)
    assert rep.product == ONE
    assert rep.lower == FR.from_rational(F(1, 2))
    assert rep.upper == FR.from_rational(2)
    assert rep.lower_ok and rep.upper_ok

    rep = minkowski_check(pair_e3(), 10, 1)
    assert rep.product == ONE
    assert rep.lower == FR.from_rational(3) ** F(-3, 2)
    assert rep.upper == FR.from_rational(8)
    assert rep.lower_ok and rep.upper_ok


def test_minkowski_shifted_alpha():
    # exponent shifts change alpha and scale the sandwich by Q^(-alpha)
    pair = shift_exponents(pair_e1(), {INF: 1})
    q = F(9)
    rep = minkowski_check(pair, q, 3)
    base = minkowski_check(pair_e1(), q, 3)
    scale = FR.from_rational(q) ** 2  # alpha = -2
    assert rep.product == base.product * scale
    assert rep.lower == base.lower * scale
    assert rep.upper == base.upper * scale
    assert rep.lower_ok and rep.upper_ok


def test_slope_profile_e1():
    rep = slope_profile(pair_e1(), [100, 1000])
    for q in rep.qs:
        s = [row[3] for row in rep.rows if row[0] == q]
        assert abs(s[0] + 1) < 1e-9
        assert abs(s[1] - 1) < 1e-9
        assert rep.span_matches[q]
    expected = rep.expected
    assert expected == (-1.0, 1.0)


def test_slope_csv_shape():
    rep = slope_profile(pair_e1(), [16, 64], box_policy=lambda q: 4)
    text = slope_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "Q,i,log10_lambda,slope"
    assert len(lines) == 1 + 2 * 2


def test_slope_profile_untwisted_is_flat():
    rep = slope_profile(diag_pair([0, 0]), [10, 100], box_policy=lambda q: 3)
    for q in rep.qs:
        for s in [row[3] for row in rep.rows if row[0] == q]:
            assert s == 0.0
    assert rep.expected == (0.0, 0.0)


def test_slope_profile_validates_grid():
    with pytest.raises(ValueError):
        slope_profile(pair_e1(), [100, 100])
    with pytest.raises(ValueError):
        slope_profile(pair_e1(), [1])


def test_gap_experiment_examples():
    rep = gap_experiment(pair_e1(), 1, 4, 3)
    assert rep.solutions == ((1, 0),)
    assert rep.span.dim == 1 and rep.proper

    # untwisted pair: threshold below 1 leaves no solutions
    rep = gap_experiment(diag_pair([0, 0]), 1, 4, 3)
    assert rep.solutions == ()
    assert rep.span.dim == 0 and rep.proper

    rep = gap_experiment(pair_e3(), 1, 9, 2)
    assert rep.span.contains(Subspace.span(3, [(1, 0, 0)])) or rep.span.dim == 0
    assert rep.proper


def test_gap_requires_normalization_and_range():
    with pytest.raises(ValidationError):
        gap_experiment(shift_exponents(pair_e1(), {INF: 1}), 1, 4, 2)
    with pytest.raises(ValueError):
        gap_experiment(pair_e1(), 1, 1, 2)  # A < n^(1/delta)


def test_system_instance_validation():
    ident = ((F(1), F(0)), (F(0), F(1)))
    SystemInstance(2, 1, {INF: (ident, (F(-3), F(0)))})
    with pytest.raises(ValidationError):
        SystemInstance(2, 1, {INF: (ident, (F(-3), F(1)))})  # positive exponent
    with pytest.raises(ValidationError):
        SystemInstance(2, 1, {INF: (ident, (F(-1), F(0)))})  # wrong sum
    with pytest.raises(ValidationError):
        SystemInstance(2, 2, {INF: (ident, (F(-4), F(0)))})  # epsilon too big


def test_scan_system_examples():
    ident = ((F(1), F(0)), (F(0), F(1)))
    sys_inst = SystemInstance(2, 1, {INF: (ident, (F(-3), F(0)))})
    rep = scan_system(sys_inst, 10, 10)
    xs = [s["x"] for s in rep.solutions]
    assert (1, 1) in xs  # boundary case H=1 passes with equality
    assert (0, 1) in xs  # zero numerator always passes
    assert rep.t_prime == Subspace.span(2, [(0, 1)])
    for s in rep.solutions:
        assert s["height"] == max(abs(c) for c in s["x"])
    assert rep.reduced_delta == F(1, 3)


def test_scan_solutions_satisfy_reduction_inequality():
    from heightlab.bounds_reduction import reduce_system, reduction_inequality_holds

    ident3 = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    systems = [
        SystemInstance(2, 1, {INF: ((((F(1), F(0)), (F(0), F(1)))), (F(-3), F(0)))}),
        SystemInstance(
            2,
            F(1, 2),
            {
                INF: (((F(1), F(1)), (F(0), F(1))), (F(-2), F(0))),
                Place.finite(2): (((F(1), F(0)), (F(0), F(1))), (F(-1, 2), F(0))),
            },
        ),
        SystemInstance(3, 1, {INF: (ident3, (F(-2), F(-2), F(0)))}),
    ]
    for sys_inst in systems:
        pair, delta, qexp = reduce_system(sys_inst)
        rep = scan_system(sys_inst, 8, 6)
        for s in rep.solutions:
            assert reduction_inequality_holds(pair, delta, qexp, s["x"])


def test_scan_histogram_thins_out():
    # very negative exponents kill every solution beyond height 1
    ident = ((F(1), F(0)), (F(0), F(1)))
    sys_inst = SystemInstance(2, 1, {INF: (ident, (F(-3), F(0)))})
    rep = scan_system(sys_inst, 12, 12)
    heights = {s["height"] for s in rep.solutions if s["x"] != (0, 1)}
    # solutions with x1 != 0 need |x1| <= |x| H^-3
    for s in rep.solutions:
        if s["x"][0] != 0:
            assert s["height"] ** 3 * abs(s["x"][0]) <= max(abs(c) for c in s["x"])
    assert set(rep.histogram) == {0} or max(rep.histogram) <= 1
    assert heights <= {1}
