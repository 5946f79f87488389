"""Property tests: the integer solution test of `scan_system` against the
per-vector FactoredReal route it replaces, and its histogram bin against
the loop of exact powers it replaces."""

import json
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heightlab.bounds_reduction import reduce_system
from heightlab.cli import cmd_dispatch
from heightlab.filtration import exceptional_subspace
from heightlab.infima_lab import SystemInstance, _mult_bin, scan_system
from heightlab.places_heights import Place, abs_value
from heightlab.rational_linalg import det, rank
from test_infima_kernel import primitive_vectors

F = Fraction

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow]
)


def power_loop_bin(h, ratio):
    """_mult_bin as it was: multiply powers of ratio = a/b until they pass h
    (on integer numerators and denominators, which need no gcd per step)."""
    a, b = ratio.numerator, ratio.denominator
    k = 0
    num = den = 1
    while num * a <= h * den * b:
        num, den = num * a, den * b
        k += 1
    return k


def oracle_scan(sys, h_max, box):
    """scan_system as it was: |L_i(x)|_v <= A_v H(x)^{d_iv} |x|_v in FactoredReal, per vector."""
    h_max = F(h_max)
    bmax = min(box, int(h_max))
    pair, delta, _ = reduce_system(sys)
    t_prime = exceptional_subspace(pair)
    ratio = 1 + delta / 2
    a_vals = {v: abs_value(det(pd.forms), v) ** F(1, sys.n) for v, pd in sys.places.items()}
    solutions = []
    hist = {}
    for vec in primitive_vectors(sys.n, bmax):
        h = max(abs(c) for c in vec)
        hfr = abs_value(h, Place.infinite())
        ok = True
        for v, pd in sys.places.items():
            xnorm = max(av for av in (abs_value(c, v) for c in vec) if av is not None)
            for form, d in zip(pd.forms, pd.exps):
                lhs = abs_value(sum(a * b for a, b in zip(form, vec)), v)
                if lhs is not None and not lhs <= a_vals[v] * hfr**d * xnorm:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            k = power_loop_bin(h, ratio)
            hist[k] = hist.get(k, 0) + 1
            solutions.append({"x": vec, "height": h, "in_T_prime": t_prime.contains_vector(vec)})
    return solutions, t_prime, hist


def assert_same_scan(sys, h_max, box):
    rep = scan_system(sys, h_max, box)
    solutions, t_prime, hist = oracle_scan(sys, h_max, box)
    assert rep.solutions == solutions
    assert rep.t_prime == t_prime
    assert rep.histogram == hist
    return rep


coeffs = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))
epsilons = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)])


def _split(total, weights):
    """Nonpositive exponents in proportion to the weights, summing to total."""
    if not any(weights):
        weights = [1] * len(weights)
    return [total * w / sum(weights) for w in weights]


@st.composite
def systems(draw):
    """Systems at one or two places (inf, 2, 3, 5), fractional forms and exponents."""
    n = draw(st.integers(2, 3))
    labels = draw(st.lists(st.sampled_from(["inf", 2, 3, 5]), min_size=1, max_size=2, unique=True))
    eps = draw(epsilons)
    square = st.lists(st.lists(coeffs, min_size=n, max_size=n), min_size=n, max_size=n)
    weights = draw(st.lists(st.integers(0, 4), min_size=n * len(labels), max_size=n * len(labels)))
    exps = _split(-n - eps, weights)
    places = {}
    for k, label in enumerate(labels):
        forms = draw(square.filter(lambda f: rank(f) == n))
        places[label] = (forms, exps[k * n : (k + 1) * n])
    box = draw(st.integers(1, 10 if n == 2 else 3))
    h_max = draw(st.builds(F, st.integers(1, 2 * box + 6), st.sampled_from([1, 2])).filter(lambda h: h >= 1))
    return SystemInstance(n, eps, places), h_max, box


@SETTINGS
@given(systems())
def test_scan_matches_factored_route(case):
    sys, h_max, box = case
    assert_same_scan(sys, h_max, box)


@st.composite
def tie_systems(draw):
    """A system with a primitive vector x exactly on the bound of one form per place.

    x = (h, 1, 0, ...) with h = a^q.  At each place F_1(x) = a^s and the
    other forms vanish at x, with det = -a^s; the exponent of F_1 is chosen
    so that |F_1(x)|_v = |det|_v^(1/n) H(x)^(d_1v) |x|_v holds with
    equality.  The forms are divided by a random den, which changes
    neither side.  At a prime place p = a.
    """
    n = draw(st.integers(2, 3))
    a = draw(st.sampled_from([2, 3, 5] if n == 2 else [2, 3]))
    q = draw(st.integers(1, {2: 5 - n, 3: 4 - n, 5: 1}[a]))  # h <= 9 at n = 2, h <= 4 at n = 3
    h = a**q
    x = (h, 1) + (0,) * (n - 2)
    labels = draw(st.sampled_from([["inf"], [a], ["inf", a]]))
    eps = draw(epsilons)
    places = {}
    tie_exps = {}
    for label in labels:
        s = draw(st.integers(0, q))
        den = draw(st.sampled_from([1, 2, 3, a, 2 * a]))
        first = [1, a**s - h] + [0] * (n - 2)
        second = [1, -h] + [0] * (n - 2)
        rest = [[int(i == j) for j in range(n)] for i in range(2, n)]
        forms = [[F(c, den) for c in row] for row in (first, second, *rest)]
        # |F_1(x)| = a^s, |det| = a^s, h = a^q
        d = F(s * (n - 1), n * q) - 1 if label == "inf" else F(-s * (n - 1), n * q)
        tie_exps[label] = d
        places[label] = forms
    others = _split(-n - eps - sum(tie_exps.values()), draw(
        st.lists(st.integers(0, 3), min_size=(n - 1) * len(labels), max_size=(n - 1) * len(labels))
    ))
    system = {}
    for k, label in enumerate(labels):
        system[label] = (places[label], [tie_exps[label]] + others[k * (n - 1) : (k + 1) * (n - 1)])
    box = draw(st.integers(h, h + (3 if n == 2 else 1)))
    return SystemInstance(n, eps, system), x, box


@SETTINGS
@given(tie_systems())
def test_vectors_on_the_bound_are_solutions(case):
    sys, x, box = case
    rep = assert_same_scan(sys, box, box)
    assert x in [s["x"] for s in rep.solutions]


def test_tie_systems_reach_fractional_powers():
    # x = (8, 1) at infinity with F_1(x) = 2: the bound needs N = lcm(2, 6) = 6
    sys = SystemInstance(
        2, F(1, 2), {"inf": ([[F(1), F(-6)], [F(1), F(-8)]], [F(1, 6) - 1, F(-5, 3)])}
    )
    rep = assert_same_scan(sys, 9, 9)
    assert (8, 1) in [s["x"] for s in rep.solutions]


# -- the histogram bin -----------------------------------------------------------


@pytest.mark.parametrize("delta", [F(1, 4), F(1, 3), F(1, 1000)])
def test_mult_bin_matches_power_loop(delta):
    ratio = 1 + delta / 2
    for h in range(1, 31):
        assert _mult_bin(h, ratio) == power_loop_bin(h, ratio)


def _scan_bin_system(tmp_path, capsys, eps):
    """scan --hmax 5 --box 5 on the n = 3 system at infinity whose h = 2
    solution falls in a bin of about ln(2) (6/eps) for small eps."""
    forms = [["-1", "0", "-2"], ["-2", "-1", "1"], ["-1", "0", "1"]]
    exps = [str(-(3 + eps) / 2), str(-(3 + eps) / 4), str(-(3 + eps) / 4)]
    path = tmp_path / "sys.json"
    place = {"place": "inf", "forms": forms, "exps": exps}
    path.write_text(json.dumps({"n": 3, "epsilon": str(eps), "places": [place]}))
    start = time.perf_counter()
    assert cmd_dispatch(["scan", str(path), "--hmax", "5", "--box", "5"]) == 0
    assert time.perf_counter() - start < 2
    rep = json.loads(capsys.readouterr().out)
    assert [s["height"] for s in rep["solutions"]] == [1, 2, 1]
    return rep


def test_bin_of_a_ratio_near_one_is_bounded(tmp_path, capsys):
    # epsilon = 10^-5 at n = 3: delta = eps/(n + eps) = 1/300001, ratio = 600003/600002,
    # and the power loop took about 4 ln(2) 10^5 exact multiplications for h = 2
    rep = _scan_bin_system(tmp_path, capsys, F(1, 10**5))
    assert rep["bin_ratio"] == "600003/600002"
    k = 415_890
    assert rep["histogram"] == {"0": 2, str(k): 1}
    # ratio^k <= 2 < ratio^(k+1), checked on exact integer powers
    a, b = 600_003, 600_002
    ak, bk = a**k, b**k
    assert ak <= 2 * bk and 2 * bk * b < ak * a


def test_bin_of_a_ratio_closer_to_one_than_the_first_enclosure(tmp_path, capsys):
    # epsilon = 10^-30: ln(ratio) is about 1.7e-31, below the error of the logs at
    # the enclosure's first 30 digits, so the first denominator interval spans 0
    # and has infinite endpoints; the enclosure must refine, not read them as 0
    rep = _scan_bin_system(tmp_path, capsys, F(1, 10**30))
    ratio = F(6 * 10**30 + 3, 6 * 10**30 + 2)
    assert rep["bin_ratio"] == str(ratio)
    with mpmath.workdps(120):
        q = mpmath.log(2) / mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator)
        k = int(mpmath.floor(q))
        assert 10**-20 < q - k < 1 - 10**-20  # far from an integer at 120 digits
    assert k > 10**30
    assert rep["histogram"] == {"0": 2, str(k): 1}
    assert _mult_bin(2, ratio) == k
