"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and counts are pinned here and nowhere else.
"""

import json
import math
import random
import time
from fractions import Fraction

from heightlab.bounds_reduction import (
    bound_constants,
    internal_t0_consistency,
    reduce_system,
    reduction_inequality_holds,
)
from heightlab.cli import cmd_dispatch
from heightlab.exact_reals import ONE, FactoredReal
from heightlab.exterior_algebra import (
    Subspace,
    orth_complement,
    subsets_lex,
    subspace_height_sq,
    wedge,
)
from heightlab.filtration import (
    exceptional_subspace,
    filtration,
    local_weight,
    special_case_T,
    weight,
)
from heightlab.infima_lab import (
    SystemInstance,
    default_box_policy,
    gap_experiment,
    minkowski_check,
    scan_system,
    successive_infima,
)
from heightlab.places_heights import (
    INF,
    Place,
    abs_value,
    height,
    height_one,
    height_two,
    vec_norm,
)
from heightlab.rational_linalg import det, rank
from heightlab.suite import (
    curated_falsification_suite,
    curated_slope_suite,
    random_normalized_pair,
    random_pair,
    random_special_pair,
    random_subspace_rows,
    pair_e1,
    pair_e3,
)
from heightlab.twisted_system import pair_to_json, validate

F = Fraction
FR = FactoredReal


def _report(k, msg):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


def _random_subspace(rng, n, dim=None):
    if dim is None:
        dim = rng.randint(0, n)
    if dim == 0:
        return Subspace.zero(n)
    return Subspace.span(n, random_subspace_rows(rng, n, dim))


def test_acceptance_01_product_formula():
    start = time.monotonic()
    rng = random.Random(101)
    failures = 0
    for _ in range(1000):
        q = F(rng.randint(1, 10**6), rng.randint(1, 10**4)) * rng.choice([1, -1])
        prod = ONE
        places = {INF}
        for p in FR.from_rational(abs(q)).factors:
            places.add(Place.finite(p))
        for v in places:
            prod = prod * abs_value(q, v)
        if prod != ONE:
            failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 5.0
    _report(1, f"product formula exact on 1000 rationals in {elapsed:.2f}s")


def test_acceptance_02_height_chain_and_cauchy_schwarz():
    rng = random.Random(102)
    for _ in range(1000):
        n = rng.randint(1, 5)
        x = tuple(F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n))
        if all(c == 0 for c in x):
            x = (F(1),) + x[1:]
        h, h1, h2 = height(x), height_one(x), height_two(x)
        nfr = FR.from_rational(n)
        assert nfr ** F(-1) * h1 <= nfr ** F(-1, 2) * h2 <= h <= h2 <= h1
        y = tuple(F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n))
        dot = sum(a * b for a, b in zip(x, y))
        assert dot * dot <= vec_norm(x, INF, "two_squared") * vec_norm(y, INF, "two_squared")
        if dot != 0:
            for p in (2, 3, 5):
                v = Place.finite(p)
                assert abs_value(dot, v) <= vec_norm(x, v, "sup") * vec_norm(y, v, "sup")
    _report(2, "height chain and Cauchy-Schwarz exact on 1000 vectors")


def test_acceptance_03_exterior_identities():
    start = time.monotonic()
    rng = random.Random(103)

    def rand_vec(n):
        return tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))

    # det-power identity, n <= 4, all p
    for n in (2, 3, 4):
        for p in range(1, n):
            for _ in range(15):
                m = [rand_vec(n) for _ in range(n)]
                if det(m) == 0:
                    continue
                hat = [wedge([m[i - 1] for i in s]) for s in subsets_lex(n, p)]
                lhs = det(hat)
                rhs = det(m) ** math.comb(n - 1, p - 1)
                assert lhs == rhs or lhs == -rhs
    # Laplace pairing on 500 random instances
    for _ in range(500):
        n = rng.randint(2, 5)
        p = rng.randint(1, n)
        forms = [rand_vec(n) for _ in range(p)]
        vecs = [rand_vec(n) for _ in range(p)]
        lhs = sum(a * b for a, b in zip(wedge(forms), wedge(vecs)))
        rhs = det([[sum(a * b for a, b in zip(f, x)) for x in vecs] for f in forms])
        assert lhs == rhs
    # duality and the adapted-basis identity on 500 random subspaces
    for _ in range(500):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        t = _random_subspace(rng, n, k)
        assert subspace_height_sq(orth_complement(t)) == subspace_height_sq(t)
        basis = list(t.rows)
        while len(basis) < n:
            cand = rand_vec(n)
            if rank(basis + [cand]) > len(basis):
                basis.append(cand)
        p = n - k
        hats = [wedge([basis[i - 1] for i in s]) for s in subsets_lex(n, p)]
        big_n = math.comb(n, p)
        t_hat = Subspace.span(big_n, hats[: big_n - 1])
        assert subspace_height_sq(t_hat) == subspace_height_sq(t)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"exterior identities exact (500+500 instances) in {elapsed:.1f}s")


def test_acceptance_04_weight_oracle():
    from itertools import combinations

    start = time.monotonic()
    rng = random.Random(104)
    for _ in range(500):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n, places=rng.choice([1, 2]))
        k = rng.randint(1, n)
        u = _random_subspace(rng, n, k)
        for v in pair.active:
            pd = pair.place_data(v)
            restr = [
                tuple(sum(a * b for a, b in zip(form, row)) for row in u.rows)
                for form in pd.forms
            ]
            best = None
            for subset in combinations(range(n), k):
                if rank([restr[i] for i in subset]) == k:
                    tot = sum(pd.exps[i] for i in subset)
                    if best is None or tot < best:
                        best = tot
            assert local_weight(pair, u, v) == best
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"greedy weight equals brute-force minimum on 500 instances in {elapsed:.1f}s")


def test_acceptance_05_submodularity():
    rng = random.Random(105)
    for _ in range(1000):
        n = rng.randint(2, 4)
        pair = random_pair(rng, n)
        u1 = _random_subspace(rng, n)
        u2 = _random_subspace(rng, n)
        assert weight(pair, u1.intersect(u2)) + weight(pair, u1.add(u2)) >= weight(
            pair, u1
        ) + weight(pair, u2)
    _report(5, "weight submodularity exact on 1000 subspace pairs")


def test_acceptance_06_exceptional_falsification():
    start = time.monotonic()
    pairs = curated_falsification_suite(seed=0)
    assert len(pairs) == 20
    rng = random.Random(106)
    for pair in pairs:
        n = pair.n
        t = exceptional_subspace(pair)
        w_full = weight(pair, Subspace.full(n))
        best = F(weight(pair, t) - w_full, n - t.dim)
        for _ in range(10_000):
            u = _random_subspace(rng, n, rng.randint(0, n - 1))
            ratio = F(weight(pair, u) - w_full, n - u.dim)
            assert ratio <= best
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(6, f"20 pairs x 10^4 random subspaces never beat T in {elapsed:.1f}s")


def test_acceptance_07_special_case_agreement():
    rng = random.Random(107)
    disagreements = 0
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        pair = random_special_pair(rng, n, places=rng.choice([1, 2]))
        parts = special_case_T(pair)  # raises loudly on any disagreement
        rebuilt = Subspace.kernel(
            n, [[F(1 if j + 1 in block else 0) for j in range(n)] for block in parts]
        )
        if rebuilt != exceptional_subspace(pair):
            disagreements += 1
    assert disagreements == 0
    _report(7, "combinatorial T agrees with the generic algorithm on 100 systems")


def test_acceptance_08_minkowski_sandwich():
    start = time.monotonic()
    for name, pair in curated_slope_suite():
        policy = default_box_policy(pair)
        for q in (10, 100, 1000):
            rep = minkowski_check(pair, q, policy(q))
            assert rep.lower_ok, (name, q)
            assert rep.upper_ok, (name, q)
    elapsed = time.monotonic() - start
    _report(8, f"Minkowski sandwich holds on the curated suite in {elapsed:.1f}s")


def test_acceptance_09_slope_law():
    q = 10_000
    worst = 0.0
    for name, pair in curated_slope_suite():
        t0 = time.monotonic()
        chain = filtration(pair)
        policy = default_box_policy(pair)
        est = successive_infima(pair, q, policy(q))
        logq = math.log10(q)
        for i, lam in enumerate(est.lambdas, start=1):
            s = lam.log10_float() / logq
            mu = float(chain.slope_for_index(i))
            worst = max(worst, abs(s + mu))
            assert abs(s + mu) <= 0.05, (name, i)
        for l in range(1, len(chain.subspaces) - 1):
            d_l = chain.subspaces[l].dim
            assert est.spans[d_l - 1] == chain.subspaces[l], (name, l)
        per_pair = time.monotonic() - t0
        assert per_pair < 60.0, (name, per_pair)
    _report(9, f"slope law at Q=10^4: worst |s_i + mu| = {worst:.2e}, spans match")


def test_acceptance_10_gap_principle():
    rng = random.Random(110)
    for _ in range(20):
        n = rng.randint(2, 4)
        pair = random_normalized_pair(rng, n, places=rng.choice([1, 2]))
        rep = gap_experiment(pair, 1, n * n, 10)
        assert rep.proper
    _report(10, "gap-principle solution sets span proper subspaces on 20 pairs")


def test_acceptance_11_bounds_calculator():
    # (a) second evaluation path at a different precision ladder: 10 digits
    cases = [
        ("1.1", {"n": 3, "delta": F(1, 2)}),
        ("1.2", {"n": 3, "delta": F(1, 2)}),
        ("1.3", {"n": 3, "eps": F(1, 2)}),
        ("2.1", {"n": 3, "delta": F(1, 2), "R": 4, "H_L": F(9, 2)}),
        ("2.2", {"n": 3, "delta": F(1, 2), "R": 4, "H_L": F(9, 2), "d": 2}),
        ("2.3", {"n": 3, "delta": F(1, 2), "R": 4, "H_L": F(9, 2)}),
        ("3.1", {"n": 3, "eps": F(1, 2), "R": 4, "D": 2, "H_star": 11}),
        ("3.1b", {"n": 3, "eps": F(1, 2), "D": 2, "s": 2}),
        ("3.2", {"n": 3, "eps": F(1, 2), "R": 4, "D": 2, "H_star": 11}),
        ("8.1", {"n": 3, "delta": F(1, 2), "R": 4, "H_L": F(9, 2)}),
    ]
    for tid, params in cases:
        lo = bound_constants(tid, params, precision=12)
        hi = bound_constants(tid, params, precision=26)
        for name, entry in lo.constants.items():
            other = hi.constants[name]
            if entry["value"] is not None:
                assert entry["value"] == other["value"], (tid, name)
            for key in ("log10", "loglog10"):
                if entry.get(key) is not None:
                    a, b = float(entry[key]), float(other[key])
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (tid, name)

    # (b) internal consistency across a 5 x 5 x 5 grid
    for n in (2, 3, 4, 5, 6):
        for r_extra in (0, 1, 2, 4, 8):
            for inv_delta in (1, 2, 3, 5, 9):
                assert internal_t0_consistency(n, n + r_extra, F(1, inv_delta))

    # (c) the reduction inequality on every scanner-suite solution
    ident2 = ((F(1), F(0)), (F(0), F(1)))
    ident3 = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    systems = [
        SystemInstance(2, 1, {INF: (ident2, (F(-3), F(0)))}),
        SystemInstance(
            2,
            F(1, 2),
            {
                INF: (((F(1), F(1)), (F(0), F(1))), (F(-2), F(0))),
                Place.finite(2): (ident2, (F(-1, 2), F(0))),
            },
        ),
        SystemInstance(3, 1, {INF: (ident3, (F(-2), F(-2), F(0)))}),
    ]
    total = 0
    for sys_inst in systems:
        pair, delta, qexp = reduce_system(sys_inst)
        rep = scan_system(sys_inst, 8, 6)
        for s in rep.solutions:
            assert reduction_inequality_holds(pair, delta, qexp, s["x"])
            total += 1
    assert total > 0
    _report(11, f"two-ladder agreement, 125-point consistency grid, {total} scanner checks")


def test_acceptance_12_determinism(tmp_path):
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps(pair_to_json(pair_e1())))
    e3 = tmp_path / "e3.json"
    e3.write_text(json.dumps(pair_to_json(pair_e3())))
    sysf = tmp_path / "sys.json"
    sysf.write_text(
        json.dumps(
            {
                "n": 2,
                "epsilon": "1",
                "places": [
                    {"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}
                ],
            }
        )
    )
    jobs = [
        ["validate", str(e1)],
        ["invariants", str(e1)],
        ["filtration", str(e3)],
        ["exceptional", str(e1)],
        ["special-t", str(e1)],
        ["infima", str(e1), "--q", "100", "--box", "3"],
        ["slopes", str(e1), "--qgrid", "10:1000:3", "--box", "5"],
        ["minkowski", str(e3), "--q", "10", "--box", "2"],
        ["gap", str(e1), "--delta", "1", "--a", "4", "--box", "5"],
        ["scan", str(sysf), "--hmax", "6", "--box", "6"],
        ["bounds", "--thm", "8.1", "--n", "3", "--delta", "1/2", "--R", "4", "--hl", "9/2"],
        ["reduce", str(sysf)],
        ["cover", "--omega", "9/5", "--delta", "1", "--q1", "100"],
    ]
    for k, job in enumerate(jobs):
        a = tmp_path / f"run_a_{k}.out"
        b = tmp_path / f"run_b_{k}.out"
        assert cmd_dispatch(job + ["--out", str(a)]) == 0
        assert cmd_dispatch(job + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), job
    _report(12, f"{len(jobs)} commands produced byte-identical reports twice")
