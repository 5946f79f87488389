"""Output checks, one per job kind; each returns None when the report is right.

The checks re-derive results by routes independent of the code under test
where the library offers one: lambda-bars through the exact `twisted_height`
instead of the mantissa path, weights through flag intersections instead of
the greedy scan, solutions through the reduction inequality.
"""

from __future__ import annotations

import json
from fractions import Fraction

from heightlab.bounds_reduction import reduce_system, reduction_inequality_holds
from heightlab.exact_reals import FactoredReal
from heightlab.exterior_algebra import Subspace
from heightlab.filtration import local_weight_via_flags
from heightlab.infima_lab import SystemInstance
from heightlab.rational_linalg import rank
from heightlab.twisted_system import (
    alpha_of,
    pair_from_json,
    pair_invariants,
    pair_to_json,
    twisted_height,
)

F = Fraction


class CheckFailed(Exception):
    pass


def _require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _subspace(data) -> Subspace:
    return Subspace(int(data["ambient"]), [[F(a) for a in row] for row in data["basis"]])


def _flag_weight(pair, u: Subspace) -> Fraction:
    return sum((local_weight_via_flags(pair, u, v) for v in pair.active), F(0))


def _slope_vs_full(pair, u: Subspace) -> Fraction:
    n = pair.n
    return (_flag_weight(pair, Subspace.full(n)) - _flag_weight(pair, u)) / (n - u.dim)


def check_infima(job, rep):
    pair, q = job.ctx["pair"], job.ctx["q"]
    n = pair.n
    _require(F(rep["q"]) == q and rep["box"] == job.ctx["box"], "q or box echoed wrongly")
    lambdas = [FactoredReal.from_json(l["factored"]) for l in rep["lambdas"]]
    achievers = [tuple(a) for a in rep["achievers"]]
    _require(len(lambdas) == n and len(achievers) == n, "need n lambda-bars")
    for lam, x in zip(lambdas, achievers):
        _require(max(abs(c) for c in x) <= job.ctx["box"], f"achiever {x} outside the box")
        _require(twisted_height(pair, q, x) == lam, f"lambda-bar of {x} differs from twisted_height")
    _require(all(a <= b for a, b in zip(lambdas, lambdas[1:])), "lambda-bars decrease")
    _require(rank([[F(c) for c in x] for x in achievers]) == n, "achievers are dependent")
    delta, _ = pair_invariants(pair)
    lower = FactoredReal.from_rational(n) ** F(-n, 2) * delta
    lower = lower * FactoredReal.from_rational(q) ** (-alpha_of(pair))
    prod = FactoredReal.one()
    for lam in lambdas:
        prod = prod * lam
    _require(lower <= prod, "Minkowski lower bound violated")
    for i, span in enumerate(rep["spans"]):
        _require(_subspace(span).dim >= i + 1, "span estimate too small")


def check_slopes(job, rep):
    n = job.ctx["pair"].n
    qs = [F(q) for q in rep["qs"]]
    _require(len(rep["rows"]) == n * len(qs), "need n rows per Q")
    for q in qs:
        rows = [r for r in rep["rows"] if F(r["q"]) == q]
        _require([r["i"] for r in rows] == list(range(1, n + 1)), "row indices")
        logs = [float(r["log10_lambda"]) for r in rows]
        _require(all(a <= b + 1e-9 for a, b in zip(logs, logs[1:])), "lambda-bars decrease")
    if not job.ctx.get("curated"):
        return
    # the curated pairs have their infima at unit vectors: estimates match the chain
    _require(all(rep["span_matches"].values()), "span estimate disagrees with the filtration")
    got = [float(r["slope"]) for r in rep["rows"] if F(r["q"]) == qs[-1]]
    want = [float(e) for e in rep["expected_slopes"]]
    _require(all(abs(a - b) < 1e-6 for a, b in zip(got, want)), "slopes miss the chain slopes")


def check_filtration(job, rep):
    pair = job.ctx["pair"]
    chain = rep["chain"]
    spaces = [Subspace(pair.n, [[F(a) for a in row] for row in e["basis"]]) for e in chain]
    dims = [s.dim for s in spaces]
    _require(dims == [e["dim"] for e in chain], "dims echoed wrongly")
    _require(dims[0] == 0 and dims[-1] == pair.n, "chain must run from 0 to n")
    _require(all(a < b for a, b in zip(dims, dims[1:])), "dims do not strictly increase")
    weights = [_flag_weight(pair, s) for s in spaces]
    _require(weights == [F(e["weight"]) for e in chain], "weight differs from the flag route")
    slopes = [F(e["slope"]) for e in chain[1:]]
    for l, s in enumerate(slopes, start=1):
        _require(s == (weights[l] - weights[l - 1]) / (dims[l] - dims[l - 1]), "slope arithmetic")
    _require(all(a > b for a, b in zip(slopes, slopes[1:])), "slopes do not strictly decrease")
    for a, b in zip(spaces, spaces[1:]):
        _require(b.contains(a), "chain is not nested")


def check_exceptional(job, rep):
    pair = job.ctx["pair"]
    t = _subspace(rep)
    _require(t.dim == rep["dim"] and t.dim < pair.n, "exceptional subspace must be proper")
    _require(_flag_weight(pair, t) == F(rep["weight"]), "weight differs from the flag route")
    mu = _slope_vs_full(pair, t)
    _require(mu == F(rep["slope_vs_full"]), "slope differs from the flag route")
    _require(mu <= _slope_vs_full(pair, Subspace.zero(pair.n)), "zero subspace has smaller slope")


def check_special_t(job, rep):
    pair = job.ctx["pair"]
    n = pair.n
    blocks = rep["partition"]
    flat = [j for b in blocks for j in b]
    _require(all(b for b in blocks) and len(flat) == len(set(flat)), "blocks overlap or are empty")
    _require(all(1 <= j <= n for j in flat), "index out of range")
    rows = [[F(1 if j + 1 in b else 0) for j in range(n)] for b in blocks]
    t = Subspace.kernel(n, rows)
    _require(t.dim < n, "partition subspace must be proper")
    _require(
        _slope_vs_full(pair, t) <= _slope_vs_full(pair, Subspace.zero(n)),
        "zero subspace has smaller slope",
    )


def _system(data) -> SystemInstance:
    places = {e["place"]: (e["forms"], e["exps"]) for e in data["places"]}
    return SystemInstance(int(data["n"]), F(data["epsilon"]), places)


def check_scan(job, rep):
    system = _system(job.ctx["system"])
    pair, delta, qexp = reduce_system(system)
    _require(F(rep["reduced_delta"]) == delta, "reduced delta differs")
    t_prime = _subspace(rep["T_prime"])
    sols = rep["solutions"]
    for s in sols:
        x = tuple(s["x"])
        _require(s["height"] == max(abs(c) for c in x) <= job.ctx["hmax"], "height out of range")
        _require(reduction_inequality_holds(pair, delta, qexp, x), f"{x} breaks the reduction inequality")
        _require(s["in_T_prime"] == t_prime.contains_vector(x), f"in_T_prime wrong for {x}")
    _require(sum(rep["histogram"].values()) == len(sols), "histogram does not sum to the solutions")


def check_reduce(job, rep):
    pair, delta, qexp = reduce_system(_system(job.ctx["system"]))
    _require(rep["pair"] == pair_to_json(pair), "reduced pair differs")
    _require(F(rep["delta"]) == delta and F(rep["q_exponent"]) == qexp, "delta or q exponent differs")
    _require(pair_from_json(rep["pair"]) == pair, "reduced pair does not round-trip")


def check_bounds(job, rep):
    _require(rep["theorem"] == job.ctx["thm"], "theorem id echoed wrongly")
    _require(rep["log_convention"] == "ln" and rep["constants"], "no constants")
    for name, entry in rep["constants"].items():
        _require(entry["tier"] in ("exact", "log10", "loglog10"), f"{name}: unknown tier")
        shown = [entry.get(k) for k in ("value", "log10", "loglog10")]
        _require(any(v is not None for v in shown), f"{name}: no value")
        for v in shown:
            if v is not None:
                F(v)  # raises ValueError unless a number


def check_validate(job, rep):
    _require(rep["core_ok"] is True and rep["r"] >= job.ctx["pair"].n, "valid pair refused")


def check_invariants(job, rep):
    pair = job.ctx["pair"]
    delta = FactoredReal.from_json(rep["delta_L"]["factored"])
    h_l = FactoredReal.from_json(rep["H_L"]["factored"])
    _require(delta <= h_l, "Delta_L exceeds H_L")
    for fr, entry in ((delta, rep["delta_L"]), (h_l, rep["H_L"])):
        _require(abs(float(entry["log10"]) - fr.log10_float()) < 1e-9, "log10 disagrees")
    _require(F(rep["alpha"]) == alpha_of(pair), "alpha differs")


def check_weight(job, rep):
    sub = job.ctx["subspace"]
    _require(rep["dim"] == sub.dim, "dim echoed wrongly")
    _require(F(rep["weight"]) == _flag_weight(job.ctx["pair"], sub), "weight differs from the flag route")


def check_cover(job, rep):
    base = 1 + job.ctx["delta"] / 2
    s = rep["s"]
    _require(base ** s >= job.ctx["omega"] > base ** (s - 1), "s is not minimal")
    _require(len(rep["endpoints_log10"]) == s + 1, "need s+1 endpoints")


def check_gap(job, rep):
    pair = job.ctx["pair"]
    threshold = FactoredReal.from_json(rep["threshold"]["factored"])
    sols = [tuple(x) for x in rep["solutions"]]
    for x in sols:
        _require(twisted_height(pair, job.ctx["a"], x) < threshold, f"{x} is above the threshold")
    span = _subspace(rep["span"])
    _require(rep["proper"] == (span.dim < pair.n) and rep["proper"], "gap span must be proper")
    for x in sols:
        _require(span.contains_vector(x), "solution outside the span")


def check_minkowski(job, rep):
    pair, q = job.ctx["pair"], job.ctx["q"]
    n = pair.n
    lower = FactoredReal.from_json(rep["lower"]["factored"])
    prod = FactoredReal.from_json(rep["product"]["factored"])
    delta, _ = pair_invariants(pair)
    want = FactoredReal.from_rational(n) ** F(-n, 2) * delta * FactoredReal.from_rational(q) ** (-alpha_of(pair))
    _require(lower == want, "lower bound differs")
    _require(rep["lower_ok"] is True and lower <= prod, "Minkowski lower bound violated")


def check_validate_refused(job, rep):
    _require(rep["core_ok"] is False, "dependent forms accepted")


CHECKS = {
    "infima": check_infima,
    "slopes": check_slopes,
    "filtration": check_filtration,
    "exceptional": check_exceptional,
    "special-t": check_special_t,
    "scan": check_scan,
    "reduce": check_reduce,
    "bounds": check_bounds,
    "validate": check_validate,
    "invariants": check_invariants,
    "weight": check_weight,
    "cover": check_cover,
    "gap": check_gap,
    "minkowski": check_minkowski,
    "validate_refused": check_validate_refused,
    "refused": None,  # only the exit code matters
}


def check(job, rc: int, out: str) -> str | None:
    """None if the request returned its expected code and a correct report."""
    if rc != job.expect:
        return f"exit code {rc}, expected {job.expect}"
    fn = CHECKS[job.check]
    if fn is None:
        return None
    try:
        fn(job, json.loads(out))
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
