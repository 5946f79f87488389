"""Golden digests of CLI reports on fixed suite pairs and systems.

Each command runs over a fixed set of inputs; the exit codes and report
bytes of all its cases are hashed together.  A refactor that keeps the
printed reports byte-identical keeps every digest; a digest changes only
when a report does, which then has to be a deliberate change.

To print the digests of the current code:
    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from heightlab.cli import cmd_dispatch
from heightlab.suite import (
    curated_falsification_suite,
    curated_slope_suite,
    random_normalized_pair,
    random_pair,
    random_special_pair,
    random_subspace_rows,
)
from heightlab.twisted_system import PlaceData, TwistedPair, frac_str, pair_to_json, validate
from test_infima_kernel import _p_adic, _tied

SLOPES_BOX = {2: 6, 3: 3, 4: 2}

# Diophantine systems: nonpositive exponents summing to -n - epsilon.
SYSTEMS = (
    {"n": 2, "epsilon": "1", "places": [
        {"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}]},
    {"n": 2, "epsilon": "1/2", "places": [
        {"place": "inf", "forms": [["1", "-2"], ["1", "1"]], "exps": ["-5/4", "-5/12"]},
        {"place": "3", "forms": [["2", "1"], ["0", "1"]], "exps": ["-5/12", "-5/12"]}]},
    {"n": 2, "epsilon": "1/4", "places": [
        {"place": "inf", "forms": [["2", "1"], ["-1", "1"]], "exps": ["-9/8", "-9/8"]}]},
    {"n": 3, "epsilon": "1/2", "places": [
        {"place": "inf", "forms": [["1", "1", "0"], ["0", "1", "-1"], ["1", "0", "2"]],
         "exps": ["-7/4", "-7/8", "-7/8"]}]},
    {"n": 3, "epsilon": "3/4", "places": [
        {"place": "inf", "forms": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
         "exps": ["-15/8", "-15/16", "-15/16"]}]},
)
SCAN_BOX = {2: 12, 3: 3}

# the boxes of the infima_sweep benchmark workload, by n
INFIMA_BOX = {2: 30, 3: 6, 4: 3}
INFIMA_QS = ("10", "100", "1000")

# Three parameter sets per theorem; the second set of 2.x, 8.1, 3.1 and 3.2
# takes the H_L (H_star) branch of C0 (C1).
_DELTA = (["--n", "2", "--delta", "1"], ["--n", "2", "--delta", "1"], ["--n", "3", "--delta", "1/2"])
_EPS = (["--n", "2", "--eps", "1"], ["--n", "2", "--eps", "1"], ["--n", "3", "--eps", "1/2"])
_HL = (["--R", "2", "--hl", "1"], ["--R", "2", "--hl", "25"], ["--R", "5", "--hl", "9/2"])
_HSTAR = (
    ["--R", "2", "--D", "1", "--hstar", "1"],
    ["--R", "2", "--D", "1", "--hstar", "5000"],
    ["--R", "4", "--D", "2", "--hstar", "7/2"],
)
BOUNDS = {
    "1.1": (["--n", "2", "--delta", "1"], ["--n", "3", "--delta", "1/2"], ["--n", "4", "--delta", "1/3"]),
    "1.2": (["--n", "2", "--delta", "1"], ["--n", "3", "--delta", "1/2"], ["--n", "4", "--delta", "1/3"]),
    "1.3": (["--n", "2", "--eps", "1"], ["--n", "3", "--eps", "1/2"], ["--n", "4", "--eps", "2/3"]),
    "2.1": tuple(a + b for a, b in zip(_DELTA, _HL)),
    "2.2": tuple(a + b + ["--dd", str(k + 1)] for k, (a, b) in enumerate(zip(_DELTA, _HL))),
    "2.3": tuple(a + b for a, b in zip(_DELTA, _HL)),
    "3.1": tuple(a + b for a, b in zip(_EPS, _HSTAR)),
    "3.1b": (
        ["--n", "2", "--eps", "1", "--D", "1", "--s", "1"],
        ["--n", "3", "--eps", "1/2", "--D", "2", "--s", "2"],
        ["--n", "2", "--eps", "1/3", "--D", "3/2", "--s", "3"],
    ),
    "3.2": tuple(a + b for a, b in zip(_EPS, _HSTAR)),
    "8.1": tuple(a + b for a, b in zip(_DELTA, _HL)),
}


# cover: omega x delta, exact powers (1 + delta/2)^k and 10^-6 on either side of
# them, each with and without --q1; then the refusals: past COVER_COUNT_CAP,
# powers past POWER_BITS (delta = 1 - 10^-3000, 35 intervals of 9,967-bit
# powers), and log10 endpoints past the float range
COVER_DELTAS = ("1", "1/2", "1/3", "1/7", "2/9")
COVER_OMEGAS = ("11/10", "2", "14/5", "1000")
COVER_POWERS = (1, 2, 5, 12)
_BIG_DELTA = frac_str(1 - Fraction(1, 10**3000))
COVER_REFUSED = (
    ["--omega", "1000", "--delta", "1/1000"],
    ["--omega", "1000000", "--delta", _BIG_DELTA, "--q1", "7"],
    ["--omega", "1000000", "--delta", _BIG_DELTA],
    ["--omega", "1e308", "--delta", "1", "--q1", "1e10"],
)


def _cover_flags():
    for delta in COVER_DELTAS:
        base = 1 + Fraction(delta) / 2
        omegas = list(COVER_OMEGAS)
        for k in COVER_POWERS:
            omegas += [frac_str(base**k + e) for e in (Fraction(-1, 10**6), 0, Fraction(1, 10**6))]
        for omega in omegas:
            yield f"{delta}-{omega}", ["--omega", omega, "--delta", delta]
            yield f"{delta}-{omega}-q1", ["--omega", omega, "--delta", delta, "--q1", "7"]
    for k, flags in enumerate(COVER_REFUSED):
        yield f"refused-{k}", flags


def _unchecked_pairs():
    """Pairs validate refuses or flags: dependent forms at one or two places,
    exponent sums other than 0 and per-place maxima summing past 1."""
    return [
        {"n": 2, "places": [{"place": "inf", "forms": [["1", "2"], ["2", "4"]], "exps": ["1", "-1"]}]},
        {"n": 3, "places": [
            {"place": "inf", "forms": [["1", "0", "1"], ["0", "1", "1"], ["1", "1", "2"]], "exps": ["0", "0", "0"]},
            {"place": "5", "forms": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]], "exps": ["1/2", "0", "-1/2"]}]},
        {"n": 2, "places": [{"place": "inf", "forms": [["1", "1"], ["0", "1"]], "exps": ["1", "1/2"]}]},
        {"n": 2, "places": [
            {"place": "inf", "forms": [["1", "1"], ["0", "1"]], "exps": ["3/4", "-3/4"]},
            {"place": "2", "forms": [["1", "0"], ["1", "1"]], "exps": ["1/2", "-1/2"]}]},
        {"n": 3, "places": [{"place": "3", "forms": [["1", "1", "0"], ["0", "1", "1"], ["1", "0", "1"]],
                             "exps": ["2", "-1", "0"]}]},
    ]


def _pairs():
    """The 20 falsification pairs plus two-place n=3 and n=4 random pairs."""
    rng = random.Random(4242)
    pairs = list(curated_falsification_suite(seed=0))
    pairs += [random_pair(rng, 3, places=2), random_pair(rng, 4, places=2, coeff=2)]
    return pairs


def _rational_forms(rng, pair):
    """The pair with every form entry times a random rational: the same
    exponents, rational forms at every place (all of them stay independent)."""
    scale = lambda f: tuple(a * Fraction(rng.randint(1, 4), rng.randint(1, 6)) for a in f)
    active = {v: PlaceData(tuple(map(scale, pd.forms)), pd.exps) for v, pd in pair.active.items()}
    return TwistedPair(pair.n, active)


# minkowski: the pairs of _pairs() and two-place and three-place pairs with
# rational forms, at two values of Q and a small box per n
MINKOWSKI_QS = ("10", "1000")
MINKOWSKI_BOX = {2: 5, 3: 2, 4: 1}


def _minkowski_pairs():
    rng = random.Random(2727)
    pairs = _pairs()
    pairs += [_rational_forms(rng, random_pair(rng, n, places=k)) for n in (2, 3, 4) for k in (2, 3)]
    return pairs


# gap: normalized pairs at one to three places, half of them with rational
# forms, at delta = 1/2 and two values of A >= n^2; then the refusals (exit 2):
# A < n^(1/delta), and a pair that is not normalized
GAP_AS = ("16", "1000")
GAP_BOX = {2: 6, 3: 3, 4: 2}


def _gap_pairs():
    rng = random.Random(2728)
    pairs = [p for _, p in curated_slope_suite() if validate(p).normalized_ok]
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            pair = random_normalized_pair(rng, n, places=k)
            pairs += [pair, _rational_forms(rng, pair)]
    return pairs


def _special_pairs():
    rng = random.Random(77)
    pairs = [p for _, p in curated_slope_suite()]
    pairs += [random_special_pair(rng, n, places) for n in (2, 3, 4) for places in (1, 2)]
    pairs.append(random_pair(rng, 3))  # not special-shaped: exit 3
    return pairs


def _infima_requests():
    """(label, pair, q, box): random one-place pairs at n = 2, 3, 4 and the
    tied and p-adic pairs of the reject-bound tests, at Q = 10, 100, 1000,
    and the tied pair at Q = 10^400, whose bounds lie past the float range."""
    rng = random.Random(1919)
    named = [(f"n{n}-{k}", random_pair(rng, n, places=1), INFIMA_BOX[n]) for n in (2, 3, 4) for k in range(3)]
    named += [("tied", _tied, 4), ("p-adic", _p_adic, 3)]
    for name, pair, box in named:
        for q in INFIMA_QS:
            yield f"{name}-{q}", pair, q, box
    yield "tied-1e400", _tied, "1" + "0" * 400, 4


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data, sort_keys=True))
    return str(p)


def _cases(command, tmp_path):
    """(label, argv) for every case of one command."""
    if command in ("filtration", "exceptional"):
        for k, pair in enumerate(_pairs()):
            yield k, [command, _write(tmp_path, f"p{k}.json", pair_to_json(pair))]
    elif command in ("validate", "invariants"):
        pairs = [pair_to_json(pair) for pair in _pairs()] + _unchecked_pairs()
        for k, pair in enumerate(pairs):
            path = _write(tmp_path, f"p{k}.json", pair)
            yield k, [command, path]
            if command == "invariants":
                yield f"{k}-30", [command, path, "--precision", "30"]
    elif command == "minkowski":
        for k, pair in enumerate(_minkowski_pairs()):
            path = _write(tmp_path, f"p{k}.json", pair_to_json(pair))
            for q in MINKOWSKI_QS:
                yield f"{k}-{q}", [command, path, "--q", q, "--box", str(MINKOWSKI_BOX[pair.n])]
    elif command == "gap":
        for k, pair in enumerate(_gap_pairs()):
            path = _write(tmp_path, f"p{k}.json", pair_to_json(pair))
            for a in GAP_AS:
                yield f"{k}-{a}", [command, path, "--delta", "1/2", "--a", a, "--box", str(GAP_BOX[pair.n])]
        path = _write(tmp_path, "e1.json", pair_to_json(curated_slope_suite()[0][1]))
        yield "small-a", [command, path, "--delta", "1/2", "--a", "3", "--box", "2"]
        path = _write(tmp_path, "skew.json", pair_to_json(curated_slope_suite()[3][1]))
        yield "not-normalized", [command, path, "--delta", "1/2", "--a", "16", "--box", "2"]
    elif command == "cover":
        for label, flags in _cover_flags():
            yield label, [command] + flags
    elif command == "special-t":
        for k, pair in enumerate(_special_pairs()):
            yield k, [command, _write(tmp_path, f"s{k}.json", pair_to_json(pair))]
    elif command == "weight":
        rng = random.Random(11)
        for k, pair in enumerate(_pairs()):
            path = _write(tmp_path, f"p{k}.json", pair_to_json(pair))
            for dim in range(1, pair.n):
                rows = random_subspace_rows(rng, pair.n, dim)
                sub = {"ambient": pair.n, "basis": [[frac_str(a) for a in r] for r in rows]}
                yield f"{k}-{dim}", [command, path, _write(tmp_path, f"u{k}-{dim}.json", sub)]
    elif command == "infima":
        for label, pair, q, box in _infima_requests():
            path = _write(tmp_path, "pair.json", pair_to_json(pair))
            yield label, [command, path, "--q", q, "--box", str(box)]
    elif command == "slopes":
        for name, pair in curated_slope_suite():
            path = _write(tmp_path, f"{name}.json", pair_to_json(pair))
            yield name, [command, path, "--qgrid", "10:1000:3", "--box", str(SLOPES_BOX[pair.n])]
    elif command in ("scan", "reduce"):
        for k, system in enumerate(SYSTEMS):
            path = _write(tmp_path, f"sys{k}.json", system)
            if command == "reduce":
                yield k, [command, path]
            else:
                box = str(SCAN_BOX[system["n"]])
                yield k, [command, path, "--hmax", box, "--box", box]
    elif command == "bounds":
        for thm, sets in BOUNDS.items():
            for k, flags in enumerate(sets):
                yield f"{thm}-{k}", [command, "--thm", thm] + flags + ["--precision", str(12 + 4 * k)]
    else:
        raise ValueError(command)


def report_digest(command, tmp_path) -> str:
    h = hashlib.sha256()
    for label, argv in _cases(command, tmp_path):
        out = tmp_path / "report.out"
        if out.exists():
            out.unlink()
        code = cmd_dispatch(argv + ["--out", str(out)])
        text = out.read_bytes() if out.exists() else b""
        h.update(f"{label}\0{code}\0".encode() + text + b"\0")
    return h.hexdigest()


GOLDEN = {
    "filtration": "b66d52ee6a9f58850f2d2c7ddacc7929f92cee9bdd86e9c218189d14ff026f29",
    "exceptional": "5756689d1ba30f10428abdbacac1569bbfe288d91dc1a24464494f3498f7d7e4",
    "special-t": "07441b3ed6f8085385771fe44d6633d1c44137a0cfc702863b67a2578685cf65",
    "weight": "35b5fdb36a017b46a6ba5c90c7477a27745f85ffd709ae10433c267d05d372ac",
    "infima": "be56b58cc2590544ef434bab62c4befe27490ef6d97459b4def395da222b602a",
    "slopes": "53d668133eaab6eafd0f3ba439b931e8f346001fa6bde262d512f4b59e6c34fa",
    "scan": "1e31724168419f13a9f652f75ba4ceed50353165bfdf734cd8230ab90a72f1a1",
    "reduce": "74da5ec1ced65f2ff6c57348a2f9a1ca691116657e8fc7cffbd42ca50b68d364",
    "bounds": "57d3d7a12836824744a1173df731e268c657b661b9e439a31038a8bb9bda011b",
    "cover": "3c9400faf4767e7cc095dbcb832b1b1afed44e1c6d0a839472b1eba65f170209",
    "validate": "d770c322b2fffca361fa3a5a3e928a2237aae74790e31e94564a871a97140c88",
    "invariants": "fe6db05d6a25221c945b336b15fbbf4ca2f0dec0c84986fe527e25746c0efda4",
    "minkowski": "2115b8dfc91d0280939b3f652a354ba0a8837a2d2c75d9d83c497a91891cb221",
    "gap": "e80bbce67dfecebfdad5177d6625103bd1e4098f053b41a06c100ebbad9f65d1",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digest(command, tmp_path):
    assert report_digest(command, tmp_path) == GOLDEN[command]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for command in ("filtration", "exceptional", "special-t", "weight", "infima", "slopes", "scan", "reduce", "bounds",
                    "cover", "validate", "invariants", "minkowski", "gap"):
        with tempfile.TemporaryDirectory() as d:
            print(f'    "{command}": "{report_digest(command, Path(d))}",')
