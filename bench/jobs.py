"""Seeded inputs and job decks for the two benchmark workloads.

Every job is one `heightlab` CLI request on JSON files written into a work
directory.  A deck is a stream of jobs built from equal cycles: every cycle
holds the same request shapes (command, n, places, box), with the same data
or, where the workload draws it, fresh random data, so runs with different
seeds differ only in the data.  The timed
phase stops at a cycle boundary, which keeps the job mix of every run the
same.  The first `digest_len` jobs are the ones the report digest and the
traced pass cover.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from heightlab.exterior_algebra import Subspace
from heightlab.rational_linalg import rank
from heightlab.suite import (
    curated_slope_suite,
    random_normalized_pair,
    random_pair,
    random_special_pair,
    random_subspace_rows,
)
from heightlab.twisted_system import frac_str, pair_to_json

F = Fraction

WORKLOADS = ("infima_sweep", "filtration_scan_reports")


@dataclass
class Job:
    """One CLI request and what its output check needs."""

    argv: list[str]
    check: str  # name of the check in checks.CHECKS
    expect: int = 0  # exit code the request must return
    shares: tuple = ()  # keys of work other requests may repeat: pair file, (n, box) box
    ctx: dict = field(default_factory=dict)
    part: str = ""  # which part of a mixed cycle the request belongs to


@dataclass
class Deck:
    jobs: list[Job]
    cycle: int  # jobs per cycle; the timed phase ends on a cycle boundary
    digest_len: int  # leading jobs covered by the digest and the traced pass
    warmup: list[Job]  # run once before timing, one per command
    mix: str  # one line describing the job mix
    # job_tail_ms is this percentile in every run of the workload, so runs of a
    # faster commit, which time more requests, report the same percentile
    tail_pct: float


class _Files:
    """Writes input files under one directory, named in creation order."""

    def __init__(self, workdir: str):
        self.dir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, stem: str, data) -> str:
        self.count += 1
        path = os.path.join(self.dir, f"{self.count:05d}-{stem}.json")
        text = data if isinstance(data, str) else json.dumps(data, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def pair(self, stem: str, pair) -> str:
        return self.write(stem, pair_to_json(pair))


def build(workload: str, seed: int, workdir: str, scale: int = 1) -> Deck:
    """The deck of `workload` for `seed`; `scale` divides its size (tests use > 1)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _DECK_MAKERS[workload](rng, _Files(workdir), scale)


def _first_of_each_command(jobs: list[Job]) -> list[Job]:
    seen = {}
    for job in jobs:
        seen.setdefault(job.argv[0], job)
    return list(seen.values())


# -- infima_sweep --------------------------------------------------------------

SLOPE_QGRID = "10:1000:3"
INFIMA_QS = ("10", "100", "1000")
BOX_BY_N = {2: 30, 3: 6, 4: 3}
# 7 curated and 7 random n=3 slope profiles + 3 x 7 x 3 infima = 77 requests
# a cycle.  The slowest requests are the slope profiles: E8 (n=4) far above
# the rest, then a spread of about ten n=2 and n=3 profiles.  p95 leaves 3.85
# requests a cycle beyond it, inside that spread: with the random profiles in
# it, the tail moves smoothly with the speed of the host instead of jumping
# between the values of one or two fixed requests.  The median falls inside
# the dense n=3 infima cluster.
INFIMA_PAIRS_PER_N = 7
RANDOM_SLOPES_N = 3
INFIMA_TAIL_PCT = 95.0


def _infima_sweep(rng, files: _Files, scale: int) -> Deck:
    jobs = []
    for name, pair in curated_slope_suite():
        path = files.pair(f"curated-{name}", pair)
        box = BOX_BY_N[pair.n]
        jobs.append(
            Job(
                ["slopes", path, "--qgrid", SLOPE_QGRID, "--box", str(box)],
                "slopes",
                shares=(("pair", path), ("box", pair.n, box)),
                ctx={"pair": pair, "curated": True},
            )
        )
    per_n = max(1, INFIMA_PAIRS_PER_N // scale)
    for n, box in BOX_BY_N.items():
        for k in range(per_n):
            pair = random_pair(rng, n, places=1)
            path = files.pair(f"random-n{n}-{k}", pair)
            if n == RANDOM_SLOPES_N:
                jobs.append(
                    Job(
                        ["slopes", path, "--qgrid", SLOPE_QGRID, "--box", str(box)],
                        "slopes",
                        shares=(("pair", path), ("box", n, box)),
                        ctx={"pair": pair},
                    )
                )
            for q in INFIMA_QS:
                jobs.append(
                    Job(
                        ["infima", path, "--q", q, "--box", str(box)],
                        "infima",
                        shares=(("pair", path), ("box", n, box)),
                        ctx={"pair": pair, "q": F(q), "box": box},
                    )
                )
    mix = (
        f"slopes on the 7 curated pairs and the random n={RANDOM_SLOPES_N} pairs (qgrid {SLOPE_QGRID}); "
        f"infima on {per_n} random one-place pairs per n at Q in {{{', '.join(INFIMA_QS)}}}; box by n: {BOX_BY_N}"
    )
    return Deck(jobs, len(jobs), len(jobs), _first_of_each_command(jobs), mix, INFIMA_TAIL_PCT)


# -- filtrations of random pairs ------------------------------------------------

# (command, n, places, coefficient bound of the random forms): three cheap
# n<=3 shapes (up to about 70 ms) and seven n=4 shapes (about 80-200 ms).
# n=5 (0.4-0.9 s a request) and two or three places at n >= 3 (0.1-0.5 s,
# widely spread) would leave too few samples in a run for a tail that holds
# still.
FILTRATION_CYCLE = (
    ("filtration", 2, 3, 3),
    ("special-t", 3, 2, None),
    ("filtration", 3, 1, 3),
    ("exceptional", 4, 1, 1),
    ("exceptional", 4, 1, 2),
    ("exceptional", 4, 1, 3),
    ("special-t", 4, 1, None),
    ("filtration", 4, 1, 1),
    ("filtration", 4, 1, 2),
    ("filtration", 4, 1, 3),
)


def _filtration_jobs(rng, files: _Files, seen: set, tag: str) -> list[Job]:
    """The FILTRATION_CYCLE shapes once, each on a pair not in `seen`."""
    out = []
    for cmd, n, places, coeff in FILTRATION_CYCLE:
        while True:
            if cmd == "special-t":
                pair = random_special_pair(rng, n, places)
            else:
                pair = random_pair(rng, n, places, coeff)
            text = json.dumps(pair_to_json(pair), sort_keys=True)
            if text not in seen:
                seen.add(text)
                break
        path = files.write(f"{tag}-{cmd}-n{n}p{places}", text)
        out.append(Job([cmd, path], cmd, shares=(("pair", path),), ctx={"pair": pair}))
    return out


# -- scans of Diophantine systems -----------------------------------------------

# (n, places).  n=3 stays at one place: every scan first computes the
# exceptional subspace of the reduced pair, and with two places at n=3 that
# filtration work (100-400 ms, by the prime) would outweigh the scan itself.
SCAN_SHAPES = ((2, 1), (2, 2), (3, 1))
# Each system is scanned at three boxes; the n=2 boxes cost about what the
# n=3 boxes of the same rank cost, so each rank forms one latency cluster.
SCAN_BOXES = {2: (15, 19, 24), 3: (3, 4, 5)}


def random_system(rng, n: int, places: int) -> dict:
    """System JSON: random independent forms, nonpositive exponents summing to -n-eps.

    The first form at infinity takes half of the exponent sum and the other
    forms share the rest equally, so most box points fail its inequality
    first and the cost of a scan depends on the box far more than on the seed.
    """
    eps = F(rng.randint(1, 4), 4)
    labels = ["inf"] + sorted(rng.sample([2, 3, 5], places - 1))
    total = -n - eps
    rest = total / 2 / (n * places - 1)
    exps = [total / 2] + [rest] * (n * places - 1)
    entries = []
    for i, label in enumerate(labels):
        while True:
            forms = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if rank(forms) == n:
                break
        entries.append(
            {
                "place": label,
                "forms": [[frac_str(a) for a in f] for f in forms],
                "exps": [frac_str(c) for c in exps[i * n : (i + 1) * n]],
            }
        )
    return {"n": n, "epsilon": frac_str(eps), "places": entries}


def _scan_jobs(rng, files: _Files, tag: str, per_shape: int) -> list[Job]:
    """`per_shape` fresh systems per shape: bounds at its (n, eps), reduce, and a scan per box."""
    out = []
    for k in range(per_shape):
        for n, places in SCAN_SHAPES:
            data = random_system(rng, n, places)
            path = files.write(f"{tag}-system-n{n}p{places}-{k}", data)
            ctx = {"system": data}
            out.append(
                Job(
                    ["bounds", "--thm", "1.3", "--n", str(n), "--eps", data["epsilon"]],
                    "bounds",
                    shares=(("bounds", n, data["epsilon"]),),
                    ctx={"thm": "1.3"},
                )
            )
            out.append(Job(["reduce", path], "reduce", shares=(("pair", path),), ctx=ctx))
            for box in SCAN_BOXES[n]:
                out.append(
                    Job(
                        ["scan", path, "--hmax", str(box), "--box", str(box)],
                        "scan",
                        shares=(("pair", path), ("box", n, box)),
                        ctx={**ctx, "hmax": box},
                    )
                )
    return out


# -- short report requests ------------------------------------------------------

THEOREMS = ("1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1", "3.1b", "3.2", "8.1")


def _bounds_args(rng, thm: str) -> list[str]:
    n = rng.randint(2, 4)
    small = frac_str(F(1, rng.randint(1, 4)))
    args = ["--n", str(n)]
    if thm in ("1.1", "1.2", "2.1", "2.2", "2.3", "8.1"):
        args += ["--delta", small]
    else:
        args += ["--eps", small]
    if thm in ("2.1", "2.2", "2.3", "3.1", "3.2", "8.1"):
        args += ["--R", str(n + rng.randint(0, 3))]
    if thm in ("2.1", "2.2", "2.3", "8.1"):
        args += ["--hl", frac_str(F(rng.randint(2, 9), 2))]
    if thm == "2.2":
        args += ["--dd", str(rng.randint(1, 3))]
    if thm in ("3.1", "3.2"):
        args += ["--D", str(rng.randint(1, 3)), "--hstar", str(rng.randint(1, 5))]
    if thm == "3.1b":
        args += ["--D", str(rng.randint(1, 3)), "--s", str(rng.randint(1, 3))]
    return args


def _report_variant(rng, files: _Files, k: int) -> list[Job]:
    jobs = []
    for n in (2, 3):
        pair = random_pair(rng, n, places=rng.randint(1, 2))
        path = files.pair(f"v{k}-pair-n{n}", pair)
        ctx = {"pair": pair}
        jobs.append(Job(["validate", path], "validate", shares=(("pair", path),), ctx=ctx))
        jobs.append(Job(["invariants", path], "invariants", shares=(("pair", path),), ctx=ctx))
        rows = random_subspace_rows(rng, n, rng.randint(1, n - 1))
        sub = files.write(
            f"v{k}-subspace-n{n}",
            {"ambient": n, "basis": [[frac_str(a) for a in r] for r in rows]},
        )
        jobs.append(
            Job(
                ["weight", path, sub],
                "weight",
                shares=(("pair", path),),
                ctx={"pair": pair, "subspace": Subspace(n, rows)},
            )
        )
    # The slowest short requests: n=3 exceptional in every other variant.
    shapes = [(2, 2), (2, 2)] + ([(3, 1)] if k % 2 == 0 else [])
    for e, (n, places) in enumerate(shapes):
        pair = random_pair(rng, n, places=places)
        path = files.pair(f"v{k}-exceptional{e}", pair)
        jobs.append(Job(["exceptional", path], "exceptional", shares=(("pair", path),), ctx={"pair": pair}))
    for thm in THEOREMS:
        args = ["bounds", "--thm", thm] + _bounds_args(rng, thm)
        jobs.append(Job(args, "bounds", shares=(("bounds",) + tuple(args),), ctx={"thm": thm}))
    for _ in range(2):
        omega = F(rng.randint(11, 40), 10)
        delta = F(1, rng.randint(1, 4))
        q1 = rng.randint(10, 1000)
        jobs.append(
            Job(
                ["cover", "--omega", frac_str(omega), "--delta", frac_str(delta), "--q1", str(q1)],
                "cover",
                ctx={"omega": omega, "delta": delta},
            )
        )
    npair = random_normalized_pair(rng, 2, places=1)
    path = files.pair(f"v{k}-normalized", npair)
    jobs.append(
        Job(
            ["gap", path, "--delta", "1", "--a", "4", "--box", "6"],
            "gap",
            shares=(("pair", path), ("box", 2, 6)),
            ctx={"pair": npair, "a": F(4), "box": 6},
        )
    )
    jobs.append(
        Job(
            ["minkowski", path, "--q", "100", "--box", "5"],
            "minkowski",
            shares=(("pair", path), ("box", 2, 5)),
            ctx={"pair": npair, "q": F(100)},
        )
    )
    jobs.extend(_invalid_jobs(rng, files, k))
    return jobs


def _invalid_jobs(rng, files: _Files, k: int) -> list[Job]:
    """Requests the CLI must refuse, one per refusal path: exit codes 2, 3 and 4."""
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    dependent = {
        "n": 2,
        "places": [{"place": "inf", "forms": [[str(a), str(b)], [str(2 * a), str(2 * b)]], "exps": ["1", "-1"]}],
    }
    skew = {
        "n": 2,
        "places": [{"place": "inf", "forms": [["1", str(a + 1)], ["0", "1"]], "exps": ["1", "-1"]}],
    }
    dep_path = files.write(f"v{k}-dependent", dependent)
    skew_path = files.write(f"v{k}-skew", skew)
    broken = files.write(f"v{k}-broken", '{"n": 2, "places": [')
    missing = os.path.join(files.dir, f"v{k}-missing.json")
    return [
        Job(["validate", dep_path], "validate_refused", expect=2),
        Job(["special-t", skew_path], "refused", expect=3),
        Job(["invariants", broken], "refused", expect=4),
        Job(["validate", missing], "refused", expect=4),
        Job(["bounds", "--thm", "2.3", "--n", "1", "--R", "2", "--delta", "1", "--hl", "1"], "refused", expect=2),
    ]


# -- filtration_scan_reports ----------------------------------------------------

# One cycle: the filtration shapes once on fresh pairs, one fresh system per
# scan shape (bounds, reduce and three scans each), and short-report variants
# that are the same every cycle: 10 + 15 + 110 requests, about a third of the
# time in each part.  The median falls among the short requests; p95 leaves
# 6.75 requests a cycle beyond it, among the 7 n=4 filtration requests and
# the 3 largest-box scans at the top.  The deck holds two to three times the
# cycles a 50 s run sends at this commit, so pairs and systems do not repeat.
MIXED_REPORT_VARIANTS = 4
MIXED_CYCLES = 60
MIXED_TAIL_PCT = 95.0


def _filtration_scan_reports(rng, files: _Files, scale: int) -> Deck:
    variants = max(1, MIXED_REPORT_VARIANTS // scale)
    reports = [job for k in range(variants) for job in _report_variant(rng, files, k)]
    seen = set()

    for job in reports:
        job.part = "reports"

    def cycle_jobs(tag):
        filtrations = _filtration_jobs(rng, files, seen, tag)
        scans = _scan_jobs(rng, files, tag, 1)
        for part, part_jobs in (("filtrations", filtrations), ("scans", scans)):
            for job in part_jobs:
                job.part = part
        return filtrations + scans + reports

    warmup = _first_of_each_command(cycle_jobs("warmup"))
    cycles = max(1, MIXED_CYCLES // scale)
    jobs = [job for c in range(cycles) for job in cycle_jobs(f"c{c:03d}")]
    n_cycle = len(jobs) // cycles
    mix = (
        "a cycle of: "
        + ", ".join(f"{c} n={n} places={p}" for c, n, p, _ in FILTRATION_CYCLE)
        + f" on distinct pairs; one fresh system per (n, places) in {list(SCAN_SHAPES)}, each: "
        f"bounds 1.3 at its (n, eps), reduce, and scan with hmax = box in {SCAN_BOXES}; and "
        f"{len(reports)} short requests, the same every cycle ({variants} variants of: validate, "
        "invariants, weight (n=2,3), 2 exceptional (n=2, 2 places) and every other variant "
        "1 exceptional (n=3), bounds for all 10 theorems, 2 cover, gap box 6, minkowski box 5, "
        f"and 5 refused inputs (exit 2, 3, 4, 4, 2)); {cycles} cycles"
    )
    return Deck(jobs, n_cycle, n_cycle, warmup, mix, MIXED_TAIL_PCT)


_DECK_MAKERS = {
    "infima_sweep": _infima_sweep,
    "filtration_scan_reports": _filtration_scan_reports,
}
