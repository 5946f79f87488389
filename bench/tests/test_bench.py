"""Self-test of the benchmark: tiny decks pass every check, broken reports fail.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import heightlab.cli  # noqa: E402
from heightlab.exact_reals import FactoredReal  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = 4  # deck size divisor


@pytest.fixture(scope="module")
def client():
    return run.Client(heightlab.cli)


def _tiny_pass(client, workload, workdir):
    deck = jobs.build(workload, 7, str(workdir), scale=TINY)
    records = run._run_pass(client, deck.jobs, range(deck.digest_len))
    return deck, records


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_run_passes_every_check(client, workload, tmp_path):
    deck, records = _tiny_pass(client, workload, tmp_path)
    failures, first = run._check_records(checks, deck, records)
    assert failures == []
    assert len(first) == deck.digest_len > 0
    assert len(run._digest(first, deck.digest_len)) == 64


def test_same_seed_gives_same_reports(client, tmp_path):
    a = _tiny_pass(client, "filtration_scan_reports", tmp_path / "a")[1]
    b = _tiny_pass(client, "filtration_scan_reports", tmp_path / "b")[1]
    assert [r[1:3] for r in a] == [r[1:3] for r in b]


def _first(deck, records, check):
    for i, rc, out, dt in records:
        if deck.jobs[i].check == check:
            return i, rc, out, dt
    raise AssertionError(f"no {check} job in the deck")


def _corrupt_infima(rep):
    lam = FactoredReal.from_json(rep["lambdas"][0]["factored"]) * FactoredReal.from_rational(2)
    rep["lambdas"][0]["factored"] = lam.to_json()


def _corrupt_filtration(rep):
    rep["chain"][-1]["weight"] = "123/7"


def _corrupt_scan(rep):
    rep["histogram"]["0"] = rep["histogram"].get("0", 0) + 1


@pytest.mark.parametrize(
    "workload, check, corrupt",
    [
        ("infima_sweep", "infima", _corrupt_infima),
        ("filtration_scan_reports", "filtration", _corrupt_filtration),
        ("filtration_scan_reports", "scan", _corrupt_scan),
    ],
)
def test_corrupted_report_counts_as_failure(client, tmp_path, workload, check, corrupt):
    deck, records = _tiny_pass(client, workload, tmp_path)
    i, rc, out, dt = _first(deck, records, check)
    rep = json.loads(out)
    corrupt(rep)
    bad = (i, rc, json.dumps(rep), dt)
    failures, _ = run._check_records(checks, deck, [bad])
    assert [f[0] for f in failures] == [i]
    # a repeat that differs from the first report is a failure too
    failures, _ = run._check_records(checks, deck, [(i, rc, out, dt), bad])
    assert len(failures) == 1


def test_wrong_exit_code_counts_as_failure(client, tmp_path):
    deck, records = _tiny_pass(client, "filtration_scan_reports", tmp_path)
    refused = [r for r in records if deck.jobs[r[0]].expect != 0]
    assert {deck.jobs[r[0]].expect for r in refused} == {2, 3, 4}
    i, rc, out, dt = refused[0]
    failures, _ = run._check_records(checks, deck, [(i, 0, out, dt)])
    assert len(failures) == 1


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert [run._min_samples(p) for p in (90.0, 95.0, 99.0)] == [100, 200, 1000]
    latencies = list(range(1, 201))
    assert run._tail(latencies, 95.0) == 190  # 10 samples beyond it


def test_metrics_come_from_the_slowest_quarter_of_the_cycles():
    # eight cycles of two requests; cycles 1 and 6 are the slowest quarter
    durations = [2.0, 10.0, 4.0, 3.0, 5.0, 1.0, 12.0, 6.0]
    records = [(k % 2, 0, "", durations[k // 2] / 2) for k in range(16)]
    picked, busy = run._slowest_quarter(records, durations, 2)
    assert [r[3] for r in picked] == [5.0, 5.0, 6.0, 6.0]
    assert busy == 22.0


def test_tracer_records_every_layer_and_restores_bindings(client, tmp_path):
    deck = jobs.build("filtration_scan_reports", 7, str(tmp_path), scale=TINY)
    module = sys.modules["heightlab.filtration"]
    original = module.exceptional_subspace
    tracer = spans.Tracer().install()
    try:
        assert module.exceptional_subspace is not original
        assert heightlab.cli.exceptional_subspace is module.exceptional_subspace
        records = run._run_pass(client, deck.jobs, range(deck.digest_len), tracer)
    finally:
        tracer.uninstall()
    assert module.exceptional_subspace is original
    assert run._check_records(checks, deck, records)[0] == []
    values = spans.per_layer_metrics(tracer.summary(len(records)), tracer.counts, 0.5)
    assert list(values) == [name for name, _ in spans.METRICS]
    assert values["cli.requests"] == len(records)
    for name in (
        "bounds_reduction.reduce_system.calls",
        "bounds_reduction.bound_constants.calls",
        "exact_reals.from_rational.calls",
        "places_heights.abs_value.calls",
        "infima_lab.scan_hit_ratio",
    ):
        assert values[name] > 0, name
    # self times add up to no more than the traced requests took
    total_ms = sum(values[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert 0 < total_ms <= sum(r[3] for r in records) * 1000 / len(records) * 1.01
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.start)))


def _bench_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec, [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("workload, trace", [("filtration_scan_reports", 0), ("infima_sweep", 1)])
def test_command_prints_the_declared_metrics(workload, trace):
    spec, end_to_end, per_layer = _bench_names()
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    cmd = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == (per_layer if trace else end_to_end)


def test_refuses_to_run_without_the_program(tmp_path):
    spec, _, _ = _bench_names()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", "filtration_scan_reports", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
