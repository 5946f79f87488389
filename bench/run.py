"""heightlab benchmark: closed-loop CLI requests on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  One
client in one process sends each request through `heightlab.cli.main(argv)`
and sends the next only after the previous returns.  Requests run in-process
because a fresh interpreter per request would spend most of its time
importing sympy and mpmath; that import is paid once, in `setup_s`.

--trace 0 measures for S seconds, stopping at the first cycle boundary after
S at which the slowest quarter of the cycles has 10 samples beyond the
workload's tail percentile, and prints the end-to-end metrics, taken over
that slowest quarter.  --trace 1 runs the digest jobs once untraced and once traced and prints the
per-layer metrics.  Every report is checked outside the timed region.  The
last line of stdout is the result as JSON.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before heightlab loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORK_ROOT = ".bench_work"
SETUP_REPEATS = 5  # this process plus four fresh ones; setup_s is their median
TAIL_MIN_BEYOND = 10


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import heightlab from ./src of the current directory, and nothing else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "heightlab", "__init__.py")):
        sys.exit("bench: ./src/heightlab not found; run from the repository root")
    sys.path.insert(0, src)
    import heightlab
    import heightlab.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(heightlab.__file__))) != src:
        sys.exit(f"bench: heightlab was imported from {heightlab.__file__}, not ./src")
    return heightlab.cli


class Client:
    """Sends one request at a time through the CLI entry point."""

    def __init__(self, cli):
        self.cli = cli

    def request(self, argv):
        """(exit code, stdout report, seconds) of one request."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed request, not a failed run
                print(f"{type(exc).__name__}: {exc}", file=err)
                rc = -1
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt


def _setup(jobs_mod, client, workload, seed, workdir):
    deck = jobs_mod.build(workload, seed, workdir)
    for job in deck.warmup:
        client.request(job.argv)
    # As a long-running server would: keep full collections from re-walking
    # the sympy/mpmath import heap, which adds 30-50 ms to about 1% of requests.
    gc.collect()
    gc.freeze()
    return deck


def _probe_setup_elsewhere(args, workdir) -> float:
    """Set-up time of a fresh interpreter doing the same set-up."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe", workdir,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _rank(pct, n):
    """Nearest rank of percentile `pct` among `n` samples: ceil(pct/100 * n)."""
    return -(-int(pct * 10) * n // 1000)


def _min_samples(pct):
    """Fewest samples that leave TAIL_MIN_BEYOND of them beyond percentile `pct`."""
    n = TAIL_MIN_BEYOND
    while n - _rank(pct, n) < TAIL_MIN_BEYOND:
        n += 1
    return n


def _tail(latencies, pct):
    return sorted(latencies)[_rank(pct, len(latencies)) - 1]


def _run_pass(client, jobs, indices, tracer=None):
    records = []
    for i in indices:
        if tracer is not None:
            tracer.job = i
        rc, out, dt = client.request(jobs[i].argv)
        records.append((i, rc, out, dt))
    return records


def _timed_loop(client, deck, seconds):
    """Closed loop over the deck until `seconds` have passed and the slowest
    quarter of the cycles holds the tail's samples; ends on a cycle boundary.

    Returns the records and each cycle's duration in seconds.
    """
    records = []
    cycle_times = []
    n = len(deck.jobs)
    min_samples = _min_samples(deck.tail_pct)
    t0 = t_cycle = time.perf_counter()
    k = 0
    while True:
        i = k % n
        rc, out, dt = client.request(deck.jobs[i].argv)
        records.append((i, rc, out, dt))
        k += 1
        if k % deck.cycle == 0:
            now = time.perf_counter()
            cycle_times.append(now - t_cycle)
            t_cycle = now
            if len(cycle_times) // 4 * deck.cycle >= min_samples and now - t0 >= seconds:
                break
    return records, cycle_times


def _slowest_quarter(records, cycle_times, cycle):
    """Records and total duration of the slowest quarter of the timed cycles.

    Every cycle sends the same request shapes, so cycle durations differ by
    the data and by the host.  A shared host alternates between its fully
    contended speed and bursts of spare capacity; the slowest cycles follow
    the contended speed, which recurs from run to run, where a whole-run
    figure would follow how long the bursts happened to last.
    """
    order = sorted(range(len(cycle_times)), key=cycle_times.__getitem__)
    slow = sorted(order[len(order) - max(1, len(order) // 4) :])
    picked = [r for c in slow for r in records[c * cycle : (c + 1) * cycle]]
    return picked, sum(cycle_times[c] for c in slow)


def _check_records(checks_mod, deck, records, reference=None):
    """Failures as (job index, reason); repeats must match the first report byte for byte."""
    first = dict(reference or {})
    failures = []
    for i, rc, out, _ in records:
        if i in first:
            if first[i] != (rc, out):
                failures.append((i, "report differs from an earlier run of the same request"))
            continue
        first[i] = (rc, out)
        reason = checks_mod.check(deck.jobs[i], rc, out)
        if reason is not None:
            failures.append((i, reason))
    return failures, first


def _digest(first, count):
    h = hashlib.sha256()
    for i in range(count):
        rc, out = first[i]
        h.update(f"{rc}\n".encode())
        h.update(out.encode())
    return h.hexdigest()


def _repeat_share(deck, records):
    """Share of requests repeating earlier work: overall, and by part of the cycle."""
    seen = set()
    counts = {}
    for i, *_ in records:
        job = deck.jobs[i]
        repeated = any(k in seen for k in job.shares)
        seen.update(job.shares)
        for key in ("", job.part) if job.part else ("",):
            n, r = counts.get(key, (0, 0))
            counts[key] = (n + 1, r + repeated)
    return {key: r / n for key, (n, r) in counts.items()}


def _result(failed, attempted, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    cli = _import_program()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, bench_dir)
    import checks
    import jobs
    import spans

    if args.workload not in jobs.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(jobs.WORKLOADS)}")
    client = Client(cli)

    if args.setup_probe:
        _setup(jobs, client, args.workload, args.seed, args.setup_probe)
        print(time.perf_counter() - T_START)
        return 0

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        deck = _setup(jobs, client, args.workload, args.seed, os.path.join(workdir, "inputs"))
        setup_times = [time.perf_counter() - T_START]
        print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, in-process CLI")
        print(f"job mix: {deck.mix}")
        digest_ids = range(deck.digest_len)
        if args.trace:
            return _traced(args, client, deck, checks, spans, digest_ids)

        for k in range(1, SETUP_REPEATS):
            setup_times.append(_probe_setup_elsewhere(args, os.path.join(workdir, f"probe{k}")))
        records, cycle_times = _timed_loop(client, deck, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, first = _check_records(checks, deck, records)
        missing = [i for i in digest_ids if i not in first]
        extra = _run_pass(client, deck.jobs, missing)
        more, first = _check_records(checks, deck, extra, first)
        failures += more
        attempted = len(records) + len(extra)

        measured, busy = _slowest_quarter(records, cycle_times, deck.cycle)
        latencies = [r[3] for r in measured]
        pct, tail = deck.tail_pct, _tail(latencies, deck.tail_pct)
        metrics = {
            "jobs_per_s": (len(measured) / busy, "1/s"),
            "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "job_tail_ms": (tail * 1000, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        }
        elapsed = sum(cycle_times)
        all_lat = [r[3] for r in records]
        print(
            f"timed: {len(records)} requests in {elapsed:.3f} s ({len(cycle_times)} cycles); "
            f"metrics over the slowest quarter: {len(measured)} requests in {busy:.3f} s"
        )
        print(f"cycle seconds: {' '.join(f'{t:.2f}' for t in cycle_times)}")
        print(
            f"whole run:    jobs_per_s {len(records) / elapsed:.6g}, job_p50_ms {statistics.median(all_lat) * 1000:.6g}, "
            f"job_tail_ms {_tail(all_lat, pct) * 1000:.6g}"
        )
        for name, (value, unit) in metrics.items():
            note = f"  (p{pct:g} of {len(measured)} samples)" if name == "job_tail_ms" else ""
            print(f"{name:<13} {value:.6g} {unit}{note}")
        print(f"setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}")
        print(f"fail_ratio    {len(failures) / attempted:.6g}  ({len(failures)} of {attempted})")
        shares = _repeat_share(deck, records)
        parts = ", ".join(f"{k} {v:.4f}" for k, v in shares.items() if k)
        print(
            f"repeat_share  {shares['']:.4f}  (requests repeating a pair file or (n, box) box"
            + (f"; by part: {parts})" if parts else ")")
        )
        print(f"report_digest {_digest(first, deck.digest_len)}  (sha256 over the first {deck.digest_len} reports)")
        _print_failures(deck, failures)
        result = _result(len(failures), attempted, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(args, client, deck, checks, spans, digest_ids):
    # A first pass fills whatever the program caches across requests, so the
    # untraced and traced passes that are compared both run warm.
    _run_pass(client, deck.jobs, digest_ids)
    t0 = time.perf_counter()
    plain = _run_pass(client, deck.jobs, digest_ids)
    t_plain = time.perf_counter() - t0
    tracer = spans.Tracer().install()
    try:
        t0 = time.perf_counter()
        traced = _run_pass(client, deck.jobs, digest_ids, tracer)
        t_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failures, first = _check_records(checks, deck, plain)
    more, _ = _check_records(checks, deck, traced, first)
    failures += more
    attempted = len(plain) + len(traced)

    summary = tracer.summary(len(traced))
    values = spans.per_layer_metrics(summary, tracer.counts, t_plain / t_traced)
    trace_dir = os.path.join(WORK_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")
    tracer.write(trace_path)
    print(f"traced pass: {len(traced)} requests, {summary['spans']} spans written to {trace_path}")
    print(f"untraced {t_plain:.3f} s, traced {t_traced:.3f} s")
    units = dict(spans.METRICS)
    for name, value in values.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    print(f"report_digest {_digest(first, deck.digest_len)}  (sha256 over the first {deck.digest_len} reports)")
    _print_failures(deck, failures)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps(_result(len(failures), attempted, metrics)))
    return 0


def _print_failures(deck, failures):
    for i, reason in failures[:10]:
        print(f"FAILED job {i} ({' '.join(deck.jobs[i].argv)}): {reason}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
