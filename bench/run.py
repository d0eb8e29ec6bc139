"""The matchgame benchmark: one command, one process, one closed-loop client.

    python3 bench/run.py --workload climb --seed 3 --seconds 30 --trace 0

Run from the repository root.  The workloads are defined in ``jobs.py``:

* ``climb``   one ``hill_climb`` library call per job at m=10;
* ``check``   the strategy-file workflow through ``matchgame.cli.main``;
* ``quantum`` ``verify_always_wins`` at m=4 plus seeded sampled rounds.

With ``--trace 0`` the run reports the end-to-end metrics of the named
workload: the fastest job's latency, set-up time and peak memory.  Jobs per
second and the p50/p90 latencies are printed too, but not gated: on a
shared host they swing with the neighbours' load far more than the
fastest job does.  With ``--trace 1`` it reports the per-layer metrics of
every layer, each measured on the workload that drives it (``LAYERS``
below), plus the tracing overhead on the named workload.  Every job's
output is checked outside the timed interval; a job that raises or fails a
check counts in ``failed``.  The last line of standard output is the result
as JSON; a fuller record, with the environment, goes to ``.bench_out/``.

``--record-golden`` rewrites ``golden.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

BLAS_THREADS = 1  # single client, single process
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 150  # after this a run starts no job and cuts set-up probes short
GOLDEN_JOBS = {"climb": 6, "check": 20}
COUNT_JOBS = 10  # search counters come from the first jobs of the traced check slice
MIN_TRACED_JOBS = {"climb": 3, "check": COUNT_JOBS, "quantum": 10}

# Per-layer metric -> (workload it is measured on, what it should move).
LAYERS = {
    "cli.main.self_ms": ("check", "check job_ms_min"),
    "search.hill_climb.ms": ("climb", "climb job_ms_min, check job_ms_min"),
    "search.ms_per_eval": ("climb", "climb job_ms_min"),
    "search.ms_per_eval.m8": ("check", "check job_ms_min"),
    "search.questions_per_s": ("climb", "climb job_ms_min"),
    "search.evals": ("check", "nothing; exact while trajectories are kept"),
    "search.restarts": ("check", "nothing; exact while trajectories are kept"),
    "search.accept_ratio": ("check", "nothing; exact while trajectories are kept"),
    "strategies.success.ms": ("check", "check job_ms_min"),
    "strategies.find_counterexample.ms": ("check", "check job_ms_min"),
    "strategies.anchor_strategy.ms": ("check", "check job_ms_min"),
    "strategy_io.parse_strategy.ms": ("check", "check job_ms_min"),
    "strategy_io.format_strategy.ms": ("check", "check job_ms_min"),
    "strategy_io.bytes": ("check", "check job_ms_min"),
    "coloring.audit_strategy.ms": ("check", "check job_ms_min"),
    "matchings.enumerate_matchings.calls": ("check", "check job_ms_min, climb setup_s"),
    "matchings.enumerate_matchings.ms": ("check", "check job_ms_min, climb setup_s"),
    "quantum.verify_always_wins.ms": ("quantum", "quantum job_ms_min"),
    "quantum.joint_distribution.calls": ("quantum", "quantum job_ms_min"),
    "quantum.joint_distribution.us_per_call": ("quantum", "quantum job_ms_min"),
    "quantum.sample_round.m8.us": ("quantum", "quantum job_ms_min"),
    "quantum.sample_round.m16.us": ("quantum", "quantum job_ms_min"),
    "game.wins_round.calls": ("quantum", "quantum job_ms_min"),
    "game.wins_round.us_per_call": ("quantum", "quantum job_ms_min"),
    "trace.overhead_frac": ("named", "nothing; median traced/untraced job time ratio, minus 1"),
}


class SetupError(Exception):
    """The benchmark cannot run here: sources, golden file or set-up missing."""


def load_program():
    """Import the benchmark modules against ``src/``, refusing any other copy.

    BLAS is capped before numpy loads; set-up probes inherit the cap.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import jobs
        import matchgame
        import spans
    except ImportError as err:
        raise SetupError(f"cannot import matchgame from {SRC}: {err}") from err
    if not Path(matchgame.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"matchgame was imported from {matchgame.__file__}, not {SRC}")
    return jobs, spans


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as err:
        raise SetupError(f"cannot read golden results {GOLDEN}: {err}") from err


def checked(workload, inp, out, golden: dict) -> list[str]:
    try:
        return workload.check(inp, out, golden)
    except Exception:  # a check that crashes is a failed job, not a crashed run
        return [traceback.format_exc(limit=2).strip().splitlines()[-1]]


def run_job(workload, inp, golden: dict, tracer=None, job: int = 0):
    """One job: (seconds it took, problems found by its checks)."""
    if tracer is not None:
        tracer.job = job
    start = time.perf_counter()
    try:
        out = workload.run(inp)
        error = None
    except Exception:  # the loop must go on and report the failure
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.job = -1
    if error is not None:
        return elapsed, [error]
    return elapsed, checked(workload, inp, out, golden)


def run_jobs(workload, seed, seconds, golden, deadline, first=0, min_jobs=1, tracer=None):
    """Closed loop from job ``first`` until ``seconds`` of job time and
    ``min_jobs`` jobs are done.  Returns per-job latencies in seconds and
    the failed jobs.  With a tracer, odd-numbered jobs run traced and even
    ones untraced, so both see the same load from the rest of the machine.
    """
    latencies, failures = [], []
    busy = 0.0
    while (busy < seconds or len(latencies) < min_jobs) and time.monotonic() < deadline:
        k = first + len(latencies)
        inp = workload.inputs(seed, k)
        if tracer is not None and k % 2:
            with tracer:
                elapsed, problems = run_job(workload, inp, golden, tracer, k)
        else:
            elapsed, problems = run_job(workload, inp, golden, None, k)
        latencies.append(elapsed)
        busy += elapsed
        if problems:
            failures.append({"job": k, "input": inp, "problems": problems[:5]})
    return latencies, failures


def warm_up(jobs, workload, golden: dict) -> list[str]:
    """The reference job (default seed, job 0): fills caches, checks golden."""
    _, problems = run_job(workload, workload.inputs(jobs.DEFAULT_SEED, 0), golden)
    return problems


def measure_setup(name: str, timeout: float) -> tuple[float | None, str | None]:
    """Seconds from starting a fresh interpreter to the end of its warm-up job,
    or None and the reason when the probe failed."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name]
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    words = out.split()
    if proc.returncode == 0 and len(words) == 2 and words[0] == "ready":
        return float(words[1]) - start, None
    return None, err.strip()[-500:] or f"exit {proc.returncode}: {out!r}"


def setup_probe(jobs, name: str) -> int:
    workload = with_workdir(jobs.WORKLOADS[name])
    problems = warm_up(jobs, workload, load_golden().get(name, {}))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("ready", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    return 0


def with_workdir(workload):
    """The workload with its strategy files, if it writes any, under OUT."""
    if not hasattr(workload, "workdir"):
        return workload
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    return replace(workload, workdir=workdir)


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    sources = hashlib.sha256()
    for path in sorted((SRC / "matchgame").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(jobs, summaries: dict, overhead: float) -> dict[str, float]:
    climb, check, qt = summaries["climb"], summaries["check"], summaries["quantum"]
    first = sorted(check.counts)[:COUNT_JOBS]
    climb_evals = climb.count("search.evals")
    climb_s = climb.total["search.hill_climb"] / 1e9
    m = jobs.WORKLOADS["climb"].m
    metrics = {
        "cli.main.self_ms": check.self_ms("cli.main"),
        "search.hill_climb.ms": climb.ms("search.hill_climb"),
        "search.ms_per_eval": climb_s * 1e3 / climb_evals,
        "search.ms_per_eval.m8": check.total["search.hill_climb"] / 1e6
        / check.count("search.evals"),
        "search.questions_per_s": jobs.question_count(m) * climb_evals / climb_s,
        "search.evals": check.count("search.evals", first) / COUNT_JOBS,
        "search.restarts": check.count("search.restarts", first) / COUNT_JOBS,
        "search.accept_ratio": check.count("search.accepts", first)
        / check.count("search.proposals", first),
        "strategy_io.bytes": check.count("strategy_io.bytes", first) / COUNT_JOBS,
        "matchings.enumerate_matchings.calls": check.calls_per_job(
            "matchings.enumerate_matchings"
        ),
        "quantum.joint_distribution.calls": qt.calls_per_job("quantum.joint_distribution"),
        "quantum.joint_distribution.us_per_call": qt.us_per_call(
            "quantum.joint_distribution"
        ),
        "quantum.sample_round.m8.us": qt.us_per_call("quantum.sample_round.m8"),
        "quantum.sample_round.m16.us": qt.us_per_call("quantum.sample_round.m16"),
        "game.wins_round.calls": qt.calls_per_job("game.wins_round"),
        "game.wins_round.us_per_call": qt.us_per_call("game.wins_round"),
        "trace.overhead_frac": overhead,
    }
    for label in (
        "strategies.success",
        "strategies.find_counterexample",
        "strategies.anchor_strategy",
        "strategy_io.parse_strategy",
        "strategy_io.format_strategy",
        "coloring.audit_strategy",
        "matchings.enumerate_matchings",
    ):
        metrics[f"{label}.ms"] = check.ms(label)
    metrics["quantum.verify_always_wins.ms"] = qt.ms("quantum.verify_always_wins")
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def untraced_run(jobs, workload, seed, seconds, golden, deadline):
    """The timed closed loop in SETUP_RUNS equal parts, each preceded by one
    set-up probe, so that set-up is sampled across the whole run."""
    record = {"attempted": 1, "failures": [], "setup_s": []}
    problems = warm_up(jobs, workload, golden)
    if problems:
        record["failures"].append({"job": "warm-up", "problems": problems})
    latencies = []
    for _ in range(SETUP_RUNS):
        setup, problem = measure_setup(workload.name, max(1.0, deadline - time.monotonic()))
        record["attempted"] += 1
        if problem is None:
            record["setup_s"].append(setup)
        else:
            record["failures"].append({"job": "setup", "problems": [problem]})
        part, failures = run_jobs(
            workload, seed, seconds / SETUP_RUNS, golden, deadline, first=len(latencies)
        )
        latencies += part
        record["failures"] += failures
    if not record["setup_s"]:
        raise SetupError(f"no set-up probe finished: {record['failures'][-1]}")
    if not latencies:
        raise SetupError(f"no job finished within {RUN_LIMIT_S} s")
    record["attempted"] += len(latencies)
    ms = [t * 1e3 for t in latencies]
    record["latencies_ms"] = ms
    # Reported, not gated: on a shared host they follow the neighbours' load.
    record["jobs_per_s"] = len(ms) / sum(latencies)
    record["job_ms_p50"] = statistics.median(ms)
    if len(ms) >= 100:
        record["job_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    record["metrics"] = {
        "job_ms_min": min(ms),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return record


def traced_run(jobs, spans, workload, seed, seconds, golden_all, deadline):
    """One slice per workload, alternating untraced and traced jobs, so that
    each layer is measured on the workload where it works."""
    record = {"attempted": 0, "failures": [], "traced_jobs": {}, "overhead": {}}
    tracers, summaries = {}, {}
    for w in map(with_workdir, jobs.WORKLOADS.values()):
        golden = golden_all.get(w.name, {})
        problems = warm_up(jobs, w, golden)
        if problems:
            record["failures"].append({"job": f"{w.name} warm-up", "problems": problems})
        tracer = spans.Tracer()
        latencies, failures = run_jobs(
            w, seed, seconds / len(jobs.WORKLOADS), golden, deadline,
            min_jobs=2 * MIN_TRACED_JOBS[w.name], tracer=tracer,
        )
        record["attempted"] += 1 + len(latencies)
        record["failures"] += failures
        pairs = len(latencies) // 2
        tracers[w.name] = tracer
        summaries[w.name] = spans.Summary(tracer, pairs)
        record["traced_jobs"][w.name] = pairs
        record["overhead"][w.name] = statistics.median(
            latencies[2 * i + 1] / latencies[2 * i] for i in range(pairs)
        ) - 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    spans.write_spans(spans_path, tracers)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["metrics"] = layer_metrics(jobs, summaries, record["overhead"][workload.name])
    record["layers"] = {
        name: {"measured_on": on, "moves": moves} for name, (on, moves) in LAYERS.items()
    }
    return record


def record_golden(jobs) -> int:
    golden = {"default_seed": jobs.DEFAULT_SEED}
    for name, count in GOLDEN_JOBS.items():
        workload = with_workdir(jobs.WORKLOADS[name])
        entries = {}
        for k in range(count):
            inp = workload.inputs(jobs.DEFAULT_SEED, k)
            out = workload.run(inp)
            problems = workload.check(inp, out, {})
            if problems:
                print(f"error: {name} job {k}: {problems}", file=sys.stderr)
                return 1
            entries[str(inp["seed"])] = workload.golden_entry(inp, out)
        golden[name] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("climb", "check", "quantum"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed; 1 is the golden one")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    try:
        jobs, spans = load_program()
        if args.setup_probe:
            return setup_probe(jobs, args.workload)
        try:
            sizes = jobs.guard(jobs.WORKLOADS.values())
        except jobs.OverBudgetError as err:
            print(f"error: workload over budget: {err}", file=sys.stderr)
            return 3
        if args.record_golden:
            return record_golden(jobs)
        golden = load_golden()
        units = declared_metrics(bool(args.trace))
        env = environment(args.seed)
        print("env", json.dumps(env, sort_keys=True))
        for name, size in sizes.items():
            print("size", name, json.dumps(size, sort_keys=True))
        workload = with_workdir(jobs.WORKLOADS[args.workload])
        deadline = started + RUN_LIMIT_S
        if args.trace:
            record = traced_run(jobs, spans, workload, args.seed, args.seconds, golden, deadline)
        else:
            record = untraced_run(
                jobs, workload, args.seed, args.seconds,
                golden.get(workload.name, {}), deadline,
            )
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metrics = record["metrics"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    failed = len(record["failures"])
    attempted = record["attempted"]
    record.update(env=env, sizes=sizes, workload=args.workload, trace=args.trace)
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in record["failures"][:5]:
        print("failed", json.dumps(failure, sort_keys=True))
    print(f"fail_frac = {failed / attempted} ({failed} of {attempted} jobs)")
    for name, unit in (("jobs_per_s", "1/s"), ("job_ms_p50", "ms"), ("job_ms_p90", "ms")):
        if name in record:
            print(f"{name} = {record[name]} {unit} ({len(record['latencies_ms'])} jobs)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
