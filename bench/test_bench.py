"""Self-tests of the benchmark: seeded inputs, the size guard, the tracer, and
mutation checks showing that every output check can register a failure.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from matchgame import quantum  # noqa: E402
from matchgame.game import Answer, BitString  # noqa: E402
from matchgame.strategies import SuccessRatio  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


@dataclass
class Mutant:
    """A workload whose job outputs pass through ``mutate`` before the check."""

    base: object
    mutate: Callable

    @property
    def name(self):
        return self.base.name

    def inputs(self, seed, k):
        return self.base.inputs(seed, k)

    def run(self, inp):
        return self.mutate(self.base.run(inp))

    def check(self, inp, out, golden):
        return self.base.check(inp, out, golden)


def failed_jobs(workload, golden=None, count=2) -> int:
    """Jobs counted as failed by the benchmark's own closed loop."""
    latencies, failures = run.run_jobs(
        workload, jobs.DEFAULT_SEED, 0, golden or {}, math.inf, min_jobs=count
    )
    assert len(latencies) == count
    return len(failures)


@pytest.fixture
def check_workload(tmp_path):
    return replace(jobs.Check(), workdir=tmp_path)


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = jobs.WORKLOADS[name]

    def inputs(seed):
        return [json.dumps(w.inputs(seed, k), sort_keys=True).encode() for k in range(4)]

    first = inputs(7)
    assert first == inputs(7)
    assert len(set(first)) == 4
    assert all(a != b for a, b in zip(first, inputs(8)))


def test_climb_wrong_ratio_counts_as_failed():
    small = jobs.Climb(m=6, iters=4)
    assert failed_jobs(small) == 0

    def off_by_one(out):
        strategy, ratio = out
        wins = ratio.wins - 1 if ratio.wins else 1
        return strategy, SuccessRatio(wins, ratio.total)

    assert failed_jobs(Mutant(small, off_by_one)) == 2


def test_climb_golden_mismatch_counts_as_failed():
    small = jobs.Climb(m=6, iters=4)
    inp = small.inputs(jobs.DEFAULT_SEED, 0)
    out = small.run(inp)
    golden = {str(inp["seed"]): small.golden_entry(inp, out)}
    assert failed_jobs(small, golden, count=1) == 0
    golden[str(inp["seed"])] = f"0/{out[1].total}"
    assert failed_jobs(small, golden, count=1) == 1


def _losing(answer: Answer) -> Answer:
    """The same outcome with Alice's answer flipped where the edge's
    endpoint encodings differ, so the parity rule fails."""
    d = answer.edge.i ^ answer.edge.j
    return replace(answer, a=BitString(answer.a.value ^ (d & -d), answer.a.length))


def test_quantum_losing_round_counts_as_failed():
    small = replace(jobs.Quantum(), sample_ms=(4, 8), rounds=3)
    assert failed_jobs(small) == 0

    def lose_first_round(out):
        verified, rounds = out
        answer, verdict = rounds[0]
        return verified, [(_losing(answer), verdict)] + rounds[1:]

    def deny_first_round(out):
        verified, rounds = out
        return verified, [(rounds[0][0], False)] + rounds[1:]

    assert failed_jobs(Mutant(small, lose_first_round)) == 2
    assert failed_jobs(Mutant(small, deny_first_round)) == 2
    assert failed_jobs(Mutant(small, lambda out: (False, out[1]))) == 2


def test_check_golden_results_match_and_mismatch_fails(check_workload):
    golden = GOLDEN["check"]
    inp = check_workload.inputs(jobs.DEFAULT_SEED, 0)
    assert str(inp["seed"]) in golden
    out = check_workload.run(inp)
    assert check_workload.check(inp, out, golden) == []
    for field in ("best", "F", "G"):
        altered = {k: dict(v) for k, v in golden.items()}
        altered[str(inp["seed"])][field] = "best=0/26880" if field == "best" else "0" * 64
        assert check_workload.check(inp, out, altered)


def test_check_output_mutations_fail(check_workload):
    inp = check_workload.inputs(3, 0)
    out = check_workload.run(inp)
    assert check_workload.check(inp, out, {}) == []
    codes, text = out["codes"], out["stdout"]
    wrong_eval = text[:1] + ["success=1/26880\n"] + text[2:]
    no_bound = text[:3] + [text[3].replace("component_bound=4", "component_bound=5")] + text[4:]
    for mutated in (
        {"codes": [0, 0, 0, 0, 0, 0], "stdout": text},
        {"codes": codes, "stdout": wrong_eval},
        {"codes": codes, "stdout": no_bound},
        {"codes": codes, "stdout": text[:5] + ["winning=no\n"]},
    ):
        assert check_workload.check(inp, mutated, {})


def test_guard_reports_sizes_and_refuses_over_budget():
    sizes = jobs.guard(jobs.WORKLOADS.values())
    assert sizes["climb"]["questions_per_eval"] == 2**10 * 945
    assert sizes["check"]["evals_per_job"] == 102
    assert sizes["quantum"]["questions_verified_per_job"] == 48
    assert sizes["quantum"]["rounds_sampled_per_job"] == 40
    for over in (jobs.Climb(m=12), jobs.Check(iters=20_000), jobs.Quantum(verify_m=8)):
        with pytest.raises(jobs.OverBudgetError):
            jobs.guard([over])


def test_tracer_self_time_and_restore():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(10_000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    assert tracer.spans == []  # job -1: not recorded
    tracer.job = 0
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    own = tracer.self_ns()
    durations = [s[2] - s[1] for s in tracer.spans]
    assert own[1:] == durations[1:]
    assert own[0] == durations[0] - sum(durations[1:])

    original = quantum.joint_distribution
    with tracer:
        assert quantum.joint_distribution is not original
    assert quantum.joint_distribution is original


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYERS)
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
