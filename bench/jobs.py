"""Workloads of the matchgame benchmark: job inputs, jobs and output checks.

Each workload is a closed loop of jobs run by one client.  A job's inputs
come only from the workload seed and the job index, so one seed always
gives the same jobs.  Jobs reach the library through module attributes
(``search.hill_climb``, never a name bound at import time), so that the
tracer in ``spans.py`` can wrap them.  Checks run outside the timed
interval; each returns a list of problems, empty when the job passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from matchgame import cli, game, quantum, search, strategies
from matchgame.game import BitString, GameInstance, Question
from matchgame.matchings import PerfectMatching

DEFAULT_SEED = 1

# Closed-form work caps per job.  A workload over either cap is refused
# before any job runs, so a mis-set definition cannot hang the machine.
QUESTION_BUDGET = 50_000_000  # questions scored by classical evaluations
AMPLITUDE_BUDGET = 1_000_000  # m*m amplitudes summed over quantum distributions


class OverBudgetError(Exception):
    """A workload definition whose per-job work exceeds a budget."""


def question_count(m: int) -> int:
    """2^m * (m-1)!!, the number of questions of the game of size m."""
    return (1 << m) * math.prod(range(m - 1, 0, -2))


def job_rng(workload: str, seed: int, k: int) -> random.Random:
    """The generator behind job k of a workload; string seeds hash stably."""
    return random.Random(f"matchgame-bench/{workload}/{seed}/{k}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Climb:
    """One ``hill_climb`` library call per job, each with a fresh seed."""

    name: ClassVar[str] = "climb"
    m: int = 10
    iters: int = 8

    def size(self) -> dict:
        per_eval = question_count(self.m)
        evals = self.iters + 2  # start table, one per iteration, final re-score
        return {
            "questions_per_eval": per_eval,
            "evals_per_job": evals,
            "questions_scored_per_job": per_eval * evals,
            "questions_verified_per_job": 0,
            "rounds_sampled_per_job": 0,
            "amplitudes_per_job": 0,
        }

    def inputs(self, seed: int, k: int) -> dict:
        return {"seed": job_rng(self.name, seed, k).randrange(1 << 31)}

    def run(self, inp: dict):
        return search.hill_climb(GameInstance(self.m), inp["seed"], self.iters)

    def golden_entry(self, inp: dict, out) -> str:
        return str(out[1])

    def check(self, inp: dict, out, golden: dict) -> list[str]:
        strategy, ratio = out
        inst = GameInstance(self.m)
        if not strategy.is_total or len(strategy.alice) != 1 << self.m:
            return ["hill_climb returned a strategy that is not total"]
        problems = []
        recount = strategies.success(strategy, inst)
        if recount != ratio:
            problems.append(f"ratio {ratio} but success() recounts {recount}")
        expected = golden.get(str(inp["seed"]))
        if expected is not None and expected != self.golden_entry(inp, out):
            problems.append(f"ratio {ratio} differs from golden {expected}")
        return problems


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class Check:
    """The strategy-file workflow through ``matchgame.cli.main``, in-process.

    search writes F; eval, verify and audit read it; lemma1 is saved as the
    partial strategy G, and verify scans every question G defines.
    """

    name: ClassVar[str] = "check"
    m: int = 8
    iters: int = 100
    workdir: Path = Path(".bench_out/work")
    # search, eval F, verify F, audit F, lemma1, verify G
    EXPECTED_CODES: ClassVar[tuple[int, ...]] = (0, 0, 1, 0, 0, 0)

    @property
    def files(self) -> tuple[Path, Path]:
        return self.workdir / "F.strat", self.workdir / "G.strat"

    def size(self) -> dict:
        per_eval = question_count(self.m)
        evals = self.iters + 2
        verified = 4 * per_eval  # eval, audit and two verify scans at most
        return {
            "questions_per_eval": per_eval,
            "evals_per_job": evals,
            "questions_scored_per_job": per_eval * evals + verified,
            "questions_verified_per_job": verified,
            "rounds_sampled_per_job": 0,
            "amplitudes_per_job": 0,
        }

    def inputs(self, seed: int, k: int) -> dict:
        return {"seed": job_rng(self.name, seed, k).randrange(1 << 31)}

    def run(self, inp: dict) -> dict:
        f, g = (str(p) for p in self.files)
        m = str(self.m)
        steps = [
            _run_cli(["search", "--m", m, "--seed", str(inp["seed"]),
                      "--iters", str(self.iters), "--out", f]),
            _run_cli(["eval", "--strategy", f]),
            _run_cli(["verify", "--strategy", f]),
            _run_cli(["audit", "--strategy", f]),
        ]
        code, text = _run_cli(["lemma1", "--m", m])
        Path(g).write_text(text)
        steps.append((code, ""))
        steps.append(_run_cli(["verify", "--strategy", g]))
        return {"codes": [c for c, _ in steps], "stdout": [s for _, s in steps]}

    def golden_entry(self, inp: dict, out: dict) -> dict:
        f, g = self.files
        best = out["stdout"][0].split("\n", 1)[0]
        return {"best": best, "F": _sha256(f), "G": _sha256(g)}

    def check(self, inp: dict, out: dict, golden: dict) -> list[str]:
        codes = tuple(out["codes"])
        if codes != self.EXPECTED_CODES:
            return [f"exit codes {codes}, expected {self.EXPECTED_CODES}"]
        search_out, eval_out, verify_f, audit_out, _, verify_g = out["stdout"]
        problems = []
        best = re.fullmatch(r"best=(\d+/\d+)\nbound=lower\n", search_out)
        if best is None:
            problems.append(f"search printed {search_out!r}")
        elif eval_out != f"success={best.group(1)}\n":
            problems.append(f"eval printed {eval_out!r} after best={best.group(1)}")
        if not verify_f.startswith("winning=no counterexample="):
            problems.append(f"verify of the total strategy printed {verify_f!r}")
        if f"component_bound={self.m // 2}" not in audit_out.splitlines():
            problems.append(f"audit printed {audit_out!r}")
        if verify_g != "winning=yes\n":
            problems.append(f"verify of the lemma1 strategy printed {verify_g!r}")
        expected = golden.get(str(inp["seed"]))
        if expected is not None and expected != self.golden_entry(inp, out):
            problems.append(f"outputs differ from golden {expected}")
        return problems


def _random_matching(rng: random.Random, m: int) -> str:
    order = list(range(m))
    rng.shuffle(order)
    pairs = sorted(tuple(sorted(order[k : k + 2])) for k in range(0, m, 2))
    return ",".join(f"{i}-{j}" for i, j in pairs)


def reference_wins(question: dict, answer: game.Answer) -> bool:
    """The win rule restated from the README, independent of matchgame.game."""
    x, i, j = question["x"], answer.edge.i, answer.edge.j
    if f"{i}-{j}" not in question["y"].split(","):
        return False
    ab = answer.a.value ^ answer.b2.value
    return int(x[i]) ^ int(x[j]) == bin((i ^ j) & ab).count("1") % 2


@dataclass(frozen=True)
class Quantum:
    """Exhaustive ``verify_always_wins`` at m=4, then seeded sampled rounds.

    Each job samples one fresh question per size in ``sample_ms``; at m=8
    questions reuse 105 matchings, at m=16 they are almost always new.
    """

    name: ClassVar[str] = "quantum"
    verify_m: int = 4
    sample_ms: tuple[int, ...] = (8, 16)
    rounds: int = 20

    def size(self) -> dict:
        verified = question_count(self.verify_m)
        sampled = self.rounds * len(self.sample_ms)
        amplitudes = verified * self.verify_m**2 + self.rounds * sum(
            m * m for m in self.sample_ms
        )
        return {
            "questions_per_eval": 0,
            "evals_per_job": 0,
            "questions_scored_per_job": 0,
            "questions_verified_per_job": verified,
            "rounds_sampled_per_job": sampled,
            "amplitudes_per_job": amplitudes,
        }

    def inputs(self, seed: int, k: int) -> dict:
        rng = job_rng(self.name, seed, k)
        return {
            "questions": [
                {
                    "m": m,
                    "x": format(rng.getrandbits(m), f"0{m}b"),
                    "y": _random_matching(rng, m),
                    "seeds": [rng.getrandbits(32) for _ in range(self.rounds)],
                }
                for m in self.sample_ms
            ]
        }

    def run(self, inp: dict):
        verified = quantum.verify_always_wins(GameInstance(self.verify_m))
        rounds = []
        for q in inp["questions"]:
            inst = GameInstance(q["m"])
            x, y = BitString.parse(q["x"]), PerfectMatching.parse(q["y"])
            question = Question(x=x, y=y)
            for s in q["seeds"]:
                answer = quantum.sample_round(inst, x, y, s)
                rounds.append((answer, game.wins_round(inst, question, answer)))
        return verified, rounds

    def check(self, inp: dict, out, golden: dict) -> list[str]:
        verified, rounds = out
        problems = [] if verified is True else [f"verify_always_wins gave {verified}"]
        asked = [q for q in inp["questions"] for _ in q["seeds"]]
        if len(rounds) != len(asked):
            return problems + [f"{len(rounds)} rounds for {len(asked)} seeds"]
        for q, (answer, verdict) in zip(asked, rounds):
            if not (verdict and reference_wins(q, answer)):
                problems.append(f"m={q['m']} round lost: {answer}")
        return problems


WORKLOADS = {w.name: w for w in (Climb(), Check(), Quantum())}


def guard(workloads) -> dict[str, dict]:
    """Closed-form sizes of every workload; raises when one is over budget."""
    sizes = {}
    for w in workloads:
        size = w.size()
        if size["questions_scored_per_job"] > QUESTION_BUDGET:
            raise OverBudgetError(
                f"{w.name}: {size['questions_scored_per_job']} questions scored"
                f" per job exceeds the budget {QUESTION_BUDGET}"
            )
        if size["amplitudes_per_job"] > AMPLITUDE_BUDGET:
            raise OverBudgetError(
                f"{w.name}: {size['amplitudes_per_job']} amplitudes per job"
                f" exceeds the budget {AMPLITUDE_BUDGET}"
            )
        sizes[w.name] = size
    return sizes
