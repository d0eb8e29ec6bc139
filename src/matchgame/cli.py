"""Command line front end.

Every subcommand reads files or standard input and writes line-oriented
text, so runs are reproducible and diff-friendly.  Exit codes: 0 success or
property verified, 1 property fails, 2 usage or format error, 3 budget
exceeded: a command whose size, computed in closed form before any work,
is over its budget.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coloring import audit_strategy, impossibility_certificate
from .errors import (
    BudgetExceededError,
    FormatError,
    UnsupportedGameError,
    ValidationError,
)
from .game import (
    BitString,
    GameInstance,
    Question,
    _require_bits,
    _require_vertices,
    wins_round,
)
from .matchings import PerfectMatching, enumerate_matchings, matching_count
from .quantum import _require_power_of_two, sample_round, verify_always_wins
from .search import (
    DEFAULT_BUDGET,
    complete_anchor_strategy,
    exact_optimum,
    hill_climb,
)
from .strategies import (
    anchor_strategy,
    find_counterexample,
    known_winning_strategy,
    success,
)
from .strategy_io import format_strategy, parse_strategy


def _read_strategy(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_strategy(text)


def _emit_strategy(strategy, out: str | None) -> None:
    text = format_strategy(strategy)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _require_budget(size: int, formula: str, items: str) -> None:
    """Refuse a command that would handle more than DEFAULT_BUDGET items.

    Called with the size in closed form, before any work starts.
    """
    if size > DEFAULT_BUDGET:
        raise BudgetExceededError(
            size, 1, DEFAULT_BUDGET, what=f"{{}} {items}", formula=formula
        )


def _require_strategy_budget(m: int) -> None:
    """Bound a command that builds an Alice table and a total Bob table."""
    _require_budget((1 << m) + matching_count(m), f"2**{m} + {m - 1}!!", "table entries")


def _cmd_matchings(args) -> int:
    inst = GameInstance(args.m)
    _require_budget(matching_count(inst.m), f"{inst.m - 1}!!", "matchings")
    for y in enumerate_matchings(inst):
        print(y)
    return 0


def _cmd_eval(args) -> int:
    strategy = _read_strategy(args.strategy)
    ratio = success(strategy, GameInstance(strategy.m))
    print(f"success={ratio}")
    return 0


def _cmd_verify(args) -> int:
    strategy = _read_strategy(args.strategy)
    counterexample = find_counterexample(strategy, GameInstance(strategy.m))
    if counterexample is None:
        print("winning=yes")
        return 0
    x, y = counterexample
    print(f"winning=no counterexample=x:{x} y:{y}")
    return 1


def _cmd_lemma1(args) -> int:
    inst = GameInstance(args.m)
    _require_strategy_budget(inst.m)
    strategy = complete_anchor_strategy(inst) if args.complete else anchor_strategy(inst)
    _emit_strategy(strategy, None)
    return 0


def _cmd_figures(args) -> int:
    _emit_strategy(known_winning_strategy(args.m), None)
    return 0


def _cmd_omega_d(args) -> int:
    inst = GameInstance(args.m)
    ratio, strategy = exact_optimum(inst, budget=args.budget)
    print(f"omega_d={ratio}")
    _emit_strategy(strategy, args.out)
    return 0


def _cmd_search(args) -> int:
    inst = GameInstance(args.m)
    _require_strategy_budget(inst.m)
    strategy, ratio = hill_climb(inst, args.seed, args.iters)
    print(f"best={ratio}")
    print("bound=lower")
    _emit_strategy(strategy, args.out)
    return 0


def _cmd_audit(args) -> int:
    strategy = _read_strategy(args.strategy)
    report = audit_strategy(strategy, GameInstance(strategy.m))
    print(f"class_size={report.output_class_size}")
    print(f"required_size={report.required_size}")
    print(f"max_component={report.max_component_size}")
    print(f"component_bound={strategy.m // 2}")
    print(f"parity_consistent={'true' if report.parity_consistent else 'false'}")
    return 0


def _cmd_certificate(args) -> int:
    cert = impossibility_certificate(args.m)
    print(
        f"excluded={'true' if cert.excluded else 'false'}"
        f" needed={cert.components_needed}"
        f" possible={cert.components_possible}"
    )
    return 0


def _cmd_quantum_verify(args) -> int:
    inst = GameInstance(args.m)
    m = _require_power_of_two(inst)
    questions = (1 << m) * matching_count(m)
    _require_budget(questions, f"2**{m} * {m - 1}!!", "questions")
    ok = verify_always_wins(inst)
    print(f"verified={'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_quantum_sample(args) -> int:
    if args.rounds < 0:
        raise ValidationError(f"--rounds must be non-negative, got {args.rounds}")
    inst = GameInstance(args.m)
    _require_power_of_two(inst)
    x = BitString.parse(args.x)
    _require_bits(x, inst.m, "x")
    y = PerfectMatching.parse(args.y)
    _require_vertices(y, inst.m)
    question = Question(x=x, y=y)
    for r in range(args.rounds):
        answer = sample_round(inst, x, y, args.seed + r)
        win = wins_round(inst, question, answer)
        print(f"a={answer.a} edge={answer.edge} b2={answer.b2} win={1 if win else 0}")
    return 0


def _add_strategy_arg(parser) -> None:
    parser.add_argument(
        "--strategy",
        default="-",
        metavar="FILE",
        help="strategy file to read; '-' (default) reads standard input",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgame",
        description="Matching game toolkit: strategies, audits, and the entangled protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("matchings", help="list all perfect matchings in canonical order")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_matchings)

    p = sub.add_parser("eval", help="exact success of a total strategy file")
    _add_strategy_arg(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="check a strategy wins every defined question")
    _add_strategy_arg(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("lemma1", help="emit the anchor-pair strategy as a file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--complete",
        action="store_true",
        help="fill the undefined matchings with the default rule",
    )
    p.set_defaults(handler=_cmd_lemma1)

    p = sub.add_parser("figures", help="emit the built-in winning table (m=4 or m=6)")
    p.add_argument("--m", type=int, required=True, choices=(4, 6))
    p.set_defaults(handler=_cmd_figures)

    p = sub.add_parser("omega-d", help="exact optimum over deterministic strategies")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", metavar="FILE", help="write the witness strategy here")
    p.set_defaults(handler=_cmd_omega_d)

    p = sub.add_parser("search", help="hill-climb a lower bound on the optimum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--out", metavar="FILE", help="write the best strategy here")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("audit", help="report the winning-play audit of a strategy file")
    _add_strategy_arg(p)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("certificate", help="component-count impossibility report")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_certificate)

    p = sub.add_parser("quantum", help="entangled strategy simulation")
    qsub = p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    q = qsub.add_parser("verify", help="check the protocol wins every question")
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(handler=_cmd_quantum_verify)

    q = qsub.add_parser("sample", help="sample protocol rounds for one question")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--x", required=True, help="Alice's input bits")
    q.add_argument("--y", required=True, help="Bob's matching, e.g. 0-1,2-3")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--rounds", type=int, default=1)
    q.set_defaults(handler=_cmd_quantum_sample)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (FormatError, ValidationError, UnsupportedGameError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
