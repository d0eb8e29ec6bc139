"""Command line behavior: outputs, exit codes, pipes, diagnostics."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matchgame
from matchgame import search
from matchgame.cli import main
from matchgame.game import GameInstance
from matchgame.search import complete_anchor_strategy
from matchgame.strategies import anchor_strategy, known_winning_strategy
from matchgame.strategy_io import format_strategy, parse_strategy


def test_certificate_output(run_cli):
    code, out, err = run_cli(["certificate", "--m", "8"])
    assert code == 0
    assert out == "excluded=true needed=5 possible=4\n"
    code, out, _ = run_cli(["certificate", "--m", "6"])
    assert code == 0
    assert out == "excluded=false needed=3 possible=3\n"


def test_certificate_rejects_odd(run_cli):
    code, out, err = run_cli(["certificate", "--m", "7"])
    assert code == 2
    assert "error:" in err


def test_matchings_listing(run_cli):
    code, out, _ = run_cli(["matchings", "--m", "4"])
    assert code == 0
    assert out.splitlines() == ["0-1,2-3", "0-2,1-3", "0-3,1-2"]


@pytest.mark.parametrize("m", [4, 6])
def test_figures_pipe_into_verify(run_cli, m):
    code, table, _ = run_cli(["figures", "--m", str(m)])
    assert code == 0
    code, out, _ = run_cli(["verify"], stdin_text=table)
    assert code == 0
    assert out == "winning=yes\n"


def test_figures_output_parses_to_known_table(run_cli):
    _, table, _ = run_cli(["figures", "--m", "4"])
    assert parse_strategy(table) == known_winning_strategy(4)


def test_eval_strategy_file(run_cli, tmp_path):
    path = tmp_path / "table.strat"
    path.write_text(format_strategy(known_winning_strategy(4)))
    code, out, _ = run_cli(["eval", "--strategy", str(path)])
    assert code == 0
    assert out == "success=48/48\n"


def test_eval_rejects_partial_strategy(run_cli):
    partial = format_strategy(anchor_strategy(GameInstance(8)))
    code, out, err = run_cli(["eval"], stdin_text=partial)
    assert code == 2
    assert "partial" in err


def test_verify_reports_first_counterexample(run_cli):
    lines = ["game m=4"]
    lines += [f"alice {v:04b} -> 00" for v in range(16)]
    lines += [
        "bob 0-1,2-3 -> 0-1 00",
        "bob 0-2,1-3 -> 0-2 00",
        "bob 0-3,1-2 -> 0-3 00",
    ]
    code, out, _ = run_cli(["verify"], stdin_text="\n".join(lines) + "\n")
    assert code == 1
    assert out == "winning=no counterexample=x:0001 y:0-3,1-2\n"
    _, table, _ = run_cli(["lemma1", "--m", "10", "--complete"])
    code, out, _ = run_cli(["verify"], stdin_text=table)
    assert (code, out) == (
        1,
        "winning=no counterexample=x:0000000001 y:0-9,1-3,2-5,4-6,7-8\n",
    )


def test_verify_accepts_partial_strategy(run_cli):
    partial = format_strategy(anchor_strategy(GameInstance(8)))
    code, out, _ = run_cli(["verify"], stdin_text=partial)
    assert code == 0
    assert out == "winning=yes\n"
    _, table, _ = run_cli(["lemma1", "--m", "10"])
    assert run_cli(["verify"], stdin_text=table)[:2] == (0, "winning=yes\n")


def test_lemma1_complete_round_trip(run_cli):
    code, out, _ = run_cli(["lemma1", "--m", "8", "--complete"])
    assert code == 0
    assert parse_strategy(out) == complete_anchor_strategy(GameInstance(8))


def test_lemma1_partial_verifies_for_m6(run_cli):
    code, table, _ = run_cli(["lemma1", "--m", "6"])
    assert code == 0
    code, out, _ = run_cli(["verify"], stdin_text=table)
    assert code == 0


def test_omega_d_m4(run_cli, tmp_path):
    out_path = tmp_path / "witness.strat"
    code, out, _ = run_cli(["omega-d", "--m", "4", "--out", str(out_path)])
    assert code == 0
    assert out == "omega_d=48/48\n"
    witness = parse_strategy(out_path.read_text())
    assert witness.is_total


def test_omega_d_budget_exceeded(run_cli):
    code, out, err = run_cli(["omega-d", "--m", "6"])
    assert code == 3
    assert "504857282956046106624" in err


@pytest.mark.parametrize("m", [12, 14, 16, 18])
def test_omega_d_budget_checked_before_any_work(run_cli, m):
    start = time.perf_counter()
    code, out, err = run_cli(["omega-d", "--m", str(m)])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert "**" in err and "=" not in err


@pytest.mark.parametrize(
    "args, size",
    [
        (["matchings", "--m", "20"], "19!! = 654729075 matchings"),
        (["lemma1", "--m", "24"], "2**24 + 23!! = 316250920441 table entries"),
        (["search", "--m", "16", "--seed", "0", "--iters", "1"], "2**16 + 15!! = 2092561"),
        (["quantum", "verify", "--m", "16"], "2**16 * 15!! = 132843110400 questions"),
        (
            ["quantum", "sample", "--m", "2048", "--x", "0" * 2048,
             "--y", ",".join(f"{k}-{k + 1}" for k in range(0, 2048, 2)),
             "--seed", "0", "--rounds", "1"],
            "2048*2048 = 4194304 amplitudes",
        ),
        (["omega-d", "--m", "3000"], "search space of 6144000**2999!! tables"),
        # sizes past 2**128, which are written without their decimal value
        (["matchings", "--m", "600000"], "599999!! matchings"),
        (["lemma1", "--m", "600000"], "2**600000 + 599999!! table entries"),
        (["lemma1", "--m", "600000", "--complete"], "2**600000 + 599999!! table entries"),
        (
            ["search", "--m", "600000", "--seed", "0", "--iters", "1"],
            "2**600000 + 599999!! table entries",
        ),
        (["omega-d", "--m", "600000"], "search space of 314572800000**599999!! tables"),
        (["quantum", "verify", "--m", str(1 << 19)], "2**524288 * 524287!! questions"),
    ],
    ids=[
        "matchings", "lemma1", "search", "quantum-verify", "quantum-sample", "omega-d",
        "matchings-huge", "lemma1-huge", "lemma1-complete-huge", "search-huge",
        "omega-d-huge", "quantum-verify-huge",
    ],
)
def test_oversized_command_refused_before_any_work(run_cli, args, size):
    start = time.perf_counter()
    code, out, err = run_cli(args)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert f"error: {size}" in err and "exceeds budget 2000000" in err


@pytest.mark.parametrize("command", ["eval", "verify", "audit"])
def test_strategy_file_sized_from_its_header(run_cli, command):
    code, out, err = run_cli([command], stdin_text="game m=20000\n")
    assert (code, out) == (3, "")
    assert err == "error: 2**20000 alice lines exceeds budget 2000000\n"


@pytest.mark.parametrize("command", ["eval", "verify", "audit"])
def test_overlong_header_refused_by_its_digit_count(run_cli, command):
    code, out, err = run_cli([command], stdin_text="game m=" + "2" * 5000 + "\n")
    assert (code, out) == (3, "")
    assert err == "error: 2**m (m of 5000 digits) alice lines exceeds budget 2000000\n"
    assert len(err.encode()) < 200


def test_overlong_edge_endpoint_is_a_positioned_error(run_cli):
    text = "game m=2\nbob 0-" + "9" * 5000 + " -> 0-1 0\n"
    code, out, err = run_cli(["verify"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err == "error: line 2, column 5: edge endpoint of 5000 digits (at most 39)\n"


class _ReachedWork(Exception):
    pass


@pytest.mark.parametrize(
    "args, work",
    [
        (["matchings", "--m", "14"], "enumerate_matchings"),
        (["lemma1", "--m", "14"], "anchor_strategy"),
        (["search", "--m", "14", "--seed", "0", "--iters", "1"], "hill_climb"),
        (["quantum", "verify", "--m", "8"], "verify_always_wins"),
    ],
    ids=["matchings", "lemma1", "search", "quantum-verify"],
)
def test_largest_size_within_budget_reaches_its_work(monkeypatch, args, work):
    # The work is replaced by a stub, so only the budget check runs for real.
    def reached(*_args, **_kwargs):
        raise _ReachedWork

    monkeypatch.setattr(f"matchgame.cli.{work}", reached)
    with pytest.raises(_ReachedWork):
        main(args)


def test_omega_d_inline_strategy(run_cli):
    code, out, _ = run_cli(["omega-d", "--m", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "omega_d=4/4"
    assert parse_strategy("\n".join(lines[1:]) + "\n").is_total


def test_search_labels_lower_bound(run_cli, tmp_path):
    out_path = tmp_path / "best.strat"
    args = ["search", "--m", "4", "--seed", "0", "--iters", "512", "--out", str(out_path)]
    code, out, _ = run_cli(args)
    assert code == 0
    assert out.splitlines() == ["best=48/48", "bound=lower"]
    first = out_path.read_text()
    run_cli(args)
    assert out_path.read_text() == first


_NEGATIVE_COUNTS = {
    "iters": ["search", "--m", "4", "--seed", "0", "--iters", "-5"],
    "rounds": [
        "quantum", "sample", "--m", "2", "--x", "01", "--y", "0-1",
        "--seed", "0", "--rounds", "-2",
    ],
}


@pytest.mark.parametrize("flag", sorted(_NEGATIVE_COUNTS))
def test_negative_counts_rejected(run_cli, flag):
    args = _NEGATIVE_COUNTS[flag]
    code, out, err = run_cli(args)
    assert (code, out) == (2, "")
    assert "non-negative" in err
    code, out, _ = run_cli(args[:-1] + ["0"])
    assert code == 0
    if flag == "iters":
        assert out.splitlines()[:2] == ["best=40/48", "bound=lower"]
    else:
        assert out == ""


def test_negative_iters_refused_before_the_context_build(run_cli, monkeypatch):
    built = []
    build = search._context
    monkeypatch.setattr(search, "_context", lambda m: built.append(m) or build(m))
    start = time.perf_counter()
    code, out, err = run_cli(["search", "--m", "14", "--seed", "0", "--iters", "-5"])
    assert time.perf_counter() - start < 1
    assert (code, out, built) == (2, "", [])
    assert "non-negative" in err


def test_audit_output(run_cli):
    table = format_strategy(known_winning_strategy(4))
    code, out, _ = run_cli(["audit"], stdin_text=table)
    assert code == 0
    assert out.splitlines() == [
        "class_size=4",
        "required_size=4",
        "max_component=3",
        "component_bound=2",
        "parity_consistent=true",
    ]


def test_quantum_verify(run_cli):
    code, out, _ = run_cli(["quantum", "verify", "--m", "4"])
    assert code == 0
    assert out == "verified=yes\n"


def test_quantum_verify_unsupported(run_cli):
    code, out, err = run_cli(["quantum", "verify", "--m", "6"])
    assert code == 2
    assert "power of two" in err


def test_quantum_sample_lines(run_cli):
    args = [
        "quantum", "sample", "--m", "2", "--x", "01", "--y", "0-1",
        "--seed", "7", "--rounds", "3",
    ]
    code, out, _ = run_cli(args)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("a=")
        assert " edge=0-1 " in line
        assert line.endswith("win=1")
    again_code, again_out, _ = run_cli(args)
    assert again_out == out


def test_quantum_sample_validates_shapes(run_cli):
    code, _, err = run_cli(
        ["quantum", "sample", "--m", "4", "--x", "011", "--y", "0-1,2-3", "--seed", "0"]
    )
    assert code == 2
    assert "expected 4" in err


def test_quantum_sample_refuses_an_overlong_edge_endpoint(run_cli):
    y = "0-" + "9" * 5000
    args = ["quantum", "sample", "--m", "2", "--x", "01", "--y", y, "--seed", "0"]
    code, out, err = run_cli(args)
    assert (code, out) == (2, "")
    assert err == "error: edge endpoint of 5000 digits (at most 39)\n"


@pytest.mark.parametrize(
    "m,x,y",
    [
        pytest.param("4", "011", "0-1,2-3", id="011-0-1,2-3"),
        pytest.param("4", "0110", "0-1", id="0110-0-1"),
        # well-formed, but the entangled strategy needs m a power of two
        pytest.param("6", "011010", "0-1,2-3,4-5", id="m6"),
    ],
)
def test_quantum_sample_validates_shapes_without_rounds(run_cli, m, x, y):
    args = ["quantum", "sample", "--m", m, "--x", x, "--y", y, "--seed", "0"]
    code, out, _ = run_cli(args + ["--rounds", "0"])
    assert (code, out) == (2, "")


def test_malformed_strategy_file_diagnostics(run_cli, tmp_path):
    path = tmp_path / "bad.strat"
    path.write_text("game m=4\nalice 0000 -> 000\n")
    code, out, err = run_cli(["eval", "--strategy", str(path)])
    assert code == 2
    assert "line 2, column 15" in err


def test_missing_file_is_usage_error(run_cli, tmp_path):
    code, _, err = run_cli(["eval", "--strategy", str(tmp_path / "nope.strat")])
    assert code == 2


def test_unknown_command_is_usage_error(run_cli):
    code, _, err = run_cli(["frobnicate"])
    assert code == 2


def _run_module(args):
    """(exit code, stdout) of ``python -m matchgame`` in a fresh process."""
    # The child must import the same package, installed or not.
    root = str(Path(matchgame.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "matchgame", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_console_entry_point_via_module():
    code, out = _run_module(["certificate", "--m", "8"])
    assert code == 0
    assert out == "excluded=true needed=5 possible=4\n"


def test_cached_parser_keeps_no_state_between_calls(run_cli, tmp_path):
    # One process runs the commands in sequence; each must match a fresh one.
    f = str(tmp_path / "F.strat")
    search_args = ["search", "--m", "4", "--seed", "0", "--iters", "5"]
    sample = ["quantum", "sample", "--m", "4", "--x", "0110", "--y", "0-2,1-3", "--seed", "3"]
    steps = [
        search_args + ["--out", f],
        search_args,
        sample,
        ["eval", "--strategy", f, "--rounds", "2"],
        ["eval", "--strategy", f],
    ]
    results = [run_cli(args)[:2] for args in steps]
    assert [code for code, _ in results] == [0, 0, 0, 2, 0]
    assert "game m=4" in results[1][1].splitlines()
    assert len(results[2][1].splitlines()) == 1
    assert results == [_run_module(args) for args in steps]
