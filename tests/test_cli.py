"""Command line behavior: outputs, exit codes, pipes, diagnostics."""

import hashlib
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



def test_search_across_restarts_pinned(run_cli, tmp_path):
    # 150 iterations at m = 12 cross two restarts; stdout and the --out file
    # were recorded before random tables were drawn in batches.
    args = ["search", "--m", "12", "--seed", "3", "--iters", "150"]
    code, out, _ = run_cli(args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e2c330e2de100231fd2d6ae8e957721c52628bb3059694d1170fe69e05b21c35"
    )
    out_path = tmp_path / "best.strat"
    code, out, _ = run_cli(args + ["--out", str(out_path)])
    assert (code, out) == (0, "best=21705824/42577920\nbound=lower\n")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "769067489d09c4eaf4f8bf02feafc652b861598d1c3d746d18b67b3a4a6eb88b"
    )

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


@pytest.mark.parametrize(
    "m,edge",
    [
        pytest.param("\u0662", "\u0660-\u0661", id="header-and-edge"),
        pytest.param("2", "\u0660-\u0661", id="edge"),
        pytest.param("\u0662", "0-1", id="header"),
    ],
)
def test_non_ascii_digits_are_a_format_error(run_cli, m, edge):
    # Arabic-Indic digits: \d matches them and int() reads them
    alice = "".join(f"alice {v:02b} -> 0\n" for v in range(4))
    text = f"game m={m}\n{alice}bob {edge} -> 0-1 0\n"
    code, out, err = run_cli(["eval"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err.startswith("error: line ")


@pytest.mark.parametrize("command", ["eval", "verify", "audit"])
def test_strategy_file_not_utf8_is_a_format_error(run_cli, tmp_path, command):
    path = tmp_path / "latin1.strat"
    path.write_bytes(b"game m=2\n\xff\n")
    code, out, err = run_cli([command, "--strategy", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2, column 1: unknown directive")
    # standard input follows the same rule, even where it decodes strictly
    strict = {"PYTHONIOENCODING": "utf-8:strict"}
    code, out, err = _run_module([command], path.read_bytes(), strict)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2, column 1: unknown directive")


def test_missing_file_is_usage_error(run_cli, tmp_path):
    code, _, err = run_cli(["eval", "--strategy", str(tmp_path / "nope.strat")])
    assert code == 2


def test_unknown_command_is_usage_error(run_cli):
    code, _, err = run_cli(["frobnicate"])
    assert code == 2


def _run_module(args, stdin=b"", env=()):
    """(exit code, stdout, stderr) of ``python -m matchgame`` in a fresh
    process, reading the bytes ``stdin``, with ``env`` added to its environment."""
    # The child must import the same package, installed or not.
    root = str(Path(matchgame.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": root + (os.pathsep + path if path else ""),
        **dict(env),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "matchgame", *args],
        input=stdin,
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_console_entry_point_via_module():
    code, out, _ = _run_module(["certificate", "--m", "8"])
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
    assert results == [_run_module(args)[:2] for args in steps]


# Exit code and sha256 of stdout for a matrix of commands; "A < B" feeds B's
# stdout to A.
_PINS = {
    "lemma1 --m 4": (0, "85dcbfae182d2e87fa639fe301469efb0c9ec39c9238b4b0a6dbc1f206cbae39"),
    "lemma1 --m 4 --complete": (0, "85dcbfae182d2e87fa639fe301469efb0c9ec39c9238b4b0a6dbc1f206cbae39"),
    "lemma1 --m 6": (0, "bf80eec39a7d160c827e61876ab890a3ba765ecf42909d0ab1fe5e5fcabd128d"),
    "lemma1 --m 6 --complete": (0, "bf80eec39a7d160c827e61876ab890a3ba765ecf42909d0ab1fe5e5fcabd128d"),
    "lemma1 --m 8": (0, "a75198a858ed14d058f3e0453c89040d88d9412e2450f236d3235f78fe00bf95"),
    "lemma1 --m 8 --complete": (0, "49027f4314fc1d8241c68c90c4c9a2b325b875e3c136e3efe28b109842980220"),
    "lemma1 --m 10": (0, "a2a1e5f5eb2cc969a2d757238c4d639d41c5753f844ef588d06c8c32152991fb"),
    "lemma1 --m 10 --complete": (0, "f40aa272a10303b976e4f0861c02ef19013f3c01e7988927dd966ca48ca1badc"),
    "eval < lemma1 --m 4": (0, "6f161ec5eaf437bd22ee7b9594dd833bfdc42df4cd35de4f6d6a16e686a4e3c1"),
    "verify < lemma1 --m 4": (0, "8523a99e695c2dd6d2969f3c88c1ef8a700a81a8b52e5c63df07e0f7a5e83e25"),
    "audit < lemma1 --m 4": (0, "051fbb5d38160a7f72cb59f31e777e47e895cf5c1f341acd1f979798e7b11b07"),
    "eval < lemma1 --m 4 --complete": (0, "6f161ec5eaf437bd22ee7b9594dd833bfdc42df4cd35de4f6d6a16e686a4e3c1"),
    "verify < lemma1 --m 4 --complete": (0, "8523a99e695c2dd6d2969f3c88c1ef8a700a81a8b52e5c63df07e0f7a5e83e25"),
    "audit < lemma1 --m 4 --complete": (0, "051fbb5d38160a7f72cb59f31e777e47e895cf5c1f341acd1f979798e7b11b07"),
    "eval < lemma1 --m 6": (0, "b013ddd596f12832be4b933b87c2af8f0d2294d0fec871ef4bbb66ae3402331b"),
    "verify < lemma1 --m 6": (0, "8523a99e695c2dd6d2969f3c88c1ef8a700a81a8b52e5c63df07e0f7a5e83e25"),
    "audit < lemma1 --m 6": (0, "c6afb26780208f8ac9a5452f263e6b5b02869b5725f5f6dcc16295aba938ac47"),
    "eval < lemma1 --m 6 --complete": (0, "b013ddd596f12832be4b933b87c2af8f0d2294d0fec871ef4bbb66ae3402331b"),
    "verify < lemma1 --m 6 --complete": (0, "8523a99e695c2dd6d2969f3c88c1ef8a700a81a8b52e5c63df07e0f7a5e83e25"),
    "audit < lemma1 --m 6 --complete": (0, "c6afb26780208f8ac9a5452f263e6b5b02869b5725f5f6dcc16295aba938ac47"),
    "eval < lemma1 --m 8": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify < lemma1 --m 8": (0, "8523a99e695c2dd6d2969f3c88c1ef8a700a81a8b52e5c63df07e0f7a5e83e25"),
    "audit < lemma1 --m 8": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval < lemma1 --m 8 --complete": (0, "1352b5163d2dc64c4aad65fd8c52e9528b8f2625eb62d6a922f1a61d870f2f57"),
    "verify < lemma1 --m 8 --complete": (1, "6a7ab0858321e81df3dc22f67896ab10caedaf864caf185a879b23a44578b3c7"),
    "audit < lemma1 --m 8 --complete": (0, "0cff619e5a98a0d8441510dbc8327ff11410ae1f6d79fa160f216d2cc5868d48"),
    "eval < lemma1 --m 10": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify < lemma1 --m 10": (0, "8523a99e695c2dd6d2969f3c88c1ef8a700a81a8b52e5c63df07e0f7a5e83e25"),
    "audit < lemma1 --m 10": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "eval < lemma1 --m 10 --complete": (0, "69d1d46c1378f7862cee1a12a0175c0d6cc13c2705e9363600d2b9f9473e90eb"),
    "verify < lemma1 --m 10 --complete": (1, "86f8d63a742f9f6f6081d60fbda978b999c5d2a47a68f091eded7d050da8f850"),
    "audit < lemma1 --m 10 --complete": (0, "d53a01de3a27c1e7eb7a9ec8473aa42c2c6ab91d87747e5ee4203434e2fac158"),
    "figures --m 4": (0, "85dcbfae182d2e87fa639fe301469efb0c9ec39c9238b4b0a6dbc1f206cbae39"),
    "figures --m 6": (0, "9d35b73653c6598936d99ead58e12b7af9ad8fc19295a08b16bfa430d336efc9"),
    "search --m 4 --seed 0 --iters 20": (0, "cf1520e164ea1cd098a88ae4fe762bd217e8f85bced5a7f309783a3fe6c84628"),
    "search --m 8 --seed 1 --iters 40": (0, "540e2aa42415afe5c31b381ce5c0450f9e3dd04897fde44d83501dcda89b1623"),
    "search --m 10 --seed 2 --iters 10": (0, "48035b59430fa1156c504e94e9883868c32db0e67a6dc7f27590467422fc1e94"),
    "omega-d --m 2": (0, "8c5138ef7703ddb57adf65e2b2d6fce38396543d7b305c91276098fedf8bac2c"),
    "omega-d --m 4": (0, "e928151b4df34c0c89f9917ddac581d260a88a8de61ee1f7596913908c23c57a"),
    "quantum verify --m 2": (0, "28d791aaf8de6802d63e7e26d6fa02e20306078120194e985cea78f7228e6c07"),
    "quantum verify --m 4": (0, "28d791aaf8de6802d63e7e26d6fa02e20306078120194e985cea78f7228e6c07"),
    "quantum verify --m 8": (0, "28d791aaf8de6802d63e7e26d6fa02e20306078120194e985cea78f7228e6c07"),
    "quantum verify --m 6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quantum verify --m 16": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quantum sample --m 8 --x 01101001 --y 0-5,1-3,2-7,4-6 --seed 5 --rounds 4": (0, "e4d50175c7f8200b1e6bd2c6b92b7f604727d79d7f4232cc0330f89d0bd982fd"),
    "certificate --m 8": (0, "6fab52a4e7e78c30ca4d29e0c36dd5dc7068c38d0b0aba84a72bab859454d676"),
    "certificate --m 10": (0, "dfeda08f08d44cb6da083f778d8aed46886f7f85616214a1bf92828f02a9d8e9"),
    "certificate --m 12": (0, "e737265636c732b6132baef6464b70cd44fa9611454eb91d8f443e0ceafd2f19"),
}


@pytest.mark.parametrize("case", sorted(_PINS))
def test_cli_output_pinned(run_cli, case):
    command, _, producer = case.partition(" < ")
    stdin_text = run_cli(producer.split())[1] if producer else ""
    code, out, _ = run_cli(command.split(), stdin_text=stdin_text)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _PINS[case]
