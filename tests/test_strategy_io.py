"""Strategy file format: round trips and positioned parse errors."""

import pytest

from matchgame.errors import FormatError
from matchgame.game import GameInstance
from matchgame.strategies import (
    DeterministicStrategy,
    PartialStrategy,
    anchor_strategy,
    known_winning_strategy,
)
from matchgame.strategy_io import format_strategy, parse_strategy


class TestRoundTrip:
    @pytest.mark.parametrize("m", [4, 6])
    def test_known_tables(self, m):
        s = known_winning_strategy(m)
        text = format_strategy(s)
        parsed = parse_strategy(text)
        assert isinstance(parsed, DeterministicStrategy)
        assert parsed == s
        assert format_strategy(parsed) == text

    def test_total_anchor_strategy(self):
        s = anchor_strategy(GameInstance(4))
        parsed = parse_strategy(format_strategy(s))
        assert parsed == s

    def test_partial_anchor_strategy(self):
        s = anchor_strategy(GameInstance(8))
        text = format_strategy(s)
        parsed = parse_strategy(text)
        assert isinstance(parsed, PartialStrategy)
        assert not isinstance(parsed, DeterministicStrategy)
        assert parsed == s
        assert format_strategy(parsed) == text

    def test_blank_lines_ignored_and_order_free(self):
        s = known_winning_strategy(4)
        lines = format_strategy(s).splitlines()
        shuffled = [lines[0], ""] + lines[:0:-1] + ["   "]
        assert parse_strategy("\n".join(shuffled)) == s


def err_for(text):
    with pytest.raises(FormatError) as exc:
        parse_strategy(text)
    return exc.value


class TestDiagnostics:
    def test_missing_header(self):
        err = err_for("alice 0000 -> 00\n")
        assert (err.line, err.column) == (1, 1)
        assert "game" in str(err)

    def test_empty_file(self):
        err = err_for("")
        assert (err.line, err.column) == (1, 1)

    def test_bad_header_field(self):
        err = err_for("game mm=4\n")
        assert (err.line, err.column) == (1, 6)

    def test_odd_m_rejected(self):
        err = err_for("game m=5\n")
        assert (err.line, err.column) == (1, 6)

    def test_unknown_directive(self):
        err = err_for("game m=2\ncarol 01 -> 0\n")
        assert (err.line, err.column) == (2, 1)
        assert "carol" in str(err)

    def test_missing_arrow(self):
        err = err_for("game m=2\nalice 01 = 0\n")
        assert (err.line, err.column) == (2, 10)

    def test_wrong_alice_width(self):
        err = err_for("game m=2\nalice 011 -> 0\n")
        assert (err.line, err.column) == (2, 7)
        assert "expected 2" in str(err)

    def test_wrong_answer_width(self):
        err = err_for("game m=2\nalice 01 -> 00\n")
        assert (err.line, err.column) == (2, 13)

    def test_trailing_garbage(self):
        err = err_for("game m=2\nalice 01 -> 0 extra\n")
        assert (err.line, err.column) == (2, 15)

    def test_truncated_line(self):
        err = err_for("game m=2\nalice 01 ->\n")
        assert (err.line, err.column) == (2, 12)

    def test_duplicate_alice_line(self):
        text = "game m=2\nalice 01 -> 0\nalice 01 -> 1\n"
        err = err_for(text)
        assert (err.line, err.column) == (3, 7)

    def test_bad_matching(self):
        err = err_for("game m=2\nbob 0-0 -> 0-1 0\n")
        assert (err.line, err.column) == (2, 5)

    def test_matching_size_mismatch(self):
        err = err_for("game m=4\nbob 0-1 -> 0-1 00\n")
        assert (err.line, err.column) == (2, 5)

    def test_edge_not_in_matching(self):
        err = err_for("game m=4\nbob 0-1,2-3 -> 0-2 00\n")
        assert (err.line, err.column) == (2, 16)

    def test_duplicate_bob_line(self):
        text = "game m=2\nbob 0-1 -> 0-1 0\nbob 0-1 -> 0-1 1\n"
        err = err_for(text)
        assert (err.line, err.column) == (3, 5)

    def test_duplicate_header(self):
        err = err_for("game m=2\ngame m=2\n")
        assert (err.line, err.column) == (2, 1)

    def test_incomplete_alice_coverage(self):
        text = "game m=2\nalice 00 -> 0\n"
        err = err_for(text)
        assert err.line == 3
        assert "1 of 4" in str(err)

    def test_bad_b2_width(self):
        err = err_for("game m=2\nbob 0-1 -> 0-1 00\n")
        assert (err.line, err.column) == (2, 16)

    @pytest.mark.parametrize(
        "text,column",
        [
            # edge not in the matching, and b2 too wide
            ("game m=4\nbob 0-1,2-3 -> 0-2 000\n", 16),
            # input and answer both too wide
            ("game m=2\nalice 011 -> 000\n", 7),
            # input too wide, answer not a bit string
            ("game m=2\nalice 011 -> 0z\n", 14),
            # matching too small, and edge not in it
            ("game m=4\nbob 0-1 -> 0-2 00\n", 5),
        ],
    )
    def test_first_fault_in_field_order_is_reported(self, text, column):
        err = err_for(text)
        assert (err.line, err.column) == (2, column)
