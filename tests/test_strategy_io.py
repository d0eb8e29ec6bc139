"""Strategy file format: round trips and positioned parse errors."""

import time
from collections import Counter

import pytest

from matchgame.errors import BudgetExceededError, FormatError
from matchgame.game import BitString, Edge, GameInstance
from matchgame.matchings import PerfectMatching
from matchgame.search import complete_anchor_strategy
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

    def test_partial_strategy_past_the_matching_budget_is_written(self):
        # 15!! matchings exceed the budget of enumerate_matchings; writing
        # a strategy costs its own size, with Bob's lines in canonical order
        canonical = [
            "0-1,2-3,4-5,6-7,8-9,10-11,12-13,14-15",
            "0-2,1-3,4-5,6-7,8-9,10-11,12-13,14-15",
            "0-15,1-14,2-13,3-12,4-11,5-10,6-9,7-8",
        ]
        ys = [PerfectMatching.parse(t) for t in canonical]
        bob = {y: (y.edges[-1], BitString(1, 4)) for y in reversed(ys)}
        alice = {BitString(v, 16): BitString(v & 15, 4) for v in range(1 << 16)}
        s = PartialStrategy(16, alice, bob)
        start = time.perf_counter()
        text = format_strategy(s)
        assert time.perf_counter() - start < 2
        lines = text.splitlines()
        assert len(lines) == 1 + (1 << 16) + 3
        assert lines[-3:] == [f"bob {t} -> {y.edges[-1]} 0001" for t, y in zip(canonical, ys)]

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        s = complete_anchor_strategy(GameInstance(8))
        calls = Counter()
        for cls in (Edge, BitString):

            def counted(text, parse=cls.parse, name=cls.__name__):
                calls[name] += 1
                return parse(text)

            monkeypatch.setattr(cls, "parse", staticmethod(counted))
        assert parse_strategy(format_strategy(s)) == s
        # 28 edges on 8 vertices, where one parse per edge field is 525; the
        # 256 inputs, plus 8 answer and 8 b2 texts at most
        assert calls["Edge"] <= 28
        assert calls["BitString"] <= 256 + 2 * 8

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

    def test_missing_bob_arrow(self):
        err = err_for("game m=2\nbob 0-1 => 0-1 0\n")
        assert (err.line, err.column) == (2, 9)
        assert "expected '->'" in str(err)

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

    def test_header_sizes_the_alice_table(self):
        with pytest.raises(BudgetExceededError) as exc:
            parse_strategy("game m=22\n")
        assert str(exc.value) == "2**22 = 4194304 alice lines exceeds budget 2000000"
        assert "cover 0 of 1048576 inputs" in str(err_for("game m=20\n"))

    def test_header_m_past_the_size_cap_is_written_by_its_digit_count(self):
        for digits, shown in [(39, "8" * 39), (40, "m (m of 40 digits)")]:
            with pytest.raises(BudgetExceededError) as exc:
                parse_strategy("game m=00" + "8" * digits + "\n")
            assert str(exc.value) == f"2**{shown} alice lines exceeds budget 2000000"

    def test_header_m_takes_ascii_digits_only(self):
        err = err_for("game m=\u0662\nalice 00 -> 0\n")
        assert (err.line, err.column) == (1, 6)
        assert "expected m=" in str(err)

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

    @pytest.mark.parametrize(
        "text,column,message",
        [
            # a non-numeric edge inside the matching
            ("bob 0-x,2-3 -> 0-1 00", 5, "not an edge: '0-x' (expected 'i-j')"),
            # a reversed edge
            ("bob 1-0,2-3 -> 0-1 00", 5, "edge must be written with i < j: '1-0'"),
            # a non-binary b2
            ("bob 0-1,2-3 -> 0-1 0a", 20, "not a bit string: '0a'"),
            # a non-binary alice answer
            ("alice 0101 -> 0a", 15, "not a bit string: '0a'"),
            # a truncated line ending in spaces: the column after them
            ("alice 0101 ->   ", 17, "truncated line"),
        ],
    )
    def test_fault_inside_a_field_is_placed_at_the_field(self, text, column, message):
        err = err_for(f"game m=4\n{text}\n")
        assert (err.line, err.column) == (2, column)
        assert str(err) == f"line 2, column {column}: {message}"
