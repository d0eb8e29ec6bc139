"""Strategy file format: round trips and positioned parse errors."""

import functools
import hashlib
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgame.errors import BudgetExceededError, FormatError
from matchgame.game import BitString, Edge, GameInstance
from matchgame.matchings import PerfectMatching
from matchgame.search import complete_anchor_strategy, hill_climb
from matchgame.strategies import (
    DeterministicStrategy,
    PartialStrategy,
    anchor_strategy,
    known_winning_strategy,
)
from matchgame.strategy_io import format_strategy, parse_strategy
from oracles import reference_parse_strategy


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _shuffled_file(strategy, seed, keep=lambda k, line: True):
    """The strategy's file with its body lines shuffled, filtered by ``keep``."""
    head, *body = format_strategy(strategy).splitlines()
    random.Random(seed).shuffle(body)
    kept = [line for k, line in enumerate(body) if keep(k, line)]
    return "\n".join([head, *kept]) + "\n"


_CLIMB_ITERS = {2: 4, 4: 20, 8: 40, 10: 6}


def _pinned_strategy(case):
    kind, m = case.rsplit("-m", 1)
    inst = GameInstance(int(m))
    if kind == "climb":
        return hill_climb(inst, inst.m, _CLIMB_ITERS[inst.m])[0]
    if kind == "anchor":
        return anchor_strategy(inst)
    if kind == "complete":
        return complete_anchor_strategy(inst)
    # every third bob line dropped from a shuffled file: a partial strategy
    text = _shuffled_file(
        complete_anchor_strategy(inst),
        0,
        keep=lambda k, line: not (line.startswith("bob") and k % 3 == 0),
    )
    return parse_strategy(text)


# sha256 of format_strategy, recorded before the alice block was written
# as one array of characters
_FORMAT_PINS = {
    "climb-m2": "9297fb5b2b02d36a846f8ed9289322671efe6052071a8fc1515db576402829a8",
    "anchor-m2": "9297fb5b2b02d36a846f8ed9289322671efe6052071a8fc1515db576402829a8",
    "complete-m2": "9297fb5b2b02d36a846f8ed9289322671efe6052071a8fc1515db576402829a8",
    "climb-m4": "4a003f40009e0150a3c425a2492ee5ee109f84b17a4b1a1a25812e21ea9d4f4b",
    "anchor-m4": "85dcbfae182d2e87fa639fe301469efb0c9ec39c9238b4b0a6dbc1f206cbae39",
    "complete-m4": "85dcbfae182d2e87fa639fe301469efb0c9ec39c9238b4b0a6dbc1f206cbae39",
    "climb-m8": "2ab6802693cedfeedb39824e2273564777aeb5197c32ca0f4dc7fa3123125331",
    "anchor-m8": "a75198a858ed14d058f3e0453c89040d88d9412e2450f236d3235f78fe00bf95",
    "complete-m8": "49027f4314fc1d8241c68c90c4c9a2b325b875e3c136e3efe28b109842980220",
    "climb-m10": "7c2c785356b2a5d05e9d6ea702b82c400aff3841b5cd39d6a4dcba0b0ebb83f2",
    "anchor-m10": "a2a1e5f5eb2cc969a2d757238c4d639d41c5753f844ef588d06c8c32152991fb",
    "complete-m10": "f40aa272a10303b976e4f0861c02ef19013f3c01e7988927dd966ca48ca1badc",
    "partial-shuffled-m8": "e135f2d447250a0c74dbb9bf5ec5e8b98a91936da843c3804b894495ff34267b",
}


class TestFormatPinned:
    @pytest.mark.parametrize("case", sorted(_FORMAT_PINS))
    def test_output_is_byte_identical(self, case):
        assert _sha256(format_strategy(_pinned_strategy(case))) == _FORMAT_PINS[case]

    @pytest.mark.parametrize("m", [2, 6, 16])
    def test_alice_block_equals_line_by_line_text(self, m):
        n = GameInstance(m).n
        answers = np.random.default_rng(m).integers(0, 1 << n, 1 << m)
        text = format_strategy(PartialStrategy(m, answers, ((), [])))
        lines = [f"game m={m}"]
        lines += (f"alice {x:0{m}b} -> {a:0{n}b}" for x, a in enumerate(answers.tolist()))
        assert text == "\n".join(lines) + "\n"

    def test_alice_block_at_m20_peaks_below_a_list_of_its_lines(self):
        m, n = 20, 5
        s = PartialStrategy(m, np.arange(1 << m) % (1 << n), ((), []))
        tracemalloc.start()
        try:
            text = format_strategy(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        header, width = len(f"game m={m}\n"), len(f"alice {0:020b} -> 00000\n")
        assert len(text) == header + (1 << m) * width

        def line(x):
            return text[header + x * width : header + (x + 1) * width]

        assert line(0) == f"alice {0:020b} -> 00000\n"
        assert line((1 << m) - 1) == f"alice {(1 << m) - 1:020b} -> 11111\n"
        assert line(12345) == f"alice {12345:020b} -> {12345 % 32:05b}\n"
        # one str object per line and the list's pointers, before any join
        assert peak < (1 << m) * (sys.getsizeof(line(0)[:-1]) + 8)


@functools.cache
def _canonical_files(m):
    inst = GameInstance(m)
    strategies = [complete_anchor_strategy(inst), anchor_strategy(inst)]
    return [format_strategy(s).splitlines() for s in strategies]


def _bob_lines(lines):
    return [k for k, line in enumerate(lines) if line.startswith("bob")]


def _with_field(line, k, text):
    fields = line.split(" ")
    fields[k] = text
    return " ".join(fields)


_ARROWS = ["-", "=>", "->>", "<-", "- >"]
_EXTRA_FIELDS = ["0", "extra", "0-1", "->"]
# \x0b also ends a line, for both parsers
_GAPS = ["\t", "  ", " \t ", "\u00a0", "\u3000", "\x0b"]


def _edge_texts(i, j):
    return [f"0{i}-{j}", f"{j}-{i}", f"{i}-{j}-", f"{i}-0{j}"]


def _mutate(lines, kind, data):
    """Apply one mutation, drawn from ``data``, to the lines below the header."""
    index = st.integers(1, len(lines) - 1)
    bobs = _bob_lines(lines)
    # bob lines are a third of an m=8 file: pick one half of the time
    k = data.draw(index | st.sampled_from(bobs) if bobs else index)
    line = lines[k]
    fields = line.split(" ")
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(data.draw(index), line)
    elif kind == "swap":
        j = data.draw(index)
        lines[k], lines[j] = lines[j], line
    elif kind == "blank":
        lines.insert(data.draw(index), data.draw(st.sampled_from(["", "   ", "\t"])))
    elif kind in ("flip", "bad digit"):
        spots = [i for i, ch in enumerate(line) if ch in "01"]
        if spots:
            i = data.draw(st.sampled_from(spots))
            flipped = "1" if line[i] == "0" else "0"
            new = flipped if kind == "flip" else data.draw(st.sampled_from("2x-"))
            lines[k] = line[:i] + new + line[i + 1 :]
    elif kind in ("lengthen", "shorten") and len(fields) > 1:
        f = data.draw(st.integers(1, len(fields) - 1))
        if kind == "lengthen":
            token = fields[f] + data.draw(st.sampled_from("01"))
        else:
            token = fields[f][:-1]
        lines[k] = _with_field(line, f, token)
    elif kind == "arrow" and "->" in fields:
        arrow = data.draw(st.sampled_from(_ARROWS))
        lines[k] = _with_field(line, fields.index("->"), arrow)
    elif kind == "add field":
        lines[k] = line + " " + data.draw(st.sampled_from(_EXTRA_FIELDS))
    elif kind == "whitespace":
        spaces = [i for i, ch in enumerate(line) if ch == " "]
        i = data.draw(st.sampled_from([0, len(line), *spaces]))
        gap = data.draw(st.sampled_from(_GAPS))
        lines[k] = line[:i] + gap + line[i:].removeprefix(" ")
    elif kind in ("reorder edges", "overlap edges", "edge text") and bobs:
        k = data.draw(st.sampled_from(bobs))
        fields = lines[k].split(" ")
        parts = fields[1].split(",") if len(fields) > 1 else []
        if kind == "reorder edges":
            parts = data.draw(st.permutations(parts))
        elif kind == "overlap edges" and len(parts) > 1:
            pairs = list(itertools.permutations(range(len(parts)), 2))
            a, b = data.draw(st.sampled_from(pairs))
            parts[a] = parts[a].partition("-")[0] + "-" + parts[b].partition("-")[2]
        elif kind == "edge text" and parts:
            a = data.draw(st.integers(0, len(parts) - 1))
            i, _, j = parts[a].partition("-")
            parts[a] = data.draw(st.sampled_from(_edge_texts(i, j)))
        if parts:
            lines[k] = _with_field(lines[k], 1, ",".join(parts))


_MUTATIONS = [
    "drop", "duplicate", "swap", "blank", "flip", "bad digit", "lengthen",
    "shorten", "arrow", "add field", "whitespace", "reorder edges",
    "overlap edges", "edge text",
]


def _outcome(parse, text):
    """(type name, strategy file or error message, line, column)."""
    try:
        strategy = parse(text)
    except Exception as err:  # any exception, so that differing types show
        where = getattr(err, "line", None), getattr(err, "column", None)
        return (type(err).__name__, str(err), *where)
    return type(strategy).__name__, format_strategy(strategy), None, None


class TestAgainstReferenceParser:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), m=st.sampled_from([2, 4, 8]), which=st.integers(0, 1))
    def test_mutated_files_parse_alike(self, data, m, which):
        lines = list(_canonical_files(m)[which])
        kinds = st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)
        for kind in data.draw(kinds):
            _mutate(lines, kind, data)
        text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
        expected = _outcome(reference_parse_strategy, text)
        assert _outcome(parse_strategy, text) == expected

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_canonical_files_parse_alike(self, m):
        for lines in _canonical_files(m):
            text = "\n".join(lines) + "\n"
            assert parse_strategy(text) == reference_parse_strategy(text)
            expected = _outcome(reference_parse_strategy, text)
            assert _outcome(parse_strategy, text) == expected
