"""Round rules: bit strings, index encoding, the GF(2) dot, adjudication."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchgame.coloring import Graph, parse_parity_graph
from matchgame.errors import FormatError, ValidationError
from matchgame.game import (
    Answer,
    BitString,
    Edge,
    GameInstance,
    Question,
    dot,
    encode_index,
    wins_round,
)
from matchgame.matchings import PerfectMatching, validate_matching


def bits(text):
    return BitString.parse(text)


def bitstrings(length):
    return st.integers(0, (1 << length) - 1).map(lambda v: BitString(v, length))


class TestBitString:
    def test_parse_str_round_trip(self):
        for text in ("0", "1", "0110", "000010", "100"):
            assert str(bits(text)) == text

    def test_indexing_is_most_significant_first(self):
        b = bits("0110")
        assert [b[i] for i in range(4)] == [0, 1, 1, 0]
        assert b.bits == (0, 1, 1, 0)
        assert list(b) == [0, 1, 1, 0]
        with pytest.raises(IndexError):
            b[4]

    def test_bad_text_rejected(self):
        for text in ("", "01x", "2", "0 1"):
            with pytest.raises(ValidationError):
                BitString.parse(text)

    def test_value_must_fit_width(self):
        with pytest.raises(ValidationError):
            BitString(4, 2)
        with pytest.raises(ValidationError):
            BitString(-1, 2)
        with pytest.raises(ValidationError):
            BitString(0, 0)

    def test_xor_keeps_width(self):
        assert str(bits("0110") ^ bits("0011")) == "0101"
        with pytest.raises(ValidationError):
            bits("01") ^ bits("011")

    def test_from_bits(self):
        assert BitString.from_bits((1, 0, 1)) == bits("101")
        with pytest.raises(ValidationError):
            BitString.from_bits((0, 2))

    def test_complement(self):
        assert bits("0110").complement() == bits("1001")


class TestEdge:
    def test_normalizes_order(self):
        assert Edge(3, 1) == Edge(1, 3)
        assert str(Edge(3, 1)) == "1-3"

    def test_rejects_self_pair_and_negative(self):
        with pytest.raises(ValidationError):
            Edge(2, 2)
        with pytest.raises(ValidationError):
            Edge(-1, 2)

    def test_parse_is_strict(self):
        assert Edge.parse("0-3") == Edge(0, 3)
        for text in ("3-0", "1-1", "a-b", "1", "1-2-3"):
            with pytest.raises(ValidationError):
                Edge.parse(text)

    def test_parse_takes_ascii_digits_only(self):
        # Arabic-Indic and fullwidth digits match \d, and int() reads them
        for text in ("\u0660-\u0661", "0-\uff13"):
            with pytest.raises(ValidationError, match="not an edge"):
                Edge.parse(text)


class TestGameInstance:
    @pytest.mark.parametrize(
        "m,n", [(2, 1), (4, 2), (6, 3), (8, 3), (10, 4), (16, 4), (64, 6)]
    )
    def test_output_width(self, m, n):
        assert GameInstance(m).n == n

    @pytest.mark.parametrize("m", [0, 1, 3, 7, -2])
    def test_rejects_bad_sizes(self, m):
        with pytest.raises(ValidationError):
            GameInstance(m)


@pytest.mark.parametrize(
    "build",
    [
        GameInstance,
        lambda k: BitString(k, 3),
        lambda k: BitString(1, k),
        lambda k: Edge(k, 5),
        lambda k: Edge(0, k),
    ],
    ids=["m", "bit-value", "bit-length", "edge-i", "edge-j"],
)
def test_integer_fields(build):
    """Numpy integers are stored as int; anything that is not an integer is refused."""
    for k in (np.int64(4), np.uint8(4), np.int32(4)):
        built = build(k)
        assert built == build(4) and hash(built) == hash(build(4))
        assert str(built) == str(build(4))
        assert all(type(getattr(built, f.name)) is int for f in dataclasses.fields(built))
    for bad in (4.0, np.float64(4), "4", None):
        with pytest.raises(ValidationError, match="must be an integer"):
            build(bad)


class TestEncodeIndex:
    def test_examples(self):
        assert str(encode_index(0, GameInstance(4))) == "00"
        assert str(encode_index(3, GameInstance(4))) == "11"
        assert str(encode_index(4, GameInstance(6))) == "100"

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            encode_index(4, GameInstance(4))
        with pytest.raises(ValidationError):
            encode_index(-1, GameInstance(4))


class TestDot:
    def test_examples(self):
        assert dot(bits("00"), bits("11")) == 0
        assert dot(bits("11"), bits("10")) == 1
        assert dot(bits("111"), bits("101")) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            dot(bits("01"), bits("011"))

    @given(bitstrings(5))
    def test_zero_annihilates(self, u):
        assert dot(u, BitString(0, 5)) == 0

    @given(bitstrings(6), bitstrings(6), bitstrings(6))
    def test_bilinear_over_xor(self, u, v, w):
        assert dot(u, v ^ w) == dot(u, v) ^ dot(u, w)
        assert dot(u ^ v, w) == dot(u, w) ^ dot(v, w)


def q4(x_text, y_text):
    return Question(x=bits(x_text), y=PerfectMatching.parse(y_text))


def ans(edge_text, a_text, b2_text):
    return Answer(edge=Edge.parse(edge_text), a=bits(a_text), b2=bits(b2_text))


class TestWinsRound:
    inst = GameInstance(4)

    def test_trivial_all_zero(self):
        assert wins_round(self.inst, q4("0000", "0-1,2-3"), ans("0-1", "00", "00"))

    def test_table_row(self):
        # x=0110 answered 11, edge {0,1} with zero b2: both sides equal 1
        assert wins_round(self.inst, q4("0110", "0-1,2-3"), ans("0-1", "11", "00"))

    def test_parity_mismatch_loses(self):
        assert not wins_round(self.inst, q4("0100", "0-1,2-3"), ans("0-1", "00", "00"))

    def test_edge_outside_matching_loses(self):
        assert not wins_round(self.inst, q4("0000", "0-1,2-3"), ans("0-2", "00", "00"))

    def test_edge_order_is_irrelevant(self):
        q = q4("0110", "0-1,2-3")
        a1 = Answer(edge=Edge(0, 1), a=bits("11"), b2=bits("00"))
        a2 = Answer(edge=Edge(1, 0), a=bits("11"), b2=bits("00"))
        assert wins_round(self.inst, q, a1) == wins_round(self.inst, q, a2)

    def test_double_flip_invariance_exhaustive(self):
        # Flipping x at both endpoints of the answered edge never changes
        # the verdict; checked over every m=4 question and answer.
        matchings = [
            PerfectMatching.parse(t) for t in ("0-1,2-3", "0-2,1-3", "0-3,1-2")
        ]
        for xv in range(16):
            x = BitString(xv, 4)
            for y in matchings:
                for edge in y:
                    flip = BitString((1 << (3 - edge.i)) | (1 << (3 - edge.j)), 4)
                    for av in range(4):
                        for bv in range(4):
                            a = Answer(edge=edge, a=BitString(av, 2), b2=BitString(bv, 2))
                            before = wins_round(self.inst, Question(x=x, y=y), a)
                            after = wins_round(
                                self.inst, Question(x=x ^ flip, y=y), a
                            )
                            assert before == after

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            wins_round(self.inst, q4("00000", "0-1,2-3"), ans("0-1", "00", "00"))
        with pytest.raises(ValidationError):
            wins_round(self.inst, q4("0000", "0-1,2-3"), ans("0-1", "0", "00"))
        with pytest.raises(ValidationError):
            wins_round(self.inst, q4("0000", "0-1,2-3"), ans("0-1", "00", "000"))
        with pytest.raises(ValidationError):
            wins_round(
                GameInstance(6), q4("0000", "0-1,2-3"), ans("0-1", "00", "00")
            )

    def test_answer_edge_out_of_range(self):
        with pytest.raises(ValidationError):
            wins_round(self.inst, q4("0000", "0-1,2-3"), ans("0-7", "00", "00"))


def test_edge_range_refused_alike():
    inst, message = GameInstance(4), "edge 2-5 out of range for 4 vertices"
    question = Question(x=bits("0000"), y=PerfectMatching.parse("0-1,2-3"))
    answer = Answer(edge=Edge(2, 5), a=bits("00"), b2=bits("00"))
    for call in (
        lambda: wins_round(inst, question, answer),
        lambda: validate_matching([(0, 1), (2, 5)], inst),
        lambda: Graph.from_pairs(4, [(0, 1), (5, 2)]),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(FormatError) as exc:
        parse_parity_graph("graph n=4\nedge 2-5 h=1\n")
    assert str(exc.value) == f"line 2, column 6: {message}"
