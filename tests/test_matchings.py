"""Enumeration order, counts, and validation of perfect matchings."""

import pytest

from matchgame.errors import ValidationError
from matchgame.game import Edge, GameInstance
from matchgame.matchings import (
    PerfectMatching,
    contains_edge,
    enumerate_matchings,
    matching_count,
    validate_matching,
)
from oracles import recursive_matching_count


def test_m2_single_matching():
    out = enumerate_matchings(GameInstance(2))
    assert [str(y) for y in out] == ["0-1"]


def test_m4_canonical_order():
    out = enumerate_matchings(GameInstance(4))
    assert [str(y) for y in out] == ["0-1,2-3", "0-2,1-3", "0-3,1-2"]


@pytest.mark.parametrize("m,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_counts(m, count):
    assert len(enumerate_matchings(GameInstance(m))) == count
    assert matching_count(m) == count


@pytest.mark.parametrize("m", [-2, 0, 1, 3, 5])
def test_matching_count_refuses_what_game_instance_refuses(m):
    with pytest.raises(ValidationError) as refused:
        GameInstance(m)
    with pytest.raises(ValidationError) as exc:
        matching_count(m)
    assert str(exc.value) == str(refused.value)


@pytest.mark.parametrize("m", range(2, 13, 2))
def test_rank_is_the_enumeration_index(m):
    ranks = [y.rank for y in enumerate_matchings(GameInstance(m))]
    assert ranks == list(range(matching_count(m)))


def test_counts_match_recursive_oracle_up_to_12():
    for m in range(2, 13, 2):
        out = enumerate_matchings(GameInstance(m))
        assert len(out) == recursive_matching_count(m)
        assert len(set(out)) == len(out)


def test_enumeration_is_lexicographic_on_edge_sequences():
    for m in (4, 6, 8):
        out = enumerate_matchings(GameInstance(m))
        keys = [tuple((e.i, e.j) for e in y) for y in out]
        assert keys == sorted(keys)


def test_every_vertex_used_exactly_once():
    for y in enumerate_matchings(GameInstance(8)):
        used = [v for e in y for v in e]
        assert sorted(used) == list(range(8))


def test_enumerated_matchings_pass_validation():
    inst = GameInstance(6)
    for y in enumerate_matchings(inst):
        assert validate_matching(y.edges, inst) == y


def test_contains_edge():
    y = PerfectMatching.parse("0-1,2-3")
    assert contains_edge(y, Edge(0, 1))
    assert contains_edge(y, (1, 0))
    assert not contains_edge(y, Edge(0, 2))
    assert contains_edge(PerfectMatching.parse("0-3,1-2"), (1, 2))


def test_validate_matching_accepts_good_input():
    inst = GameInstance(4)
    y = validate_matching([(0, 1), (2, 3)], inst)
    assert str(y) == "0-1,2-3"
    assert y == PerfectMatching.parse("0-1,2-3")


def test_validate_matching_distinct_errors():
    inst = GameInstance(4)
    with pytest.raises(ValidationError, match="appears in both"):
        validate_matching([(0, 1), (1, 2)], inst)
    with pytest.raises(ValidationError, match="unmatched"):
        validate_matching([(0, 1)], inst)
    with pytest.raises(ValidationError, match="self-pair"):
        validate_matching([(0, 0), (2, 3)], inst)
    with pytest.raises(ValidationError, match="out of range"):
        validate_matching([(0, 1), (2, 5)], inst)


def test_constructor_enforces_partition():
    with pytest.raises(ValidationError, match="appears in both"):
        PerfectMatching((Edge(0, 1), Edge(1, 2)))
    with pytest.raises(ValidationError):
        PerfectMatching((Edge(0, 1), Edge(4, 5)))
    with pytest.raises(ValidationError):
        PerfectMatching(())


def test_text_round_trip():
    for text in ("0-1", "0-2,1-3", "0-4,1-2,3-5"):
        assert str(PerfectMatching.parse(text)) == text
    # parsing normalizes edge listing order
    assert str(PerfectMatching.parse("2-3,0-1")) == "0-1,2-3"


def test_parse_rejects_junk():
    for text in ("", "0-1,", "0:1", "0-1 2-3"):
        with pytest.raises(ValidationError):
            PerfectMatching.parse(text)


class TestConstructorChecks:
    """The constructor's one cheap pass and its fall-back diagnosis."""

    @pytest.mark.parametrize(
        "edges,message",
        [
            ((), "a matching needs at least one edge"),
            ((Edge(0, 1), Edge(1, 2)), "vertex 1 appears in both 0-1 and 1-2"),
            ((Edge(0, 1), Edge(0, 2)), "vertex 0 appears in both 0-1 and 0-2"),
            (
                (Edge(0, 1), Edge(2, 5)),
                "matching must cover 0..3 exactly (missing [3], out of range [5])",
            ),
            (
                (Edge(0, 1), Edge(2, 10**30)),
                "matching must cover 0..3 exactly"
                f" (missing [3], out of range [{10**30}])",
            ),
            (
                (Edge(0, 3), Edge(1, 2), Edge(4, 70)),
                "matching must cover 0..5 exactly (missing [5], out of range [70])",
            ),
            (
                ((0, 1), (2, 3)),
                "expected an Edge, got tuple (0, 1); validate_matching takes pairs",
            ),
        ],
    )
    def test_messages(self, edges, message):
        with pytest.raises(ValidationError) as exc:
            PerfectMatching(edges)
        assert str(exc.value) == message

    def test_unsorted_edges_are_normalised(self):
        for edges in ((Edge(2, 3), Edge(0, 1)), [Edge(0, 1), Edge(2, 3)]):
            y = PerfectMatching(edges)
            assert y.edges == (Edge(0, 1), Edge(2, 3))
            assert type(y.edges) is tuple
        y = PerfectMatching((Edge(1, 4), Edge(2, 5), Edge(0, 3)))
        assert str(y) == "0-3,1-4,2-5"

    def test_unsorted_overlap_is_reported_after_sorting(self):
        message = "vertex 2 appears in both 0-2 and 2-3"
        with pytest.raises(ValidationError, match=message):
            PerfectMatching((Edge(2, 3), Edge(0, 2)))

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_enumerated_matchings_equal_constructed_ones(self, m):
        for y in enumerate_matchings(GameInstance(m)):
            built, parsed = PerfectMatching(y.edges), PerfectMatching.parse(str(y))
            # edges out of order take the normalising path, built or parsed
            reversed_ = PerfectMatching(y.edges[::-1])
            reparsed = PerfectMatching.parse(",".join(map(str, y.edges[::-1])))
            for other in (built, parsed, reversed_, reparsed):
                assert (other, hash(other), other.rank) == (y, hash(y), y.rank)
            assert type(y.edges) is tuple
