"""One check per fact at the public boundaries: totality, integers, parity bits."""

import numpy as np
import pytest

from matchgame.coloring import (
    Graph,
    audit_strategy,
    bob_edge_graph,
    count_colorings,
    distance,
    format_parity_graph,
    impossibility_certificate,
    parse_parity_graph,
)
from matchgame.errors import ValidationError
from matchgame.game import BitString, Edge, GameInstance
from matchgame.matchings import PerfectMatching
from matchgame.search import hill_climb
from matchgame.strategies import (
    DeterministicStrategy,
    PartialStrategy,
    SuccessRatio,
    anchor_strategy,
    indicator_string,
    success,
)

PARTIAL_M8 = (
    "bob table covers 81 of 105 matchings: a partial strategy, where a total one is needed"
)


def _rebuilt(strategy, inst):
    return DeterministicStrategy(
        inst.m, strategy.alice_values, (strategy.bob_matchings, strategy.bob_codes)
    )


@pytest.mark.parametrize(
    "operation",
    [
        success,
        audit_strategy,
        bob_edge_graph,
        _rebuilt,
        lambda strategy, inst: hill_climb(inst, 0, 2, start=strategy),
    ],
    ids=[
        "success", "audit_strategy", "bob_edge_graph", "DeterministicStrategy", "hill_climb-start"
    ],
)
def test_one_totality_message(operation):
    inst = GameInstance(8)
    with pytest.raises(ValidationError) as err:
        operation(anchor_strategy(inst), inst)
    assert str(err.value) == PARTIAL_M8


def test_climb_returns_alice_for_its_best_table():
    # the best table is found before the restart at iteration 64, and the
    # climb never matches it again, so the rows held at the end are not its
    inst = GameInstance(8)
    history = []
    strategy, ratio = hill_climb(inst, seed=3, iterations=100, history=history)
    kinds = [kind for _, kind in history]
    last_restart = len(kinds) - 1 - kinds[::-1].index("restart")
    assert max(wins for wins, _ in history[:last_restart]) == ratio.wins
    assert max(wins for wins, _ in history[last_restart:]) < ratio.wins
    assert success(strategy, inst) == ratio


def _path():
    return Graph.from_pairs(3, [(0, 1), (1, 2)])


def test_distance_vertices_must_be_integers():
    g = _path()
    assert distance(g, np.int64(0), np.int32(2)) == 2
    for u, v in ((0, 2.5), (0.0, 1), (0, "1")):
        with pytest.raises(ValidationError, match="vertex must be an integer"):
            distance(g, u, v)


def test_indicator_positions_must_be_integers():
    inst = GameInstance(4)
    assert indicator_string(np.int64(0), np.uint8(1), inst) == BitString(3, 2)
    for i, j in ((0, 1.0), (0.0, 1), (None, 0)):
        with pytest.raises(ValidationError, match="position must be an integer"):
            indicator_string(i, j, inst)


def test_success_ratio_counts_are_integers():
    ratio = SuccessRatio(np.int64(1), np.uint16(4))
    assert (type(ratio.wins), type(ratio.total)) == (int, int)
    assert str(SuccessRatio(True, 4)) == "1/4"
    with pytest.raises(ValidationError, match="wins must be an integer"):
        SuccessRatio(1.5, 4)
    with pytest.raises(ValidationError, match="total must be an integer"):
        SuccessRatio(1, 4.0)


def test_strategy_m_is_stored_as_int():
    values = np.zeros(16, dtype=np.int64)
    strategy = PartialStrategy(np.int64(4), values, ((), []))
    assert type(strategy.m) is int and strategy.m == 4


def test_certificate_of_a_numpy_m_is_plain():
    cert = impossibility_certificate(np.int64(8))
    assert cert == impossibility_certificate(8)
    assert type(cert.excluded) is bool
    assert (type(cert.components_needed), type(cert.components_possible)) == (int, int)


def test_parity_bits_are_written_as_0_or_1():
    g = _path()
    h = {Edge(0, 1): True, Edge(1, 2): np.int64(0)}
    text = format_parity_graph(g, h)
    assert text == "graph n=3\nedge 0-1 h=1\nedge 1-2 h=0\n"
    assert parse_parity_graph(text) == (g, {Edge(0, 1): 1, Edge(1, 2): 0})
    assert count_colorings(g, h) == 2


@pytest.mark.parametrize("bit", [1.0, np.float64(0.0)])
def test_non_integer_parity_bits_refused(bit):
    g = _path()
    h = {Edge(0, 1): bit, Edge(1, 2): 0}
    for operation in (count_colorings, format_parity_graph):
        with pytest.raises(ValidationError, match="parity of 0-1 must be an integer"):
            operation(g, h)


def test_bob_matchings_checked_before_their_answers():
    # a bad answer on the first entry and a bad matching on the second: the
    # matching is reported, since every matching is checked before any answer
    alice = {BitString(v, 4): BitString(0, 2) for v in range(16)}
    y = PerfectMatching.parse("0-1,2-3")
    bob = {y: (Edge(0, 2), BitString(0, 2)), PerfectMatching.parse("0-1"): None}
    with pytest.raises(ValidationError, match="matching covers 2 vertices, expected 4"):
        PartialStrategy(4, alice, bob)
