"""Strategy tables, their exact success, and the anchor construction."""

import random
from fractions import Fraction

import pytest

from matchgame.errors import UnsupportedGameError, ValidationError
from matchgame.game import Answer, BitString, Edge, GameInstance, Question, dot, wins_round
from matchgame.matchings import PerfectMatching, enumerate_matchings, matching_count
from matchgame.strategies import (
    DeterministicStrategy,
    PartialStrategy,
    SuccessRatio,
    anchor_indices,
    anchor_strategy,
    find_counterexample,
    indicator_string,
    known_winning_strategy,
    success,
    verify_winning,
)
from oracles import brute_first_losing_question, brute_success_count


def bits(text):
    return BitString.parse(text)


def hand_strategy_m2(alice_rule, b2_bit):
    """Tiny m=2 strategy: Alice by rule, Bob the single edge with fixed b2."""
    alice = {BitString(v, 2): BitString(alice_rule(v >> 1, v & 1), 1) for v in range(4)}
    bob = {PerfectMatching.parse("0-1"): (Edge(0, 1), BitString(b2_bit, 1))}
    return DeterministicStrategy(2, alice, bob)


def perturbed_strategies(defined):
    """Known winning tables at m = 4 and 6 with some answers redrawn.

    Each copy redraws one to three of Alice's answers and, for odd seeds,
    about a third of Bob's (b2 zero half the time), so answers repeat across
    matchings and first losses fall at many x.  Bob defines each matching
    with probability ``defined``; his dict is built once in canonical order
    and once shuffled.
    """
    for m in (4, 6):
        known = known_winning_strategy(m)
        n = GameInstance(m).n
        for seed in range(20):
            rng = random.Random(seed)
            alice = dict(known.alice)
            for _ in range(1 + seed % 3):
                alice[BitString(rng.randrange(1 << m), m)] = BitString(
                    rng.randrange(1 << n), n
                )
            bob = []
            for y, entry in known.bob.items():
                if rng.random() >= defined:
                    continue
                if rng.random() < seed % 2 / 3:
                    b2 = rng.choice((0, rng.randrange(1 << n)))
                    entry = (rng.choice(y.edges), BitString(b2, n))
                bob.append((y, entry))
            bob.sort(key=lambda item: [(e.i, e.j) for e in item[0]])
            yield PartialStrategy(m, alice, dict(bob))
            rng.shuffle(bob)
            yield PartialStrategy(m, alice, dict(bob))


class TestSuccessRatio:
    def test_exact_value(self):
        r = SuccessRatio(24, 48)
        assert r.value == Fraction(1, 2)
        assert str(r) == "24/48"

    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            SuccessRatio(49, 48)
        with pytest.raises(ValidationError):
            SuccessRatio(-1, 48)
        with pytest.raises(ValidationError, match="total question count must be positive"):
            SuccessRatio(0, 0)


class TestKnownWinningStrategies:
    def test_m4_wins_every_question(self):
        inst = GameInstance(4)
        s = known_winning_strategy(4)
        ratio = success(s, inst)
        assert (ratio.wins, ratio.total) == (48, 48)
        assert ratio.value == 1
        assert verify_winning(s, inst)

    def test_m6_wins_every_question(self):
        inst = GameInstance(6)
        s = known_winning_strategy(6)
        ratio = success(s, inst)
        assert (ratio.wins, ratio.total) == (960, 960)
        assert verify_winning(s, inst)

    def test_success_agrees_with_round_by_round_oracle(self):
        inst = GameInstance(4)
        s = known_winning_strategy(4)
        assert success(s, inst).wins == brute_success_count(s, inst)
        for s in perturbed_strategies(defined=1.0):
            inst = GameInstance(s.m)
            assert success(s, inst).wins == brute_success_count(s, inst)

    def test_table_entries(self):
        s4 = known_winning_strategy(4)
        assert s4.bob[PerfectMatching.parse("0-2,1-3")] == (Edge(0, 2), bits("00"))
        s6 = known_winning_strategy(6)
        assert s6.alice[bits("111111")] == bits("000")
        assert s6.bob[PerfectMatching.parse("0-4,1-5,2-3")] == (Edge(0, 4), bits("000"))

    def test_other_sizes_rejected(self):
        for m in (2, 8):
            with pytest.raises(UnsupportedGameError):
                known_winning_strategy(m)


class TestAnchorStrategy:
    def test_anchor_indices(self):
        assert anchor_indices(GameInstance(4)) == {0, 1, 2}
        assert anchor_indices(GameInstance(6)) == {0, 1, 2, 4}
        assert anchor_indices(GameInstance(8)) == {0, 1, 2, 4}
        assert anchor_indices(GameInstance(10)) == {0, 1, 2, 4, 8}

    def test_alice_values(self):
        s4 = anchor_strategy(GameInstance(4))
        assert s4.alice[bits("0110")] == bits("11")
        s6 = anchor_strategy(GameInstance(6))
        assert s6.alice[bits("000010")] == bits("100")

    def test_m8_leaves_anchor_free_matchings_undefined(self):
        s = anchor_strategy(GameInstance(8))
        assert not s.defined_on(PerfectMatching.parse("0-3,1-5,2-6,4-7"))
        assert not s.is_total

    def test_total_and_winning_for_m4_and_m6(self):
        for m in (4, 6):
            inst = GameInstance(m)
            s = anchor_strategy(inst)
            assert s.is_total
            assert verify_winning(s, inst)

    def test_wins_wherever_defined_up_to_m8(self):
        for m in (2, 4, 6, 8):
            inst = GameInstance(m)
            assert verify_winning(anchor_strategy(inst), inst)

    def test_undefined_count_matches_pigeonhole(self):
        # Bob is undefined exactly when every anchor pairs with a
        # non-anchor; at m=8 both sets have four elements, giving 4! ways.
        s = anchor_strategy(GameInstance(8))
        anchors = anchor_indices(GameInstance(8))
        undefined = [
            y
            for y in enumerate_matchings(GameInstance(8))
            if not any(e.i in anchors and e.j in anchors for e in y)
        ]
        assert len(undefined) == 24
        assert matching_count(8) - len(s.bob) == 24
        assert all(not s.defined_on(y) for y in undefined)

    def test_bob_pairs_are_anchor_pairs_with_zero_b2(self):
        inst = GameInstance(6)
        s = anchor_strategy(inst)
        anchors = anchor_indices(inst)
        for y, (edge, b2) in s.bob.items():
            assert edge in y
            assert edge.i in anchors and edge.j in anchors
            assert b2.value == 0


class TestIndicatorString:
    def test_examples(self):
        assert str(indicator_string(0, 0, GameInstance(4))) == "01"
        assert str(indicator_string(0, 1, GameInstance(4))) == "11"
        assert str(indicator_string(1, 2, GameInstance(6))) == "110"

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            indicator_string(0, 2, GameInstance(4))
        with pytest.raises(ValidationError):
            indicator_string(-1, 0, GameInstance(4))

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_anchor_answer_projects_onto_pair_parities(self, m):
        # For every input, the indicator of positions (i, j) picks out of
        # Alice's anchor answer exactly the parity of x at the two anchor
        # indices: x_{2^i} xor x_{2^j}, and x_0 xor x_{2^j} when i == j.
        inst = GameInstance(m)
        s = anchor_strategy(inst)
        for xv in range(1 << m):
            x = BitString(xv, m)
            a = s.alice[x]
            for i in range(inst.n):
                for j in range(inst.n):
                    expected = (
                        x[(1 << i)] ^ x[(1 << j)] if i != j else x[0] ^ x[(1 << j)]
                    )
                    assert dot(indicator_string(i, j, inst), a) == expected


class TestSuccessAccounting:
    def test_m2_winning_strategy(self):
        s = hand_strategy_m2(lambda x0, x1: x0 ^ x1, 0)
        ratio = success(s, GameInstance(2))
        assert (ratio.wins, ratio.total) == (4, 4)

    def test_m2_constant_alice(self):
        s = hand_strategy_m2(lambda x0, x1: 0, 0)
        ratio = success(s, GameInstance(2))
        assert (ratio.wins, ratio.total) == (2, 4)

    def test_partial_strategy_rejected(self):
        s = anchor_strategy(GameInstance(8))
        with pytest.raises(ValidationError, match="total"):
            success(s, GameInstance(8))

    def test_instance_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            success(known_winning_strategy(4), GameInstance(6))

    def test_convex_mixtures_never_beat_the_best_component(self):
        # A randomized strategy is a mixture of deterministic ones; its
        # expected success is the same convex combination of their exact
        # successes, computed both ways with exact rationals.
        inst = GameInstance(2)
        strategies = [
            hand_strategy_m2(lambda x0, x1: x0 ^ x1, 0),
            hand_strategy_m2(lambda x0, x1: 0, 0),
            hand_strategy_m2(lambda x0, x1: 1, 1),
            hand_strategy_m2(lambda x0, x1: x0, 0),
        ]
        weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
        values = [success(s, inst).value for s in strategies]
        mixture = sum(w * v for w, v in zip(weights, values))
        # Question-by-question expectation of the mixture.
        per_question = Fraction(0)
        total = 0
        for xv in range(4):
            x = BitString(xv, 2)
            for y in enumerate_matchings(inst):
                total += 1
                for w, s in zip(weights, strategies):
                    edge, b2 = s.bob[y]
                    if wins_round(
                        inst,
                        Question(x=x, y=y),
                        Answer(edge=edge, a=s.alice[x], b2=b2),
                    ):
                        per_question += w
        assert per_question / total == mixture
        assert mixture <= max(values)


class TestVerifyAndCounterexamples:
    def losing_strategy_m4(self):
        inst = GameInstance(4)
        alice = {BitString(v, 4): BitString(0, 2) for v in range(16)}
        bob = {
            y: (y.edges[0], BitString(0, 2)) for y in enumerate_matchings(inst)
        }
        return DeterministicStrategy(4, alice, bob)

    def test_losing_strategy_detected(self):
        inst = GameInstance(4)
        s = self.losing_strategy_m4()
        assert not verify_winning(s, inst)

    def test_first_counterexample_in_canonical_order(self):
        inst = GameInstance(4)
        s = self.losing_strategy_m4()
        found = find_counterexample(s, inst)
        assert found == brute_first_losing_question(s, inst)
        x, y = found
        assert (str(x), str(y)) == ("0001", "0-3,1-2")
        for defined in (1.0, 0.5):
            for s in perturbed_strategies(defined):
                inst = GameInstance(s.m)
                assert find_counterexample(s, inst) == brute_first_losing_question(
                    s, inst
                )

    def test_winning_strategy_has_no_counterexample(self):
        inst = GameInstance(4)
        assert find_counterexample(known_winning_strategy(4), inst) is None


def random_strategy(m, rng, defined=1.0):
    """Random Alice and Bob tables; Bob defines each matching with probability
    ``defined`` (every matching when it is 1)."""
    n = GameInstance(m).n
    alice = {
        BitString(v, m): BitString(rng.randrange(1 << n), n) for v in range(1 << m)
    }
    bob = {
        y: (rng.choice(y.edges), BitString(rng.randrange(1 << n), n))
        for y in enumerate_matchings(GameInstance(m))
        if defined == 1.0 or rng.random() < defined
    }
    return PartialStrategy(m, alice, bob)


class TestPerEdgeScoring:
    """success and find_counterexample score each of Bob's edges in one pass."""

    def test_random_total_strategies_match_the_oracles(self):
        for m, count in ((4, 6), (6, 4), (8, 2)):
            inst = GameInstance(m)
            rng = random.Random(m)
            for _ in range(count):
                s = random_strategy(m, rng)
                assert success(s, inst).wins == brute_success_count(s, inst)
                assert find_counterexample(s, inst) == brute_first_losing_question(
                    s, inst
                )

    def test_partial_strategies_match_the_oracle(self):
        for m in (4, 6, 8):
            inst = GameInstance(m)
            rng = random.Random(10 + m)
            anchor = anchor_strategy(inst)
            cases = [anchor, random_strategy(m, rng, 0.3), random_strategy(m, rng, 0.05)]
            # the anchor's Alice against a random subset of its own Bob entries,
            # with one entry's b2 flipped so that some question loses
            kept = [(y, e) for y, e in anchor.bob.items() if rng.random() < 0.5]
            (y, (edge, b2)), rest = kept[0], kept[1:]
            d = edge.i ^ edge.j
            flipped = BitString(b2.value ^ (d & -d), b2.length)  # flips dot(d, b2)
            bob = dict(rest + [(y, (edge, flipped))])
            cases.append(PartialStrategy(m, anchor.alice, bob))
            for s in cases:
                assert find_counterexample(s, inst) == brute_first_losing_question(
                    s, inst
                )

    def test_tied_first_losses_go_to_the_smallest_matching(self):
        # With Alice all-zero and b2 zero, an answer {i, j} loses on x exactly
        # when x_i != x_j.  At x = 0001 (x_3 = 1) the answers 2-3 and 0-3 both
        # lose first, on different edges, and 0-1,2-3 precedes 0-3,1-2.
        inst = GameInstance(4)
        zero = BitString(0, 2)
        alice = {BitString(v, 4): zero for v in range(16)}
        entries = [("0-3,1-2", "0-3"), ("0-2,1-3", "0-2"), ("0-1,2-3", "2-3")]
        bob = {PerfectMatching.parse(y): (Edge.parse(e), zero) for y, e in entries}
        s = DeterministicStrategy(4, alice, bob)
        found = find_counterexample(s, inst)
        assert (str(found[0]), str(found[1])) == ("0001", "0-1,2-3")
        assert found == brute_first_losing_question(s, inst)


class TestStrategyValidation:
    def test_bob_edge_must_lie_in_matching(self):
        inst = GameInstance(4)
        alice = {BitString(v, 4): BitString(0, 2) for v in range(16)}
        bob = {PerfectMatching.parse("0-1,2-3"): (Edge(0, 2), BitString(0, 2))}
        with pytest.raises(ValidationError, match="not an edge"):
            PartialStrategy(4, alice, bob)

    def test_alice_must_cover_every_input(self):
        alice = {BitString(v, 4): BitString(0, 2) for v in range(15)}
        with pytest.raises(ValidationError, match="alice table"):
            PartialStrategy(4, alice, {})

    def test_widths_checked(self):
        alice = {BitString(v, 4): BitString(0, 3) for v in range(16)}
        with pytest.raises(ValidationError):
            PartialStrategy(4, alice, {})

    def test_total_constructor_requires_full_bob(self):
        alice = {BitString(v, 4): BitString(0, 2) for v in range(16)}
        with pytest.raises(ValidationError, match="bob table"):
            DeterministicStrategy(4, alice, {})


class TestAnchorAgainstKnownTables:
    @pytest.mark.parametrize("m", [4, 6])
    def test_alice_tables_coincide(self, m):
        assert known_winning_strategy(m).alice == anchor_strategy(GameInstance(m)).alice

    @pytest.mark.parametrize("m", [4, 6])
    def test_bob_entries_are_valid_anchor_choices(self, m):
        inst = GameInstance(m)
        anchors = anchor_indices(inst)
        for y, (edge, b2) in known_winning_strategy(m).bob.items():
            assert edge in y
            assert edge.i in anchors and edge.j in anchors
            assert b2.value == 0
