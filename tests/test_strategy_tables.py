"""The stored form of a strategy: answer arrays, their checks, and the views."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgame import search
from matchgame.errors import BudgetExceededError, ValidationError
from matchgame.game import BitString, Edge, GameInstance
from matchgame.matchings import PerfectMatching, enumerate_matchings
from matchgame.search import (
    _context,
    alice_best_response,
    complete_anchor_strategy,
    hill_climb,
)
from matchgame.strategies import DeterministicStrategy, PartialStrategy, anchor_strategy
from matchgame.strategy_io import format_strategy, parse_strategy
from test_strategy_io import _sha256, _shuffled_file


def random_pick(ctx, rng):
    return np.array(
        [rng.randrange(ctx.choices) for _ in ctx.matchings], dtype=np.int64
    )


def m4_tables():
    """A valid m=4 table as arrays: Alice's answers, Bob's matchings and codes."""
    matchings = tuple(enumerate_matchings(GameInstance(4)))
    return np.arange(16) % 4, matchings, np.array([0, 5, 7])


class TestForms:
    @pytest.mark.parametrize("m", [4, 6, 8, 10])
    def test_dicts_context_and_file_give_one_strategy(self, m):
        inst, ctx = GameInstance(m), _context(m)
        n, mask = inst.n, (1 << inst.n) - 1
        pick = random_pick(ctx, random.Random(m))
        from_context, _ = ctx.strategy(pick)
        alice = {
            BitString(x, m): BitString(a, n)
            for x, a in enumerate(from_context.alice_values.tolist())
        }
        bob = {
            y: (y.edges[p >> n], BitString(p & mask, n))
            for y, p in zip(ctx.matchings, pick.tolist())
        }
        shuffled = list(bob.items())
        random.Random(0).shuffle(shuffled)
        from_dicts = DeterministicStrategy(m, alice, dict(shuffled))
        from_file = parse_strategy(format_strategy(from_context))
        assert from_dicts == from_context == from_file
        for s in (from_dicts, from_context, from_file):
            assert dict(s.alice) == alice and dict(s.bob) == bob
            assert s.alice == alice and s.bob == bob
            assert DeterministicStrategy(m, dict(s.alice), dict(s.bob)) == s

    def test_context_strategy_builds_no_entry_values(self, monkeypatch):
        ctx = _context(10)
        pick = random_pick(ctx, random.Random(1))
        built = []
        for cls in (BitString, Edge):
            post_init = cls.__post_init__

            def counted(self, post_init=post_init):
                built.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        strategy, _ = ctx.strategy(pick)
        assert built == []
        assert strategy.bob_matchings is ctx.matchings
        assert strategy.bob._index is None
        strategy.alice[BitString(5, 10)]
        assert built == ["BitString", "BitString"]


class TestImmutability:
    def test_caller_mutations_do_not_reach_the_strategy(self):
        s = complete_anchor_strategy(GameInstance(4))
        alice, bob = dict(s.alice), dict(s.bob)
        held = PartialStrategy(4, alice, bob)
        y = next(iter(bob))
        alice[BitString(0, 4)] = BitString(3, 2)
        bob[y] = (y.edges[1], BitString(3, 2))
        del bob[next(iter(s.bob))]
        assert held == s
        values, matchings, codes = m4_tables()
        from_arrays = PartialStrategy(4, values, (list(matchings), codes))
        values[0], codes[0] = 1, 1
        assert from_arrays.alice_values[0] == 0 and from_arrays.bob_codes[0] == 0

    def test_views_and_arrays_refuse_writes(self):
        s = complete_anchor_strategy(GameInstance(4))
        y = s.bob_matchings[0]
        with pytest.raises(TypeError):
            s.alice[BitString(0, 4)] = BitString(1, 2)
        with pytest.raises(TypeError):
            s.bob[y] = (y.edges[0], BitString(1, 2))
        for array in (s.alice_values, s.bob_codes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_views_answer_only_their_own_keys(self):
        s = complete_anchor_strategy(GameInstance(4))
        assert BitString(0, 5) not in s.alice and BitString(16, 5) not in s.alice
        assert PerfectMatching.parse("0-1") not in s.bob
        assert [] not in s.bob and "0-1,2-3" not in s.bob and 0 not in s.bob
        with pytest.raises(KeyError):
            s.bob[[]]
        with pytest.raises(KeyError):
            s.alice[BitString(0, 3)]
        with pytest.raises(KeyError):
            s.bob[PerfectMatching.parse("0-1,2-3,4-5")]


class TestStoredOrder:
    """Bob's table is stored in rank order, whatever order it was given in."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), m=st.sampled_from([2, 4, 6, 8]))
    def test_any_given_order_is_stored_by_rank(self, data, m):
        inst, ctx = GameInstance(m), _context(m)
        n, mask = inst.n, (1 << inst.n) - 1
        kept = sorted(data.draw(st.sets(st.integers(0, len(ctx.matchings) - 1))))
        codes = data.draw(
            st.lists(st.integers(0, ctx.choices - 1), min_size=len(kept), max_size=len(kept))
        )
        alice = np.random.default_rng(len(kept)).integers(0, 1 << n, 1 << m)
        matchings = tuple(ctx.matchings[k] for k in kept)
        canonical = PartialStrategy(m, alice, (matchings, codes))
        order = data.draw(st.permutations(range(len(kept))))
        ys, shuffled = [matchings[k] for k in order], [codes[k] for k in order]
        bob = {y: (y.edges[c >> n], BitString(c & mask, n)) for y, c in zip(ys, shuffled)}
        given_forms = (
            PartialStrategy(m, alice, bob),
            PartialStrategy(m, alice, (ys, np.array(shuffled, dtype=np.int64))),
            parse_strategy(_shuffled_file(canonical, len(order))),
        )
        for s in given_forms:
            ranks = [y.rank for y in s.bob_matchings]
            assert ranks == sorted(set(ranks)) == [ctx.matchings[k].rank for k in kept]
            assert s.bob_codes.tolist() == codes
            assert not s.bob_codes.flags.writeable
            assert dict(s.bob) == bob and np.array_equal(s.alice_values, alice)
            assert s == canonical

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_alice_best_response_scores_the_table_as_the_context_does(self, m):
        inst, ctx = GameInstance(m), _context(m)
        pick = random_pick(ctx, random.Random(m))
        expected, wins = ctx.strategy(pick)
        entries = list(expected.bob.items())
        random.Random(1).shuffle(entries)
        alice, ratio = alice_best_response(dict(entries), inst)
        assert alice == dict(expected.alice)
        assert (ratio.wins, ratio.total) == (wins, ctx.total)

    def test_equal_codes_on_other_matchings_compare_unequal(self):
        values, matchings, codes = m4_tables()
        first = PartialStrategy(4, values, (matchings[:2], codes[:2]))
        other = PartialStrategy(4, values, (matchings[::2], codes[:2]))
        assert first != other
        assert first == PartialStrategy(4, values, (matchings[1::-1], codes[1::-1]))


class TestArrayChecks:
    def test_valid_extremes_accepted(self):
        values, matchings, codes = m4_tables()
        values[0], codes[0] = 3, 7  # answer 2^n - 1; last edge with b2 2^n - 1
        s = DeterministicStrategy(4, values, (matchings, codes))
        assert s.alice[BitString(0, 4)] == BitString(3, 2)
        assert s.bob[matchings[0]] == (Edge(2, 3), BitString(3, 2))

    @pytest.mark.parametrize("answer", [4, -1])
    def test_alice_answer_out_of_range_refused(self, answer):
        values, matchings, codes = m4_tables()
        values[9] = answer
        with pytest.raises(ValidationError, match="alice answer .* on input 1001"):
            PartialStrategy(4, values, (matchings, codes))

    def test_edge_position_of_half_m_refused(self):
        values, matchings, codes = m4_tables()
        codes[1] = 2 << 2  # position m/2 = 2, b2 = 0
        with pytest.raises(ValidationError, match="bob answer code 8 on 0-2,1-3"):
            PartialStrategy(4, values, (matchings, codes))

    def test_b2_of_two_to_the_n_refused(self):
        # b2 is the low n bits of a code, so b2 = 2^n on the last position
        # carries into a position of m/2
        values, matchings, codes = m4_tables()
        codes[2] = (1 << 2) + (1 << 2)
        with pytest.raises(ValidationError, match="bob answer code 8 on 0-3,1-2"):
            PartialStrategy(4, values, (matchings, codes))

    def test_negative_code_refused(self):
        values, matchings, codes = m4_tables()
        codes[0] = -1
        with pytest.raises(ValidationError, match="bob answer code -1"):
            PartialStrategy(4, values, (matchings, codes))

    def test_duplicate_matching_refused(self):
        values, matchings, codes = m4_tables()
        repeated = (matchings[0], matchings[1], PerfectMatching.parse("0-2,1-3"))
        with pytest.raises(ValidationError, match="duplicate bob input 0-2,1-3"):
            PartialStrategy(4, values, (repeated, codes))

    def test_first_repeat_in_input_order_is_named(self):
        # 0-3,1-2 repeats before 0-1,2-3 does, although its rank is larger
        values, matchings, _ = m4_tables()
        repeated = (matchings[2], matchings[0], matchings[2], matchings[0])
        with pytest.raises(ValidationError, match="duplicate bob input 0-3,1-2$"):
            PartialStrategy(4, values, (repeated, np.zeros(4, dtype=np.int64)))

    def test_matching_of_another_size_refused(self):
        values, matchings, codes = m4_tables()
        stranger = (matchings[0], PerfectMatching.parse("0-1"), matchings[2])
        with pytest.raises(ValidationError, match="covers 2 vertices, expected 4"):
            PartialStrategy(4, values, (stranger, codes))

    def test_shapes_and_dtypes_checked(self):
        values, matchings, codes = m4_tables()
        with pytest.raises(ValidationError, match="alice table has 15 entries"):
            PartialStrategy(4, values[:15], (matchings, codes))
        # 16 rows pass the length check; only the shape check refuses them
        with pytest.raises(ValidationError, match=r"alice table has shape \(16, 1\)"):
            PartialStrategy(4, values.reshape(16, 1), (matchings, codes))
        with pytest.raises(ValidationError, match="3 matchings but 2 answer codes"):
            PartialStrategy(4, values, (matchings, codes[:2]))
        with pytest.raises(ValidationError, match="alice answers must be integers"):
            PartialStrategy(4, values.astype(float), (matchings, codes))
        with pytest.raises(ValidationError, match="bob input must be a PerfectMatching"):
            PartialStrategy(4, values, (("0-1,2-3",) + matchings[1:], codes))


class TestEntryTypes:
    """A Mapping entry of the wrong type is refused with its field's name."""

    def alice(self):
        return {BitString(v, 4): BitString(0, 2) for v in range(16)}

    def test_alice_input(self):
        alice = {v: BitString(0, 2) for v in range(16)}
        with pytest.raises(ValidationError, match="alice input must be a BitString, got int"):
            PartialStrategy(4, alice, {})

    def test_alice_output(self):
        alice = {**self.alice(), BitString(3, 4): 0}
        with pytest.raises(ValidationError, match="alice output must be a BitString, got int"):
            PartialStrategy(4, alice, {})

    def test_bob_input(self):
        bob = {"0-1,2-3": (Edge(0, 1), BitString(0, 2))}
        with pytest.raises(ValidationError, match="bob input must be a PerfectMatching, got str"):
            PartialStrategy(4, self.alice(), bob)

    @pytest.mark.parametrize(
        "entry",
        [Edge(0, 1), (Edge(0, 1), 0), ((0, 1), BitString(0, 2)), (Edge(0, 1),)],
    )
    def test_bob_output(self, entry):
        bob = {PerfectMatching.parse("0-1,2-3"): entry}
        with pytest.raises(ValidationError, match="bob output on 0-1,2-3 must be"):
            PartialStrategy(4, self.alice(), bob)


class TestHillClimbStart:
    def test_start_for_another_m_refused_before_the_context_build(self, monkeypatch):
        start = complete_anchor_strategy(GameInstance(8))
        monkeypatch.setattr(search, "_context", None)
        with pytest.raises(ValidationError, match="strategy is for m=8, instance has m=10"):
            hill_climb(GameInstance(10), 0, 2, start=start)
        # the size check, then the iteration check, come first
        with pytest.raises(BudgetExceededError):
            hill_climb(GameInstance(16), 0, 2, start=start)
        with pytest.raises(ValidationError, match="non-negative"):
            hill_climb(GameInstance(10), 0, -1, start=start)

    def test_start_of_the_right_m_is_climbed_from(self):
        inst = GameInstance(8)
        start = complete_anchor_strategy(inst)
        history = []
        strategy, ratio = hill_climb(inst, 0, 0, start=start, history=history)
        assert strategy.bob == start.bob
        assert history == [(ratio.wins, "start")]

    def test_partial_start_refused(self):
        inst = GameInstance(8)
        message = "bob table covers 81 of 105 matchings"
        with pytest.raises(ValidationError, match=message):
            hill_climb(inst, 0, 2, start=anchor_strategy(inst))

    # ratio, sha256 of the formatted strategy and of repr(history), recorded
    # while a start went through pick_from_bob
    @pytest.mark.parametrize(
        "m,seed,iters,ratio,strategy_sha,history_sha",
        [
            (
                6, 2, 40, "864/960",
                "1485c49aaf6497db85f5f8b618294414323ee6b7a719b1342465bfd8b661a681",
                "d7d126c996c7b61e5734334d006ca7e314750d199fde3b5179c78e773f084daf",
            ),
            (
                8, 3, 60, "16256/26880",
                "d4a762782b5ab70de5f57a59e098586f538b180667e448001c50ad4bd57839b7",
                "707df36aca4b7e8256b5cbf20bea62390aedee563660011dec2d6c72dcd85422",
            ),
            (
                10, 5, 8, "516064/967680",
                "c25a56faffdc88fd2aa43ce80c54fb3612145318d3fba3a3c274b0291ed01c5e",
                "160593ba895b5d9cc9be6871b336f25086973cc6262c8ef8c1693d06a10a19ed",
            ),
        ],
    )
    def test_climbs_from_canonical_and_shuffled_starts_are_pinned(
        self, m, seed, iters, ratio, strategy_sha, history_sha
    ):
        inst = GameInstance(m)
        first, _ = hill_climb(inst, 1, 3)
        for start in (first, parse_strategy(_shuffled_file(first, m))):
            history = []
            strategy, got = hill_climb(inst, seed, iters, start=start, history=history)
            assert str(got) == ratio
            assert _sha256(format_strategy(strategy)) == strategy_sha
            assert _sha256(repr(history)) == history_sha
