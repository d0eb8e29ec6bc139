"""Best responses, exhaustive optimum, completion, and hill climbing."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgame import search, strategies
from matchgame.errors import BudgetExceededError, ValidationError
from matchgame.game import BitString, Edge, GameInstance, _orbit_coordinates
from matchgame.matchings import PerfectMatching, enumerate_matchings, matching_count
from matchgame.search import (
    _context,
    _draws_below,
    alice_best_response,
    complete_anchor_strategy,
    exact_optimum,
    hill_climb,
)
from matchgame.strategies import (
    DeterministicStrategy,
    anchor_strategy,
    known_winning_strategy,
    success,
    verify_winning,
)
from matchgame.strategy_io import format_strategy
from oracles import full_product_best_response


def random_bob_table(inst, rng):
    n = inst.n
    bob = {}
    for y in enumerate_matchings(inst):
        edge = rng.choice(y.edges)
        bob[y] = (edge, BitString(rng.randrange(1 << n), n))
    return bob


def random_alice_table(inst, rng):
    return {
        BitString(v, inst.m): BitString(rng.randrange(1 << inst.n), inst.n)
        for v in range(1 << inst.m)
    }


class TestAliceBestResponse:
    def test_matches_exact_recount(self):
        # The fast evaluation and the round-by-round success count are two
        # independent routes to the same number.  From m = 6 on, an edge lies
        # in several matchings, so the (edge, parity) counts exceed 1.
        for m in (4, 6, 8):
            inst = GameInstance(m)
            rng = random.Random(5)
            for _ in range(20):
                bob = random_bob_table(inst, rng)
                alice, ratio = alice_best_response(bob, inst)
                recount = success(DeterministicStrategy(inst.m, alice, bob), inst)
                assert (ratio.wins, ratio.total) == (recount.wins, recount.total)

    def test_never_worse_than_any_fixed_alice(self):
        inst = GameInstance(4)
        rng = random.Random(6)
        for _ in range(20):
            bob = random_bob_table(inst, rng)
            _, best = alice_best_response(bob, inst)
            fixed = DeterministicStrategy(inst.m, random_alice_table(inst, rng), bob)
            assert success(fixed, inst).wins <= best.wins

    def test_per_input_choice_is_smallest_argmax(self):
        for m in (4, 6):
            inst = GameInstance(m)
            rng = random.Random(7)
            for _ in range(5):
                bob = random_bob_table(inst, rng)
                alice, _ = alice_best_response(bob, inst)
                for xv in range(1 << inst.m):
                    x = BitString(xv, inst.m)
                    counts = []
                    for av in range(1 << inst.n):
                        wins = 0
                        for e, b2 in bob.values():
                            lhs = x[e.i] ^ x[e.j]
                            rhs = ((e.i ^ e.j) & (av ^ b2.value)).bit_count() & 1
                            wins += lhs == rhs
                        counts.append(wins)
                    assert alice[x].value == counts.index(max(counts))

    def test_recovers_winning_alice_for_winning_bob(self):
        inst = GameInstance(4)
        alice, ratio = alice_best_response(known_winning_strategy(4).bob, inst)
        assert ratio.wins == ratio.total
        assert verify_winning(DeterministicStrategy(4, alice, known_winning_strategy(4).bob), inst)

    def test_m2_first_edge_bob(self):
        inst = GameInstance(2)
        y = enumerate_matchings(inst)[0]
        bob = {y: (y.edges[0], BitString(0, 1))}
        alice, ratio = alice_best_response(bob, inst)
        assert (ratio.wins, ratio.total) == (4, 4)
        assert alice[BitString.parse("01")] == BitString.parse("1")

    def test_partial_bob_rejected(self):
        inst = GameInstance(4)
        with pytest.raises(ValidationError):
            alice_best_response({}, inst)

    def test_bob_table_of_full_size_missing_a_matching_rejected(self):
        inst = GameInstance(4)
        bob = dict(known_winning_strategy(4).bob)
        missing = enumerate_matchings(inst)[0]
        del bob[missing]
        stranger = PerfectMatching.parse("0-1")
        bob[stranger] = (Edge(0, 1), BitString(0, 2))
        with pytest.raises(ValidationError, match="matching covers 2 vertices, expected 4"):
            alice_best_response(bob, inst)


class TestExactOptimum:
    def test_m2(self):
        ratio, witness = exact_optimum(GameInstance(2))
        assert (ratio.wins, ratio.total) == (4, 4)
        assert verify_winning(witness, GameInstance(2))

    def test_m4(self):
        ratio, witness = exact_optimum(GameInstance(4))
        assert (ratio.wins, ratio.total) == (48, 48)
        assert verify_winning(witness, GameInstance(4))

    def test_witness_is_deterministic(self):
        first = exact_optimum(GameInstance(4))
        second = exact_optimum(GameInstance(4))
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_m6_exceeds_default_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            exact_optimum(GameInstance(6))
        assert exc.value.space_size == 24**15

    def test_tight_budget_on_m4(self):
        with pytest.raises(BudgetExceededError):
            exact_optimum(GameInstance(4), budget=100)
        ratio, _ = exact_optimum(GameInstance(4), budget=512)
        assert ratio.wins == 48


class TestOrbitScoring:
    """The win count read from one input per orbit equals the full count."""

    def test_representatives_meet_every_orbit_once(self):
        # Applying all 2^(n+1) maps x -> x ^ l_c ^ k*1^m to the representatives
        # must reach each of the 2^m inputs exactly once.
        for m in (2, 4, 6, 8, 10):
            ctx = _context(m)
            n = ctx.inst.n
            reps = ctx.reps
            assert len(reps) == 1 << (m - n - 1)
            # rep_side[q, 2e + u] = [x_i xor x_j == u] for x = reps[q]
            pairs = list(itertools.combinations(range(m), 2))
            expected = [
                [int(x[i] ^ x[j] == u) for i, j in pairs for u in (0, 1)]
                for x in (BitString(v, m) for v in reps.tolist())
            ]
            assert ctx.rep_side.tolist() == expected
            assert ctx.orbit == 1 << (n + 1)
            images = []
            for c in range(1 << n):
                shift = sum(
                    ((i & c).bit_count() & 1) << (m - 1 - i) for i in range(m)
                )
                for k in (0, (1 << m) - 1):
                    images.extend((reps ^ shift ^ k).tolist())
            assert sorted(images) == list(range(1 << m))
            # x = rep ^ l_c ^ k*1^m, with k = x_0, c_b = x_{2^b} xor k and rep
            # one of the representatives
            rep, k, c = _orbit_coordinates(np.arange(1 << m), m)
            assert set(rep.tolist()) == set(reps.tolist())
            coords = zip(rep.tolist(), k.tolist(), c.tolist())
            for v, (r, kv, cv) in enumerate(coords):
                x, rx = BitString(v, m), BitString(r, m)
                assert kv == x[0]
                assert cv == sum((x[1 << b] ^ x[0]) << b for b in range(n))
                assert all(
                    x[i] == rx[i] ^ ((i & cv).bit_count() & 1) ^ kv for i in range(m)
                )

    def test_gathered_choice_equals_full_product(self):
        # Alice's table and the win count of strategy() against the argmax and
        # max-sum of the full 2^m x 2E product; the all-zero and all-last
        # tables are tie-heavy, so the smallest-answer rule is exercised.
        for m in range(2, 13, 2):
            ctx = _context(m)
            rng = random.Random(100 + m)
            size = len(ctx.matchings)
            picks = [
                np.zeros(size, dtype=np.int64),
                np.full(size, ctx.choices - 1, dtype=np.int64),
            ] + [
                np.array([rng.randrange(ctx.choices) for _ in range(size)], dtype=np.int64)
                for _ in range(3)
            ]
            for pick in picks:
                strategy, wins = ctx.strategy(pick)
                choice, full_wins = full_product_best_response(ctx.matchings, pick, m)
                assert wins == full_wins
                alice = [strategy.alice[BitString(v, m)].value for v in range(1 << m)]
                assert alice == choice

    def test_reduced_count_equals_full_count_and_recount(self):
        for m in (2, 4, 6, 8, 10):
            inst = GameInstance(m)
            ctx = _context(m)
            rng = random.Random(m)
            size = len(ctx.matchings)
            picks = [
                np.zeros(size, dtype=np.int64),
                np.full(size, ctx.choices - 1, dtype=np.int64),
            ] + [
                np.array([rng.randrange(ctx.choices) for _ in range(size)], dtype=np.int64)
                for _ in range(4)
            ]
            for pick in picks:
                strategy, full = ctx.strategy(pick)
                assert ctx.wins(pick) == full == success(strategy, inst).wins


@pytest.mark.parametrize("m", range(2, 13, 2))
def test_edge_ids_index_the_pairs(m):
    # edge_ids[k, pos]: edge pos of matching k as its index among the pairs i < j
    ctx = _context(m)
    index = {pair: k for k, pair in enumerate(itertools.combinations(range(m), 2))}
    expected = [[index[e.i, e.j] for e in y.edges] for y in ctx.matchings]
    assert ctx.edge_ids.dtype == np.int64
    assert ctx.edge_ids.tolist() == expected


class TestRankOneUpdate:
    """A proposal's rows, updated in place of a rebuild, equal the rebuilt ones."""

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_flip_is_its_own_inverse(self, m):
        # moved() reads the slots that flip[:, a] maps onto s as flip[s, a]
        flip = _context(m).flip
        rows = np.arange(len(flip))[:, None]
        assert (np.take_along_axis(flip, flip, axis=0) == rows).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.sampled_from([2, 4, 6, 8, 10]),
        seed=st.integers(0, 2**32 - 1),
        moves=st.lists(st.tuples(st.integers(0), st.integers(0)), min_size=1, max_size=4),
    )
    def test_moved_rows_equal_full_rescoring(self, m, seed, moves):
        ctx = _context(m)
        rng = random.Random(seed)
        pick = np.array(
            [rng.randrange(ctx.choices) for _ in ctx.matchings], dtype=np.int64
        )
        agree = ctx._agree(pick)
        for k, new in moves:
            k, new = k % len(pick), new % ctx.choices
            agree = ctx.moved(agree, k, int(pick[k]), new)
            pick = pick.copy()
            pick[k] = new
            assert (agree == ctx._agree(pick)).all()
            assert ctx.best(agree) == ctx.wins(pick)


class TestBatchedDraws:
    """_draws_below gives randrange's values and leaves the generator alike."""

    @pytest.mark.parametrize(
        "bound", [1, 2, 3, 32, 80, 96, 105, 128, 2**31, 2**32 - 1]
    )
    def test_equals_randrange(self, bound):
        for seed in range(100):
            for count in (1, 7, 945):
                ours, theirs = random.Random(seed), random.Random(seed)
                drawn = _draws_below(ours, bound, count)
                assert drawn.dtype == np.int64
                assert drawn.tolist() == [theirs.randrange(bound) for _ in range(count)]
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize("bound", [0, 2**32])
    def test_bound_out_of_range_refused(self, bound):
        with pytest.raises(ValueError, match="bound"):
            _draws_below(random.Random(0), bound, 3)


class TestCompleteAnchorStrategy:
    def test_m4_needs_no_filling(self):
        inst = GameInstance(4)
        completed = complete_anchor_strategy(inst)
        assert completed.bob == anchor_strategy(inst).bob
        assert success(completed, inst).value == 1

    def test_m6_needs_no_filling(self):
        inst = GameInstance(6)
        completed = complete_anchor_strategy(inst)
        assert completed.bob == anchor_strategy(inst).bob
        ratio = success(completed, inst)
        assert (ratio.wins, ratio.total) == (960, 960)

    def test_m8_fills_and_falls_short(self):
        inst = GameInstance(8)
        base = anchor_strategy(inst)
        completed = complete_anchor_strategy(inst)
        filled = matching_count(8) - len(base.bob)
        assert filled == 24
        ratio = success(completed, inst)
        assert ratio.total == 26880
        assert ratio.wins < ratio.total

    def test_custom_filler(self):
        inst = GameInstance(8)
        marker = BitString.parse("111")
        completed = complete_anchor_strategy(
            inst, filler=lambda y: (y.edges[-1], marker)
        )
        base = anchor_strategy(inst)
        for y, entry in completed.bob.items():
            if y in base.bob:
                assert entry == base.bob[y]
            else:
                assert entry == (y.edges[-1], marker)

    def test_enumerates_the_matchings_once(self, monkeypatch):
        calls = []

        def counted(inst):
            calls.append(inst.m)
            return enumerate_matchings(inst)

        monkeypatch.setattr(strategies, "enumerate_matchings", counted)
        monkeypatch.setattr(search, "enumerate_matchings", counted)
        complete_anchor_strategy(GameInstance(8))
        assert calls == [8]

    @pytest.mark.parametrize("m", [8, 10])
    def test_extends_the_anchor_strategy(self, m):
        inst = GameInstance(m)
        base = anchor_strategy(inst)
        completed = complete_anchor_strategy(inst)
        assert completed.alice == base.alice
        assert {y: completed.bob[y] for y in base.bob} == base.bob


class TestHillClimb:
    def test_m2_immediate_optimum(self):
        for seed in (0, 1, 2):
            _, ratio = hill_climb(GameInstance(2), seed=seed, iterations=5)
            assert ratio.value == 1

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            hill_climb(GameInstance(4), seed=0, iterations=-1)

    def test_iterations_must_be_an_integer(self):
        inst = GameInstance(4)
        assert hill_climb(inst, 0, np.int64(30)) == hill_climb(inst, 0, 30)
        with pytest.raises(ValidationError, match="iterations must be an integer"):
            hill_climb(inst, seed=0, iterations=2.5)

    def test_m4_reaches_optimum_with_restarts(self):
        for seed in range(10):
            strategy, ratio = hill_climb(GameInstance(4), seed=seed, iterations=512)
            assert (ratio.wins, ratio.total) == (48, 48)
            assert verify_winning(strategy, GameInstance(4))

    def test_deterministic_for_fixed_seed(self):
        a = hill_climb(GameInstance(8), seed=11, iterations=120)
        b = hill_climb(GameInstance(8), seed=11, iterations=120)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_reported_success_is_exact(self):
        inst = GameInstance(8)
        strategy, ratio = hill_climb(inst, seed=3, iterations=60)
        assert success(strategy, inst).wins == ratio.wins

    def test_accepted_moves_never_decrease(self):
        history = []
        hill_climb(GameInstance(8), seed=5, iterations=200, history=history)
        current = None
        accepts = 0
        for wins, kind in history:
            if kind in ("start", "restart"):
                current = wins
            elif kind == "accept":
                assert current is not None and wins > current
                current = wins
                accepts += 1
        assert accepts > 0, "walk never moved"

    def test_anchor_start_never_loses_ground(self):
        inst = GameInstance(8)
        start = complete_anchor_strategy(inst)
        base = success(start, inst)
        strategy, ratio = hill_climb(inst, seed=0, iterations=300, start=start)
        assert base.wins <= ratio.wins < ratio.total

    def test_m8_searched_strategies_all_fall_short(self):
        inst = GameInstance(8)
        history = []
        _, ratio = hill_climb(inst, seed=1, iterations=400, history=history)
        assert len(history) >= 400
        assert all(wins < ratio.total for wins, _kind in history)
        assert ratio.wins < ratio.total


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _climb(m, seed, iterations, anchor_start=False):
    def run(history):
        inst = GameInstance(m)
        start = complete_anchor_strategy(inst) if anchor_start else None
        strategy, ratio = hill_climb(
            inst, seed, iterations, start=start, history=history
        )
        return ratio, strategy

    return run


# Seeded search results recorded before the Bob table moved to entry-index
# arrays (the m = 10 and m = 12 climbs: before scoring moved to the (edge,
# parity) histogram): ratio, sha256 of the formatted strategy, sha256 of
# repr(history).
_GOLDEN = {
    "climb-m6-seed0": (
        _climb(6, 0, 300),
        "896/960",
        "7933a490e60fc4c31f37ef6e3c994f900d7b6cee822e57db4e0f0acb99325260",
        "f728e268659b1b970562ada6dc4617fb3fe6cc99263ad53b353c8bfc4990f3e7",
    ),
    "climb-m6-seed1": (
        _climb(6, 1, 300),
        "928/960",
        "ce78c0fa3975c5a53f562e9f3b35a208375f39b471052c13315250e9f58e7853",
        "58a34e7f708e99ce7fb597b5e1881e1e27bf67ed0b7f78d3a0469988f5157848",
    ),
    "climb-m6-seed2": (
        _climb(6, 2, 300),
        "864/960",
        "8731460c90efa3cee8a1bc14ece29b1e8fa6e595bca97895d3bd50c09cd46289",
        "311ef4101858ff2c3d56b3357ba0452e6cf66a39d01f4c762c748d29f29c2859",
    ),
    "climb-m8-seed0": (
        _climb(8, 0, 200),
        "17056/26880",
        "cc5b16f6ef209058926575b13d86afe62a123f80d3e3fdcdf6e2ca788800bd3d",
        "474d9b4583fb3f084be7d3859361942cb2c783ba2a5c1f66089ae6c6deb45f79",
    ),
    "climb-m8-seed1": (
        _climb(8, 1, 200),
        "16992/26880",
        "e2abbd965b4f75c94045da23d83e79f50569e98fe52a6fa9ab8f204f04636500",
        "fe63524cd2484a090fe9f7c9f72788480af7fba283c5db36004cc33d66b8ee35",
    ),
    "climb-m10-seed0": (
        _climb(10, 0, 40),
        "513280/967680",
        "153cfe1ed2098808229d2dcc3da0641f2b8dbb83dca1e60880df8ffcc620c9ae",
        "958036d270029a25034a1c45159824fbe5c2b6cbfc11fc542303718ad01e0288",
    ),
    "climb-m12-seed0": (
        _climb(12, 0, 2),
        "21617600/42577920",
        "02c4c24d26090fa4831c11a918171170b6de87e77af2706cfbfde43072de00e5",
        "875cc00b01642d1a288871eb2fa988ca18bfcd9b76e8d71394f78c667a2d14cd",
    ),
    "climb-m8-anchor-start": (
        _climb(8, 0, 100, anchor_start=True),
        "23808/26880",
        "49027f4314fc1d8241c68c90c4c9a2b325b875e3c136e3efe28b109842980220",
        "d549401f0fe990fd60ddf8547f6cf56617a3d8a6a3393d66658a40ef55567766",
    ),
    "omega-d-m4": (
        lambda history: exact_optimum(GameInstance(4)),
        "48/48",
        "85dcbfae182d2e87fa639fe301469efb0c9ec39c9238b4b0a6dbc1f206cbae39",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    # Climbs that cross the restart at iteration 64, where a fresh table is
    # drawn at choices = 80 (m = 10) and 96 (m = 12); recorded before random
    # tables were drawn in batches and proposals scored by a rank-one update.
    "climb-m10-seed1-restarts": (
        _climb(10, 1, 200),
        "521440/967680",
        "0d7b20ea21581f1b099a5f31445599de4d31a47cb6d133e0e376a7347c54b390",
        "43fb1b1344d4fe0f7d5f94a434568258930736e0f3593b0e5f0db776f6af66bc",
    ),
    "climb-m12-seed0-restarts": (
        _climb(12, 0, 70),
        "21642176/42577920",
        "bd59ddc714eb8c593e2c5bf573f7eb5cbe734b54231cd41a56049dde0b60eadd",
        "ed672c193bd102a6111140f3273fd64305d7ffdc10ad6f70fa4a6bdb770ac78a",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_seeded_search_matches_golden(case):
    run, ratio_text, strategy_sha, history_sha = _GOLDEN[case]
    history = []
    ratio, strategy = run(history)
    assert str(ratio) == ratio_text
    assert _sha256(format_strategy(strategy)) == strategy_sha
    assert _sha256(repr(history)) == history_sha
