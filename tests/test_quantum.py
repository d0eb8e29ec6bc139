"""Statevector simulation of the entangled strategy."""

import hashlib
import itertools
import math
import random
from collections import Counter, defaultdict

import numpy as np
import pytest

from matchgame import quantum
from matchgame.errors import UnsupportedGameError, ValidationError
from matchgame.game import BitString, Edge, GameInstance, Question, dot, wins_round
from matchgame.matchings import PerfectMatching, enumerate_matchings
from matchgame.quantum import (
    OutcomeDistribution,
    StateVector,
    _covering_questions,
    _supported_probability,
    joint_distribution,
    sample_round,
    shared_state,
    verify_always_wins,
)
from oracles import simulated_always_wins, simulated_draw, simulated_sample_round


def bits(text):
    return BitString.parse(text)


def random_question(rng, m):
    vertices = list(range(m))
    rng.shuffle(vertices)
    y = PerfectMatching(tuple(Edge(i, j) for i, j in zip(vertices[::2], vertices[1::2])))
    return BitString(rng.getrandbits(m), m), y


def all_questions(m):
    inst = GameInstance(m)
    return [(BitString(xv, m), y) for xv in range(1 << m) for y in enumerate_matchings(inst)]


def by_edge_and_parity(dist, x):
    """(edge, x_i xor x_j) -> {(a, b2): probability} over the supported outcomes."""
    out = defaultdict(dict)
    for (a, edge, b2), p in dist.items():
        out[(edge, x[edge.i] ^ x[edge.j])][(a, b2)] = p
    return out


class _FixedDraw:
    """Stands in for ``random.Random(seed)``: its one draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSharedState:
    def test_m2_amplitudes(self):
        amps = shared_state(GameInstance(2)).amplitudes
        expected = 1 / math.sqrt(2)
        assert amps[0, 0] == pytest.approx(expected)
        assert amps[1, 1] == pytest.approx(expected)
        assert amps[0, 1] == 0 and amps[1, 0] == 0

    def test_m4_diagonal(self):
        amps = shared_state(GameInstance(4)).amplitudes
        assert np.allclose(np.diag(amps), 0.5)
        assert np.count_nonzero(amps) == 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(UnsupportedGameError):
            shared_state(GameInstance(6))

    def test_norm_validated(self):
        with pytest.raises(ValidationError):
            StateVector(np.eye(2, dtype=complex))
        # unit norm, so only the shape check refuses it
        with pytest.raises(ValidationError, match="amplitudes must form a square matrix"):
            StateVector(np.full((2, 3), 1 / np.sqrt(6)))


class TestJointDistribution:
    def test_m2_all_zero_input(self):
        dist = joint_distribution(
            GameInstance(2), bits("00"), PerfectMatching.parse("0-1")
        )
        expected = {
            (bits("0"), Edge(0, 1), bits("0")): 0.5,
            (bits("1"), Edge(0, 1), bits("1")): 0.5,
        }
        assert set(dist.probabilities) == set(expected)
        for key, p in expected.items():
            assert dist.probability(*key) == pytest.approx(p, abs=1e-12)

    def test_support_characterization_m4(self):
        # Nonzero probability exactly on outcomes satisfying the parity
        # rule, uniformly 2/(m * 2^(n-1)) each.
        inst = GameInstance(4)
        for xv in range(16):
            x = BitString(xv, 4)
            for y in enumerate_matchings(inst):
                dist = joint_distribution(inst, x, y)
                supported = set(dist.probabilities)
                for (a, edge, b2), p in dist.items():
                    d = BitString(edge.i ^ edge.j, inst.n)
                    assert dot(d, a ^ b2) == x[edge.i] ^ x[edge.j]
                    assert p == pytest.approx(1 / 8, abs=1e-12)
                # Every rule-satisfying (a, edge) pair appears.
                count = 0
                for edge in y:
                    for av in range(4):
                        for b2 in (bits("00"), bits("01"), bits("10"), bits("11")):
                            a = BitString(av, 2)
                            d = BitString(edge.i ^ edge.j, inst.n)
                            if (a, edge, b2) in supported:
                                count += 1
                                assert dot(d, a ^ b2) == x[edge.i] ^ x[edge.j]
                assert count == len(supported) == 8

    def test_each_edge_seen_with_probability_two_over_m(self):
        inst = GameInstance(4)
        x = bits("0110")
        for y in enumerate_matchings(inst):
            dist = joint_distribution(inst, x, y)
            per_edge = defaultdict(float)
            for (a, edge, b2), p in dist.items():
                per_edge[edge] += p
            assert set(per_edge) == set(y.edges)
            for p in per_edge.values():
                assert p == pytest.approx(2 / 4, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        inst = GameInstance(8)
        x = bits("01101001")
        y = enumerate_matchings(inst)[17]
        dist = joint_distribution(inst, x, y)
        assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-9)

    def test_measurement_order_invariance_small(self):
        for m in (2, 4):
            inst = GameInstance(m)
            for xv in range(1 << m):
                x = BitString(xv, m)
                for y in enumerate_matchings(inst):
                    bob_first = joint_distribution(inst, x, y, order="bob-first")
                    alice_first = joint_distribution(inst, x, y, order="alice-first")
                    keys = set(bob_first.probabilities) | set(alice_first.probabilities)
                    for key in keys:
                        assert bob_first.probability(*key) == pytest.approx(
                            alice_first.probability(*key), abs=1e-9
                        )

    def test_global_flip_leaves_edge_parity_marginal_unchanged(self):
        inst = GameInstance(4)
        y = PerfectMatching.parse("0-2,1-3")
        for xv in range(16):
            x = BitString(xv, 4)

            def marginal(bitstring):
                dist = joint_distribution(inst, bitstring, y)
                agg = defaultdict(float)
                for (a, edge, b2), p in dist.items():
                    d = BitString(edge.i ^ edge.j, inst.n)
                    agg[(edge, dot(d, a ^ b2))] += p
                return agg

            before = marginal(x)
            after = marginal(x.complement())
            assert set(before) == set(after)
            for key in before:
                assert before[key] == pytest.approx(after[key], abs=1e-9)

    def test_shape_validation(self):
        inst = GameInstance(4)
        with pytest.raises(ValidationError):
            joint_distribution(inst, bits("011"), PerfectMatching.parse("0-1,2-3"))
        with pytest.raises(ValidationError):
            joint_distribution(inst, bits("0110"), PerfectMatching.parse("0-1"))
        with pytest.raises(ValidationError):
            joint_distribution(
                inst, bits("0110"), PerfectMatching.parse("0-1,2-3"), order="sideways"
            )

    def test_distribution_validation(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution({(bits("0"), Edge(0, 1), bits("0")): 0.5})
        with pytest.raises(ValidationError):
            OutcomeDistribution({(bits("0"), Edge(0, 1), bits("0")): -0.1,
                                 (bits("1"), Edge(0, 1), bits("1")): 1.1})


@pytest.mark.parametrize(
    "m,x,y",
    [
        pytest.param(6, "011010", "0-1,2-3,4-5", id="m6"),
        pytest.param(4, "011", "0-1,2-3", id="short-x"),
        pytest.param(4, "0110", "0-1", id="short-y"),
    ],
)
def test_bad_question_refused_alike(m, x, y):
    inst, question = GameInstance(m), (bits(x), PerfectMatching.parse(y))
    errors = []
    for call in (joint_distribution, lambda *q: sample_round(*q, 0)):
        with pytest.raises((UnsupportedGameError, ValidationError)) as exc:
            call(inst, *question)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]


class TestSampling:
    def test_deterministic_per_seed(self):
        inst = GameInstance(2)
        x, y = bits("01"), PerfectMatching.parse("0-1")
        first = sample_round(inst, x, y, 123)
        second = sample_round(inst, x, y, 123)
        assert first == second
        assert wins_round(inst, Question(x=x, y=y), first)

    def test_every_sample_wins(self):
        inst = GameInstance(4)
        x, y = bits("0110"), PerfectMatching.parse("0-2,1-3")
        question = Question(x=x, y=y)
        for seed in range(50):
            answer = sample_round(inst, x, y, seed)
            assert wins_round(inst, question, answer)

    def test_empirical_edge_frequencies(self):
        inst = GameInstance(4)
        x, y = bits("0110"), PerfectMatching.parse("0-2,1-3")
        freq = Counter()
        draws = 10_000
        for seed in range(draws):
            freq[sample_round(inst, x, y, seed).edge] += 1
        for edge in y:
            assert abs(freq[edge] / draws - 0.5) < 0.05


class TestSamplerMatchesSimulator:
    """``sample_round`` draws from the per-edge rule; the simulator decides."""

    @pytest.mark.parametrize("m", [2, 4])
    def test_every_question(self, m):
        inst = GameInstance(m)
        for x, y in all_questions(m):
            for seed in range(20):
                expected = simulated_sample_round(inst, x, y, seed)
                assert sample_round(inst, x, y, seed) == expected

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_random_questions(self, m):
        inst = GameInstance(m)
        rng = random.Random(m)
        for _ in range(25):
            x, y = random_question(rng, m)
            seed = rng.getrandbits(32)
            assert sample_round(inst, x, y, seed) == simulated_sample_round(inst, x, y, seed)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_draws_at_the_running_totals(self, monkeypatch, m):
        # u exactly at each running total, just below it, and past the total
        inst = GameInstance(m)
        x, y = random_question(random.Random(m), m)
        sims = joint_distribution(inst, x, y).sorted_items()
        totals = list(itertools.accumulate(p for _, p in sims))
        us = [v for t in totals for v in (t, math.nextafter(t, 0.0))]
        us += [math.nextafter(totals[-1], 1.0), math.nextafter(1.0, 0.0)]
        for u in us:
            monkeypatch.setattr(quantum.random, "Random", lambda seed, u=u: _FixedDraw(u))
            assert sample_round(inst, x, y, 0) == simulated_draw(inst, x, y, u)

    def test_supported_probability_is_the_simulators_float(self):
        rng = random.Random(64)
        for m in (2, 4, 8, 16, 32, 64):
            for _ in range(3):
                dist = joint_distribution(GameInstance(m), *random_question(rng, m))
                assert len(dist.probabilities) == m * m // 2
                assert set(dist.probabilities.values()) == {_supported_probability(m)}


class TestCoveringQuestions:
    def test_every_edge_and_parity_is_met(self):
        for m in range(2, 66, 2):
            questions = _covering_questions(m)
            assert len(questions) == 2 * (m - 1)
            assert all(len(x) == m and y.m == m for x, y in questions)
            met = {(e, x[e.i] ^ x[e.j]) for x, y in questions for e in y}
            pairs = itertools.combinations(range(m), 2)
            assert met == {(Edge(i, j), u) for i, j in pairs for u in (0, 1)}

    @pytest.mark.parametrize("m, count", [(4, None), (8, 100)])
    def test_outcomes_depend_on_the_question_only_through_edge_and_parity(self, m, count):
        inst = GameInstance(m)
        cover = {}
        for x, y in _covering_questions(m):
            cover.update(by_edge_and_parity(joint_distribution(inst, x, y), x))
        rng = random.Random(m)
        questions = all_questions(m) if count is None else [
            random_question(rng, m) for _ in range(count)
        ]
        for x, y in questions:
            per_pair = by_edge_and_parity(joint_distribution(inst, x, y), x)
            assert len(per_pair) == m // 2
            for key, outcomes in per_pair.items():
                assert outcomes == cover[key]


class TestVerifyAlwaysWins:
    @pytest.mark.parametrize("m", [2, 4])
    def test_agrees_with_every_question_simulated(self, m):
        inst = GameInstance(m)
        assert verify_always_wins(inst) is simulated_always_wins(inst) is True

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_b2_zero_mutant_is_caught(self, monkeypatch, m):
        monkeypatch.setattr(quantum, "_sign_response", lambda edge, s, n: BitString(0, n))
        inst = GameInstance(m)
        assert verify_always_wins(inst) is False
        if m <= 4:
            assert simulated_always_wins(inst) is False

    def test_m2(self):
        assert verify_always_wins(GameInstance(2))

    def test_m4(self):
        assert verify_always_wins(GameInstance(4))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(UnsupportedGameError):
            verify_always_wins(GameInstance(6))


# sha256 of repr(...) over 12 seeded questions per m (random_question with
# random.Random(18 + m)), captured before both measurement orders shared one
# support reader: "sorted" pins each order's sorted_items(), "items" pins the
# bob-first insertion order of items().
_DISTRIBUTION_PINS = {
    2: {
        "sorted": "cb76e46a3de06be38002d0efe4699353a7093681e73e0750f9667ebfbadd8803",
        "items": "8f5fd87a1c866590e0ebbaa72db3ab30c40ddd4af70ac84930741fef276597b6",
    },
    4: {
        "sorted": "a27b5eb9a39a454707b388a89004e33ad018afcbe559a41dc6858c9cae39fed8",
        "items": "9e561aa42b6779be5197d57244a4defc03a495b32247ff3feb41d423a83607bd",
    },
    8: {
        "sorted": "97ae4bfc45874dad69339f149dcfb6f31a3f2b166be7bbfcbbe9172c01267c9c",
        "items": "842620cf958c6fa0c7715b2916c715046d21597c07b94793bd6ad7b21565dde1",
    },
}


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestDistributionPinned:
    @pytest.mark.parametrize("m", sorted(_DISTRIBUTION_PINS))
    @pytest.mark.parametrize("order", ["bob-first", "alice-first"])
    def test_sorted_items(self, m, order):
        inst, rng = GameInstance(m), random.Random(18 + m)
        questions = [random_question(rng, m) for _ in range(12)]
        dists = [joint_distribution(inst, x, y, order).sorted_items() for x, y in questions]
        assert _sha(dists) == _DISTRIBUTION_PINS[m]["sorted"]

    @pytest.mark.parametrize("m", sorted(_DISTRIBUTION_PINS))
    def test_bob_first_insertion_order(self, m):
        inst, rng = GameInstance(m), random.Random(18 + m)
        questions = [random_question(rng, m) for _ in range(12)]
        dists = [list(joint_distribution(inst, x, y).items()) for x, y in questions]
        assert _sha(dists) == _DISTRIBUTION_PINS[m]["items"]

    @pytest.mark.parametrize("order", ["bob-first", "alice-first"])
    def test_support_cut_is_strict(self, monkeypatch, order):
        # An outcome whose probability equals the cut is dropped (the mass it
        # carries then fails the sum check); one just below the cut is kept.
        inst, x, y = GameInstance(4), bits("0110"), PerfectMatching.parse("0-2,1-3")
        dist = joint_distribution(inst, x, y, order)
        smallest = min(p for _, p in dist.items())
        monkeypatch.setattr(quantum, "_SUPPORT_EPS", smallest)
        with pytest.raises(ValidationError, match="sum to"):
            joint_distribution(inst, x, y, order)
        monkeypatch.setattr(quantum, "_SUPPORT_EPS", math.nextafter(smallest, 0))
        assert joint_distribution(inst, x, y, order).sorted_items() == dist.sorted_items()
