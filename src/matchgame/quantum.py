"""Exact statevector simulation of the entangled strategy.

Alice and Bob share the maximally entangled pair of index registers,
sum_i |i>|i> / sqrt(m).  On input x Alice flips the sign of her component i
whenever x_i = 1, applies the n-fold two-valued Fourier (Hadamard) transform
and measures, obtaining a.  Bob measures his half in the matching basis
{(|i> +- |j>)/sqrt(2) : {i, j} in y}, obtaining an edge and a sign, and
encodes the sign into b2.  Every outcome with nonzero probability wins the
round; ``verify_always_wins`` checks that on the simulator rather than
assuming it.

Bob's outcome (edge {i, j}, sign s) leaves Alice's half in span{|i>, |j>},
and her amplitude on a is proportional to (-1)^(a.i) + (-1)^(u+s+a.j) with
u = x_i xor x_j.  It is nonzero exactly when s = u xor a.(i xor j), so for
each a every edge of y has one supported outcome, and all m*m/2 supported
outcomes share one probability, 2/m^2.  ``sample_round`` draws from that
rule without the simulator; ``joint_distribution`` stays the reference.

An outcome's probability and its verdict read x only through u, so they
depend on the question through (edge, u) alone.  ``verify_always_wins``
therefore simulates 2(m-1) questions that meet each of the m(m-1) pairs
(edge, u): every matching of the round-robin 1-factorisation of K_m, once
with x = 0 (u = 0 on every edge) and once with x set on each edge's smaller
endpoint (u = 1 on every edge).

Supported only for m a power of two, where Alice's transform exists; other
even m are rejected rather than approximated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedGameError, ValidationError, bounded_product, require_budget
from .game import (
    Answer,
    BitString,
    Edge,
    GameInstance,
    Question,
    _pair_parity,
    _parity,
    _require_bits,
    _require_vertices,
    wins_round,
)
from .matchings import PerfectMatching, _bounded_count

__all__ = [
    "StateVector",
    "OutcomeDistribution",
    "shared_state",
    "joint_distribution",
    "sample_round",
    "verify_always_wins",
]

_SUPPORT_EPS = 1e-12
_SUM_EPS = 1e-9

Outcome = tuple[BitString, Edge, BitString]


@dataclass(frozen=True)
class StateVector:
    """Joint amplitudes over |i>_Alice |j>_Bob as an (m, m) complex matrix."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
            raise ValidationError("amplitudes must form a square matrix")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"squared amplitudes sum to {norm}, not 1")

    @property
    def m(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over (a, edge, b2); support below 1e-12 is dropped."""

    probabilities: dict[Outcome, float]

    def __post_init__(self):
        probs = dict(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if any(p < 0 for p in probs.values()):
            raise ValidationError("probabilities must be nonnegative")
        total = sum(probs.values())
        if abs(total - 1.0) > _SUM_EPS:
            raise ValidationError(f"probabilities sum to {total}, not 1")

    def probability(self, a: BitString, edge: Edge, b2: BitString) -> float:
        return self.probabilities.get((a, edge, b2), 0.0)

    def items(self):
        return self.probabilities.items()

    def sorted_items(self) -> list[tuple[Outcome, float]]:
        return sorted(
            self.probabilities.items(),
            key=lambda kv: (kv[0][0].value, kv[0][1].i, kv[0][1].j, kv[0][2].value),
        )


def _require_power_of_two(inst: GameInstance) -> int:
    m = inst.m
    if m & (m - 1):
        raise UnsupportedGameError(
            f"the entangled strategy is implemented for m a power of two, not m={m}"
        )
    return m


def _require_question(inst: GameInstance, x: BitString, y: PerfectMatching) -> int:
    """m, once m is a power of two and (x, y) is a question of the game."""
    m = _require_power_of_two(inst)
    _require_bits(x, m, "x")
    _require_vertices(y, m)
    return m


def shared_state(inst: GameInstance) -> StateVector:
    """The shared state: amplitude 1/sqrt(m) on each |i>|i>, 0 elsewhere."""
    m = _require_power_of_two(inst)
    require_budget(bounded_product((m, m)), f"{m}*{m}", "{} amplitudes")
    amps = np.zeros((m, m), dtype=np.complex128)
    np.fill_diagonal(amps, 1.0 / math.sqrt(m))
    return StateVector(amps)


@lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    r = np.arange(1 << n)
    mat = np.where(_parity(n)[r[:, None] & r], -1.0, 1.0) / math.sqrt(1 << n)
    mat.setflags(write=False)
    return mat


def _matching_basis(y: PerfectMatching) -> tuple[np.ndarray, tuple[tuple[Edge, int], ...]]:
    """Rows of Bob's measurement basis plus (edge, sign bit) labels."""
    m = y.m
    rows = np.zeros((m, m))
    meta = []
    r = 0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for edge in y.edges:
        for sign_bit in (0, 1):
            rows[r, edge.i] = inv_sqrt2
            rows[r, edge.j] = inv_sqrt2 if sign_bit == 0 else -inv_sqrt2
            meta.append((edge, sign_bit))
            r += 1
    rows.setflags(write=False)
    return rows, tuple(meta)


def _sign_response(edge: Edge, sign_bit: int, n: int) -> BitString:
    """b2 with dot(enc(i) xor enc(j), b2) equal to the sign bit.

    Zero for the + outcome; for the - outcome a single one at the least
    significant position where the endpoint encodings differ.
    """
    if sign_bit == 0:
        return BitString(0, n)
    d = edge.i ^ edge.j
    return BitString(d & -d, n)


def _phased_state(inst: GameInstance, x: BitString) -> np.ndarray:
    psi = shared_state(inst).amplitudes.copy()
    signs = np.array([-1.0 if x[i] else 1.0 for i in range(inst.m)])
    return signs[:, None] * psi


def joint_distribution(
    inst: GameInstance,
    x: BitString,
    y: PerfectMatching,
    order: str = "bob-first",
) -> OutcomeDistribution:
    """Exact outcome distribution for one question.

    ``order`` selects which register is measured first.  The two orders act
    on disjoint subsystems, so their joint distributions agree; both are
    implemented so that the agreement can be asserted numerically.
    """
    _require_question(inst, x, y)
    psi = _phased_state(inst, x)
    basis, meta = _matching_basis(y)
    hadamard = _hadamard(inst.n)
    # outcome[a, col]: probability of Alice's a with Bob's basis row col
    if order == "bob-first":
        outcome = np.abs(hadamard @ (psi @ basis.T)) ** 2
    elif order == "alice-first":
        transformed = hadamard @ psi
        p_a = np.sum(np.abs(transformed) ** 2, axis=1)
        conditional = transformed / np.sqrt(p_a)[:, None]
        outcome = p_a[:, None] * np.abs(conditional @ basis.T) ** 2
    else:
        raise ValidationError(f"unknown measurement order {order!r}")
    probs: dict[Outcome, float] = {}
    answers = [BitString(av, inst.n) for av in range(inst.m)]
    for (edge, sign_bit), column in zip(meta, outcome.T.tolist()):
        b2 = _sign_response(edge, sign_bit, inst.n)
        for a, p in zip(answers, column):
            if p > _SUPPORT_EPS:
                probs[(a, edge, b2)] = p
    return OutcomeDistribution(probs)


def _supported_probability(m: int) -> float:
    """The simulator's float for each supported outcome: 2/m^2 up to rounding.

    It is built from the same factors, in the same order, as
    ``joint_distribution``'s (s*r)*s + (s*r)*s amplitude, so draws from it
    match draws from the simulated distribution bit for bit.
    """
    s = 1.0 / math.sqrt(m)
    r = 1.0 / math.sqrt(2.0)
    return (2 * ((s * r) * s)) ** 2


def sample_round(
    inst: GameInstance, x: BitString, y: PerfectMatching, rng_seed: int
) -> Answer:
    """Draw one outcome of the round; a fixed seed gives a fixed draw.

    The m*m/2 supported outcomes are taken in (a, edge) order, and the draw
    is the first whose running probability total exceeds a uniform u; a u at
    or above the float total falls to the last outcome.
    """
    m = _require_question(inst, x, y)
    require_budget(bounded_product((m, m)), f"{m}*{m}", "{} amplitudes")
    half = m // 2
    totals = np.cumsum(np.full(m * half, _supported_probability(m)))
    u = random.Random(rng_seed).random()
    k = min(int(np.searchsorted(totals, u, side="right")), m * half - 1)
    av, col = divmod(k, half)
    edge = y.edges[col]
    parity = _pair_parity(x.value, m, edge.i, edge.j)
    sign_bit = parity ^ (av & (edge.i ^ edge.j)).bit_count() & 1
    b2 = _sign_response(edge, sign_bit, inst.n)
    return Answer(edge=edge, a=BitString(av, inst.n), b2=b2)


def _covering_questions(m: int) -> list[tuple[BitString, PerfectMatching]]:
    """2(m-1) questions meeting every (edge, x_i xor x_j) pair of K_m.

    Round r of the round-robin 1-factorisation pairs r with m-1 and r+k with
    r-k (mod m-1); each matching is asked with x = 0 and with x set on the
    smaller endpoint of each of its edges.
    """
    questions = []
    for r in range(m - 1):
        edges = [Edge(r, m - 1)]
        edges += [Edge((r + k) % (m - 1), (r - k) % (m - 1)) for k in range(1, m // 2)]
        y = PerfectMatching(tuple(edges))
        smaller = {e.i for e in y.edges}
        ones = BitString.from_bits(int(v in smaller) for v in range(m))
        questions += [(BitString(0, m), y), (ones, y)]
    return questions


def verify_always_wins(inst: GameInstance) -> bool:
    """Check on the simulator that every supported outcome wins every question.

    The budget still counts all 2^m (m-1)!! questions; the simulated ones are
    the 2(m-1) covering questions, which decide all of them (module notes).
    """
    m = _require_power_of_two(inst)
    inputs = bounded_product(2 for _ in range(m))
    questions = bounded_product((inputs, _bounded_count(m)))
    require_budget(questions, f"2**{m} * {m - 1}!!", "{} questions")
    for x, y in _covering_questions(m):
        question = Question(x=x, y=y)
        dist = joint_distribution(inst, x, y)
        for (a, edge, b2), _ in dist.items():
            if not wins_round(inst, question, Answer(edge=edge, a=a, b2=b2)):
                return False
    return True
