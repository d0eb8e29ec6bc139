"""Search over Bob tables: exact optimum for tiny m, completion, hill climbing.

The question count factors per matching, so for a fixed Bob table each input
x has an independent best answer for Alice.  Enumerating Bob tables and
best-responding with Alice is therefore enough for an exact optimum, and the
same evaluation drives the local search.  All reported successes are exact
integer counts; the numpy layer only accelerates the counting.

For m >= 8 no strategy wins everything, and the true optimum is not known;
hill climbing yields lower bounds only and is labeled as such by the CLI.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .game import BitString, GameInstance, _pair_parity
from .matchings import PerfectMatching, enumerate_matchings, matching_count
from .strategies import (
    BobEntry,
    DeterministicStrategy,
    PartialStrategy,
    SuccessRatio,
    _check_bob_entry,
    anchor_strategy,
)

__all__ = [
    "DEFAULT_BUDGET",
    "alice_best_response",
    "exact_optimum",
    "complete_anchor_strategy",
    "hill_climb",
]

DEFAULT_BUDGET = 2_000_000
_RESTART_EVERY = 64


class _SearchContext:
    """Per-m integer tables shared by every Bob-table evaluation.

    A Bob table is an int64 array ``pick`` over the canonical matchings:
    ``pick[k] = pos * 2^n + b2`` answers edge ``pos`` of matching k with b2.
    It is scored only through the histogram of (edge, dot(i ^ j, b2)) pairs.

    Win counts are read from one input per symmetry orbit.  The map
    x -> x ^ l_c ^ k*1^m, with l_c(i) = dot(i, c), shifts every x_i xor x_j
    by dot(i ^ j, c), so agree[x', a] = agree[x, a ^ c]: the 2^(n+1) inputs
    of an orbit have the same best count.  Each orbit holds exactly one input
    with x_0 = 0 and x_{2^k} = 0 for every k < n, so the win count is
    2^(n+1) times the sum of the best counts over those R = 2^(m-n-1)
    representatives.  The best answer itself is not shared: the smallest
    argmax of x need not map to the smallest argmax of x', so Alice's
    tie-broken choice is computed on all 2^m inputs, and only in strategy().
    """

    def __init__(self, inst: GameInstance):
        m, n = inst.m, inst.n
        self.inst = inst
        self.matchings = enumerate_matchings(inst)
        self.total = (1 << m) * len(self.matchings)
        self.choices = (m // 2) << n
        pairs = list(itertools.combinations(range(m), 2))
        edge_id = {pair: k for k, pair in enumerate(pairs)}
        # edge_ids[k, pos] = id of edge pos of matching k
        self.edge_ids = np.array(
            [[edge_id[e.i, e.j] for e in y.edges] for y in self.matchings],
            dtype=np.int64,
        )
        # row or column r = 2e + u stands for edge e = pairs[r >> 1] and bit u
        i, j = np.repeat(np.array(pairs, dtype=np.int64), 2, axis=0).T
        r = np.arange(len(i), dtype=np.int64)
        xs = np.arange(1 << m, dtype=np.int64)[:, None]
        # side[x, r] = 1 when x_i xor x_j == u
        self.side = (_pair_parity(xs, m, i, j) == (r & 1)).astype(np.int64)
        # the orbit representatives: x_0 = 0 and x_{2^k} = 0 for every k < n
        fixed = sum(1 << (m - 1 - p) for p in {0, *(1 << k for k in range(n))})
        self.reps = np.flatnonzero((xs[:, 0] & fixed) == 0)
        self.rep_side = self.side[self.reps]
        self.orbit = 1 << (n + 1)
        # flip[r, a] = 2e + (u xor dot(i ^ j, a)), so flip[2e, b2] is the
        # (edge, parity) slot of an answer with edge e and that b2
        parity = np.array([v.bit_count() & 1 for v in range(1 << n)], dtype=np.int64)
        self.flip = r[:, None] ^ parity[(i ^ j)[:, None] & np.arange(1 << n)]
        self.inputs = [BitString(v, m) for v in range(1 << m)]
        self.answers = [BitString(v, n) for v in range(1 << n)]

    def _agree(self, side: np.ndarray, pick: np.ndarray) -> np.ndarray:
        """agree[x, a]: matchings of Bob table ``pick`` that answer a wins on x.

        The table counts only through counts[2e + p], the number of matchings
        answered with edge e and parity p = dot(i ^ j, b2).  Alice's answer a
        on x wins such a matching when x_i xor x_j == p xor dot(i ^ j, a), so
        agree[x, a] = side[x] . counts[flip[:, a]], for the rows x of ``side``.
        """
        n = self.inst.n
        edge = np.take_along_axis(self.edge_ids, (pick >> n)[:, None], axis=1)[:, 0]
        slot = self.flip[2 * edge, pick & ((1 << n) - 1)]
        counts = np.bincount(slot, minlength=len(self.flip))
        return side @ counts[self.flip]

    def wins(self, pick: np.ndarray) -> int:
        """Best-response win count of Bob table ``pick``, over the representatives."""
        return self.orbit * int(self._agree(self.rep_side, pick).max(axis=1).sum())

    def pick_from_bob(self, bob: Mapping[PerfectMatching, BobEntry]) -> np.ndarray:
        if len(bob) != len(self.matchings):
            raise ValidationError(
                f"bob table covers {len(bob)} of {len(self.matchings)} matchings"
            )
        pick = np.empty(len(self.matchings), dtype=np.int64)
        for k, y in enumerate(self.matchings):
            entry = bob.get(y)
            if entry is None:
                raise ValidationError(f"bob table is missing matching {y}")
            _check_bob_entry(y, entry, self.inst)
            edge, b2 = entry
            pick[k] = (y.edges.index(edge) << self.inst.n) | b2.value
        return pick

    def strategy(self, pick: np.ndarray) -> tuple[DeterministicStrategy, int]:
        """Bob table ``pick`` with Alice best-responding, and its win count.

        Every input is scored here, and ties go to the smallest answer.
        """
        n = self.inst.n
        agree = self._agree(self.side, pick)
        choice = agree.argmax(axis=1).tolist()
        alice = dict(zip(self.inputs, map(self.answers.__getitem__, choice)))
        bob = {
            y: (y.edges[p >> n], self.answers[p & ((1 << n) - 1)])
            for y, p in zip(self.matchings, pick.tolist())
        }
        wins = int(agree.max(axis=1).sum())
        return DeterministicStrategy(self.inst.m, alice, bob), wins


@lru_cache(maxsize=None)
def _context(m: int) -> _SearchContext:
    return _SearchContext(GameInstance(m))


def alice_best_response(
    bob_table: Mapping[PerfectMatching, BobEntry], inst: GameInstance
) -> tuple[dict[BitString, BitString], SuccessRatio]:
    """Best Alice table against a fixed total Bob table, ties to smallest a.

    The returned success is the exact count achieved by that pair.
    """
    ctx = _context(inst.m)
    strategy, wins = ctx.strategy(ctx.pick_from_bob(bob_table))
    return strategy.alice, SuccessRatio(wins, ctx.total)


def exact_optimum(
    inst: GameInstance, budget: int = DEFAULT_BUDGET
) -> tuple[SuccessRatio, DeterministicStrategy]:
    """Exact maximum success over all deterministic strategies, with witness.

    Enumerates Bob tables (their count is the product over matchings of
    m/2 * 2^n) and best-responds with Alice; the witness is the first table
    attaining the maximum, i.e. the lexicographically smallest one.  Raises
    BudgetExceededError, reporting the space size, when the table count
    exceeds the budget; the size is compared in closed form, before any
    table is built.
    """
    choices, count = (inst.m // 2) << inst.n, matching_count(inst.m)
    # choices >= 2, so a count beyond the budget's bit length already exceeds it
    if count > budget.bit_length() or choices**count > budget:
        raise BudgetExceededError(choices, count, budget)
    ctx = _context(inst.m)
    best_wins, best_pick = -1, None
    for combo in itertools.product(range(choices), repeat=count):
        pick = np.array(combo, dtype=np.int64)
        wins = ctx.wins(pick)
        if wins > best_wins:
            best_wins, best_pick = wins, pick
            if wins == ctx.total:
                break
    strategy, _ = ctx.strategy(best_pick)
    return SuccessRatio(best_wins, ctx.total), strategy


def complete_anchor_strategy(
    inst: GameInstance,
    filler: Callable[[PerfectMatching], BobEntry] | None = None,
) -> DeterministicStrategy:
    """Total strategy: the anchor strategy plus a filler on skipped matchings.

    The default filler answers the first edge in canonical order with an
    all-zero b2.
    """
    base = anchor_strategy(inst)
    zero = BitString(0, inst.n)
    bob = dict(base.bob)
    for y in enumerate_matchings(inst):
        if y not in bob:
            bob[y] = filler(y) if filler is not None else (y.edges[0], zero)
    return DeterministicStrategy(inst.m, base.alice, bob)


def hill_climb(
    inst: GameInstance,
    seed: int,
    iterations: int,
    start: PartialStrategy | None = None,
    history: list[tuple[int, str]] | None = None,
) -> tuple[DeterministicStrategy, SuccessRatio]:
    """Seeded local search over Bob tables, Alice always best-responding.

    Each iteration either proposes a single-matching change to the current
    table, accepting strict improvements, or (every 64th iteration) restarts
    from a fresh random table.  The best table ever evaluated is returned
    with its exact success; for a fixed seed and iteration count the outcome
    is deterministic.  When ``history`` is a list, a (wins, kind) pair is
    appended for every evaluation, with kind one of "start", "restart",
    "accept", "reject".
    """
    if iterations < 0:
        raise ValidationError(f"iterations must be non-negative, got {iterations}")
    ctx = _context(inst.m)
    rng = random.Random(seed)
    size = len(ctx.matchings)

    def random_pick() -> np.ndarray:
        draws = [rng.randrange(ctx.choices) for _ in range(size)]
        return np.array(draws, dtype=np.int64)

    def note(wins: int, kind: str) -> None:
        if history is not None:
            history.append((wins, kind))

    current = ctx.pick_from_bob(start.bob) if start is not None else random_pick()
    cur_wins = ctx.wins(current)
    note(cur_wins, "start")
    best_wins, best_pick = cur_wins, current
    for it in range(iterations):
        if best_wins == ctx.total:
            break
        if it and it % _RESTART_EVERY == 0:
            current = random_pick()
            cur_wins = ctx.wins(current)
            note(cur_wins, "restart")
        else:
            k = rng.randrange(size)
            alt = rng.randrange(ctx.choices)
            while alt == current[k]:
                alt = rng.randrange(ctx.choices)
            candidate = current.copy()
            candidate[k] = alt
            wins = ctx.wins(candidate)
            if wins > cur_wins:
                note(wins, "accept")
                current, cur_wins = candidate, wins
            else:
                note(wins, "reject")
        if cur_wins > best_wins:
            best_wins, best_pick = cur_wins, current
    strategy, wins = ctx.strategy(best_pick)
    assert wins == best_wins
    return strategy, SuccessRatio(best_wins, ctx.total)
