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
from operator import attrgetter
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DEFAULT_BUDGET,
    SIZE_CAP,
    ValidationError,
    bounded_product,
    require_budget,
)
from .game import BitString, GameInstance, _integer, _orbit_coordinates, _pair_parity, _parity
from .matchings import PerfectMatching, _bounded_count, enumerate_matchings
from .strategies import (
    BobEntry,
    DeterministicStrategy,
    PartialStrategy,
    SuccessRatio,
    _anchor_tables,
    _bob_code,
    _require_table_budget,
    _require_total,
)

__all__ = [
    "DEFAULT_BUDGET",
    "alice_best_response",
    "exact_optimum",
    "complete_anchor_strategy",
    "hill_climb",
]

_RESTART_EVERY = 64


class _SearchContext:
    """Per-m integer tables shared by every Bob-table evaluation.

    A Bob table is an int64 array ``pick`` over the canonical matchings:
    ``pick[k] = pos * 2^n + b2`` answers edge ``pos`` of matching k with b2.
    Strategies store Bob's table in rank order, so a total strategy's
    ``bob_codes`` is its pick.  It is scored only through the histogram of
    (edge, dot(i ^ j, b2)) pairs.

    Win counts are read from one input per symmetry orbit.  The map
    x -> x ^ l_c ^ k*1^m, with l_c(i) = dot(i, c), shifts every x_i xor x_j
    by dot(i ^ j, c), so agree[x', a] = agree[x, a ^ c]: the 2^(n+1) inputs
    of an orbit have the same best count.  Each orbit holds exactly one input
    with x_0 = 0 and x_{2^k} = 0 for every k < n, so the win count is
    2^(n+1) times the sum of the best counts over those R = 2^(m-n-1)
    representatives.  Only those R rows are ever scored.  The best answer
    itself is not shared, since the smallest argmax of x need not map to the
    smallest argmax of x', so strategy() gathers each input's full row,
    agree[x, a] = agree_rep[rep(x), a ^ c(x)], from the representative rows
    and takes Alice's tie-broken choice from it.

    Changing one matching's answer moves one count down and one up, and
    moved() rescores it as that rank-one update of the agree rows.
    """

    def __init__(self, inst: GameInstance):
        _require_table_budget(inst)
        m, n = inst.m, inst.n
        self.inst = inst
        self.matchings = tuple(enumerate_matchings(inst))
        self.total = (1 << m) * len(self.matchings)
        self.choices = (m // 2) << n
        pairs = list(itertools.combinations(range(m), 2))
        # edge_ids[k, pos] = id of edge pos of matching k: (i, j)'s index in pairs
        edges = list(
            itertools.chain.from_iterable(map(attrgetter("edges"), self.matchings))
        )
        ei = np.fromiter(map(attrgetter("i"), edges), np.int64, len(edges))
        ej = np.fromiter(map(attrgetter("j"), edges), np.int64, len(edges))
        self.edge_ids = (ei * (2 * m - 1 - ei) // 2 + ej - ei - 1).reshape(-1, m // 2)
        # row or column r = 2e + u stands for edge e = pairs[r >> 1] and bit u
        i, j = np.repeat(np.array(pairs, dtype=np.int64), 2, axis=0).T
        r = np.arange(len(i), dtype=np.int64)
        rep, _, c = _orbit_coordinates(np.arange(1 << m, dtype=np.int64), m)
        # the orbit representatives: the inputs that are their own rep
        self.reps = np.flatnonzero(rep == np.arange(1 << m))
        # rep_side[q, r] = 1 when x_i xor x_j == u for x = reps[q]
        self.rep_side = (
            _pair_parity(self.reps[:, None], m, i, j) == (r & 1)
        ).astype(np.int64)
        self.orbit = 1 << (n + 1)
        # agree_rep.ravel()[gather[x, a]] = agree_rep[rep(x), a ^ c(x)]
        position = np.searchsorted(self.reps, rep)
        self.gather = (position << n)[:, None] | (c[:, None] ^ np.arange(1 << n))
        # flip[r, a] = 2e + (u xor dot(i ^ j, a)), so flip[2e, b2] is the
        # (edge, parity) slot of an answer with edge e and that b2
        self.flip = r[:, None] ^ _parity(n)[(i ^ j)[:, None] & np.arange(1 << n)]

    def _agree(self, pick: np.ndarray) -> np.ndarray:
        """agree_rep[q, a]: matchings of Bob table ``pick`` that a wins on reps[q].

        The table counts only through counts[2e + p], the number of matchings
        answered with edge e and parity p = dot(i ^ j, b2).  Alice's answer a
        on x wins such a matching when x_i xor x_j == p xor dot(i ^ j, a), so
        agree_rep[q, a] = rep_side[q] . counts[flip[:, a]].
        """
        slot = self._slot(np.arange(len(pick)), pick)
        counts = np.bincount(slot, minlength=len(self.flip))
        return self.rep_side @ counts[self.flip]

    def _slot(self, k, code):
        """flip[2e, b2]: the (edge, parity) slot of answer ``code`` to matching k."""
        n = self.inst.n
        return self.flip[2 * self.edge_ids[k, code >> n], code & ((1 << n) - 1)]

    def moved(self, agree: np.ndarray, k: int, old: int, new: int) -> np.ndarray:
        """``agree`` after matching k's answer moves from code ``old`` to ``new``.

        counts[s_old] falls and counts[s_new] rises by one.  flip[:, a] is its
        own inverse, so column a gains rep_side[:, flip[s_new, a]] and loses
        rep_side[:, flip[s_old, a]]: exactly the rows _agree() would return.
        """
        side, flip = self.rep_side, self.flip
        return agree - side[:, flip[self._slot(k, old)]] + side[:, flip[self._slot(k, new)]]

    def best(self, agree: np.ndarray) -> int:
        """Best-response win count of the representative rows ``agree``."""
        return self.orbit * int(agree.max(axis=1).sum())

    def wins(self, pick: np.ndarray) -> int:
        """Best-response win count of Bob table ``pick``, over the representatives."""
        return self.best(self._agree(pick))

    def strategy(self, pick: np.ndarray, agree_rep=None) -> tuple[DeterministicStrategy, int]:
        """Bob table ``pick`` with Alice best-responding, and its win count.

        Alice's answer on each input is the smallest argmax of its row,
        gathered from pick's representative rows ``agree_rep`` (_agree(pick) if None).
        """
        agree_rep = self._agree(pick) if agree_rep is None else agree_rep
        choice = agree_rep.ravel()[self.gather].argmax(axis=1)
        strategy = DeterministicStrategy(self.inst.m, choice, (self.matchings, pick))
        return strategy, self.best(agree_rep)


@lru_cache(maxsize=None)
def _context(m: int) -> _SearchContext:
    return _SearchContext(GameInstance(m))


def _draws_below(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """``[rng.randrange(bound) for _ in range(count)]``, drawn in batches.

    randrange(bound) takes the top bound.bit_length() bits of one 32-bit word
    per try and retries while they reach ``bound``.  Each value takes at least
    one word, so this draws one word per missing value, keeps those below
    ``bound`` and repeats: it never reads past randrange's last word, and the
    values and the generator state match randrange's (the tests pin this).
    """
    if not 1 <= bound < 1 << 32:
        raise ValueError(f"bound must be in [1, 2**32), got {bound}")
    shift = 32 - bound.bit_length()
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        need = count - done
        # getrandbits fills its result from the least significant word up
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values = np.frombuffer(words, dtype="<u4") >> shift
        values = values[values < bound]
        out[done : done + len(values)] = values
        done += len(values)
    return out


def alice_best_response(
    bob_table: Mapping[PerfectMatching, BobEntry], inst: GameInstance
) -> tuple[dict[BitString, BitString], SuccessRatio]:
    """Best Alice table against a fixed total Bob table, ties to smallest a.

    The returned success is the exact count achieved by that pair.
    """
    ctx = _context(inst.m)
    bob = DeterministicStrategy(inst.m, np.zeros(1 << inst.m, np.int64), bob_table)
    strategy, wins = ctx.strategy(bob.bob_codes)
    return dict(strategy.alice), SuccessRatio(wins, ctx.total)


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
    choices, count = (inst.m // 2) << inst.n, _bounded_count(inst.m)
    exponent = count if count < SIZE_CAP else f"{inst.m - 1}!!"
    space = bounded_product(choices for _ in range(count))
    require_budget(space, f"{choices}**{exponent}", "search space of {} tables", budget)
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
    alice, matchings, codes = _anchor_tables(inst)
    for k, y in enumerate(matchings):
        if codes[k] < 0:
            # code 0: the first edge with an all-zero b2
            codes[k] = 0 if filler is None else _bob_code(y, filler(y), inst.n)
    return DeterministicStrategy(inst.m, alice, (matchings, codes))


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

    Starts and restarts are scored in full, a proposal by the rank-one update
    of the current agree rows (_SearchContext.moved), with the same exact
    count.  Random tables come from _draws_below, CPython's randrange
    restated in batches, so the draws are one randrange call per matching.
    """
    # the closed-form checks before the context build, the size check first
    _require_table_budget(inst)
    iterations = _integer(iterations, "iterations")
    if iterations < 0:
        raise ValidationError(f"iterations must be non-negative, got {iterations}")
    if start is not None:
        _require_total(start, inst)
    ctx = _context(inst.m)
    rng = random.Random(seed)
    size = len(ctx.matchings)

    def note(wins: int, kind: str) -> None:
        if history is not None:
            history.append((wins, kind))

    current = _draws_below(rng, ctx.choices, size) if start is None else start.bob_codes
    agree = ctx._agree(current)
    cur_wins = ctx.best(agree)
    note(cur_wins, "start")
    best_wins, best_pick, best_agree = cur_wins, current, agree
    for it in range(iterations):
        if best_wins == ctx.total:
            break
        if it and it % _RESTART_EVERY == 0:
            current = _draws_below(rng, ctx.choices, size)
            agree = ctx._agree(current)
            cur_wins = ctx.best(agree)
            note(cur_wins, "restart")
        else:
            k = rng.randrange(size)
            old = int(current[k])
            alt = rng.randrange(ctx.choices)
            while alt == old:
                alt = rng.randrange(ctx.choices)
            moved = ctx.moved(agree, k, old, alt)
            wins = ctx.best(moved)
            if wins > cur_wins:
                note(wins, "accept")
                current = current.copy()  # best_pick may hold the old table
                current[k] = alt
                agree, cur_wins = moved, wins
            else:
                note(wins, "reject")
        if cur_wins > best_wins:
            best_wins, best_pick, best_agree = cur_wins, current, agree
    strategy, _ = ctx.strategy(best_pick, best_agree)
    return strategy, SuccessRatio(best_wins, ctx.total)
