"""Independent brute-force oracles the tests freeze expected values against.

Everything here deliberately avoids the library's fast paths: counts come
from plain enumeration or recursion, matchings from backtracking, and round
outcomes from the public adjudicator alone.  The quantum oracles read
everything from the statevector simulator, ``joint_distribution``.
"""

from __future__ import annotations

import functools
import itertools
import random
import re

import numpy as np

from matchgame.errors import (
    SIZE_CAP,
    SIZE_CAP_DIGITS,
    FormatError,
    ValidationError,
    bounded_product,
    field_error,
    require_budget,
)
from matchgame.game import (
    Answer,
    BitString,
    Edge,
    GameInstance,
    Question,
    _require_bits,
    _require_vertices,
    wins_round,
)
from matchgame.matchings import PerfectMatching, enumerate_matchings, matching_count
from matchgame.quantum import joint_distribution
from matchgame.strategies import DeterministicStrategy, PartialStrategy, _edge_position


def recursive_matching_count(m: int) -> int:
    """(m-1)!! by the pairing recursion: fix 0, choose its partner, recurse."""
    if m <= 0:
        return 1
    return (m - 1) * recursive_matching_count(m - 2)


def brute_color_count(g, h) -> int:
    """Count satisfying 0/1 vertex assignments by trying all 2^|V| of them."""
    edges = list(g.edges)
    count = 0
    for assignment in itertools.product((0, 1), repeat=g.vertex_count):
        if all(assignment[e.i] ^ assignment[e.j] == h[e] for e in edges):
            count += 1
    return count


def brute_color_strings(g, h) -> set[BitString]:
    """The satisfying assignments themselves, as bit strings c(0)..c(V-1)."""
    edges = list(g.edges)
    out = set()
    for assignment in itertools.product((0, 1), repeat=g.vertex_count):
        if all(assignment[e.i] ^ assignment[e.j] == h[e] for e in edges):
            out.add(BitString.from_bits(assignment))
    return out


def bounded_partitions(total: int, cap: int):
    """Integer partitions of total with parts at most cap, parts descending."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in bounded_partitions(total - first, first):
            yield (first,) + rest


def exists_all_cross_matching(labels: list[int]) -> bool:
    """Backtracking search for a perfect matching joining distinct labels only."""
    m = len(labels)
    if m % 2:
        return False

    def pair_up(unmatched: tuple[int, ...]) -> bool:
        if not unmatched:
            return True
        lo, rest = unmatched[0], unmatched[1:]
        for k, partner in enumerate(rest):
            if labels[lo] != labels[partner]:
                if pair_up(rest[:k] + rest[k + 1 :]):
                    return True
        return False

    return pair_up(tuple(range(m)))


def brute_first_losing_question(strategy, inst):
    """First losing question via wins_round alone, x ascending then matchings."""
    for xv in range(1 << inst.m):
        x = BitString(xv, inst.m)
        for y in enumerate_matchings(inst):
            entry = strategy.bob.get(y)
            if entry is None:
                continue
            edge, b2 = entry
            answer = Answer(edge=edge, a=strategy.alice[x], b2=b2)
            if not wins_round(inst, Question(x=x, y=y), answer):
                return x, y
    return None


def brute_success_count(strategy, inst) -> int:
    """Won-question count via wins_round alone."""
    wins = 0
    for xv in range(1 << inst.m):
        x = BitString(xv, inst.m)
        for y in enumerate_matchings(inst):
            edge, b2 = strategy.bob[y]
            answer = Answer(edge=edge, a=strategy.alice[x], b2=b2)
            if wins_round(inst, Question(x=x, y=y), answer):
                wins += 1
    return wins


def full_product_best_response(matchings, pick, m: int) -> tuple[list[int], int]:
    """Alice's smallest-argmax answers and the win count against Bob table
    ``pick`` (``pick[k] = pos * 2^n + b2`` over ``matchings``), from the full
    product agree = side @ counts[flip] over all 2^m inputs.

    side[x, 2e + u] = [x_i xor x_j == u]; counts[2e + p] counts the matchings
    answered with edge e and parity p = dot(i ^ j, b2); and
    flip[2e + u, a] = 2e + (u xor dot(i ^ j, a)).
    """
    n = (m - 1).bit_length()
    pairs = list(itertools.combinations(range(m), 2))
    counts = np.zeros(2 * len(pairs), dtype=np.int64)
    for y, p in zip(matchings, pick.tolist()):
        edge, b2 = y.edges[p >> n], p & ((1 << n) - 1)
        parity = ((edge.i ^ edge.j) & b2).bit_count() & 1
        counts[2 * pairs.index((edge.i, edge.j)) + parity] += 1
    # bits[x, i] = x_i, the text's i-th character of x
    bits = np.array(
        [[int(ch) for ch in str(BitString(v, m))] for v in range(1 << m)],
        dtype=np.int64,
    )
    i, j = np.array(pairs, dtype=np.int64).T
    differ = np.repeat(bits[:, i] ^ bits[:, j], 2, axis=1)
    side = (differ == np.tile([0, 1], len(pairs))).astype(np.int64)
    flip = np.array(
        [
            [2 * e + (u ^ (((i ^ j) & a).bit_count() & 1)) for a in range(1 << n)]
            for e, (i, j) in enumerate(pairs)
            for u in (0, 1)
        ],
        dtype=np.int64,
    )
    agree = side @ counts[flip]
    return agree.argmax(axis=1).tolist(), int(agree.max(axis=1).sum())


def simulated_draw(inst, x, y, u: float) -> Answer:
    """The outcome a uniform ``u`` selects from the simulated distribution:
    the first, in sorted order, whose running total exceeds ``u``, else the
    last."""
    acc = 0.0
    for (a, edge, b2), p in joint_distribution(inst, x, y).sorted_items():
        acc += p
        if u < acc:
            break
    return Answer(edge=edge, a=a, b2=b2)


def simulated_sample_round(inst, x, y, rng_seed: int) -> Answer:
    """One seeded round drawn from the simulator, one u per seed."""
    return simulated_draw(inst, x, y, random.Random(rng_seed).random())


def simulated_always_wins(inst) -> bool:
    """Every supported outcome of every one of the 2^m (m-1)!! questions wins."""
    for xv in range(1 << inst.m):
        x = BitString(xv, inst.m)
        for y in enumerate_matchings(inst):
            question = Question(x=x, y=y)
            for (a, edge, b2), _ in joint_distribution(inst, x, y).items():
                if not wins_round(inst, question, Answer(edge=edge, a=a, b2=b2)):
                    return False
    return True



def _reference_expect_count(fields, count, line_no, raw):
    if len(fields) > count:
        raise field_error("unexpected trailing text", line_no, raw, count)
    if len(fields) < count:
        raise field_error("truncated line", line_no, raw, len(fields))


def reference_parse_strategy(text: str):
    """Reference strategy-file parser, one field check after another.

    Every alice field is parsed to a BitString and goes through the field
    validators before it is stored, and every bob line is tested for a
    duplicate before it is inserted.  ``parse_strategy`` must return the same
    strategies and raise the same errors, at the same line and column.
    """
    inst: GameInstance | None = None
    # alice[x] = answer value or None; bob[y] = answer code, in file order
    alice: list[int | None] = []
    covered = 0
    bob: dict[PerfectMatching, int] = {}
    edges, bits = functools.cache(Edge.parse), functools.cache(BitString.parse)
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        word, at = fields[0], 0
        # Values go through the strategy types' own checks; ``at`` follows the
        # field being read, so their errors point at it.
        try:
            if word == "game":
                if inst is not None:
                    raise field_error("duplicate game header", line_no, raw, 0)
                _reference_expect_count(fields, 2, line_no, raw)
                at = 1
                match = re.fullmatch(r"m=([0-9]+)", fields[1])
                if not match:
                    raise field_error("expected m=<even integer>", line_no, raw, 1)
                digits = match.group(1).lstrip("0") or "0"
                if len(digits) > SIZE_CAP_DIGITS:
                    # too long to convert or to print: only its length is written
                    formula = f"2**m (m of {len(digits)} digits)"
                    require_budget(SIZE_CAP, formula, "{} alice lines")
                inst = GameInstance(int(digits))
                alice_lines = bounded_product(2 for _ in range(inst.m))
                require_budget(alice_lines, f"2**{inst.m}", "{} alice lines")
                alice = [None] * (1 << inst.m)
            elif inst is None:
                message = "strategy file must start with 'game m=<m>'"
                raise field_error(message, line_no, raw, 0)
            elif word == "alice":
                _reference_expect_count(fields, 4, line_no, raw)
                _, xtok, arrow, atok = fields
                if arrow != "->":
                    raise field_error("expected '->'", line_no, raw, 2)
                at = 1
                x = BitString.parse(xtok)
                at = 3
                a = bits(atok)
                at = 1
                _require_bits(x, inst.m, "alice input")
                at = 3
                _require_bits(a, inst.n, "alice output")
                if alice[x.value] is not None:
                    raise field_error(f"duplicate alice input {x}", line_no, raw, 1)
                alice[x.value] = a.value
                covered += 1
            elif word == "bob":
                _reference_expect_count(fields, 5, line_no, raw)
                _, ytok, arrow, etok, btok = fields
                if arrow != "->":
                    raise field_error("expected '->'", line_no, raw, 2)
                at = 1
                y = PerfectMatching(tuple(edges(part) for part in ytok.split(",")))
                _require_vertices(y, inst.m)
                at = 3
                pos = _edge_position(edges(etok), y)
                at = 4
                b2 = bits(btok)
                _require_bits(b2, inst.n, "b2")
                if y in bob:
                    raise field_error(f"duplicate bob input {y}", line_no, raw, 1)
                bob[y] = pos << inst.n | b2.value
            else:
                raise field_error(f"unknown directive {word!r}", line_no, raw, 0)
        except ValidationError as err:
            raise field_error(str(err), line_no, raw, at) from err
    if inst is None:
        raise FormatError("empty strategy file: missing 'game' header", 1, 1)
    if covered != 1 << inst.m:
        raise FormatError(
            f"alice lines cover {covered} of {1 << inst.m} inputs",
            line_no + 1,
            1,
        )
    total = len(bob) == matching_count(inst.m)
    cls = DeterministicStrategy if total else PartialStrategy
    return cls(inst.m, alice, (tuple(bob), list(bob.values())))
