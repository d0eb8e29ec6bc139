"""Deterministic strategies and their exact, rational success accounting.

A deterministic strategy is a pair of lookup tables: Alice's, total over all
2^m inputs, and Bob's over perfect matchings.  Bob's table may be partial;
wherever it is defined his chosen edge must lie in the matching.  Success is
counted question by question and kept as an exact fraction, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .errors import UnsupportedGameError, ValidationError, bounded_product, require_budget
from .game import (
    BitString,
    Edge,
    GameInstance,
    _orbit_coordinates,
    _pair_parity,
    _require_bits,
    _require_vertices,
)
from .matchings import (
    PerfectMatching,
    _bounded_count,
    _canonical_key,
    enumerate_matchings,
    matching_count,
)

__all__ = [
    "BobEntry",
    "SuccessRatio",
    "PartialStrategy",
    "DeterministicStrategy",
    "success",
    "verify_winning",
    "find_counterexample",
    "anchor_indices",
    "anchor_strategy",
    "indicator_string",
    "known_winning_strategy",
]

BobEntry = tuple[Edge, BitString]


@dataclass(frozen=True, slots=True)
class SuccessRatio:
    """Exact wins over total questions; total is 2^m * (m-1)!!.

    Kept as raw counts so denominators never round; ``value`` reduces them.
    """

    wins: int
    total: int

    def __post_init__(self):
        if self.total <= 0:
            raise ValidationError("total question count must be positive")
        if not 0 <= self.wins <= self.total:
            raise ValidationError(f"wins {self.wins} outside 0..{self.total}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.wins, self.total)

    def __str__(self) -> str:
        return f"{self.wins}/{self.total}"


def _require_edge(edge: Edge, y: PerfectMatching) -> None:
    if edge not in y:
        raise ValidationError(f"bob output {edge} is not an edge of {y}")


def _check_bob_entry(y: PerfectMatching, entry: BobEntry, m: int, n: int) -> None:
    """Raise ValidationError unless ``entry`` is a legal answer of Bob's to y."""
    edge, b2 = entry
    _require_vertices(y, m)
    _require_edge(edge, y)
    _require_bits(b2, n, "b2")


class PartialStrategy:
    """Total Alice table plus a Bob table that may skip some matchings.

    Treat instances as immutable once built; every consumer relies on that,
    and it is what makes them safe to share across workers.
    """

    __slots__ = ("m", "alice", "bob")

    def __init__(
        self,
        m: int,
        alice: Mapping[BitString, BitString],
        bob: Mapping[PerfectMatching, BobEntry],
    ):
        n = GameInstance(m).n
        if len(alice) != 1 << m:
            raise ValidationError(
                f"alice table has {len(alice)} entries, needs {1 << m}"
            )
        for x, a in alice.items():
            _require_bits(x, m, "alice input")
            _require_bits(a, n, "alice output")
        for y, entry in bob.items():
            _check_bob_entry(y, entry, m, n)
        self.m = m
        self.alice = dict(alice)
        self.bob = dict(bob)

    def defined_on(self, y: PerfectMatching) -> bool:
        return y in self.bob

    @property
    def is_total(self) -> bool:
        return len(self.bob) == matching_count(self.m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialStrategy):
            return NotImplemented
        return (
            self.m == other.m and self.alice == other.alice and self.bob == other.bob
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} m={self.m}"
            f" bob={len(self.bob)}/{matching_count(self.m)}>"
        )


class DeterministicStrategy(PartialStrategy):
    """Strategy whose Bob table covers every perfect matching."""

    __slots__ = ()

    def __init__(self, m, alice, bob):
        super().__init__(m, alice, bob)
        if not self.is_total:
            raise ValidationError(
                f"bob table covers {len(self.bob)} of {matching_count(m)} matchings"
            )


def _require_instance(strategy: PartialStrategy, inst: GameInstance) -> None:
    if strategy.m != inst.m:
        raise ValidationError(
            f"strategy is for m={strategy.m}, instance has m={inst.m}"
        )


def _require_total(strategy: PartialStrategy, inst: GameInstance) -> None:
    _require_instance(strategy, inst)
    if not strategy.is_total:
        raise ValidationError(
            "operation needs a total strategy; this partial one leaves"
            f" {matching_count(inst.m) - len(strategy.bob)} matchings undefined"
        )


def _alice_values(alice: Mapping[BitString, BitString], m: int) -> np.ndarray:
    """Alice's answer values as an int64 array over x ascending."""
    avals = np.empty(1 << m, dtype=np.int64)
    avals[[x.value for x in alice]] = [a.value for a in alice.values()]
    return avals


_ByParity = tuple[list[PerfectMatching], list[PerfectMatching]]


def _flips_by_edge(
    strategy: PartialStrategy, inst: GameInstance
) -> Iterator[tuple[_ByParity, np.ndarray]]:
    """Bob's table grouped by edge: ((ys with p = 0, ys with p = 1), flip).

    An answer (edge {i, j}, b2) counts only through its edge and the parity
    p = dot(i ^ j, b2).  ``flip[x]``, over x ascending, is
    x_i xor x_j xor dot(i ^ j, alice[x]), so the answer wins (x, y) exactly
    where flip[x] == p.  One pass over the 2^m inputs per distinct edge.
    """
    m = inst.m
    groups: dict[Edge, _ByParity] = {}
    for y, (edge, b2) in strategy.bob.items():
        p = ((edge.i ^ edge.j) & b2.value).bit_count() & 1
        groups.setdefault(edge, ([], []))[p].append(y)
    xs = np.arange(1 << m, dtype=np.int64)
    avals = _alice_values(strategy.alice, m)
    # parity[v] = popcount(v) mod 2 for every n-bit v
    parity = np.array([v.bit_count() & 1 for v in range(1 << inst.n)], dtype=np.int64)
    for (i, j), by_parity in groups.items():
        yield by_parity, _pair_parity(xs, m, i, j) ^ parity[(i ^ j) & avals]


def success(strategy: PartialStrategy, inst: GameInstance) -> SuccessRatio:
    """Exact number of won questions out of all 2^m * (m-1)!! of them.

    Per edge of Bob's, the answers of parity 1 win on the inputs where flip
    is 1 and those of parity 0 on the rest (see _flips_by_edge).
    """
    _require_total(strategy, inst)
    size = 1 << inst.m
    wins = 0
    for (even, odd), flip in _flips_by_edge(strategy, inst):
        ones = int(np.count_nonzero(flip))
        wins += len(even) * (size - ones) + len(odd) * ones
    return SuccessRatio(wins, size * matching_count(inst.m))


def find_counterexample(
    strategy: PartialStrategy, inst: GameInstance
) -> tuple[BitString, PerfectMatching] | None:
    """First losing question in canonical order, or None.

    Canonical order is x ascending, then matchings in enumeration order,
    which is lexicographic on edge sequences: the smallest first losing x
    over Bob's answers, tied toward the lexicographically smallest matching.
    An answer of parity p first loses at the first x with flip[x] != p (see
    _flips_by_edge), so each edge's answers need one pass.  Questions where
    Bob is undefined are skipped.
    """
    _require_instance(strategy, inst)
    losses = []
    for by_parity, flip in _flips_by_edge(strategy, inst):
        for p, ys in enumerate(by_parity):
            if ys:
                lost = flip != p
                if lost.any():
                    losses.append((int(lost.argmax()), ys))
    if not losses:
        return None
    first = min(xv for xv, _ in losses)
    tied = (y for xv, ys in losses if xv == first for y in ys)
    return BitString(first, inst.m), min(tied, key=_canonical_key)


def verify_winning(strategy: PartialStrategy, inst: GameInstance) -> bool:
    """True when every question on which the strategy is defined is won."""
    return find_counterexample(strategy, inst) is None


def anchor_indices(inst: GameInstance) -> frozenset[int]:
    """The index set {0} united with the powers of two below m."""
    return frozenset({0} | {1 << k for k in range(inst.n)})


def _require_table_budget(inst: GameInstance) -> None:
    """Bound a build of an Alice table and a total Bob table."""
    m = inst.m
    entries = bounded_product(2 for _ in range(m)) + _bounded_count(m)
    require_budget(entries, f"2**{m} + {m - 1}!!", "{} table entries")


def _anchor_tables(
    inst: GameInstance,
) -> tuple[dict[BitString, BitString], dict[PerfectMatching, BobEntry | None]]:
    """Alice's anchor table, and Bob's anchor answer or None on every matching.

    Alice answers the parities x_0 xor x_{2^(n-1)}, ..., x_0 xor x_1, most
    significant first: the orbit offset c of ``_orbit_coordinates``.  Bob's
    answer on a matching containing a pair of anchor indices is the first
    such pair in edge order with an all-zero b2; elsewhere it is None.
    """
    _require_table_budget(inst)
    m, n = inst.m, inst.n
    _, _, c = _orbit_coordinates(np.arange(1 << m, dtype=np.int64), m)
    alice = {BitString(xv, m): BitString(a, n) for xv, a in enumerate(c.tolist())}
    anchors = anchor_indices(inst)
    zero = BitString(0, n)
    bob: dict[PerfectMatching, BobEntry | None] = {}
    for y in enumerate_matchings(inst):
        bob[y] = None
        for e in y.edges:
            if e.i in anchors and e.j in anchors:
                bob[y] = (e, zero)
                break
    return alice, bob


def anchor_strategy(inst: GameInstance) -> PartialStrategy:
    """The anchor tables where Bob answers; every such question is won."""
    alice, bob = _anchor_tables(inst)
    anchored = {y: entry for y, entry in bob.items() if entry is not None}
    return PartialStrategy(inst.m, alice, anchored)


def indicator_string(i: int, j: int, inst: GameInstance) -> BitString:
    """n-bit string that is 1 exactly at positions i and j (one position if i == j).

    Position k is the bit multiplying x_{2^k} in the anchor strategy's
    answer, i.e. bit k counted from the least significant end.
    """
    n = inst.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"positions must lie in 0..{n - 1}, got ({i}, {j})")
    return BitString((1 << i) | (1 << j), n)


# Winning tables for m = 4 and m = 6, embedded verbatim.  Alice rows list the
# inputs sharing one answer; Bob rows give the edge answered for a matching
# (b2 is all zeros throughout).

_TABLE_4_ALICE = (
    ("0000 0001 1110 1111", "00"),
    ("0100 0101 1010 1011", "01"),
    ("0010 0011 1100 1101", "10"),
    ("1000 1001 0110 0111", "11"),
)

_TABLE_4_BOB = (
    ("0-1,2-3", "0-1"),
    ("0-2,1-3", "0-2"),
    ("0-3,1-2", "1-2"),
)

_TABLE_6_ALICE = (
    ("000000 000001 000100 000101 111010 111011 111110 111111", "000"),
    ("000010 000011 000110 000111 111000 111001 111100 111101", "100"),
    ("001000 001001 001100 001101 110010 110011 110110 110111", "010"),
    ("001010 001011 001110 001111 110000 110001 110100 110101", "110"),
    ("010000 010001 010100 010101 101010 101011 101110 101111", "001"),
    ("010010 010011 010110 010111 101000 101001 101100 101101", "101"),
    ("011000 011001 011100 011101 100010 100011 100110 100111", "011"),
    ("011010 011011 011110 011111 100000 100001 100100 100101", "111"),
)

_TABLE_6_BOB = (
    ("0-1,2-3,4-5", "0-1"),
    ("0-1,2-5,3-4", "0-1"),
    ("0-2,1-3,4-5", "0-2"),
    ("0-2,1-5,3-4", "0-2"),
    ("0-4,1-2,3-5", "0-4"),
    ("0-4,1-3,2-5", "0-4"),
    ("0-4,1-5,2-3", "0-4"),
    ("0-3,1-2,4-5", "1-2"),
    ("0-5,1-2,3-4", "1-2"),
    ("0-2,1-4,3-5", "1-4"),
    ("0-3,1-4,2-5", "1-4"),
    ("0-5,1-4,2-3", "1-4"),
    ("0-1,2-4,3-5", "2-4"),
    ("0-3,1-5,2-4", "2-4"),
    ("0-5,1-3,2-4", "2-4"),
)


def known_winning_strategy(m: int) -> DeterministicStrategy:
    """The embedded winning tables for m = 4 or m = 6."""
    if m == 4:
        alice_rows, bob_rows = _TABLE_4_ALICE, _TABLE_4_BOB
    elif m == 6:
        alice_rows, bob_rows = _TABLE_6_ALICE, _TABLE_6_BOB
    else:
        raise UnsupportedGameError(
            f"winning tables are built in only for m=4 and m=6, not m={m}"
        )
    n = GameInstance(m).n
    alice = {}
    for xs, a in alice_rows:
        answer = BitString.parse(a)
        for x in xs.split():
            alice[BitString.parse(x)] = answer
    zero = BitString(0, n)
    bob = {
        PerfectMatching.parse(yt): (Edge.parse(et), zero) for yt, et in bob_rows
    }
    return DeterministicStrategy(m, alice, bob)
