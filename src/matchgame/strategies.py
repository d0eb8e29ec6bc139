"""Deterministic strategies and their exact, rational success accounting.

A deterministic strategy is a pair of lookup tables: Alice's, total over all
2^m inputs, and Bob's over perfect matchings.  Bob's table may be partial;
wherever it is defined his chosen edge must lie in the matching.  Success is
counted question by question and kept as an exact fraction, never a float.

A strategy stores its tables as arrays.  ``alice_values`` is a read-only
int64 array over x ascending, holding the value of Alice's answer on x.
Bob's table is the tuple ``bob_matchings`` of the matchings he answers and
a read-only int64 array ``bob_codes`` of answer codes, one per matching:
``code = pos << n | b2`` answers edge ``pos`` of the matching (in its sorted
edge order) with the n-bit b2 of that value.  Bob's table is stored in rank
order, whatever order it was given in, so a total strategy's ``bob_codes[k]``
answers the matching of rank k: it is the ``pick`` the search scores.
``strategy.alice`` and ``strategy.bob`` are read-only Mapping views of these
arrays (BitString x to BitString a, and matching to an (Edge, BitString)
pair) that build those values only when an entry is read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter

import numpy as np

from .errors import UnsupportedGameError, ValidationError, bounded_product, require_budget
from .game import (
    BitString,
    Edge,
    GameInstance,
    _orbit_coordinates,
    _pair_parity,
    _parity,
    _require_bits,
    _require_vertices,
)
from .matchings import (
    PerfectMatching,
    _bounded_count,
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


def _require_type(value, cls: type, what: str) -> None:
    if not isinstance(value, cls):
        raise ValidationError(
            f"{what} must be a {cls.__name__}, got {type(value).__name__}"
        )


def _edge_position(edge: Edge, y: PerfectMatching) -> int:
    """The position of ``edge`` among y's sorted edges; ValidationError if absent."""
    try:
        return y.edges.index(edge)
    except ValueError:
        raise ValidationError(f"bob output {edge} is not an edge of {y}") from None


def _bob_code(y: PerfectMatching, entry: BobEntry, m: int, n: int) -> int:
    """The answer code pos << n | b2 of Bob's entry on y; ValidationError if illegal."""
    _require_type(y, PerfectMatching, "bob input")
    _require_vertices(y, m)
    if not (
        isinstance(entry, tuple)
        and len(entry) == 2
        and isinstance(entry[0], Edge)
        and isinstance(entry[1], BitString)
    ):
        raise ValidationError(
            f"bob output on {y} must be an (Edge, BitString) pair, got {entry!r}"
        )
    edge, b2 = entry
    pos = _edge_position(edge, y)
    _require_bits(b2, n, "b2")
    return pos << n | b2.value


def _int_array(values, what: str) -> np.ndarray:
    """A read-only int64 copy of ``values``, so the caller keeps no handle on it."""
    array = np.array(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be integers, got {array.dtype}")
    array = array.astype(np.int64, copy=False)
    array.flags.writeable = False
    return array


_EDGES, _RANK = attrgetter("edges"), attrgetter("rank")


def _checked_tables(
    m: int, n: int, alice, bob
) -> tuple[np.ndarray, tuple[PerfectMatching, ...], np.ndarray]:
    """Alice's answer array, Bob's matchings and his answer codes, checked.

    A Mapping is converted entry by entry, each entry checked as it is read;
    arrays are checked whole: Alice's answers below 2^n, each code's edge
    position below m/2 and b2 below 2^n, every matching on m vertices and
    none repeated.  Bob's table comes back in rank order, as given if so.
    """
    if len(alice) != 1 << m:
        raise ValidationError(f"alice table has {len(alice)} entries, needs {1 << m}")
    if isinstance(alice, Mapping):
        table = [0] * (1 << m)
        for x, a in alice.items():
            _require_type(x, BitString, "alice input")
            _require_bits(x, m, "alice input")
            _require_type(a, BitString, "alice output")
            _require_bits(a, n, "alice output")
            table[x.value] = a.value
        alice = table
    if isinstance(bob, Mapping):
        bob = tuple(bob), [_bob_code(y, entry, m, n) for y, entry in bob.items()]
    values = _int_array(alice, "alice answers")
    matchings, codes = tuple(bob[0]), _int_array(bob[1], "bob answer codes")
    if values.shape != (1 << m,):
        raise ValidationError(f"alice table has shape {values.shape}, not ({1 << m},)")
    bad = np.flatnonzero((values < 0) | (values >= 1 << n))
    if bad.size:
        x = int(bad[0])
        raise ValidationError(
            f"alice answer {values[x]} on input {BitString(x, m)}"
            f" does not fit in {n} bits"
        )
    if codes.shape != (len(matchings),):
        raise ValidationError(
            f"bob table has {len(matchings)} matchings but {codes.size} answer codes"
        )
    # pos < m/2 and b2 < 2^n: b2 is the low n bits, so a b2 of 2^n or more
    # carries into pos
    bad = np.flatnonzero((codes < 0) | (codes >= (m // 2) << n))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(
            f"bob answer code {codes[k]} on {matchings[k]} is outside"
            f" 0..{((m // 2) << n) - 1}"
        )
    if not all(map(isinstance, matchings, repeat(PerfectMatching))) or set(
        map(len, map(_EDGES, matchings))
    ) - {m // 2}:
        for y in matchings:  # the first offender, for its message
            _require_type(y, PerfectMatching, "bob input")
            _require_vertices(y, m)
    ranks = np.fromiter(map(_RANK, matchings), np.int64, len(matchings))
    if not (ranks[1:] > ranks[:-1]).all():
        _, first = np.unique(ranks, return_index=True)  # by rank, each first input
        if len(first) != len(matchings):
            k = np.setdiff1d(np.arange(len(matchings)), first)[0]  # the first repeat
            raise ValidationError(f"duplicate bob input {matchings[k]}")
        matchings, codes = tuple(map(matchings.__getitem__, first.tolist())), codes[first]
        codes.flags.writeable = False
    return values, matchings, codes


class _AliceView(Mapping):
    """Read-only Mapping of Alice's table, BitString x to BitString a."""

    __slots__ = ("_values", "_m", "_n")

    def __init__(self, values: np.ndarray, m: int, n: int):
        self._values, self._m, self._n = values, m, n

    def __getitem__(self, x: BitString) -> BitString:
        if x not in self:
            raise KeyError(x)
        return BitString(int(self._values[x.value]), self._n)

    def __contains__(self, x) -> bool:
        return isinstance(x, BitString) and x.length == self._m

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[BitString]:
        return (BitString(v, self._m) for v in range(len(self._values)))


class _BobView(Mapping):
    """Read-only Mapping of Bob's table, matching to (Edge, BitString b2).

    Its matching-to-position index is built on the first lookup by key.
    """

    __slots__ = ("_matchings", "_codes", "_n", "_index")

    def __init__(
        self, matchings: tuple[PerfectMatching, ...], codes: np.ndarray, n: int
    ):
        self._matchings, self._codes, self._n = matchings, codes, n
        self._index: dict[PerfectMatching, int] | None = None

    def __getitem__(self, y: PerfectMatching) -> BobEntry:
        if not isinstance(y, PerfectMatching):
            raise KeyError(y)
        if self._index is None:
            self._index = dict(zip(self._matchings, range(len(self._matchings))))
        code, n = int(self._codes[self._index[y]]), self._n
        return y.edges[code >> n], BitString(code & ((1 << n) - 1), n)

    def __len__(self) -> int:
        return len(self._matchings)

    def __iter__(self) -> Iterator[PerfectMatching]:
        return iter(self._matchings)


class PartialStrategy:
    """Total Alice table plus a Bob table that may skip some matchings.

    ``alice`` is a Mapping BitString x -> BitString a or an integer array of
    answer values over x ascending; ``bob`` is a Mapping
    PerfectMatching -> (Edge, BitString b2) or a pair (matchings, answer
    codes), stored in rank order whatever order they come in (see the module
    docstring).  Both are copied and checked.  Instances are immutable: the
    arrays are read-only and the views refuse assignment, which is what makes
    them safe to share across workers.
    """

    __slots__ = ("m", "alice_values", "bob_matchings", "bob_codes", "alice", "bob")

    def __init__(
        self,
        m: int,
        alice: Mapping[BitString, BitString] | np.ndarray,
        bob: Mapping[PerfectMatching, BobEntry]
        | tuple[Sequence[PerfectMatching], np.ndarray],
    ):
        n = GameInstance(m).n
        values, matchings, codes = _checked_tables(m, n, alice, bob)
        self.m = m
        self.alice_values, self.bob_matchings, self.bob_codes = values, matchings, codes
        self.alice = _AliceView(values, m, n)
        self.bob = _BobView(matchings, codes, n)

    def defined_on(self, y: PerfectMatching) -> bool:
        return y in self.bob

    @property
    def is_total(self) -> bool:
        return len(self.bob_matchings) == matching_count(self.m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialStrategy):
            return NotImplemented
        return (
            self.m == other.m
            and np.array_equal(self.alice_values, other.alice_values)
            and np.array_equal(self.bob_codes, other.bob_codes)
            # one m, so equal ranks are equal matchings
            and list(map(_RANK, self.bob_matchings)) == list(map(_RANK, other.bob_matchings))
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} m={self.m}"
            f" bob={len(self.bob_matchings)}/{matching_count(self.m)}>"
        )


class DeterministicStrategy(PartialStrategy):
    """Strategy whose Bob table covers every perfect matching."""

    __slots__ = ()

    def __init__(self, m, alice, bob):
        super().__init__(m, alice, bob)
        _require_covering(self)


def _require_covering(strategy: PartialStrategy) -> None:
    if not strategy.is_total:
        covered, count = len(strategy.bob_matchings), matching_count(strategy.m)
        raise ValidationError(f"bob table covers {covered} of {count} matchings")


def _require_instance(strategy: PartialStrategy, inst: GameInstance) -> None:
    if strategy.m != inst.m:
        raise ValidationError(
            f"strategy is for m={strategy.m}, instance has m={inst.m}"
        )


def _require_total(strategy: PartialStrategy, inst: GameInstance) -> None:
    _require_instance(strategy, inst)
    if not strategy.is_total:
        undefined = matching_count(inst.m) - len(strategy.bob_matchings)
        raise ValidationError(
            "operation needs a total strategy; this partial one leaves"
            f" {undefined} matchings undefined"
        )


def _answered_edges(strategy: PartialStrategy) -> list[Edge]:
    """The edge of Bob's answer on each of his matchings, in stored order."""
    n = GameInstance(strategy.m).n
    codes = strategy.bob_codes.tolist()
    return [y.edges[code >> n] for y, code in zip(strategy.bob_matchings, codes)]


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
    m, n = inst.m, inst.n
    groups: dict[Edge, _ByParity] = {}
    for y, code in zip(strategy.bob_matchings, strategy.bob_codes.tolist()):
        edge = y.edges[code >> n]
        # i ^ j < 2^n, so the & reads only the b2 bits of the code
        p = ((edge.i ^ edge.j) & code).bit_count() & 1
        groups.setdefault(edge, ([], []))[p].append(y)
    xs = np.arange(1 << m, dtype=np.int64)
    avals, parity = strategy.alice_values, _parity(n)
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

    Canonical order is x ascending, then matching rank: the smallest first
    losing x over Bob's answers, tied toward the smallest rank.
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
    return BitString(first, inst.m), min(tied, key=_RANK)


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
) -> tuple[np.ndarray, list[PerfectMatching], list[int]]:
    """Alice's anchor answers, the matchings, and Bob's anchor code on each or -1.

    Alice answers the parities x_0 xor x_{2^(n-1)}, ..., x_0 xor x_1, most
    significant first: the orbit offset c of ``_orbit_coordinates``.  Bob's
    answer on a matching containing a pair of anchor indices is the first
    such pair in edge order with an all-zero b2; elsewhere his code is -1.
    """
    _require_table_budget(inst)
    m, n = inst.m, inst.n
    _, _, c = _orbit_coordinates(np.arange(1 << m, dtype=np.int64), m)
    anchors = anchor_indices(inst)
    matchings = enumerate_matchings(inst)
    codes = []
    for y in matchings:
        codes.append(-1)
        for pos, e in enumerate(y.edges):
            if e.i in anchors and e.j in anchors:
                codes[-1] = pos << n
                break
    return c, matchings, codes


def anchor_strategy(inst: GameInstance) -> PartialStrategy:
    """The anchor tables where Bob answers; every such question is won."""
    alice, matchings, codes = _anchor_tables(inst)
    kept = [k for k, code in enumerate(codes) if code >= 0]
    bob = tuple(matchings[k] for k in kept), [codes[k] for k in kept]
    return PartialStrategy(inst.m, alice, bob)


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
