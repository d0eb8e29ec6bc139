"""Core pieces of the matching game: bit strings, instances, round scoring.

One round: Alice holds an m-bit string x and answers with an n-bit string a,
where n = ceil(log2 m).  Bob holds a perfect matching y on {0..m-1} and
answers with an edge {i, j} of y plus an n-bit string b2.  The round is won
exactly when the edge belongs to y and

    x_i xor x_j  ==  dot(enc(i) xor enc(j), a xor b2)

with enc(k) the big-endian n-bit binary form of k and dot the GF(2) inner
product.  Everything here is immutable and pure, so values can be shared
freely across threads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import SIZE_CAP_DIGITS, ValidationError

if TYPE_CHECKING:
    from .matchings import PerfectMatching

__all__ = [
    "BitString",
    "Edge",
    "GameInstance",
    "Question",
    "Answer",
    "encode_index",
    "dot",
    "wins_round",
]


def _integer(value, what: str) -> int:
    """value as an int: Python and numpy integers pass, anything else is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{what} must be an integer, got {type(value).__name__} {value!r}"
        ) from None


@dataclass(frozen=True, slots=True)
class BitString:
    """Fixed-width binary word, most significant bit first.

    The textual form is the plain run of 0/1 characters, e.g. ``"0110"``.
    Indexing follows the text: ``b[0]`` is the leftmost (most significant)
    bit.  Width is fixed at construction and preserved by xor.
    """

    value: int
    length: int

    def __post_init__(self):
        # one BitString per sampled quantum round: plain ints skip the call
        if type(self.value) is not int or type(self.length) is not int:
            object.__setattr__(self, "value", _integer(self.value, "bit string value"))
            object.__setattr__(self, "length", _integer(self.length, "bit string length"))
        if self.length < 1:
            raise ValidationError("bit string length must be positive")
        if not 0 <= self.value < (1 << self.length):
            raise ValidationError(
                f"value {self.value} does not fit in {self.length} bits"
            )

    @classmethod
    def parse(cls, text: str) -> "BitString":
        if not text or text.strip("01"):
            raise ValidationError(f"not a bit string: {text!r}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        value = 0
        count = 0
        for b in bits:
            if b not in (0, 1):
                raise ValidationError(f"bit must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            count += 1
        return cls(value, count)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(
            (self.value >> (self.length - 1 - i)) & 1 for i in range(self.length)
        )

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.value >> (self.length - 1 - i)) & 1

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if other.length != self.length:
            raise ValidationError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitString(self.value ^ other.value, self.length)

    def complement(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.length) - 1), self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


@dataclass(frozen=True, slots=True)
class Edge:
    """Unordered pair of distinct nonnegative indices, stored with i < j.

    Textual form: ``"i-j"`` in decimal with i < j.
    """

    i: int
    j: int

    def __post_init__(self):
        i, j = _integer(self.i, "edge endpoint"), _integer(self.j, "edge endpoint")
        if i == j:
            raise ValidationError(f"edge endpoints must differ, got {i}-{j}")
        if i < 0 or j < 0:
            raise ValidationError("edge endpoints must be nonnegative")
        object.__setattr__(self, "i", min(i, j))
        object.__setattr__(self, "j", max(i, j))

    @classmethod
    def parse(cls, text: str) -> "Edge":
        match = re.fullmatch(r"([0-9]+)-([0-9]+)", text)
        if not match:
            raise ValidationError(f"not an edge: {text!r} (expected 'i-j')")
        ends = [digits.lstrip("0") or "0" for digits in match.groups()]
        longest = max(len(digits) for digits in ends)
        if longest > SIZE_CAP_DIGITS:
            raise ValidationError(
                f"edge endpoint of {longest} digits (at most {SIZE_CAP_DIGITS})"
            )
        i, j = map(int, ends)
        if i >= j:
            raise ValidationError(f"edge must be written with i < j: {text!r}")
        return cls(i, j)

    def __iter__(self) -> Iterator[int]:
        yield self.i
        yield self.j

    def __str__(self) -> str:
        return f"{self.i}-{self.j}"


@dataclass(frozen=True, slots=True)
class GameInstance:
    """One game size: inputs have m bits, answers have n = ceil(log2 m) bits."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m"))
        if self.m < 2 or self.m % 2:
            raise ValidationError(f"m must be an even integer >= 2, got {self.m}")

    @property
    def n(self) -> int:
        return (self.m - 1).bit_length()


@dataclass(frozen=True, slots=True)
class Question:
    """One question (x, y): Alice's bit string and Bob's matching."""

    x: BitString
    y: "PerfectMatching"


@dataclass(frozen=True, slots=True)
class Answer:
    """One answer: Bob's edge and b2 together with Alice's a."""

    edge: Edge
    a: BitString
    b2: BitString


def encode_index(i: int, inst: GameInstance) -> BitString:
    """Big-endian binary form of an index, zero-padded on the left to n bits."""
    if not 0 <= i < inst.m:
        raise ValidationError(f"index {i} out of range for m={inst.m}")
    return BitString(i, inst.n)


def dot(u: BitString, v: BitString) -> int:
    """GF(2) inner product: xor over the positionwise ands."""
    if u.length != v.length:
        raise ValidationError(f"length mismatch: {u.length} vs {v.length}")
    return (u.value & v.value).bit_count() & 1


# Shape checks shared by every boundary that accepts bit strings or matchings.
def _require_edge(e, pairs_entry: str) -> None:
    if not isinstance(e, Edge):
        raise ValidationError(
            f"expected an Edge, got {type(e).__name__} {e!r}; {pairs_entry} takes pairs"
        )


def _require_bits(s: BitString, length: int, what: str) -> None:
    if s.length != length:
        raise ValidationError(f"{what} has {s.length} bits, expected {length}")


def _require_vertices(y: "PerfectMatching", m: int) -> None:
    if y.m != m:
        raise ValidationError(f"matching covers {y.m} vertices, expected {m}")


def _require_in_range(e: Edge, vertex_count: int) -> None:
    if e.j >= vertex_count:
        raise ValidationError(f"edge {e} out of range for {vertex_count} vertices")


def _pair_parity(x, m: int, i, j):
    """x_i xor x_j of m-bit x, an int or int array: x_k is bit m-1-k of x.

    The input-side parity primitive of the win rule; _parity is the answer side.
    """
    return ((x >> (m - 1 - i)) ^ (x >> (m - 1 - j))) & 1


def _parity(n: int) -> np.ndarray:
    """The win rule's answer-side parity: dot(u, v) = parity[u & v] for u, v < 2^n."""
    return np.array([v.bit_count() & 1 for v in range(1 << n)], dtype=np.int64)


def _orbit_coordinates(x: np.ndarray, m: int):
    """(rep, k, c) of each m-bit input of the int array x: x = rep ^ l_c ^ k*1^m.

    k = x_0 and c_b = x_{2^b} xor k for every b < n, with c_b bit b of c
    counted from the least significant end (the anchor strategy's order);
    l_c is the m-bit string with l_c(i) = dot(i, c).  rep is the one input of
    x's orbit with x_0 = 0 and every x_{2^b} = 0, and since
    x_i xor x_j = rep_i xor rep_j xor dot(i ^ j, c), answer a scores on x
    what a ^ c scores on rep.
    """
    n = (m - 1).bit_length()
    k = (x >> (m - 1)) & 1
    c = sum(_pair_parity(x, m, 0, 1 << b) << b for b in range(n))
    # shift[v] = l_v: bit m-1-i holds dot(i, v)
    v, i = np.arange(1 << n)[:, None], np.arange(m)
    shift = (_parity(n)[v & i] << (m - 1 - i)).sum(axis=1)
    return x ^ shift[c] ^ (k * ((1 << m) - 1)), k, c


def wins_round(inst: GameInstance, question: Question, answer: Answer) -> bool:
    """Adjudicate one round.

    True exactly when the answered edge lies in y and the parity rule holds.
    The promise covers every (x, y) pair, so there is no vacuous-win clause.
    """
    x, y = question.x, question.y
    _require_bits(x, inst.m, "x")
    _require_vertices(y, inst.m)
    a, b2, edge = answer.a, answer.b2, answer.edge
    _require_bits(a, inst.n, "a")
    _require_bits(b2, inst.n, "b2")
    _require_in_range(edge, inst.m)
    if edge not in y:
        return False
    # enc(k) is k itself as an n-bit value, so enc(i) xor enc(j) is i ^ j
    d = (edge.i ^ edge.j) & (a.value ^ b2.value)
    return _pair_parity(x.value, inst.m, edge.i, edge.j) == d.bit_count() & 1
