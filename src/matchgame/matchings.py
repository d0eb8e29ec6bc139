"""Perfect matchings on {0..m-1} and their canonical enumeration order."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ValidationError, bounded_product, require_budget
from .game import Edge, GameInstance, _require_edge, _require_in_range

__all__ = [
    "PerfectMatching",
    "enumerate_matchings",
    "contains_edge",
    "validate_matching",
    "matching_count",
]


def _owners(edges: Iterable[Edge]) -> dict[int, Edge]:
    """Each covered vertex mapped to its edge; a vertex in two edges is an error."""
    owner: dict[int, Edge] = {}
    for e in edges:
        if e.i in owner or e.j in owner:
            v = e.i if e.i in owner else e.j
            raise ValidationError(f"vertex {v} appears in both {owner[v]} and {e}")
        owner[e.i] = owner[e.j] = e
    return owner


def _canonical_rank(edges) -> int | None:
    """Index in enumerate_matchings of a non-empty edge tuple whose first
    endpoints strictly increase and whose endpoints cover 0..m-1 exactly,
    m = 2 * len(edges), else None.  Edge t's digit, in radix m-1-2t, counts
    the vertices left between i, the lowest one left, and its partner j."""
    if type(edges) is not tuple or not edges:
        return None
    m = 2 * len(edges)
    prev, covered, rank, radix = -1, 0, 0, m - 1
    for e in edges:
        i, j = e.i, e.j
        # j < m bounds the shifts; m distinct endpoints below m cover 0..m-1
        if i <= prev or j >= m:
            return None
        prev = i
        rank = rank * radix + (~covered & ((1 << j) - (2 << i))).bit_count()
        radix -= 2
        covered |= 1 << i | 1 << j
    return rank if covered == (1 << m) - 1 else None


@dataclass(frozen=True, slots=True)
class PerfectMatching:
    """Partition of {0..m-1} into m/2 unordered pairs.

    Edges are stored sorted by smaller endpoint, which is also the textual
    order: ``"0-1,2-3"``; edges given in another order are sorted, not
    refused.  The constructor first makes one cheap pass: a tuple whose
    first endpoints strictly increase and whose endpoints cover 0..m-1
    exactly is stored as it is.  Anything else goes through the full
    normalisation and diagnosis (empty, overlapping, missing or out-of-range
    vertices), so every message comes from one place.  That pass also gives
    ``rank``, the index in enumerate_matchings: the hash and the sort key.
    """

    edges: tuple[Edge, ...]
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            rank = _canonical_rank(self.edges)
        except AttributeError:  # a member that is not an Edge: _normalise names it
            rank = None
        if rank is None:
            self._normalise()
            rank = _canonical_rank(self.edges)
        object.__setattr__(self, "rank", rank)

    def _normalise(self) -> None:
        edges = tuple(self.edges)
        for e in edges:
            _require_edge(e, "validate_matching")
        edges = tuple(sorted(edges, key=lambda e: (e.i, e.j)))
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise ValidationError("a matching needs at least one edge")
        seen = _owners(edges).keys()
        m = 2 * len(edges)
        if seen != set(range(m)):
            missing = sorted(set(range(m)) - seen)
            extra = sorted(seen - set(range(m)))
            raise ValidationError(
                f"matching must cover 0..{m - 1} exactly"
                f" (missing {missing}, out of range {extra})"
            )

    def __hash__(self) -> int:
        return self.rank

    @classmethod
    def parse(cls, text: str) -> "PerfectMatching":
        return cls(tuple(Edge.parse(part) for part in text.split(",")))

    @property
    def m(self) -> int:
        return 2 * len(self.edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.edges

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.edges)


def enumerate_matchings(inst: GameInstance) -> list[PerfectMatching]:
    """All perfect matchings on {0..m-1} in canonical order.

    Canonical order pairs the lowest unmatched index with each larger
    unmatched partner in increasing order, recursively; the edge sequences
    come out lexicographically sorted.  The list has (m-1)!! entries.
    """
    require_budget(_bounded_count(inst.m), f"{inst.m - 1}!!", "{} matchings")
    m = inst.m
    # one Edge per pair, shared by every matching that contains it
    edge = [[Edge(i, j) if i < j else None for j in range(m)] for i in range(m)]
    out: list[PerfectMatching] = []

    def extend(prefix: tuple[Edge, ...], unmatched: tuple[int, ...]) -> None:
        if not unmatched:
            out.append(PerfectMatching(prefix))
            return
        lo, rest = unmatched[0], unmatched[1:]
        for k, partner in enumerate(rest):
            extend(prefix + (edge[lo][partner],), rest[:k] + rest[k + 1 :])

    extend((), tuple(range(m)))
    return out


def contains_edge(y: PerfectMatching, edge: Edge | tuple[int, int]) -> bool:
    """Membership test, accepting the pair in either order."""
    i, j = edge
    return i != j and Edge(i, j) in y


def validate_matching(
    edges: Iterable[Edge | tuple[int, int]], inst: GameInstance
) -> PerfectMatching:
    """Checked construction against a specific instance.

    Self-pairs, out-of-range edges, overlaps, and unmatched vertices are
    each reported with their own message.
    """
    normalized: list[Edge] = []
    for i, j in edges:
        if i == j:
            raise ValidationError(f"self-pair {i}-{j} is not allowed")
        normalized.append(Edge(i, j))
    for e in normalized:
        _require_in_range(e, inst.m)
    owner = _owners(normalized)
    missing = [v for v in range(inst.m) if v not in owner]
    if missing:
        raise ValidationError(f"matching leaves vertices unmatched: {missing}")
    return PerfectMatching(tuple(normalized))


def matching_count(m: int) -> int:
    """(m-1)!!, the number of perfect matchings on m points, without
    enumerating; m is checked as GameInstance checks it."""
    return math.prod(range(GameInstance(m).m - 1, 0, -2))


def _bounded_count(m: int) -> int:
    """(m-1)!!, stopping at the size cap."""
    return bounded_product(range(m - 1, 0, -2))
