"""Parity-constrained 2-colorings and the structural audit of winning play.

A winning strategy forces three things at once: a large class of inputs on
which Alice answers identically, constant bit parity along every edge Bob
can output, and a connected component covering more than half the vertices
in the graph of those edges.  Counting colorings that realize prescribed
edge parities (always 0 or a power of two) turns the first two into a
component count, and comparing component counts yields a certificate that
no winning strategy exists once m reaches 8.

Also here: a constructive procedure that pairs vertices across component
boundaries, used to show an undersized-component graph cannot back a total
Bob table.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SIZE_CAP_DIGITS, FormatError, ValidationError, field_error
from .game import (
    BitString,
    Edge,
    GameInstance,
    _integer,
    _pair_parity,
    _require_edge,
    _require_in_range,
)
from .matchings import PerfectMatching
from .strategies import PartialStrategy, _answered_edges, _require_total

__all__ = [
    "Graph",
    "ParityFunction",
    "Coloring",
    "StrategyAudit",
    "ImpossibilityCertificate",
    "components",
    "distance",
    "count_colorings",
    "edge_parities_from_string",
    "strings_from_colorings",
    "bob_edge_graph",
    "audit_strategy",
    "cross_component_matching",
    "impossibility_certificate",
    "format_parity_graph",
    "parse_parity_graph",
]

# A parity function assigns a bit to every edge; a coloring assigns a bit to
# every vertex.  Plain mappings, validated by the operations that use them.
ParityFunction = Mapping[Edge, int]
Coloring = Mapping[int, int]


@dataclass(frozen=True, slots=True)
class Graph:
    """Undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "vertex_count", _integer(self.vertex_count, "vertex count"))
        if self.vertex_count < 1:
            raise ValidationError("graph needs at least one vertex")
        for e in self.edges:
            _require_edge(e, "Graph.from_pairs")
            _require_in_range(e, self.vertex_count)

    @classmethod
    def from_pairs(
        cls, vertex_count: int, pairs: Iterable[Edge | tuple[int, int]]
    ) -> "Graph":
        return cls(vertex_count, frozenset(Edge(i, j) for i, j in pairs))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: (e.i, e.j))


def components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest member.

    Isolated vertices come out as singletons.
    """
    uf = _ParityUnionFind(g.vertex_count)
    for e in g.edges:
        uf.union(e.i, e.j, 0)
    groups: dict[int, set[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(uf.find(v)[0], set()).add(v)
    return [frozenset(c) for c in groups.values()]


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest path length between u and v; None when unreachable."""
    for vertex in (u, v):
        if not 0 <= vertex < g.vertex_count:
            raise ValidationError(
                f"vertex {vertex} out of range for {g.vertex_count} vertices"
            )
    if u == v:
        return 0
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in g.sorted_edges():
        adj[e.i].append(e.j)
        adj[e.j].append(e.i)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for nxt in adj[w]:
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                if nxt == v:
                    return dist[nxt]
                queue.append(nxt)
    return None


class _ParityUnionFind:
    """Union-find with path compression; nodes keep their parity to the root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n
        self.components = n

    def find(self, v: int) -> tuple[int, int]:
        path = []
        node = v
        while self.parent[node] != node:
            path.append(node)
            node = self.parent[node]
        root = node
        acc = 0
        for nd in reversed(path):
            acc ^= self.parity[nd]
            self.parent[nd] = root
            self.parity[nd] = acc
        return root, (self.parity[v] if path else 0)

    def union(self, u: int, v: int, relation: int) -> bool:
        """Constrain parity(u) xor parity(v) == relation; False on conflict."""
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return (pu ^ pv) == relation
        self.parent[rv] = ru
        self.parity[rv] = pu ^ pv ^ relation
        self.components -= 1
        return True


def _check_parity_domain(g: Graph, h: ParityFunction) -> None:
    if set(h) != set(g.edges):
        raise ValidationError("parity function domain must equal the edge set")
    for e, bit in h.items():
        if bit not in (0, 1):
            raise ValidationError(f"parity of {e} must be 0 or 1, got {bit!r}")


def _propagate(g: Graph, h: ParityFunction) -> _ParityUnionFind | None:
    """Union-find holding every edge constraint of h; None on an odd cycle."""
    _check_parity_domain(g, h)
    uf = _ParityUnionFind(g.vertex_count)
    for e in g.sorted_edges():
        if not uf.union(e.i, e.j, h[e]):
            return None
    return uf


def count_colorings(g: Graph, h: ParityFunction) -> int:
    """Number of colorings c with c(u) xor c(v) == h(edge) on every edge.

    Either 0 (an odd-parity cycle exists) or exactly 2^k with k the number
    of components.  Runs by parity propagation, never by enumeration.
    """
    uf = _propagate(g, h)
    return 0 if uf is None else 1 << uf.components


def edge_parities_from_string(r: BitString, g: Graph) -> dict[Edge, int]:
    """Parity function induced by a representative string: h(u-v) = r_u xor r_v."""
    if r.length != g.vertex_count:
        raise ValidationError(
            f"string has {r.length} bits, graph has {g.vertex_count} vertices"
        )
    return {e: r[e.i] ^ r[e.j] for e in g.sorted_edges()}


def strings_from_colorings(g: Graph, h: ParityFunction) -> set[BitString]:
    """All strings c(0)c(1)...c(V-1) over colorings realizing h.

    Empty when no coloring exists; otherwise one string per coloring, so the
    size equals count_colorings(g, h).
    """
    uf = _propagate(g, h)
    if uf is None:
        return set()
    top = g.vertex_count - 1
    base = 0
    masks: dict[int, int] = {}
    for v in range(g.vertex_count):
        root, bit = uf.find(v)
        base |= bit << (top - v)
        masks[root] = masks.get(root, 0) | 1 << (top - v)
    values = [base]
    for mask in masks.values():
        values += [v ^ mask for v in values]
    return {BitString(v, g.vertex_count) for v in values}


def bob_edge_graph(strategy: PartialStrategy, inst: GameInstance) -> Graph:
    """Graph on {0..m-1} whose edges are every pair Bob ever outputs."""
    _require_total(strategy, inst)
    return Graph(inst.m, frozenset(_answered_edges(strategy)))


@dataclass(frozen=True, slots=True)
class StrategyAudit:
    """Sizes and parity behavior a winning strategy is forced to exhibit.

    ``output_class_size`` is the largest set of inputs sharing one Alice
    answer, ``required_size`` the pigeonhole floor 2^m / 2^n it must reach,
    ``max_component_size`` the biggest component among Bob's output edges,
    and ``parity_consistent`` says whether each such edge sees one constant
    bit parity across the whole class.
    """

    output_class_size: int
    required_size: int
    max_component_size: int
    parity_consistent: bool


def audit_strategy(strategy: PartialStrategy, inst: GameInstance) -> StrategyAudit:
    """Measure a total strategy against the three winning-play conditions.

    The conditions are necessary for winning, not sufficient; the audit
    reports each separately and asserts no converse.
    """
    _require_total(strategy, inst)
    m, n = inst.m, inst.n
    avals = strategy.alice_values
    # Largest class; argmax breaks ties toward the smallest answer so the
    # audit is deterministic.
    xs = np.flatnonzero(avals == np.bincount(avals).argmax())
    graph = bob_edge_graph(strategy, inst)
    consistent = all(
        len(np.unique(_pair_parity(xs, m, e.i, e.j))) == 1 for e in graph.sorted_edges()
    )
    max_comp = max(len(c) for c in components(graph))
    return StrategyAudit(
        output_class_size=len(xs),
        required_size=(1 << m) >> n,
        max_component_size=max_comp,
        parity_consistent=consistent,
    )


def cross_component_matching(
    partition: Sequence[Iterable[int]],
) -> PerfectMatching:
    """Perfect matching in which every edge joins two different parts.

    Parts are ordered largest first (ties toward the smallest member) and
    consumed back to front: each part pairs its unmatched vertices, taken in
    increasing order, with unmatched vertices of its predecessor.  If the
    largest part ends with 2i vertices left over, the i most recent pairs
    that avoid it are dissolved and their endpoints matched to the leftovers.
    Requires every part to hold at most half of all vertices.
    """
    parts = [sorted(set(p)) for p in partition]
    if any(not p for p in parts):
        raise ValidationError("parts must be non-empty")
    flat = [v for p in parts for v in p]
    m = len(flat)
    if not m:
        raise ValidationError("partition must have at least one part")
    if len(set(flat)) != m:
        raise ValidationError("parts must be disjoint")
    if set(flat) != set(range(m)):
        raise ValidationError(f"parts must cover 0..{m - 1} exactly")
    if m % 2:
        raise ValidationError("total vertex count must be even")
    if max(len(p) for p in parts) > m // 2:
        raise ValidationError(
            "no cross-part matching exists: one part holds more than half the vertices"
        )
    parts.sort(key=lambda p: (-len(p), p[0]))
    unmatched = [list(p) for p in parts]
    pairs: list[tuple[int, int]] = []
    for j in range(len(parts) - 1, 0, -1):
        need = len(unmatched[j])
        if not need:
            continue
        takers = unmatched[j]
        givers = unmatched[j - 1][:need]
        # Size ordering guarantees the predecessor still has enough vertices.
        assert len(givers) == need
        unmatched[j - 1] = unmatched[j - 1][need:]
        unmatched[j] = []
        pairs.extend(zip(takers, givers))
    leftovers = unmatched[0]
    if leftovers:
        first_part = set(parts[0])
        spare = len(leftovers) // 2
        movable = [
            t
            for t, (u, v) in enumerate(pairs)
            if u not in first_part and v not in first_part
        ]
        # The size precondition guarantees enough pairs avoid the largest
        # part to absorb its leftovers.
        assert len(movable) >= spare
        chosen = movable[-spare:]
        replacement: list[tuple[int, int]] = []
        waiting = iter(leftovers)
        for t in chosen:
            u, v = pairs[t]
            replacement.append((u, next(waiting)))
            replacement.append((v, next(waiting)))
        drop = set(chosen)
        pairs = [p for t, p in enumerate(pairs) if t not in drop] + replacement
    return PerfectMatching(tuple(Edge(u, v) for u, v in pairs))


@dataclass(frozen=True, slots=True)
class ImpossibilityCertificate:
    """Component-count comparison that rules out winning strategies.

    A winning strategy needs Bob's edge graph to have at least
    ``components_needed`` components while an oversized component caps it at
    ``components_possible``; when the former exceeds the latter, no
    deterministic winning strategy exists, and randomized ones reduce to
    deterministic ones.
    """

    excluded: bool
    components_needed: int
    components_possible: int


def impossibility_certificate(m: int) -> ImpossibilityCertificate:
    """Evaluate the component-count bound for an even m."""
    inst = GameInstance(m)
    needed = m - inst.n
    possible = m // 2
    return ImpossibilityCertificate(
        excluded=possible < needed,
        components_needed=needed,
        components_possible=possible,
    )


def format_parity_graph(g: Graph, h: ParityFunction) -> str:
    """Text form: a ``graph n=<count>`` header, then ``edge i-j h=<0|1>`` lines."""
    _check_parity_domain(g, h)
    lines = [f"graph n={g.vertex_count}"]
    for e in g.sorted_edges():
        lines.append(f"edge {e} h={h[e]}")
    return "\n".join(lines) + "\n"


def parse_parity_graph(text: str) -> tuple[Graph, dict[Edge, int]]:
    """Parse the graph+parity text form; errors carry line and column."""
    vertex_count: int | None = None
    parities: dict[Edge, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        word = fields[0]
        try:
            if word == "graph":
                if vertex_count is not None:
                    raise field_error("duplicate graph header", line_no, raw, 0)
                if len(fields) != 2:
                    raise field_error("expected 'graph n=<count>'", line_no, raw, 0)
                match = re.fullmatch(r"n=([0-9]+)", fields[1])
                digits = match.group(1).lstrip("0") if match else ""
                if not digits:
                    raise field_error("expected n=<positive integer>", line_no, raw, 1)
                if len(digits) > SIZE_CAP_DIGITS:
                    message = f"n of {len(digits)} digits (at most {SIZE_CAP_DIGITS})"
                    raise field_error(message, line_no, raw, 1)
                vertex_count = int(digits)
            elif word == "edge":
                if vertex_count is None:
                    message = "graph file must start with 'graph n=<count>'"
                    raise field_error(message, line_no, raw, 0)
                if len(fields) != 3:
                    raise field_error("expected 'edge i-j h=<0|1>'", line_no, raw, 0)
                _, etok, htok = fields
                edge = Edge.parse(etok)
                _require_in_range(edge, vertex_count)
                match = re.fullmatch(r"h=([01])", htok)
                if not match:
                    raise field_error("expected h=<0|1>", line_no, raw, 2)
                if edge in parities:
                    raise field_error(f"duplicate edge {edge}", line_no, raw, 1)
                parities[edge] = int(match.group(1))
            else:
                raise field_error(f"unknown directive {word!r}", line_no, raw, 0)
        except ValidationError as err:
            # only the edge field's checks raise ValidationError
            raise field_error(str(err), line_no, raw, 1) from err
    if vertex_count is None:
        raise FormatError("empty graph file: missing 'graph' header", 1, 1)
    return Graph(vertex_count, frozenset(parities)), parities
