"""Line-oriented text files for strategy tables.

    game m=4
    alice 0000 -> 00
    bob 0-1,2-3 -> 0-1 00

The ``game`` header comes first.  Alice lines must cover every input; the
file describes a total strategy exactly when bob lines cover every matching,
and a partial one otherwise.  Blank lines are ignored, anything else is
rejected with a line/column diagnostic.
"""

from __future__ import annotations

import re

from .errors import FormatError, ValidationError, bounded_product, require_budget
from .game import BitString, Edge, GameInstance, _require_bits, _require_vertices
from .matchings import PerfectMatching, _canonical_key, matching_count
from .strategies import DeterministicStrategy, PartialStrategy, _require_edge

__all__ = ["format_strategy", "parse_strategy"]

_TOKEN = re.compile(r"\S+")


def format_strategy(strategy: PartialStrategy) -> str:
    """Render a strategy in canonical line order (header, alice, bob)."""
    lines = [f"game m={strategy.m}"]
    for xv in range(1 << strategy.m):
        x = BitString(xv, strategy.m)
        lines.append(f"alice {x} -> {strategy.alice[x]}")
    bob = sorted(strategy.bob.items(), key=lambda kv: _canonical_key(kv[0]))
    lines += (f"bob {y} -> {edge} {b2}" for y, (edge, b2) in bob)
    return "\n".join(lines) + "\n"


def _tokens(raw: str) -> list[tuple[str, int]]:
    return [(t.group(), t.start() + 1) for t in _TOKEN.finditer(raw)]


def _expect_count(tokens, count, line_no, raw):
    if len(tokens) > count:
        raise FormatError("unexpected trailing text", line_no, tokens[count][1])
    if len(tokens) < count:
        raise FormatError("truncated line", line_no, len(raw) + 1)


def parse_strategy(text: str) -> PartialStrategy | DeterministicStrategy:
    """Parse a strategy file; malformed input raises a positioned FormatError."""
    inst: GameInstance | None = None
    alice: dict[BitString, BitString] = {}
    bob: dict[PerfectMatching, tuple[Edge, BitString]] = {}
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        word, col = tokens[0]
        # Values go through the strategy types' own checks; col follows the
        # field being read, so their errors point at it.
        try:
            if word == "game":
                if inst is not None:
                    raise FormatError("duplicate game header", line_no, col)
                _expect_count(tokens, 2, line_no, raw)
                field, col = tokens[1]
                match = re.fullmatch(r"m=(\d+)", field)
                if not match:
                    raise FormatError("expected m=<even integer>", line_no, col)
                inst = GameInstance(int(match.group(1)))
                alice_lines = bounded_product(2 for _ in range(inst.m))
                require_budget(alice_lines, f"2**{inst.m}", "{} alice lines")
            elif inst is None:
                raise FormatError(
                    "strategy file must start with 'game m=<m>'", line_no, col
                )
            elif word == "alice":
                _expect_count(tokens, 4, line_no, raw)
                (xtok, xcol), (arrow, acol), (atok, vcol) = tokens[1:]
                if arrow != "->":
                    raise FormatError("expected '->'", line_no, acol)
                col = xcol
                x = BitString.parse(xtok)
                col = vcol
                a = BitString.parse(atok)
                col = xcol
                _require_bits(x, inst.m, "alice input")
                col = vcol
                _require_bits(a, inst.n, "alice output")
                if x in alice:
                    raise FormatError(f"duplicate alice input {x}", line_no, xcol)
                alice[x] = a
            elif word == "bob":
                _expect_count(tokens, 5, line_no, raw)
                (ytok, ycol), (arrow, acol), (etok, ecol), (btok, bcol) = tokens[1:]
                if arrow != "->":
                    raise FormatError("expected '->'", line_no, acol)
                col = ycol
                y = PerfectMatching.parse(ytok)
                _require_vertices(y, inst.m)
                col = ecol
                edge = Edge.parse(etok)
                _require_edge(edge, y)
                col = bcol
                b2 = BitString.parse(btok)
                _require_bits(b2, inst.n, "b2")
                if y in bob:
                    raise FormatError(f"duplicate bob input {y}", line_no, ycol)
                bob[y] = (edge, b2)
            else:
                raise FormatError(f"unknown directive {word!r}", line_no, col)
        except ValidationError as err:
            raise FormatError(str(err), line_no, col) from err
    if inst is None:
        raise FormatError("empty strategy file: missing 'game' header", 1, 1)
    if len(alice) != 1 << inst.m:
        raise FormatError(
            f"alice lines cover {len(alice)} of {1 << inst.m} inputs",
            line_no + 1,
            1,
        )
    cls = DeterministicStrategy if len(bob) == matching_count(inst.m) else PartialStrategy
    return cls(inst.m, alice, bob)
