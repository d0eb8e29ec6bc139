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

import functools
import re

from .errors import (
    SIZE_CAP,
    SIZE_CAP_DIGITS,
    FormatError,
    ValidationError,
    bounded_product,
    field_error,
    require_budget,
)
from .game import BitString, Edge, GameInstance, _require_bits, _require_vertices
from .matchings import PerfectMatching, _canonical_key, matching_count
from .strategies import DeterministicStrategy, PartialStrategy, _edge_position

__all__ = ["format_strategy", "parse_strategy"]


def format_strategy(strategy: PartialStrategy) -> str:
    """Render a strategy in canonical line order (header, alice, bob).

    Bit strings are written from the stored values, as BitString prints them.
    """
    m = strategy.m
    n = GameInstance(m).n
    mask = (1 << n) - 1
    lines = [f"game m={m}"]
    answers = strategy.alice_values.tolist()
    lines += (f"alice {x:0{m}b} -> {a:0{n}b}" for x, a in enumerate(answers))
    bob = zip(strategy.bob_matchings, strategy.bob_codes.tolist())
    lines += (
        f"bob {y} -> {y.edges[code >> n]} {code & mask:0{n}b}"
        for y, code in sorted(bob, key=lambda entry: _canonical_key(entry[0]))
    )
    return "\n".join(lines) + "\n"


def _expect_count(fields, count, line_no, raw):
    if len(fields) > count:
        raise field_error("unexpected trailing text", line_no, raw, count)
    if len(fields) < count:
        raise field_error("truncated line", line_no, raw, len(fields))


def parse_strategy(text: str) -> PartialStrategy | DeterministicStrategy:
    """Parse a strategy file; malformed input raises a positioned FormatError.

    Each distinct edge text, and each distinct answer or b2 text, is parsed
    once per file; matchings are built from the parsed edges.
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
                _expect_count(fields, 2, line_no, raw)
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
                _expect_count(fields, 4, line_no, raw)
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
                _expect_count(fields, 5, line_no, raw)
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
