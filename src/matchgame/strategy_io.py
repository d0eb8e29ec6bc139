"""Line-oriented text files for strategy tables.

    game m=4
    alice 0000 -> 00
    bob 0-1,2-3 -> 0-1 00

The ``game`` header comes first.  Alice lines must cover every input; the
file describes a total strategy exactly when bob lines cover every matching,
and a partial one otherwise.  Blank lines are ignored, anything else is
rejected with a line/column diagnostic.

Reading and writing cost little per line.  A well-formed alice line is
taken after one cheap test of its fields; only a line that fails the test
goes through the field checks, and those checks alone write the messages.
Alice's block is written as one array of characters.
"""

from __future__ import annotations

import functools
import re

import numpy as np

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
from .matchings import PerfectMatching, matching_count
from .strategies import DeterministicStrategy, PartialStrategy, _edge_position

__all__ = ["format_strategy", "parse_strategy"]


def format_strategy(strategy: PartialStrategy) -> str:
    """Render a strategy in canonical line order (header, alice, bob).

    Bit strings are written from the stored values, as BitString prints them;
    Alice's lines come from ``_alice_block``.
    """
    m = strategy.m
    n = GameInstance(m).n
    mask = (1 << n) - 1
    lines = [f"game m={m}\n", _alice_block(strategy.alice_values, m, n)]
    lines += (
        f"bob {y} -> {y.edges[code >> n]} {code & mask:0{n}b}\n"
        for y, code in zip(strategy.bob_matchings, strategy.bob_codes.tolist())
    )
    return "".join(lines)


def _alice_block(answers: np.ndarray, m: int, n: int) -> str:
    """Alice's lines ``alice <x> -> <a>``, x ascending, each ending in a newline.

    The text is one uint8 array of characters, one row per line, written a
    column at a time and decoded once.  Column k of x is 1 on the second
    half of every run of 2^(m-k) inputs, so it is written through a view;
    the answer columns are the answers' texts, looked up in a table of the
    2^n n-bit texts.
    """
    template = f"alice {'0' * m} -> {'0' * n}\n".encode()
    chars = np.frombuffer(bytearray(template) * (1 << m), dtype=np.uint8)
    chars = chars.reshape(1 << m, len(template))
    for k in range(m):
        chars.reshape(1 << k, 2, 1 << (m - 1 - k), -1)[:, 1, :, 6 + k] = ord("1")
    texts = "".join(f"{a:0{n}b}" for a in range(1 << n)).encode()
    table = np.frombuffer(texts, dtype=np.uint8).reshape(1 << n, n)
    chars[:, m + 10 : m + 10 + n] = table[answers]
    return str(chars, "ascii")


def _expect_count(fields, count, line_no, raw):
    if len(fields) > count:
        raise field_error("unexpected trailing text", line_no, raw, count)
    if len(fields) < count:
        raise field_error("truncated line", line_no, raw, len(fields))


def parse_strategy(text: str) -> PartialStrategy | DeterministicStrategy:
    """Parse a strategy file; malformed input raises a positioned FormatError.

    A well-formed alice line costs one cheap test, m binary digits then n,
    and two ``int`` calls; only a line that fails the test goes through the
    field checks, which raise the message for its first fault.  Each
    distinct edge text, and each distinct b2 text, is parsed once per file;
    matchings are built from the parsed edges.
    """
    inst: GameInstance | None = None
    m = n = 0
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
                m, n = inst.m, inst.n
                alice_lines = bounded_product(2 for _ in range(m))
                require_budget(alice_lines, f"2**{m}", "{} alice lines")
                alice = [None] * (1 << m)
            elif inst is None:
                message = "strategy file must start with 'game m=<m>'"
                raise field_error(message, line_no, raw, 0)
            elif word == "alice":
                if not (
                    len(fields) == 4
                    and fields[2] == "->"
                    and len(fields[1]) == m
                    and len(fields[3]) == n
                    and not fields[1].strip("01")
                    and not fields[3].strip("01")
                ):
                    # the field checks, in field order: the first fault raises
                    _expect_count(fields, 4, line_no, raw)
                    if fields[2] != "->":
                        raise field_error("expected '->'", line_no, raw, 2)
                    at = 1
                    x = BitString.parse(fields[1])
                    at = 3
                    a = BitString.parse(fields[3])
                    at = 1
                    _require_bits(x, m, "alice input")
                    at = 3
                    _require_bits(a, n, "alice output")
                x = int(fields[1], 2)
                if alice[x] is not None:
                    message = f"duplicate alice input {fields[1]}"
                    raise field_error(message, line_no, raw, 1)
                alice[x] = int(fields[3], 2)
                covered += 1
            elif word == "bob":
                _expect_count(fields, 5, line_no, raw)
                _, ytok, arrow, etok, btok = fields
                if arrow != "->":
                    raise field_error("expected '->'", line_no, raw, 2)
                at = 1
                y = PerfectMatching(tuple(map(edges, ytok.split(","))))
                _require_vertices(y, m)
                at = 3
                pos = _edge_position(edges(etok), y)
                at = 4
                b2 = bits(btok)
                _require_bits(b2, n, "b2")
                if y in bob:
                    raise field_error(f"duplicate bob input {y}", line_no, raw, 1)
                bob[y] = pos << n | b2.value
            else:
                raise field_error(f"unknown directive {word!r}", line_no, raw, 0)
        except ValidationError as err:
            raise field_error(str(err), line_no, raw, at) from err
    if inst is None:
        raise FormatError("empty strategy file: missing 'game' header", 1, 1)
    if covered != 1 << m:
        raise FormatError(
            f"alice lines cover {covered} of {1 << m} inputs",
            line_no + 1,
            1,
        )
    total = len(bob) == matching_count(m)
    cls = DeterministicStrategy if total else PartialStrategy
    return cls(m, alice, (tuple(bob), list(bob.values())))
