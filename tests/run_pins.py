"""Run the four pinned commands and compare each stdout sha256 with its pin.

    python tests/run_pins.py [PIN ...]

Each pin is a ``matchgame`` command line, run in-process through
``matchgame.cli.main`` against the ``src/`` of this checkout; "A | B" feeds
A's stdout to B as standard input.  Prints one line per pin and exits 1
unless every pin exits 0 with the pinned stdout.  The four take a few
seconds together, too long for tier-1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from matchgame.cli import main as cli_main  # noqa: E402

PINS = {
    "search --m 14 --seed 0 --iters 2000":
        "058a5fdf54c1191db6ca9422c5fc33fdb0f5ebc42abdfffed18e471383540358",
    "lemma1 --m 14 --complete":
        "9ce6b39ddeaf0f9a2acb13ea36ec06a3af617aa31b2c3646844e4c4d6c20874e",
    "quantum sample --m 8 --x 01101001 --y 0-5,1-3,2-7,4-6 --seed 5 --rounds 40":
        "455fdade206619895f37145f3eace8b9a799beea5fd7e97f1e7f42ce571b47f3",
    "figures --m 6 | audit":
        "c6afb26780208f8ac9a5452f263e6b5b02869b5725f5f6dcc16295aba938ac47",
}


def _run(args: list[str], stdin_text: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process command."""
    stdin, out = sys.stdin, io.StringIO()
    # a text stream over bytes, as the real standard input is
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def main(pins) -> int:
    chosen = [pin for pin in PINS if not pins or pin in pins]
    if pins and len(chosen) != len(set(pins)):
        print(f"unknown pins: {sorted(set(pins) - set(PINS))}")
        return 1
    failed = 0
    for pin in chosen:
        start = time.perf_counter()
        code, text = 0, ""
        for command in pin.split(" | "):
            code, text = _run(command.split(), text)
            if code != 0:
                break
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            verdict = f"FAILED: exit {code}"
        elif digest != PINS[pin]:
            verdict = f"MISMATCH: sha256 {digest}"
        else:
            verdict = "ok"
        failed += verdict != "ok"
        print(f"{pin}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} pins match")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
