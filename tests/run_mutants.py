"""Apply each mutant of tests/mutants.py and run the tests that must kill it.

    python tests/run_mutants.py [MUTANT_ID ...]

Every mutant is applied alone to a fresh temporary copy of ``src/``,
``tests/`` and ``pyproject.toml``, and its killers run there with
``pytest -x``.  A mutant is killed when pytest reports a failing test
(exit 1); any other exit means its tests could not run.  Before the mutants,
every killer must pass on the unmutated copy, or a kill would mean nothing.
Prints one line per mutant and exits 1 unless every mutant is killed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def _copy(dest: Path) -> None:
    """Fresh copies of the source, the tests and the pytest settings."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(where: Path, killers) -> int:
    # pyproject.toml puts the copy's src/ first on sys.path
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(command + list(killers), cwd=where, capture_output=True).returncode


def main(ids) -> int:
    chosen = [mutant for mutant in MUTANTS if not ids or mutant.id in ids]
    if ids and len(chosen) != len(set(ids)):
        print(f"unknown mutant ids: {sorted(set(ids) - {m.id for m in MUTANTS})}")
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        where = Path(scratch) / "repo"
        _copy(where)
        killers = dict.fromkeys(k for mutant in chosen for k in mutant.killers)
        if _pytest(where, killers) != 0:
            print("the killers do not all pass on the unmutated source")
            return 1
        failed = 0
        for mutant in chosen:
            start = time.perf_counter()
            _copy(where)
            path = where / "src" / "matchgame" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                verdict = "stale: the old text does not occur exactly once"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                code = _pytest(where, mutant.killers)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest exit {code}")
            failed += verdict != "killed"
            print(f"{mutant.id}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
