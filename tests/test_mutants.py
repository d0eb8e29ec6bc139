"""The mutant registry stays applicable: each old text occurs exactly once,
and each killer names a test class and function that its file defines."""

import re
from pathlib import Path

import pytest

import matchgame
from mutants import MUTANTS

PACKAGE = Path(matchgame.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_ids_are_unique():
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_old_text_occurs_once(mutant):
    text = (PACKAGE / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.killers
    for killer in mutant.killers:
        path, *classes, function = killer.split("::")
        source = (ROOT / path).read_text()
        for name in classes:
            assert re.search(rf"^\s*class {name}\b", source, re.M), killer
        assert re.search(rf"^\s*def {function.split('[')[0]}\(", source, re.M), killer
