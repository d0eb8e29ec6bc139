"""Every library entry point sizes its work in closed form before doing any.

Each entry point is checked at the smallest m over DEFAULT_BUDGET, at the
largest m within it (its work is stubbed, so only the size check runs for
real), and at a huge m, where an exact size would cost seconds to compute.
"""

import time

import pytest

from matchgame import search
from matchgame.errors import SIZE_CAP, BudgetExceededError, require_budget
from matchgame.game import BitString, Edge, GameInstance
from matchgame.matchings import (
    PerfectMatching,
    _bounded_count,
    enumerate_matchings,
    matching_count,
)
from matchgame.quantum import joint_distribution, shared_state, verify_always_wins
from matchgame.search import (
    alice_best_response,
    complete_anchor_strategy,
    exact_optimum,
    hill_climb,
)
from matchgame.strategies import anchor_strategy


class _ReachedWork(Exception):
    pass


def _reached(*_args, **_kwargs):
    raise _ReachedWork


def _question(m):
    y = PerfectMatching(tuple(Edge(k, k + 1) for k in range(0, m, 2)))
    return BitString(0, m), y


BIG = 600_000
# name: (call on an instance, smallest m over budget, largest m within it,
#        a huge m, the first work after the check), None where not tested
ENTRY_POINTS = {
    "enumerate_matchings": (enumerate_matchings, 16, 14, BIG, "matchgame.matchings.Edge"),
    "anchor_strategy": (
        anchor_strategy, 16, 14, BIG, "matchgame.strategies._orbit_coordinates"
    ),
    "complete_anchor_strategy": (
        complete_anchor_strategy, 16, 14, BIG, "matchgame.strategies._orbit_coordinates"
    ),
    "hill_climb": (
        lambda inst: hill_climb(inst, 0, 1),
        16, 14, BIG, "matchgame.search.enumerate_matchings",
    ),
    "alice_best_response": (
        lambda inst: alice_best_response({}, inst),
        16, 14, BIG, "matchgame.search.enumerate_matchings",
    ),
    # its smallest and largest sizes are pinned in test_search.py
    "exact_optimum": (exact_optimum, None, None, BIG, "matchgame.search._context"),
    "verify_always_wins": (
        verify_always_wins, 16, 8, 1 << 19, "matchgame.quantum.joint_distribution"
    ),
    "shared_state": (shared_state, 2048, 1024, 1 << 19, "matchgame.quantum.StateVector"),
    # no huge case: a question at m = 2**19 alone takes seconds to build
    "joint_distribution": (
        lambda inst: joint_distribution(inst, *_question(inst.m)),
        2048, 1024, None, "matchgame.quantum.StateVector",
    ),
}


@pytest.fixture
def work_stubbed(monkeypatch):
    """Stub an entry point's work, with the search context rebuilt on each call."""
    monkeypatch.setattr(search, "_context", search._context.__wrapped__)

    def stub(target):
        monkeypatch.setattr(target, _reached)

    return stub


@pytest.mark.parametrize("name", [k for k, v in ENTRY_POINTS.items() if v[1]])
def test_size_checked_before_the_work(work_stubbed, name):
    call, over, within, _, work = ENTRY_POINTS[name]
    work_stubbed(work)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        call(GameInstance(over))
    assert time.perf_counter() - start < 0.5
    assert exc.value.space_size > exc.value.budget == 2_000_000
    with pytest.raises(_ReachedWork):
        call(GameInstance(within))


@pytest.mark.parametrize("name", [k for k, v in ENTRY_POINTS.items() if v[3]])
def test_huge_size_refused_in_bounded_time(work_stubbed, name):
    call, _, _, m, work = ENTRY_POINTS[name]
    work_stubbed(work)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        call(GameInstance(m))
    assert time.perf_counter() - start < 0.5
    assert len(str(exc.value)) < 100
    if name != "shared_state":
        assert exc.value.space_size is None and " = " not in str(exc.value)


def test_size_checked_before_iteration_count():
    with pytest.raises(BudgetExceededError):
        hill_climb(GameInstance(16), 0, -5)


def test_sizes_are_exact_below_the_cap_and_saturate_at_it():
    # (m-1)!! first reaches 2**128 between m = 56 and m = 58
    for m in range(2, 80, 2):
        exact = matching_count(m)
        assert _bounded_count(m) == min(exact, SIZE_CAP)
        with pytest.raises(BudgetExceededError) as exc:
            require_budget(_bounded_count(m), f"{m - 1}!!", "{} items", budget=0)
        shown = f"{m - 1}!! = {exact} items" if exact < SIZE_CAP else f"{m - 1}!! items"
        assert str(exc.value) == f"{shown} exceeds budget 0"
        assert exc.value.space_size == (exact if exact < SIZE_CAP else None)
