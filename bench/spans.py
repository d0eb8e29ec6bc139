"""In-memory span tracing of matchgame's layers, from outside the package.

A ``Tracer`` wraps public functions at every ``matchgame`` module attribute
through which callers reach them (``matchgame.cli.success``,
``matchgame.strategy_io.enumerate_matchings``, ...), so calls made inside
the package are recorded as well as the benchmark's own.  Each span is
``(name, start_ns, end_ns, parent, job)``; ``parent`` is the index of the
enclosing span or -1.  Spans are kept in memory and written out at the end.
Calls made while ``job`` is -1 (warm-up, output checks) are not recorded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

from matchgame import cli, coloring, game, matchings, quantum, search, strategies
from matchgame import strategy_io


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn: Callable, name, observe=None) -> Callable:
        """``fn`` recorded as a span; ``name`` may be a function of the call's
        arguments, and ``observe(counter, args, result)`` adds counts."""

        def traced(*args, **kwargs):
            if self.job < 0:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, self.job)
            if observe is not None:
                observe(self.counts[self.job], args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "matchgame"]
        for original, fn, name, observe in self._targets():
            wrapper = self.wrap(fn, name, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _targets(self) -> list[tuple]:
        """(function, what to call in its place, span name, observe) per layer."""

        def count_bytes(counter, args, result):
            text = result if isinstance(result, str) else args[0]
            counter["strategy_io.bytes"] += len(text.encode())

        named = [
            (cli.main, "cli.main", None),
            (strategies.success, "strategies.success", None),
            (strategies.find_counterexample, "strategies.find_counterexample", None),
            (strategies.anchor_strategy, "strategies.anchor_strategy", None),
            (strategy_io.parse_strategy, "strategy_io.parse_strategy", count_bytes),
            (strategy_io.format_strategy, "strategy_io.format_strategy", count_bytes),
            (coloring.audit_strategy, "coloring.audit_strategy", None),
            (matchings.enumerate_matchings, "matchings.enumerate_matchings", None),
            (quantum.verify_always_wins, "quantum.verify_always_wins", None),
            (quantum.joint_distribution, "quantum.joint_distribution", None),
            (
                quantum.sample_round,
                lambda inst, *a, **k: f"quantum.sample_round.m{inst.m}",
                None,
            ),
            (game.wins_round, "game.wins_round", None),
        ]
        climb = search.hill_climb
        return [(climb, self._with_history(climb), "search.hill_climb", None)] + [
            (fn, fn, name, observe) for fn, name, observe in named
        ]

    def _with_history(self, hill_climb: Callable) -> Callable:
        """``hill_climb`` passing a ``history=`` list when the caller gave none,
        and counting its entries by kind into the current job's counter."""

        def counted(*args, history=None, **kwargs):
            log = [] if history is None else history
            first = len(log)
            result = hill_climb(*args, history=log, **kwargs)
            kinds = Counter(kind for _, kind in log[first:])
            counter = self.counts[self.job]
            counter["search.evals"] += len(log) - first
            counter["search.restarts"] += kinds["restart"]
            counter["search.accepts"] += kinds["accept"]
            counter["search.proposals"] += kinds["accept"] + kinds["reject"]
            return result

        return counted

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]


def write_spans(path, tracers: dict[str, Tracer]) -> None:
    """All spans as JSON lines ``[workload, name, start_ns, end_ns, parent, job]``."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for workload, tracer in tracers.items():
            for span in tracer.spans:
                fh.write(json.dumps([workload, *span]) + "\n")


class Summary:
    """Per-job and per-call figures from one tracer's spans over ``jobs`` jobs."""

    def __init__(self, tracer: Tracer, jobs: int):
        self.jobs = jobs
        self.counts = tracer.counts
        self.total = Counter()
        self.own = Counter()
        self.calls = Counter()
        for span, own in zip(tracer.spans, tracer.self_ns()):
            label, start, end = span[0], span[1], span[2]
            self.total[label] += end - start
            self.own[label] += own
            self.calls[label] += 1

    def ms(self, label: str) -> float:
        return self.total[label] / 1e6 / self.jobs

    def self_ms(self, label: str) -> float:
        return self.own[label] / 1e6 / self.jobs

    def calls_per_job(self, label: str) -> float:
        return self.calls[label] / self.jobs

    def us_per_call(self, label: str) -> float:
        return self.total[label] / 1e3 / self.calls[label]

    def count(self, key: str, jobs=None) -> int:
        return sum(c[key] for j, c in self.counts.items() if jobs is None or j in jobs)
