"""In-memory spans around framelocal's public calls, for the traced benchmark run.

A ``Tracer`` replaces module attributes of framelocal with wrappers while it
is active, so a call made through ``cli.main``, ``simulation.run`` and so on
(by the benchmark or by framelocal itself) opens a span. Spans nest, since
the program is single-threaded; a span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np

from framelocal import cli, graphs, simulation

# (module, attribute, span name): every place a public call crosses into a layer.
WRAP_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "load_scenario", "cli.load_scenario"),
    (cli, "run", "simulation.run"),
    (simulation, "run", "simulation.run"),
    (simulation, "oracle_report", "simulation.oracle_report"),
    (simulation, "closed_form_aligned", "simulation.closed_form_aligned"),
    (simulation, "analyze", "graphs.analyze"),
    (simulation, "has_spanning_tree", "graphs.has_spanning_tree"),
    (graphs, "has_spanning_tree", "graphs.has_spanning_tree"),
)

SPAN_NAMES = tuple(sorted({name for _, _, name in WRAP_POINTS}))


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None     # index of the enclosing span in Tracer.spans
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Collects spans and counts; install it with ``with tracer.active():``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            index = len(self.spans) - 1
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.spans[index]
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.end - span.start
            if name == "simulation.run":
                self._count_run(args[0], result[0])
            return result

        return traced

    def _count_run(self, scenario, trace) -> None:
        self.count("simulation.steps", scenario.n_steps)
        self.count("simulation.samples", len(trace.times))
        self.count("simulation.valid_estimates", int(np.count_nonzero(trace.estimate_valid)))
        self.count("simulation.estimates", trace.estimate_valid.size)
        nbytes = sum(
            v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray)
        )
        self.counts["simulation.trace_bytes"] = max(self.counts["simulation.trace_bytes"], nbytes)

    @contextlib.contextmanager
    def active(self):
        """Wrap every point in WRAP_POINTS for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAP_POINTS]
        try:
            for module, attr, name in WRAP_POINTS:
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> dict:
        """Self time per span name, summed over all spans recorded so far."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for span in self.spans:
            out[span.name] += span.self_time
        return out
