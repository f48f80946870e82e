"""Span tracing, percentile helpers and verdict bookkeeping shared by
every workload of the benchmark.

Spans are recorded by the benchmark's own code around the calls it
makes into each layer's public functions; the program itself is not
instrumented.  A span's *layer* is the part of its name before the
first dot (``zones.query`` belongs to ``zones``); spans named
``bench.*`` are the harness itself, and their self time counts as
unattributed.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Seconds one :func:`reference_slice` takes at the reference speed
#: (that of the 2-CPU host the benchmark was built on, in its fast
#: periods).  Reported times are scaled to it; see :func:`at_reference`.
REFERENCE_S = 0.0027


def _reference_work() -> int:
    """A fixed piece of pure-Python work in two equal parts: tuple and
    frozenset hashing, dict updates and Fraction arithmetic, then plain
    integer arithmetic.  When the host slows, the first part slows more
    than the program's jobs and the second less; their sum follows the
    jobs best of the mixes tried.  It imports nothing from the program,
    so a change to the program cannot change it."""
    table: Dict[tuple, int] = {}
    total = Fraction(0)
    for i in range(2000):
        key = (i % 97, i % 89, frozenset((i % 13, i % 7)))
        table[key] = table.get(key, 0) + 1
        if i % 10 == 0:
            total += Fraction(i % 17, 1 + i % 5)
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return len(table) + total.denominator + acc


def reference_slice() -> float:
    """Seconds the reference work takes now: the fastest of three
    repetitions (so an interrupt does not count), with the collector
    off (so the program's heap does not count)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            begun = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - begun)
        return best
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, slice_s: float) -> float:
    """``seconds`` measured while a reference slice took ``slice_s``,
    scaled to the reference speed.  The host's speed swings by up to
    2x from minute to minute; the reference work slows with the
    program's, so the ratio holds still where the raw time does not."""
    return seconds * REFERENCE_S / slice_s


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None

    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; a disabled tracer records nothing.  A
    span's parent is the innermost span open when it began, so each
    thread uses its own tracer."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack
        record = Span(name, 0.0, parent=stack[-1] if stack else None, job=self.job)
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration()
    return [span.duration() - covered[i] for i, span in enumerate(spans)]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def attribute(spans: Sequence[Span], wall: float) -> Tuple[Dict[str, float], float]:
    """Per-span-name self times of the layer spans, and the residual:
    ``wall`` minus those self times (harness spans and time outside
    every span)."""
    layers = {
        name: own
        for name, own in layer_self_times(spans).items()
        if not name.startswith("bench.")
    }
    return layers, wall - sum(layers.values())


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest nearest-rank percentile that leaves at least
    :data:`TAIL_BEYOND` samples beyond it: ``(value, percentile,
    samples)``.  With too few samples it is the maximum (percentile
    100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - 1 - TAIL_BEYOND
    if index < 0:
        return ordered[-1], 100.0, n
    return ordered[index], 100.0 * (index + 1) / n, n


@dataclass
class Verdicts:
    """Every verdict a run produced, checked against the known answers."""

    attempted: int = 0
    wrong: int = 0
    failed: int = 0
    #: Wrong verdicts explained by an entry of the known-defect ledger.
    known_defects: Dict[str, int] = field(default_factory=dict)
    #: Wrong verdicts the ledger does not explain (first few kept).
    unexpected: List[str] = field(default_factory=list)

    def record(self, right: bool, detail: str = "", defect: Optional[str] = None) -> None:
        """One verdict: ``right`` when it matches the known answer;
        ``defect`` names the ledger entry a wrong verdict matches."""
        self.attempted += 1
        if right:
            return
        self.wrong += 1
        self.failed += 1
        if defect is not None:
            self.known_defects[defect] = self.known_defects.get(defect, 0) + 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(detail)

    def refused(self) -> None:
        """A request that got no verdict: an error, a refusal or a
        deadline partial."""
        self.attempted += 1
        self.failed += 1

    def correct(self) -> bool:
        """True when every wrong verdict is one the known-defect ledger
        explains.  Refusals are failures, not wrong outputs."""
        return self.attempted > 0 and not self.unexpected
