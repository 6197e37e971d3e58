"""Timing primitives of the end-to-end benchmark, in one place.

* :func:`calibration_unit` — a fixed pure-Python loop (dict/list/tuple
  churn, about 3 ms on the reference box).  The sandbox's speed drifts by
  tens of percent over seconds (raw medians of identical code differ by
  30-60 % between processes, CPU time tracks wall time, so it is the
  machine, not preemption); a work chunk divided by the calibration units
  that ran immediately before and after it does not: interleaved at this
  granularity the median ratio repeats within about 1 % across
  processes.
* :class:`Sampler` — runs work in *chunks* of a few to a few hundred
  milliseconds, brackets every chunk with calibration units and records
  ``chunk_s / mean(adjacent unit_s) * CAL_REF_S`` — "speed-normalised
  seconds": what the chunk would have taken on a box whose calibration
  unit takes exactly :data:`CAL_REF_S`.
* :func:`summarize` — ``n``, median, quartiles, the highest percentile
  that still has ten samples beyond it, and the raw (un-normalised)
  median of a row.
* :class:`SpanRecorder` — the in-memory trace: name, start, end, parent
  and tags of every span; self time is a span minus its children.
* :func:`environment` — nproc, versions and load average.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Loop count of one calibration unit (about 3 ms on the reference box).
CAL_UNIT_ITERATIONS = 20000
#: Nominal duration of one unit: normalised seconds are expressed on a
#: box where the unit takes exactly this long.
CAL_REF_S = 0.003
#: A "before" unit older than this is stale and is measured again.
CAL_REUSE_S = 0.0005
#: A workload whose calibration units spread wider than this (IQR over
#: median) is reported as noisy.
NOISY_CAL_SPREAD = 0.15


def calibration_unit() -> float:
    """Run the fixed loop once; seconds it took."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    recent: List[Tuple[int, int]] = []
    for i in range(CAL_UNIT_ITERATIONS):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        recent.append((key, i))
        if len(recent) > 64:
            recent = recent[32:]
    return time.perf_counter() - start


def pin_to_one_cpu() -> Tuple[int, ...]:
    """Pin the calling thread (and so every child started later) to the
    highest-numbered CPU it may run on; returns the CPUs left over
    (empty where the platform has no affinity calls).

    The sandbox's virtual CPUs drift in speed independently of each
    other (simultaneous calibration series on the two CPUs correlate at
    about -0.2), so a calibration unit says something about a chunk of
    work only if both ran on the same CPU.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
        return tuple(allowed[:-1])
    except (AttributeError, OSError):
        return ()


def calibrate(units: int = 5) -> float:
    """Median of ``units`` calibration units (for one-off measurements)."""
    return statistics.median(calibration_unit() for _ in range(units))


def normalise(seconds: float, unit_s: float) -> float:
    return seconds / unit_s * CAL_REF_S


class Bracket:
    """Calibration around a one-off measurement outside the sampler::

        with Bracket() as bracket:
            start = time.perf_counter()
            ...
            elapsed = time.perf_counter() - start
        seconds = bracket.normalise(elapsed)
    """

    def __enter__(self) -> "Bracket":
        self._before = calibration_unit()
        return self

    def __exit__(self, *exc_info) -> None:
        self.unit = (self._before + calibration_unit()) / 2.0

    def normalise(self, seconds: float) -> float:
        return normalise(seconds, self.unit)


def timed(work: Callable[[], object]) -> Tuple[object, float]:
    """Run ``work`` once; ``(its result, speed-normalised seconds)``."""
    with Bracket() as bracket:
        start = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - start
    return result, bracket.normalise(elapsed)


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has
    ten samples beyond it; the median when there are too few samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return 50.0, statistics.median(ordered)
    position = count - 11
    return 100.0 * (position + 1) / count, ordered[position]


def summarize(samples: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Row statistics of ``(raw_s, normalised_s)`` samples."""
    raw = [sample[0] for sample in samples]
    normalised = [sample[1] for sample in samples]
    q1, median, q3 = quartiles(normalised)
    percentile, tail_value = tail(normalised)
    return {"n": len(samples), "median": median, "q1": q1, "q3": q3,
            "tail_percentile": percentile, "tail": tail_value,
            "raw_median": statistics.median(raw)}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

_NULL_SPAN = nullcontext()


class SpanRecorder:
    """In-memory span trace; records nothing until :attr:`enabled` is set.

    Spans nest per thread (the parent of a span is the innermost open
    span of the same thread).  Each record is a list
    ``[name, start, end, parent index or -1, tags]``.
    """

    def __init__(self):
        self.enabled = False
        self.spans: List[list] = []
        self.tags: Dict[str, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str):
        """Context manager around one layer call (free when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def open(self, name: str) -> None:
        """Open a span by hand (for hooks that cannot use ``with``)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # ``tags`` is replaced, never mutated, by whoever sets it, so
        # spans can share the dict instead of copying it.
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tags]
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()

    def close(self) -> None:
        end = time.perf_counter()
        self.spans[self._local.stack.pop()][2] = end

    # -- analysis -----------------------------------------------------------
    def self_times(self, first: int = 0) -> Dict[int, float]:
        """Span index -> duration minus the duration of its children."""
        spans = self.spans
        own = {index: spans[index][2] - spans[index][1]
               for index in range(first, len(spans))}
        for index in range(first, len(spans)):
            parent = spans[index][3]
            if parent >= first:
                own[parent] -= spans[index][2] - spans[index][1]
        return own

    def export(self) -> List[dict]:
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, **tags}
                for name, start, end, parent, tags in self.spans]


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------

class Sampler:
    """Runs chunks of work bracketed by calibration units.

    Rows are keyed by name; a row is a list of ``(raw_s, normalised_s)``.
    While the recorder is enabled every chunk is a root span and the
    self time of each span below it is normalised with the chunk's own
    calibration and added to ``layers[span name]`` for the current
    sample.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.rows: Dict[str, List[Tuple[float, float]]] = {}
        self.units: List[float] = []
        #: Per sample: layer name -> normalised self seconds.
        self.layer_samples: List[Dict[str, float]] = []
        self._layers: Optional[Dict[str, float]] = None
        self._covered = 0.0
        self._chunk_wall = 0.0
        self._last_unit = 0.0
        self._last_unit_count = 0
        self._last_unit_end = float("-inf")
        #: Operations run as chunks, and how many of them raised.
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    # -- calibration --------------------------------------------------------
    def _unit(self, units: int = 1) -> float:
        """Mean of ``units`` fresh calibration units."""
        taken = [calibration_unit() for _ in range(units)]
        self.units.extend(taken)
        self._last_unit = statistics.fmean(taken)
        self._last_unit_count = units
        self._last_unit_end = time.perf_counter()
        return self._last_unit

    def _unit_before(self, units: int = 1) -> float:
        if time.perf_counter() - self._last_unit_end <= CAL_REUSE_S \
                and self._last_unit_count >= units:
            return self._last_unit
        return self._unit(units)

    # -- samples ------------------------------------------------------------
    def begin_sample(self) -> None:
        self._layers = {} if self.recorder.enabled else None

    def end_sample(self) -> None:
        if self._layers is not None:
            self.layer_samples.append(self._layers)
        self._layers = None

    def chunk(self, row: str, work: Callable[[], object], units: int = 1):
        """Run ``work`` as one calibrated chunk recorded under ``row``.

        ``units`` calibration units are taken on each side (their mean
        counts): one is right for chunks of milliseconds, where the
        median over hundreds of chunks discards a disturbed unit.  A
        chunk of a second is one of a handful of samples and averages
        over every stall that falls into it, so its denominator must
        too: ten units a side cut the spread of such rows by a third
        (measured; median-of-three did not).

        An operation that raises is counted as failed, contributes no
        timing and returns ``None``: one bad program must not end a run
        that reports failures as a share of attempts.
        """
        before = self._unit_before(units)
        first_span = len(self.recorder.spans)
        self.attempted += 1
        try:
            with self.recorder.span(f"chunk:{row}"):
                start = time.perf_counter()
                result = work()
                elapsed = time.perf_counter() - start
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.failed += 1
            self.errors.append(f"{row}: {type(error).__name__}: {error}")
            return None
        unit = (before + self._unit(units)) / 2.0
        self.record(row, elapsed, unit)
        self.fold_spans(first_span, unit)
        return result

    def record(self, row: str, elapsed: float, unit: float) -> None:
        self.rows.setdefault(row, []).append(
            (elapsed, normalise(elapsed, unit)))

    def bracket(self, work: Callable[[], object]) -> Tuple[object, float]:
        """Run ``work`` between calibration units; ``(result, unit_s)``.
        For chunks whose rows the caller records itself (one chunk that
        holds many timed requests)."""
        before = self._unit_before()
        result = work()
        return result, (before + self._unit()) / 2.0

    def fold_spans(self, first_span: int, unit: float) -> None:
        """Add the self times of the spans recorded since ``first_span``,
        normalised with ``unit``, to the current sample's layers."""
        if self._layers is None:
            return
        spans = self.recorder.spans
        own = self.recorder.self_times(first_span)
        for index, seconds in own.items():
            name, start, end, parent, _ = spans[index]
            if name.startswith("chunk:"):
                self._chunk_wall += end - start
                continue
            if parent >= first_span and \
                    spans[parent][0].startswith("chunk:"):
                self._covered += end - start
            self._layers[name] = self._layers.get(name, 0.0) \
                + normalise(seconds, unit)

    # -- results ------------------------------------------------------------
    def median(self, row: str) -> float:
        return statistics.median(s[1] for s in self.rows[row])

    def coverage(self) -> float:
        """Share of traced chunk wall time inside layer spans."""
        return self._covered / self._chunk_wall if self._chunk_wall else 0.0

    def layer_medians(self) -> Dict[str, float]:
        names = sorted({name for sample in self.layer_samples
                        for name in sample})
        return {name: statistics.median(sample.get(name, 0.0)
                                        for sample in self.layer_samples)
                for name in names}

    def unit_spread(self) -> float:
        return spread(self.units)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def load_average() -> List[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": sys.platform,
            "load_average": load_average()}


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process (or of its waited-for children)."""
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
