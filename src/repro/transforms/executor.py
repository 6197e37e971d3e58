"""Supervised worker processes for ``repro-opt`` batches.

A :class:`~repro.transforms.pass_manager.PassManager` run is serial and
GIL-bound.  ``repro-opt --jobs N`` escapes the GIL by shipping whole
batch segments to N ``ProcessPoolExecutor`` workers.  This module
treats the executor as a first-class *failure domain* rather than a
transparent speedup: workers can crash, hang, or return garbage, so
every dispatch runs under a supervisor implementing the full failure
matrix.

A work unit is a segment's text plus the pipeline's canonical spec, both
lossless by construction.  The worker parses, verifies, compiles and
prints the whole module; the parent fingerprint-checks the printed text
and stitches it back in input order.  No splice, no parent-side parse.

Failure matrix (every class injectable via :mod:`repro.faults` and
exercised by ``tests/test_fault_tolerance.py``):

===========  ====================================================
fault        supervision
===========  ====================================================
crash        ``BrokenProcessPool`` → pool rebuild (bounded), every
             in-flight unit rescheduled with an attempt charged
hang         per-unit deadline → pool restart, the overdue unit is
             charged an attempt, innocents reschedule free
corrupt      parent-side fingerprint check → treated as a failed
             attempt (retry, then degrade)
transient    bounded retry with exponential backoff
===========  ====================================================

Exhausted units degrade to an **in-process run** (the caller supplies
the fallback), so a deterministic compile error reproduces with native
in-process semantics and no fault class can ever fail a compile that
serial would pass.  When the tier itself cannot make progress (pool
rebuild budget exhausted, pool unbuildable) a :class:`TierError` is
raised and the caller compiles the batch in-process (see
``docs/robustness.md``).

Worker exceptions cross the process boundary as payload dicts (via
:meth:`repro.ir.Diagnostic.to_payload`) carrying the failing pass name
and pipeline position, so a cross-process error renders like an
in-process one.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..faults import FaultPlan, TransientFault, active_fault_plan, fault_point
from ..ir import Diagnostic, Severity
from .compile_cache import text_fingerprint
from .pass_manager import PassInstrumentation

#: How long one ``wait`` poll blocks while watching in-flight futures.
#: Completed futures wake the wait immediately; the poll only bounds how
#: late a deadline overrun is noticed.
_POLL_SECONDS = 0.05


class TierError(RuntimeError):
    """The process tier cannot make progress; compile in-process."""


class CorruptResult(RuntimeError):
    """A worker result failed its fingerprint check."""


@dataclass
class ExecutorOptions:
    """Supervision policy for the process tier."""

    #: Worker process count.
    jobs: int = 2
    #: Per-unit wall-clock deadline (seconds) before a worker is
    #: presumed hung and the pool restarted.
    deadline: float = 60.0
    #: Failed attempts tolerated per unit beyond the first try.
    max_retries: int = 2
    #: Base backoff delay (seconds); doubles per retry.
    backoff: float = 0.05
    #: Pool restarts (crash or hang) tolerated per ``run_units`` call.
    max_pool_rebuilds: int = 3


@dataclass
class WorkUnit:
    """One batch segment shipped to a worker."""

    uid: int
    #: Stable label (the segment's origin) used in events, diagnostics
    #: and fault-plan keys.
    label: str
    #: Textual IR of the segment.
    text: str
    #: The pipeline's canonical root spec.
    spec: str
    #: Verify before and after the pipeline.
    verify: bool = False
    #: Print ``loc(...)`` trailers on the result.
    print_locations: bool = False
    #: Source file the unit came from (diagnostics).
    filename: str = "<unit>"
    #: The line of ``filename`` the unit's text starts on.
    first_line: int = 1


@dataclass
class WorkResult:
    """The supervised outcome of one unit."""

    unit: WorkUnit
    #: Printed result text; ``None`` when the in-process fallback
    #: failed to compile the segment.
    text: Optional[str]
    #: ``(pass_name, statistic, value)`` triples from the unit's run.
    statistics: List[Tuple[str, str, int]] = field(default_factory=list)
    remarks: List[str] = field(default_factory=list)
    #: Position-keyed pass timings.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Total attempts consumed (1 = first try succeeded).
    attempts: int = 1
    #: True when the unit fell back to an in-process serial run.
    degraded: bool = False
    #: Recovery events for this unit, in occurrence order.
    events: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _PassTracker(PassInstrumentation):
    """Instrumentation recording the pass currently executing, so a
    worker exception can name the pass and pipeline position it
    happened in."""

    def __init__(self):
        self.current: Optional[Tuple[str, Optional[int]]] = None

    def run_before_pass(self, pass_, op) -> None:
        self.current = (pass_.NAME, pass_.pipeline_position)


def _report_fields(report) -> dict:
    return {
        "statistics": [(s.pass_name, s.name, s.value)
                       for s in report.statistics],
        "remarks": list(report.remarks),
        "timings": dict(report.timings),
    }


def _error_fields(exc: BaseException, location=None,
                  tracker: Optional[_PassTracker] = None) -> dict:
    diagnostic = Diagnostic(Severity.ERROR,
                            f"{type(exc).__name__}: {exc}", location)
    fields = {"diagnostic": diagnostic.to_payload(),
              "pass_name": None, "pass_position": None}
    if tracker is not None and tracker.current is not None:
        fields["pass_name"], fields["pass_position"] = tracker.current
    return fields


def _compile_work_unit(payload: dict) -> dict:
    """Worker entry point: compile one unit, return a picklable dict.

    Never raises — genuine failures come back as ``ok=False`` payloads
    (crash/hang faults bypass Python entirely, which is the point).
    """
    from .. import dialects  # noqa: F401 - registers ops
    from ..faults import install_fault_plan
    from .compile_cache import CompileSession
    from .pipelines import parse_pass_pipeline

    if payload.get("fault_plan"):
        install_fault_plan(FaultPlan.parse(payload["fault_plan"]))
    label = payload["label"]
    attempt = payload["attempt"]
    tracker = _PassTracker()
    try:
        fault_point("executor.worker", key=label, occurrence=attempt)
        outcome = CompileSession(
            parse_pass_pipeline(payload["spec"]).add_instrumentation(tracker),
            verify=bool(payload.get("verify")),
            print_locations=payload.get("print_locations", False),
        ).compile(payload["text"], payload["filename"],
                  first_line=payload.get("first_line", 1))
        if outcome.kind is not None:
            # A crashed pass is named by the tracker; report what it raised.
            error = outcome.error.error if outcome.kind == "internal" \
                else outcome.error
            return {"ok": False, "uid": payload["uid"], "transient": False,
                    **_error_fields(error, outcome.location, tracker)}
        result = {"ok": True, "uid": payload["uid"], "text": outcome.text,
                  "fingerprint": text_fingerprint(outcome.text)}
        result.update(_report_fields(outcome.report))
        if fault_point("executor.worker.result", key=label,
                       occurrence=attempt) == "corrupt":
            result["text"] = ("// corrupted worker result\n"
                              + result["text"][::-1])
        return result
    except TransientFault as exc:
        return {"ok": False, "uid": payload["uid"], "transient": True,
                **_error_fields(exc, None, tracker)}
    except BaseException as exc:  # noqa: BLE001 - shipped to supervisor
        return {"ok": False, "uid": payload["uid"], "transient": False,
                **_error_fields(exc, None, tracker)}


# ---------------------------------------------------------------------------
# Result validation (parent side)
# ---------------------------------------------------------------------------

def validate_segment_result(unit: WorkUnit, outcome: dict) -> str:
    """Fingerprint-check a segment unit's printed result text; raises
    :class:`CorruptResult` on any discrepancy."""
    text = outcome.get("text")
    if not isinstance(text, str) or not text.strip():
        raise CorruptResult(f"unit '{unit.label}': empty worker result")
    if text_fingerprint(text) != outcome.get("fingerprint"):
        raise CorruptResult(
            f"unit '{unit.label}': result fingerprint mismatch")
    if fault_point("executor.splice", key=unit.label) == "corrupt":
        raise CorruptResult(
            f"unit '{unit.label}': injected corrupt segment result")
    return text


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

#: ``validate(unit, outcome_dict) -> text`` — raises CorruptResult.
Validator = Callable[[WorkUnit, dict], str]
#: ``serial_fallback(unit, attempts, events) -> WorkResult`` — runs the
#: unit in-process with serial semantics (exceptions propagate: a
#: deterministic compile error must fail the compile exactly as serial
#: would).
SerialFallback = Callable[[WorkUnit, int, List[str]], WorkResult]


class SupervisedExecutor:
    """A ``ProcessPoolExecutor`` wrapped in retry/deadline supervision.

    Every pool teardown is a ``terminate`` — workers are stateless by design,
    so killing them never loses anything but in-flight attempts, and it
    is the only way to preempt a hung worker.
    """

    def __init__(self, options: Optional[ExecutorOptions] = None):
        self.options = options or ExecutorOptions()
        #: Pool-level events (rebuilds), appended in occurrence order.
        self.events: List[str] = []
        #: Supervision counters (crashes, hangs, retries, ...).
        self.stats: Dict[str, int] = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None)
                self._pool = ProcessPoolExecutor(
                    max_workers=max(1, self.options.jobs),
                    mp_context=context)
            except (OSError, ValueError, PermissionError) as exc:
                raise TierError(f"cannot start worker pool: {exc}")
        return self._pool

    def close(self) -> None:
        """Terminate workers and drop the pool (idempotent, never
        blocks on a hung worker — Ctrl-C must not orphan processes)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _bump(self, name: str, value: int = 1) -> None:
        self.stats[name] = self.stats.get(name, 0) + value

    def _payload(self, unit: WorkUnit, attempt: int) -> dict:
        plan = active_fault_plan()
        return {
            "uid": unit.uid, "label": unit.label,
            "text": unit.text, "spec": unit.spec, "verify": unit.verify,
            "print_locations": unit.print_locations,
            "filename": unit.filename, "first_line": unit.first_line,
            "attempt": attempt,
            # The plan travels inside the payload so occurrence-indexed
            # worker rules keep firing deterministically even after a
            # crashed worker (whose counters died with it) is replaced.
            "fault_plan": plan.to_spec() if plan is not None else None,
        }

    # -- the supervision loop ----------------------------------------------
    def run_units(self, units: List[WorkUnit], validate: Validator,
                  serial_fallback: SerialFallback) -> Dict[int, WorkResult]:
        """Run every unit to a successful result; returns ``uid ->``
        :class:`WorkResult`.

        Raises :class:`TierError` when the tier cannot make progress
        (caller degrades), or the unit's own error when the in-process
        serial fallback reproduces a deterministic compile failure.
        """
        try:
            fault_point("process-tier.dispatch")
        except TransientFault as exc:
            raise TierError(str(exc))
        opts = self.options
        results: Dict[int, WorkResult] = {}
        attempts: Dict[int, int] = {unit.uid: 0 for unit in units}
        unit_events: Dict[int, List[str]] = {unit.uid: [] for unit in units}
        #: ``(due time, unit)`` — first attempts are due immediately.
        ready: List[Tuple[float, WorkUnit]] = [(0.0, unit)
                                               for unit in units]
        in_flight: Dict[Future, Tuple[WorkUnit, float]] = {}
        rebuilds = 0

        def degrade_unit(unit: WorkUnit, reason: str) -> None:
            self._bump("degraded_units")
            unit_events[unit.uid].append(
                f"unit '{unit.label}': degraded to in-process serial "
                f"run ({reason})")
            results[unit.uid] = serial_fallback(
                unit, attempts[unit.uid], unit_events[unit.uid])

        def charge_attempt(unit: WorkUnit, reason: str) -> None:
            """Count a failed attempt; reschedule with backoff or
            degrade when the retry budget is spent."""
            attempts[unit.uid] += 1
            used = attempts[unit.uid]
            if used > opts.max_retries:
                degrade_unit(unit, f"{reason}; retries exhausted "
                                   f"after {used} attempt(s)")
            else:
                delay = opts.backoff * (2 ** (used - 1))
                unit_events[unit.uid].append(
                    f"unit '{unit.label}': {reason}; retrying "
                    f"(attempt {used + 1}) after {delay:.2f}s backoff")
                ready.append((time.monotonic() + delay, unit))

        def restart_pool(cause: str) -> None:
            nonlocal rebuilds
            rebuilds += 1
            self._bump("pool_rebuilds")
            self.events.append(
                f"worker pool restarted after {cause} "
                f"(restart {rebuilds}/{opts.max_pool_rebuilds})")
            self.close()
            if rebuilds > opts.max_pool_rebuilds:
                raise TierError(
                    f"worker pool restart budget exhausted ({cause})")

        while len(results) < len(units):
            now = time.monotonic()
            waiting: List[Tuple[float, WorkUnit]] = []
            broken_at_submit = False
            for due, unit in ready:
                if unit.uid in results:
                    continue
                if due > now:
                    waiting.append((due, unit))
                    continue
                try:
                    future = self._ensure_pool().submit(
                        _compile_work_unit,
                        self._payload(unit, attempts[unit.uid]))
                except BrokenProcessPool:
                    # A worker died while this batch was still being
                    # submitted.  This unit never started: it waits,
                    # uncharged, for the restart the in-flight futures
                    # are about to trigger below.
                    broken_at_submit = True
                    waiting.append((due, unit))
                    continue
                except RuntimeError as exc:
                    raise TierError(f"cannot submit to worker pool: {exc}")
                in_flight[future] = (unit, time.monotonic())
            ready = waiting
            if broken_at_submit and not in_flight:
                restart_pool("worker crash")
                continue
            if not in_flight:
                if ready:
                    time.sleep(max(0.0, min(due for due, _ in ready)
                                   - time.monotonic()))
                    continue
                if len(results) < len(units):  # pragma: no cover - guard
                    raise TierError("supervision loop stalled")
                break

            done, _ = wait(set(in_flight), timeout=_POLL_SECONDS,
                           return_when=FIRST_COMPLETED)
            pool_broken = False
            for future in done:
                unit, _started = in_flight.pop(future)
                if unit.uid in results:
                    continue
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    self._bump("worker_crashes")
                    charge_attempt(unit, "worker crashed")
                    continue
                except Exception as exc:  # noqa: BLE001 - supervised
                    # Cancelled (pool torn down under it) or transport
                    # failure: reschedule without charging the unit.
                    unit_events[unit.uid].append(
                        f"unit '{unit.label}': preempted "
                        f"({type(exc).__name__}); rescheduled")
                    ready.append((time.monotonic(), unit))
                    continue
                self._handle_outcome(unit, outcome, validate, attempts,
                                     unit_events, results, charge_attempt,
                                     degrade_unit)
            if pool_broken:
                # Every other in-flight future is doomed too: charge the
                # crash to all of them (the actual crasher must advance
                # its attempt counter; innocents have budget to spare)
                # and restart the pool once for the whole batch.
                for future, (unit, _started) in list(in_flight.items()):
                    if unit.uid not in results:
                        self._bump("worker_crashes")
                        charge_attempt(unit, "worker crashed")
                in_flight.clear()
                restart_pool("worker crash")
                continue

            now = time.monotonic()
            overdue = [(future, unit) for future, (unit, started)
                       in in_flight.items()
                       if now - started > opts.deadline]
            if overdue:
                for future, unit in overdue:
                    del in_flight[future]
                    if unit.uid in results:
                        continue
                    self._bump("hangs")
                    charge_attempt(
                        unit, f"deadline exceeded ({opts.deadline:.1f}s)")
                # A running task cannot be cancelled; terminating the
                # pool is the only preemption.  Innocent in-flight units
                # reschedule without an attempt charged.
                for future, (unit, _started) in list(in_flight.items()):
                    if unit.uid not in results:
                        unit_events[unit.uid].append(
                            f"unit '{unit.label}': preempted by pool "
                            "restart; rescheduled")
                        ready.append((now, unit))
                in_flight.clear()
                restart_pool("deadline overrun")
        return results

    def _handle_outcome(self, unit: WorkUnit, outcome: dict,
                        validate: Validator, attempts: Dict[int, int],
                        unit_events: Dict[int, List[str]],
                        results: Dict[int, WorkResult],
                        charge_attempt, degrade_unit) -> None:
        if not isinstance(outcome, dict):
            charge_attempt(unit, "malformed worker reply")
            return
        if outcome.get("ok"):
            try:
                text = validate(unit, outcome)
            except CorruptResult as exc:
                self._bump("corrupt_results")
                charge_attempt(unit, f"corrupt result ({exc})")
                return
            used = attempts[unit.uid] + 1
            if used > 1:
                self._bump("recovered_units")
                unit_events[unit.uid].append(
                    f"unit '{unit.label}': recovered after "
                    f"{used - 1} failed attempt(s)")
            results[unit.uid] = WorkResult(
                unit=unit, text=text,
                statistics=[tuple(triple)
                            for triple in outcome.get("statistics", [])],
                remarks=list(outcome.get("remarks", [])),
                timings=dict(outcome.get("timings", {})),
                attempts=used, events=unit_events[unit.uid])
            return
        diagnostic = self._render_worker_error(unit, outcome)
        if outcome.get("transient"):
            self._bump("transient_retries")
            charge_attempt(unit, f"transient worker error ({diagnostic})")
            return
        # A deterministic error: retrying cannot help, and the error
        # must surface with in-process semantics — degrade this unit to
        # the serial fallback, which reproduces (and raises) it.
        self._bump("worker_errors")
        unit_events[unit.uid].append(
            f"unit '{unit.label}': worker error: {diagnostic}")
        degrade_unit(unit, "deterministic worker error")

    @staticmethod
    def _render_worker_error(unit: WorkUnit, outcome: dict) -> str:
        """A located, pass-attributed rendering of a worker failure."""
        payload = outcome.get("diagnostic")
        try:
            diagnostic = Diagnostic.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return f"unit '{unit.label}': unintelligible worker error"
        rendered = diagnostic.render()
        if outcome.get("pass_name"):
            position = outcome.get("pass_position")
            where = f"in pass '{outcome['pass_name']}'"
            if position is not None:
                where += f" at pipeline position {position}"
            rendered += f" ({where})"
        return rendered
