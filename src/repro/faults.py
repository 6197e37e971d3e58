"""Deterministic fault injection for the robustness test surface.

The process-parallel execution tier (:mod:`repro.transforms.executor`),
the :class:`~repro.transforms.compile_cache.CompileCache` hit path and
the ``repro-opt`` batch loop are threaded with named *injection points*
(:func:`fault_point`).  A :class:`FaultPlan` maps injection points to one
of four fault kinds, keyed by occurrence index and/or the call's key, so
the chaos suite can deterministically reproduce every failure class the
supervisor claims to survive:

``crash``
    The process dies on the spot (``os._exit``) — a segfaulting worker.
``hang``
    The call sleeps (default far beyond any deadline) — a wedged worker.
``transient``
    :class:`TransientFault` is raised — a retryable environmental error.
``corrupt``
    :func:`fault_point` returns ``"corrupt"`` and the call site mangles
    its own payload — a worker returning garbage.

Plans activate through the API (:func:`install_fault_plan`, or the
:func:`fault_plan` context manager in tests) or through the
``REPRO_FAULT_PLAN`` environment variable, which forked/spawned worker
processes re-read lazily so a plan installed before the pool exists is
honoured inside every worker.

Plan syntax (``;``-separated rules)::

    point[@key][:occurrence]=kind[/arg]

    executor.worker:0=crash          first attempt of any unit crashes
    executor.worker@k1=transient     first attempt at key "k1" fails
    executor.worker@k1:*=transient   every attempt at "k1" fails
    executor.worker@k1=hang/30       first attempt at "k1" sleeps 30s
    compile-cache.hit=corrupt        first cache hit splices garbage
    disk-cache.read=corrupt          first disk read loads garbage
    disk-cache.write:*=transient     every disk store fails (cache off)
    serve.request@compile=transient  first daemon compile is retryable
    jit.compile=corrupt              first JIT codegen emits garbage —
                                     the engine degrades to the
                                     interpreter tier with a remark
    jit.exec@gemm=transient          first jit run of kernel "gemm"
                                     fails pre-dispatch; same degrade
    vector.compile=corrupt           first vector-tier codegen emits
                                     garbage — the kernel runs on the
                                     next tier with a remark

Occurrence indices are 0-based.  A missing occurrence means ``0`` (fire
once, on the first matching call); ``*`` fires on every matching call.
Call sites that retry pass the attempt number explicitly so occurrence
matching stays deterministic even when a crashed worker process (whose
local counters died with it) is replaced by a fresh one.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: The four injectable fault classes.
FAULT_KINDS = ("crash", "hang", "corrupt", "transient")

#: Environment variable carrying a plan spec into worker processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Seconds a ``hang`` sleeps when the rule carries no ``/seconds`` arg —
#: far beyond any reasonable work-unit deadline, so an unbounded wait
#: shows up as a test timeout instead of passing silently.
DEFAULT_HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """An injected fault surfaced as an exception."""

    def __init__(self, message: str, kind: str = "transient"):
        super().__init__(message)
        self.kind = kind


class TransientFault(FaultInjected):
    """A retryable injected failure (kind ``transient``)."""

    def __init__(self, message: str):
        super().__init__(message, kind="transient")


@dataclass(frozen=True)
class FaultRule:
    """One ``point[@key][:occurrence]=kind[/arg]`` plan entry."""

    point: str
    kind: str
    #: 0-based occurrence index to fire on; ``None`` fires on every
    #: matching occurrence (the ``:*`` spelling).
    occurrence: Optional[int] = 0
    #: Exact key to match; ``None`` matches any key.
    key: Optional[str] = None
    #: Kind parameter (hang duration in seconds).
    arg: Optional[str] = None

    def matches(self, point: str, key: Optional[str],
                occurrence: int) -> bool:
        if self.point != point:
            return False
        if self.key is not None and self.key != key:
            return False
        return self.occurrence is None or self.occurrence == occurrence

    def to_spec(self) -> str:
        spec = self.point
        if self.key is not None:
            spec += f"@{self.key}"
        if self.occurrence is None:
            spec += ":*"
        elif self.occurrence != 0:
            spec += f":{self.occurrence}"
        spec += f"={self.kind}"
        if self.arg is not None:
            spec += f"/{self.arg}"
        return spec


@dataclass
class FaultFire:
    """Record of one rule firing (kept for assertions in tests)."""

    point: str
    key: Optional[str]
    occurrence: int
    kind: str


@dataclass
class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s plus firing bookkeeping.

    Occurrence counters are kept per ``point`` and per ``(point, key)``;
    a rule with a key consults the per-key counter, so "the second
    attempt at unit k3" is expressible independently of how many other
    units visited the same point first.
    """

    rules: List[FaultRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._point_counts: Dict[str, int] = {}
        self._key_counts: Dict[Tuple[str, Optional[str]], int] = {}
        self.fires: List[FaultFire] = []

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``;``-separated plan spec; raises ``ValueError``."""
        rules: List[FaultRule] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ValueError(
                    f"fault rule {entry!r} lacks '=kind'")
            lhs, rhs = entry.split("=", 1)
            kind, _, arg = rhs.partition("/")
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in {entry!r}; expected "
                    f"one of {', '.join(FAULT_KINDS)}")
            key: Optional[str] = None
            if "@" in lhs:
                point, key = lhs.split("@", 1)
            else:
                point = lhs
            occurrence: Optional[int] = 0
            tail = key if key is not None else point
            head, _, occ_text = tail.rpartition(":")
            if head and (occ_text == "*" or occ_text.isdigit()):
                occurrence = None if occ_text == "*" else int(occ_text)
                if key is not None:
                    key = head
                else:
                    point = head
            if not point:
                raise ValueError(f"fault rule {entry!r} lacks a point name")
            rules.append(FaultRule(point=point, kind=kind,
                                   occurrence=occurrence, key=key,
                                   arg=arg or None))
        return cls(rules=rules)

    def to_spec(self) -> str:
        """Canonical spec — what to export as ``REPRO_FAULT_PLAN``."""
        return ";".join(rule.to_spec() for rule in self.rules)

    def check(self, point: str, key: Optional[str] = None,
              occurrence: Optional[int] = None) -> Optional[FaultRule]:
        """The first rule matching this call, advancing counters.

        ``occurrence=None`` uses the plan's own per-point / per-key
        counters; call sites that retry (the executor) pass the attempt
        number explicitly instead.
        """
        with self._lock:
            if occurrence is None:
                if key is not None:
                    count_key = (point, key)
                    occurrence = self._key_counts.get(count_key, 0)
                    self._key_counts[count_key] = occurrence + 1
                self._point_counts.setdefault(point, 0)
                point_occurrence = self._point_counts[point]
                self._point_counts[point] = point_occurrence + 1
                if key is None:
                    occurrence = point_occurrence
            else:
                point_occurrence = occurrence
            for rule in self.rules:
                probe = occurrence if rule.key is not None \
                    else point_occurrence
                if rule.matches(point, key, probe):
                    self.fires.append(
                        FaultFire(point, key, probe, rule.kind))
                    return rule
        return None


#: Plan installed through the API; overrides the environment.
_installed_plan: Optional[FaultPlan] = None
#: Cache of the last environment spec parsed, so tests that swap
#: ``REPRO_FAULT_PLAN`` between cases get a fresh plan (and fresh
#: counters) without an explicit reset.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)
_state_lock = threading.Lock()


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) the process-wide fault plan."""
    global _installed_plan
    with _state_lock:
        _installed_plan = plan


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan in effect: the installed one, else ``REPRO_FAULT_PLAN``.

    The environment spec is parsed lazily and re-parsed whenever its
    value changes, so worker processes created by ``fork`` *or* ``spawn``
    both honour a plan exported before the pool was built.
    """
    global _env_cache
    with _state_lock:
        if _installed_plan is not None:
            return _installed_plan
        spec = os.environ.get(FAULT_PLAN_ENV)
        if spec is None or not spec.strip():
            return None
        cached_spec, cached_plan = _env_cache
        if spec != cached_spec:
            _env_cache = (spec, FaultPlan.parse(spec))
        return _env_cache[1]


class fault_plan:
    """Context manager installing a plan (from a spec string) for a test."""

    def __init__(self, spec: str):
        self.plan = FaultPlan.parse(spec)

    def __enter__(self) -> FaultPlan:
        install_fault_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        install_fault_plan(None)


def fault_point(point: str, key: Optional[str] = None,
                occurrence: Optional[int] = None) -> Optional[str]:
    """Declare an injection point; a no-op unless a plan matches.

    Returns ``None`` normally.  When a matching ``corrupt`` rule fires it
    returns ``"corrupt"`` and the call site corrupts its own payload;
    ``transient`` raises :class:`TransientFault`; ``hang`` sleeps;
    ``crash`` kills the process without cleanup (``os._exit``), which is
    exactly what a segfault looks like from the supervising side.
    """
    plan = active_fault_plan()
    if plan is None:
        return None
    rule = plan.check(point, key=key, occurrence=occurrence)
    if rule is None:
        return None
    if rule.kind == "crash":
        os._exit(41)
    if rule.kind == "hang":
        seconds = float(rule.arg) if rule.arg else DEFAULT_HANG_SECONDS
        time.sleep(seconds)
        return None
    if rule.kind == "transient":
        raise TransientFault(
            f"injected transient fault at {point}"
            + (f" (key={key})" if key else ""))
    return "corrupt"
