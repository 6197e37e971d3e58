"""The ``repro-served`` daemon: a compile/execute service over NDJSON/TCP.

Architecture: a :class:`CompileService` owns the state worth keeping
alive — one two-tier :class:`~repro.transforms.CompileCache` (optionally
backed by an on-disk :class:`~repro.transforms.DiskCache`), one
daemon-wide :class:`~repro.interp.jit_runtime.ExecutableCache` serving the
``execute`` method's vector and JIT tiers, one shared
:class:`~repro.analysis.AnalysisManager` (internally locked, so every
request thread talks to the same instance), and a pool of constructed
:class:`~repro.transforms.PassManager` instances keyed by canonical
pipeline spec.  A :class:`ReproServer` (a ``ThreadingTCPServer``) gives
each connection its own thread; all threads share the one service.

Pass managers are *checked out* for the duration of a request — a
manager is mutable (instrumentations, per-run state), so exclusive use
during a compile is the concurrency contract; the shared cache and
analysis manager are the thread-safe rendezvous between requests.
Checked-in managers are reused, so a warm daemon never re-parses a
pipeline spec it has seen before — in any spelling: requests are
resolved to the canonical spec once (a bounded memo) and the pool, the
compile cache and its front tier are all keyed on that.

Both ``compile`` and ``execute`` run one
:class:`~repro.transforms.compile_cache.CompileSession` over a
checked-out manager, so they verify, and name their errors, alike
(``parse-error``, ``pipeline-error``, ``verify-error``,
``compile-error``, and ``internal-error`` for a pass that crashed).  A
``compile`` request first asks the cache's *front tier*: the key hashes
the request's IR text, canonical spec, ``verify`` and
``print_locations``, the value is a recorded reply.  A front hit
never parses, checks out a manager or builds an operation; a miss
compiles and, when the reply is a success, records it.

Progress streaming attaches a per-request
:class:`StreamingInstrumentation` to the checked-out manager.  An
instrumented manager deliberately bypasses the compile cache (a hit
would swallow the very events the client asked for), so ``progress:
true`` trades cache hits for observability — this mirrors the
``--print-ir-*`` rule in ``repro-opt``.

Fault injection: every request passes ``serve.request`` (keyed by
method).  ``transient`` fails the request with ``retryable: true`` —
the client's retry loop resends it; ``corrupt`` is treated as the
request arriving mangled and is rejected the same way.  Neither can
produce wrong output: the compile either runs normally or not at all.
"""

from __future__ import annotations

import socketserver
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from ..analysis import AnalysisManager
from ..faults import TransientFault, fault_point
from ..transforms import (
    CompileCache,
    CompileReport,
    DiskCache,
    PassInstrumentation,
    PassManager,
    check_pass_pipeline,
    parse_pass_pipeline,
)
from ..transforms.compile_cache import CompileOutcome, CompileSession
from .protocol import (
    METHODS,
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    read_message,
    write_message,
)

#: An ``emit`` callback: receives one response event (a JSON-able dict).
Emit = Callable[[dict], None]


class StreamingInstrumentation(PassInstrumentation):
    """Streams per-pass progress events to one request's client."""

    def __init__(self, request_id, emit: Emit):
        self.request_id = request_id
        self.emit = emit

    def _event(self, phase: str, pass_) -> None:
        self.emit({
            "id": self.request_id,
            "event": "progress",
            "phase": phase,
            "pass": pass_.NAME,
            "anchor": getattr(pass_, "ANCHOR", None),
        })

    def run_before_pass(self, pass_, op) -> None:
        self._event("pass-begin", pass_)

    def run_after_pass(self, pass_, op) -> None:
        self._event("pass-end", pass_)


class CompileService:
    """The daemon's shared brain: cache, analyses, and a manager pool."""

    #: Bound of the spec-spelling memo (clients generate specs; a
    #: daemon must not remember every one it was ever sent).
    MAX_SPELLINGS = 256

    def __init__(self, cache_dir: Optional[str] = None,
                 max_entries: Optional[int] = 256,
                 max_bytes: Optional[int] = None):
        disk = None
        if cache_dir:
            kwargs = {} if max_bytes is None else {"max_bytes": max_bytes}
            disk = DiskCache(cache_dir, **kwargs)
        self.cache = CompileCache(max_entries=max_entries, disk=disk)
        # Daemon-wide executable cache for the "execute" method: keyed
        # by structural fingerprint, so re-executing the same kernel
        # text across requests (and connections) skips Python codegen.
        from ..interp.jit_runtime import ExecutableCache

        self.executables = ExecutableCache(disk=disk)
        self.analysis_manager = AnalysisManager()
        self._pool: Dict[str, List[PassManager]] = {}
        #: Request spelling of a pipeline spec -> canonical spelling.
        self._canonical: "OrderedDict[str, str]" = OrderedDict()
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._started = time.monotonic()
        self.requests = 0
        self.compiles = 0
        self.executions = 0
        self.errors = 0

    # -- manager pool --------------------------------------------------------
    def _canonical_spec(self, spec: str) -> Optional[str]:
        """The canonical spelling of ``spec``; ``None`` when it is not a
        valid pipeline (never remembered: :meth:`_checkout` reports it).
        """
        with self._pool_lock:
            canonical = self._canonical.get(spec)
        if canonical is None:
            try:
                manager = self._new_manager(spec)
            except ValueError:
                return None
            canonical = manager.to_spec()
            with self._pool_lock:
                self._canonical[spec] = canonical
                if len(self._canonical) > self.MAX_SPELLINGS:
                    self._canonical.popitem(last=False)
                spare = bool(self._pool.get(canonical))
            # The manager built to learn the spelling serves the request
            # that follows, unless this pipeline already has an idle one.
            if not spare:
                self._checkin(manager)
        return canonical

    def _new_manager(self, spec: str) -> PassManager:
        manager = parse_pass_pipeline(spec)
        manager.cache = self.cache
        # One analysis manager for the daemon: its entries are weak on
        # their anchors and dropped when an anchor leaves its module, so
        # a finished request's analyses do not pin its module.
        manager.analysis_manager = self.analysis_manager
        return manager

    def _checkout(self, spec: str) -> PassManager:
        """An exclusively-owned manager for ``spec`` (pooled or fresh)."""
        canonical = self._canonical_spec(spec)
        if canonical is None:
            raise ValueError("; ".join(
                d.render() for d in check_pass_pipeline(spec)))
        manager = None
        with self._pool_lock:
            idle = self._pool.get(canonical)
            if idle:
                manager = idle.pop()
        if manager is None:
            manager = self._new_manager(canonical)
        return manager

    def _checkin(self, manager: PassManager) -> None:
        # Per-request instrumentations must not leak into the next
        # request (they would silently disable its cache).
        manager.instrumentations.clear()
        with self._pool_lock:
            self._pool.setdefault(manager.to_spec(), []).append(manager)

    def pool_sizes(self) -> Dict[str, int]:
        with self._pool_lock:
            return {spec: len(idle) for spec, idle in self._pool.items()}

    # -- dispatch ------------------------------------------------------------
    def handle(self, request: dict, emit: Emit) -> dict:
        """Process one request; progress goes through ``emit``, the
        returned dict is the terminal ``done`` event.  Never raises —
        every failure becomes an error response so one bad request
        cannot take down the connection, let alone the daemon.
        """
        request_id = request.get("id")
        method = request.get("method")
        with self._stats_lock:
            self.requests += 1
        if method not in METHODS:
            return self._error(request_id, f"unknown method {method!r}")
        try:
            kind = fault_point("serve.request", key=method)
            if kind == "corrupt":
                raise TransientFault("injected mangled request")
        except TransientFault as exc:
            return self._error(request_id, f"transient service fault: {exc}",
                               kind="transient", retryable=True)
        if method == "ping":
            return {"id": request_id, "event": "done", "ok": True,
                    "pong": True, "protocol": PROTOCOL_VERSION}
        if method == "status":
            return self._status(request_id)
        if method == "shutdown":
            return {"id": request_id, "event": "done", "ok": True,
                    "shutdown": True}
        try:
            if method == "execute":
                return self._execute(request_id, request)
            return self._compile(request_id, request, emit)
        except Exception as exc:  # a compiler bug: answer it, keep serving
            import traceback

            traceback.print_exc()  # the daemon's log keeps where it was
            return self._error(
                request_id, f"internal error: {type(exc).__name__}: {exc}",
                kind="internal-error")

    def _error(self, request_id, message: str, kind: str = "request-error",
               retryable: bool = False) -> dict:
        with self._stats_lock:
            self.errors += 1
        return error_response(request_id, message, kind=kind,
                              retryable=retryable)

    def _status(self, request_id) -> dict:
        with self._stats_lock:
            counters = {"requests": self.requests, "compiles": self.compiles,
                        "executions": self.executions,
                        "errors": self.errors}
        return {
            "id": request_id,
            "event": "done",
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "cache": self.cache.describe(),
            "executables": self.executables.describe(),
            "analyses": self.analysis_manager.describe(),
            "pool": self.pool_sizes(),
            **counters,
        }

    # -- compile -------------------------------------------------------------
    def _session_compile(self, request_id, ir: str, spec: Optional[str],
                         emit: Optional[Emit] = None,
                         form: Optional[tuple] = None,
                         **flags) -> CompileOutcome:
        """One request's compile through a checked-out manager, returned
        to the pool whatever happened.  ``emit`` streams its progress."""

        def checkout() -> PassManager:
            manager = self._checkout(spec)
            if emit is not None:
                manager.add_instrumentation(
                    StreamingInstrumentation(request_id, emit))
            return manager

        session = CompileSession(
            checkout if spec is not None else None,
            spec=self._canonical_spec(spec) if form is not None else None,
            cache=self.cache, **flags)
        try:
            return session.compile(ir, "<request>", form)
        finally:
            if session.manager is not None:
                self._checkin(session.manager)

    def _failed(self, request_id, outcome: CompileOutcome) -> dict:
        if outcome.kind == "internal":  # the daemon's log keeps where
            import traceback

            traceback.print_exception(outcome.error)
        return self._error(request_id, outcome.message,
                           kind=f"{outcome.kind}-error")

    def _compile(self, request_id, request: dict, emit: Emit) -> dict:
        ir = request.get("ir")
        if not isinstance(ir, str) or not ir.strip():
            return self._error(request_id, "compile request carries no IR")
        spec = request.get("passes") or request.get("pipeline")
        if not isinstance(spec, str) or not spec.strip():
            return self._error(
                request_id, "compile request names no pipeline "
                "(pass 'passes' or 'pipeline')")
        run_verify = bool(request.get("verify", True))
        print_locations = bool(request.get("print_locations"))
        # The front tier: a recorded reply for these very bytes.  An
        # invalid spec has no canonical form and is reported after the
        # parse; a progress request wants the events of a real run (the
        # instrumented-manager rule).
        progress = bool(request.get("progress"))
        outcome = self._session_compile(
            request_id, ir, spec, emit=emit if progress else None,
            form=None if progress else ("served", run_verify,
                                        print_locations),
            verify=run_verify, print_locations=print_locations,
            report=CompileReport())
        if outcome.kind is not None:
            return self._failed(request_id, outcome)
        with self._stats_lock:
            self.compiles += 1
        report = outcome.report
        return {
            "id": request_id,
            "event": "done",
            "ok": True,
            "text": outcome.text,
            "statistics": [[s.pass_name, s.name, s.value]
                           for s in report.statistics],
            "remarks": list(report.remarks),
            "cached": outcome.cached,
        }

    # -- execute -------------------------------------------------------------
    def _execute(self, request_id, request: dict) -> dict:
        from ..interp.differential import (
            ExecutionSpec,
            _executable_functions,
            synthesize_spec,
        )
        from ..interp.engine import ExecutionEngine
        from ..interp.memory import InterpreterError, TrapError

        ir = request.get("ir")
        if not isinstance(ir, str) or not ir.strip():
            return self._error(request_id, "execute request carries no IR")
        pipeline = request.get("passes") or request.get("pipeline")
        outcome = self._session_compile(
            request_id, ir,
            pipeline if isinstance(pipeline, str) and pipeline.strip()
            else None,
            verify=bool(request.get("verify", True)), want_module=True)
        if outcome.kind is not None:
            return self._failed(request_id, outcome)
        module = outcome.module

        functions = _executable_functions(module)
        entry_name = request.get("entry")
        if entry_name:
            entry = next((f for f in functions
                          if f.sym_name == entry_name), None)
            if entry is None:
                names = ", ".join(f.sym_name for f in functions) or "none"
                return self._error(
                    request_id, f"no executable function named "
                    f"'{entry_name}' (available: {names})")
        elif len(functions) == 1:
            entry = functions[0]
        else:
            return self._error(
                request_id, "execute request must name an 'entry' when "
                f"the module defines {len(functions)} functions")

        spec = ExecutionSpec(
            global_size=tuple(request["global_size"])
            if request.get("global_size") else None,
            local_size=tuple(request["local_size"])
            if request.get("local_size") else None,
            buffers={name: tuple(shape) for name, shape
                     in (request.get("buffers") or {}).items()},
            scalars=dict(request.get("scalars") or {}))
        try:
            engine = ExecutionEngine(
                module, tier=request.get("tier", "auto"),
                max_steps=int(request.get("max_steps", 10_000_000)),
                executable_cache=self.executables)
            execution = engine.execute(entry, synthesize_spec(entry, spec))
        except (InterpreterError, TrapError, ValueError) as exc:
            return self._error(request_id, str(exc), kind="execute-error")
        with self._stats_lock:
            self.executions += 1
        return {
            "id": request_id,
            "event": "done",
            "ok": True,
            "entry": execution.name,
            "kind": execution.kind,
            "tier": execution.tier,
            "results": list(execution.results),
            # Arrays become JSON lists of Python numbers only here.
            "memory": {name: values.tolist()
                       for name, values in execution.memory.items()},
            "counters": dict(execution.counters),
            "remarks": list(engine.remarks),
        }


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One thread per connection; requests on it are served in order."""

    def handle(self) -> None:
        service: CompileService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                request = read_message(self.rfile)
            except ProtocolError as exc:
                # Framing is gone: report once and drop the connection.
                write_message(self.wfile, error_response(
                    None, str(exc), kind="protocol-error"))
                return
            if request is None:
                return
            emit = lambda event: write_message(self.wfile, event)  # noqa: E731
            response = service.handle(request, emit)
            try:
                write_message(self.wfile, response)
            except (BrokenPipeError, ConnectionResetError):
                return
            if response.get("shutdown"):
                # Stop accepting; in-flight connections on other
                # threads finish their current request (daemon threads
                # die with the process on close).
                threading.Thread(target=self.server.shutdown,
                                 daemon=True).start()
                return


class ReproServer(socketserver.ThreadingTCPServer):
    """The TCP front of one :class:`CompileService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: CompileService):
        super().__init__(address, _ConnectionHandler)
        self.service = service

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]
