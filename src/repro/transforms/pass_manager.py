"""Pass infrastructure: passes, options, pass managers and instrumentation.

Mirrors MLIR's pass infrastructure at the granularity this project needs:

* a :class:`Pass` declares a ``NAME``, an *anchor op* (``builtin.module``
  vs ``func.func``), typed :class:`PassOptions` (a dataclass parsed from
  ``canonicalize{max-iterations=10}`` specs) and the ``STATISTICS`` it may
  report;
* a :class:`PassManager` is a tree of :class:`OpPassManager`\\ s —
  ``pm.nest("func.func").add(...)`` — where function-anchored pipelines run
  once per isolated :class:`~repro.dialects.func.FuncOp`;
* :class:`PassInstrumentation` hooks observe every pass execution; timing,
  IR printing and verification ship as the first three clients;
* passes self-register with the :func:`register_pass` decorator, which
  feeds :func:`repro.transforms.pipelines.parse_pass_pipeline` and
  ``repro-opt --list-passes``;
* every run records what happened in a :class:`CompileReport` so the
  evaluation harness can attribute speedups to individual optimizations
  (paper, Section VIII).
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

from ..faults import fault_point
from ..ir import Operation, Trait, VerificationError
from ..ir.operations import op_memo
from ..ir.parser import CONTENT_TOKEN
from ..analysis.manager import (
    AnalysisManager,
    analysis_scope,
    current_analysis_manager,
)
from ..dialects.func import FuncOp

#: Operation names a pipeline may anchor on.  ``builtin.module`` pipelines
#: may nest ``func.func`` pipelines, never the other way around (a function
#: cannot contain a module).
MODULE_ANCHOR = "builtin.module"
FUNCTION_ANCHOR = "func.func"
ANCHOR_OPS = (MODULE_ANCHOR, FUNCTION_ANCHOR)
_SYMBOL_TABLE = Trait.SYMBOL_TABLE.bit


# ---------------------------------------------------------------------------
# Compile report
# ---------------------------------------------------------------------------

@dataclass
class PassStatistic:
    """One named counter reported by a pass."""

    pass_name: str
    name: str
    value: int = 0


@dataclass
class CompileReport:
    """Aggregated record of what the optimization pipeline did.

    ``statistics`` stays a list (the public view used by ``summary()`` and
    existing callers), but lookups go through a ``(pass_name, name)`` index
    so ``add_statistic``/``get_statistic`` are O(1) — passes bump counters
    once per rewrite, which made the old linear scans a hot path.

    ``timings`` is keyed by pipeline position (``"3: canonicalize"``), so
    two instances of the same pass stay distinguishable in ``repro-opt
    --timing`` output.
    """

    statistics: List[PassStatistic] = field(default_factory=list)
    remarks: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    #: The compile-cache key of the latest run that consulted a cache
    #: (``None`` when none did): what the caller records a front-tier
    #: entry under, see ``CompileCache.front_store``.
    cache_key: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        self._stat_index: Dict[Tuple[str, str], PassStatistic] = {
            (stat.pass_name, stat.name): stat for stat in self.statistics
        }

    def add_statistic(self, pass_name: str, name: str, value: int = 1) -> None:
        key = (pass_name, name)
        stat = self._stat_index.get(key)
        if stat is not None:
            stat.value += value
            return
        stat = PassStatistic(pass_name, name, value)
        self._stat_index[key] = stat
        self.statistics.append(stat)

    def get_statistic(self, pass_name: str, name: str) -> int:
        stat = self._stat_index.get((pass_name, name))
        return stat.value if stat is not None else 0

    def remark(self, message: str) -> None:
        self.remarks.append(message)

    def add_cache_hit(self, statistics, remarks: List[str],
                      elapsed: float) -> None:
        """Replay what a compile-cache hit (of either key level) reports.

        ``elapsed`` is the hit's real cost, so ``--timing`` tables account
        for warm segments instead of silently omitting them while
        statistics sum.
        """
        for pass_name, name, value in statistics:
            self.add_statistic(pass_name, name, value)
        self.remarks.extend(remarks)
        self.timings["compile-cache: hit"] = \
            self.timings.get("compile-cache: hit", 0.0) + elapsed

    def merge(self, other: "CompileReport") -> None:
        """Fold in a report of the *same* pipeline: statistics and
        same-key timing buckets sum, remarks append."""
        for stat in other.statistics:
            self.add_statistic(stat.pass_name, stat.name, stat.value)
        self.remarks.extend(other.remarks)
        for key, value in other.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + value

    def summary(self) -> str:
        lines = ["Compile report:"]
        for stat in self.statistics:
            lines.append(f"  {stat.pass_name}: {stat.name} = {stat.value}")
        for remark in self.remarks:
            lines.append(f"  remark: {remark}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pass options
# ---------------------------------------------------------------------------

def _spec_key(field_name: str) -> str:
    """Dataclass field name -> textual option key (``max_iterations`` ->
    ``max-iterations``)."""
    return field_name.replace("_", "-")


def _format_option_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class PassOptions:
    """Base class of every pass's typed option block.

    Subclasses are plain dataclasses; each field becomes a textual option
    whose spec key replaces underscores with dashes.  Supported field types
    are ``bool``, ``int``, ``float`` and ``str``; a ``str`` field may
    restrict its values with ``field(metadata={"choices": (...)})``.
    """

    @classmethod
    def spec_fields(cls) -> Dict[str, "dataclasses.Field"]:
        """Textual option key -> dataclass field, in declaration order."""
        return {_spec_key(f.name): f for f in dataclasses.fields(cls)}

    @classmethod
    def coerce(cls, option_field: "dataclasses.Field", text: str) -> object:
        """Parse ``text`` into the field's type; raises ``ValueError``."""
        key = _spec_key(option_field.name)
        if option_field.type in ("bool", bool):
            lowered = text.lower()
            if lowered in ("true", "1"):
                return True
            if lowered in ("false", "0"):
                return False
            raise ValueError(
                f"option '{key}' expects a boolean "
                f"(true/false/1/0), got {text!r}")
        if option_field.type in ("int", int):
            try:
                return int(text)
            except ValueError:
                raise ValueError(
                    f"option '{key}' expects an integer, got {text!r}")
        if option_field.type in ("float", float):
            try:
                return float(text)
            except ValueError:
                raise ValueError(
                    f"option '{key}' expects a number, got {text!r}")
        choices = option_field.metadata.get("choices")
        if choices and text not in choices:
            raise ValueError(
                f"option '{key}' expects one of {', '.join(choices)}; "
                f"got {text!r}")
        return text

    def to_spec(self) -> str:
        """Non-default options as ``{k=v,...}``; empty string if none."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{_spec_key(f.name)}="
                             f"{_format_option_value(value)}")
        return "{" + ",".join(parts) + "}" if parts else ""

    @classmethod
    def schema(cls) -> List[str]:
        """Human-readable one-per-option lines for ``--list-passes``."""
        lines = []
        for key, f in cls.spec_fields().items():
            type_name = f.type if isinstance(f.type, str) else f.type.__name__
            line = f"{key} : {type_name} = {_format_option_value(f.default)}"
            choices = f.metadata.get("choices")
            if choices:
                line += f" (one of: {', '.join(choices)})"
            lines.append(line)
        return lines


# ---------------------------------------------------------------------------
# Pass base classes
# ---------------------------------------------------------------------------

class PassCrash(Exception):
    """A pass raised something other than the ``ValueError`` with which a
    pass refuses its input: a bug in the pass named ``pass_name``.
    ``error`` is what it raised (also the ``__cause__``)."""

    def __init__(self, pass_name: str, error: Exception):
        super().__init__(f"internal error in pass {pass_name}: "
                         f"{type(error).__name__}: {error}")
        self.pass_name = pass_name
        self.error = error


class Pass:
    """Base class of all passes."""

    #: Human-readable pass name (used in reports, statistics and specs).
    NAME = "pass"

    #: Operation the pass anchors on (see :data:`ANCHOR_OPS`).
    ANCHOR = MODULE_ANCHOR

    #: The pass's typed option block; override with a dataclass subclass.
    Options: Type[PassOptions] = PassOptions

    #: ``(statistic name, description)`` pairs the pass may report.
    STATISTICS: Tuple[Tuple[str, str], ...] = ()

    #: Filled by :meth:`PassManager.run` with the pass's position in the
    #: flattened pipeline; keys the timing instrumentation.
    pipeline_position: Optional[int] = None

    def __init__(self, options: Optional[PassOptions] = None, **overrides):
        if options is not None and overrides:
            raise TypeError(
                "pass either an Options instance or keyword overrides")
        self.options = options if options is not None \
            else self.Options(**overrides)

    def run(self, op: Operation, report: CompileReport) -> None:  # pragma: no cover
        raise NotImplementedError

    def preserves(self) -> Iterable[type]:
        """Analysis classes still valid after this pass ran.

        The pass manager invalidates every cached analysis touching the
        anchor after each pass *except* the classes returned here
        (MLIR's ``markAnalysesPreserved``).  Return
        :data:`repro.analysis.manager.ALL_ANALYSES` from passes that never
        mutate the IR.  The default — nothing preserved — is always safe.
        """
        return ()

    def get_analysis(self, analysis_cls: type, op: Operation):
        """Request an analysis via the run's analysis manager.

        Inside a pipeline run results are cached per anchor op and
        invalidated according to :meth:`preserves`; outside a run the
        analysis is constructed directly.
        """
        from ..analysis.manager import get_analysis

        return get_analysis(analysis_cls, op)

    def can_schedule_on(self, anchor: str) -> bool:
        """Whether this pass may be added to a pipeline anchored on
        ``anchor``."""
        return anchor == self.ANCHOR

    def to_spec(self) -> str:
        """Textual form, e.g. ``canonicalize{max-iterations=10}``."""
        options = getattr(self, "options", None)
        return self.NAME + (options.to_spec() if options is not None else "")

    def __repr__(self) -> str:
        return f"<Pass {self.to_spec()}>"


class FunctionPass(Pass):
    """A pass anchored on ``func.func``.

    When scheduled on a function pipeline it runs once per isolated
    function; scheduled directly on a module pipeline (the legacy flat
    form) it iterates every function itself.
    """

    ANCHOR = FUNCTION_ANCHOR

    def run(self, op: Operation, report: CompileReport) -> None:
        for function in self._functions(op):
            self.run_on_function(function, report)

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:  # pragma: no cover
        raise NotImplementedError

    def can_schedule_on(self, anchor: str) -> bool:
        return anchor in (FUNCTION_ANCHOR, MODULE_ANCHOR)

    @staticmethod
    def _functions(op: Operation) -> Iterable[FuncOp]:
        if isinstance(op, FuncOp):
            return [op]
        return [f for f in op.walk() if isinstance(f, FuncOp)]


class ModulePass(Pass):
    """A pass that needs to see the whole module at once."""

    ANCHOR = MODULE_ANCHOR

    def run(self, op: Operation, report: CompileReport) -> None:
        self.run_on_module(op, report)

    def run_on_module(self, module: Operation,
                      report: CompileReport) -> None:  # pragma: no cover
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Declarative pass registration
# ---------------------------------------------------------------------------

@dataclass
class PassRegistration:
    """Registry entry produced by :func:`register_pass`."""

    name: str
    pass_class: Type[Pass]
    options_class: Type[PassOptions]
    description: str = ""
    #: Set for aliases: the primary registered name this one re-exports.
    alias_of: Optional[str] = None
    #: Field-name keyed option presets an alias bakes in.
    preset_options: Dict[str, object] = field(default_factory=dict)

    def build(self, option_values: Optional[Dict[str, object]] = None) -> Pass:
        """Instantiate the pass with ``option_values`` (field-name keyed)
        on top of the alias presets."""
        values = dict(self.preset_options)
        values.update(option_values or {})
        return self.pass_class(options=self.options_class(**values))


#: All registered passes, keyed by spec name; the :func:`register_pass`
#: decorators fill it as pass modules are imported.  Read it through
#: :func:`lookup_pass` or as ``PASS_REGISTRATIONS`` (module
#: ``__getattr__`` below), which load the built-in pass modules first:
#: importing the ``repro.transforms`` package loads none of them.
_REGISTRATIONS: Dict[str, PassRegistration] = {}
_BUILTINS_LOADED = False


def _load_builtin_passes() -> None:
    """Import the built-in pass modules (registering their passes).

    The flag is set once the import has *finished*, so a second thread
    either waits on the import lock or finds the registry complete.
    """
    global _BUILTINS_LOADED
    from . import pipelines  # noqa: F401 - imports every pass module

    _BUILTINS_LOADED = True


def __getattr__(name: str):
    if name == "PASS_REGISTRATIONS":
        if not _BUILTINS_LOADED:
            _load_builtin_passes()
        return _REGISTRATIONS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _first_doc_line(cls: type) -> str:
    doc = (cls.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def register_pass(cls: Optional[Type[Pass]] = None, *,
                  name: Optional[str] = None):
    """Class decorator registering a pass under its ``NAME``.

    ::

        @register_pass
        class CanonicalizePass(FunctionPass):
            NAME = "canonicalize"
    """

    def wrap(pass_class: Type[Pass]) -> Type[Pass]:
        spec_name = name or pass_class.NAME
        if spec_name in _REGISTRATIONS:
            raise ValueError(f"pass {spec_name!r} is already registered")
        _REGISTRATIONS[spec_name] = PassRegistration(
            name=spec_name,
            pass_class=pass_class,
            options_class=pass_class.Options,
            description=_first_doc_line(pass_class))
        return pass_class

    return wrap(cls) if cls is not None else wrap


def register_pass_alias(name: str, base: Type[Pass],
                        description: str = "", **preset_options) -> None:
    """Register ``name`` as an alias of ``base`` with option presets.

    ::

        register_pass_alias("licm-generic", LoopInvariantCodeMotion,
                            alias="generic")
    """
    if name in _REGISTRATIONS:
        raise ValueError(f"pass {name!r} is already registered")
    _REGISTRATIONS[name] = PassRegistration(
        name=name,
        pass_class=base,
        options_class=base.Options,
        description=description or _first_doc_line(base),
        alias_of=base.NAME,
        preset_options=preset_options)


def lookup_pass(name: str) -> Optional[PassRegistration]:
    if not _BUILTINS_LOADED:
        _load_builtin_passes()
    return _REGISTRATIONS.get(name)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

class PassInstrumentation:
    """Observer hooks around pipeline and pass execution.

    ``run_before_pass`` hooks fire in registration order, ``run_after_pass``
    hooks in reverse registration order (so instrumentations nest like a
    stack around each pass).  When an after-pass hook raises a
    verification error, every instrumentation's ``run_after_failed_verify``
    is notified before the error propagates.
    """

    def run_before_pipeline(self, op: Operation) -> None:
        pass

    def run_after_pipeline(self, op: Operation) -> None:
        pass

    def run_before_pass(self, pass_: Pass, op: Operation) -> None:
        pass

    def run_after_pass(self, pass_: Pass, op: Operation) -> None:
        pass

    def run_after_failed_verify(self, pass_: Pass, op: Operation,
                                error: Exception) -> None:
        pass


def timing_key(pass_: Pass) -> str:
    """Timing bucket for a scheduled pass: ``"<position>: <name>"``.

    Keyed by pipeline position so two instances of the same pass in one
    pipeline never share a bucket (``repro-opt --timing`` can tell them
    apart); falls back to the bare name for passes run outside a manager.
    """
    position = getattr(pass_, "pipeline_position", None)
    if position is None:
        return pass_.NAME
    return f"{position}: {pass_.NAME}"


class TimingInstrumentation(PassInstrumentation):
    """Accumulates wall time per scheduled pass into ``self.timings``.

    A function-anchored pass runs once per function under one pipeline
    position; its bucket aggregates across those runs.
    """

    def __init__(self):
        self.timings: Dict[str, float] = {}
        self._starts: List[float] = []

    def run_before_pass(self, pass_: Pass, op: Operation) -> None:
        self._starts.append(time.perf_counter())

    def run_after_pass(self, pass_: Pass, op: Operation) -> None:
        if not self._starts:
            return
        elapsed = time.perf_counter() - self._starts.pop()
        key = timing_key(pass_)
        self.timings[key] = self.timings.get(key, 0.0) + elapsed


class GcTiming:
    """Collections per generation and total pause of the cyclic collector
    between :meth:`start` and :meth:`stop`, as one ``gc:`` timing row.

    IR is a graph of small cyclic objects, so the collector's walks are a
    real share of a large compile (``docs/performance.md``, "The IR object
    budget and the collector").  The ``gc.callbacks`` hook exists only
    between the two calls: nothing is installed, and nothing is paid,
    unless timing was asked for.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.pause = 0.0
        self._started: Optional[float] = None

    def start(self) -> "GcTiming":
        gc.callbacks.append(self._on_gc)
        return self

    def stop(self, report: CompileReport) -> None:
        """Remove the hook and add the row to ``report.timings``."""
        gc.callbacks.remove(self._on_gc)
        counts = "/".join(str(count) for count in self.collections)
        report.timings[f"gc: {counts} collections (gen 0/1/2)"] = self.pause

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:  # else: installed mid-collection
            self.pause += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1
            self._started = None


class IRPrintingInstrumentation(PassInstrumentation):
    """Prints the anchored IR around selected passes (mlir-opt's
    ``-print-ir-before/after`` analogue).

    ``print_before`` / ``print_after`` are either ``True`` (every pass) or
    a collection of pass names; IR is also dumped when verification fails
    after a pass, so the broken IR is visible.
    """

    def __init__(self,
                 print_before: Union[bool, Iterable[str]] = (),
                 print_after: Union[bool, Iterable[str]] = (),
                 stream=None):
        self.print_before = self._selector(print_before)
        self.print_after = self._selector(print_after)
        self.stream = stream

    @staticmethod
    def _selector(value: Union[bool, Iterable[str]]):
        if value is True:
            return True
        return frozenset(value or ())

    def _matches(self, selector, pass_: Pass) -> bool:
        return selector is True or pass_.NAME in selector

    def _dump(self, label: str, pass_: Pass, op: Operation) -> None:
        from ..ir import Printer

        stream = self.stream if self.stream is not None else sys.stderr
        stream.write(f"// -----// {label} {pass_.to_spec()} "
                     f"({timing_key(pass_)}) //----- //\n")
        stream.write(Printer().print_module(op) + "\n")

    def run_before_pass(self, pass_: Pass, op: Operation) -> None:
        if self._matches(self.print_before, pass_):
            self._dump("IR Dump Before", pass_, op)

    def run_after_pass(self, pass_: Pass, op: Operation) -> None:
        if self._matches(self.print_after, pass_):
            self._dump("IR Dump After", pass_, op)

    def run_after_failed_verify(self, pass_: Pass, op: Operation,
                                error: Exception) -> None:
        self._dump("IR Dump After Failed Verify of", pass_, op)


class VerifierInstrumentation(PassInstrumentation):
    """Verifies the anchored IR after every pass (``--verify-each``)."""

    def run_after_pass(self, pass_: Pass, op: Operation) -> None:
        from ..ir import verify

        verify(op)


class LintInstrumentation(PassInstrumentation):
    """Runs the lint rules after every pass (``--lint-each``).

    Findings accumulate in :attr:`findings` tagged with the pass that
    produced the offending IR, so a miscompiling pass is identified the
    moment it fires rather than at end of pipeline.  Analyses are
    requested through the run's active :class:`AnalysisManager`, so a
    pass that ``preserves()`` its analyses lints from warm caches.
    """

    def __init__(self, rules: Optional[List[str]] = None,
                 engine=None):
        self.rules = rules
        self.engine = engine
        #: ``(pass name, diagnostic)`` pairs in discovery order.
        self.findings: List[tuple] = []

    def run_after_pass(self, pass_: Pass, op: Operation) -> None:
        from ..analysis.lint import run_lint

        manager = current_analysis_manager()
        for diagnostic in run_lint(op, rules=self.rules, am=manager,
                                   engine=self.engine):
            self.findings.append((pass_.NAME, diagnostic))


# ---------------------------------------------------------------------------
# Pass managers
# ---------------------------------------------------------------------------

class OpPassManager:
    """An ordered pipeline anchored on one operation kind.

    Elements are passes or nested ``OpPassManager``\\ s; nesting a
    ``func.func`` pipeline under a ``builtin.module`` one makes the nested
    passes run once per function.
    """

    def __init__(self, anchor: str = MODULE_ANCHOR):
        if anchor not in ANCHOR_OPS:
            raise ValueError(
                f"unknown pipeline anchor {anchor!r}; expected one of "
                f"{', '.join(ANCHOR_OPS)}")
        self.anchor = anchor
        self.elements: List[Union[Pass, "OpPassManager"]] = []

    def add(self, pass_: Pass) -> "OpPassManager":
        if not pass_.can_schedule_on(self.anchor):
            raise ValueError(
                f"cannot schedule pass '{pass_.NAME}' (anchored on "
                f"'{pass_.ANCHOR}') in a '{self.anchor}' pipeline")
        self.elements.append(pass_)
        return self

    def nest(self, anchor: str) -> "OpPassManager":
        """Append and return a nested pipeline anchored on ``anchor``."""
        if anchor not in ANCHOR_OPS:
            raise ValueError(
                f"unknown pipeline anchor {anchor!r}; expected one of "
                f"{', '.join(ANCHOR_OPS)}")
        if self.anchor == FUNCTION_ANCHOR and anchor == MODULE_ANCHOR:
            raise ValueError(
                "cannot nest a 'builtin.module' pipeline under 'func.func'")
        nested = OpPassManager(anchor)
        self.elements.append(nested)
        return nested

    # -- views ---------------------------------------------------------------
    def _walk_passes(self) -> Iterator[Pass]:
        for element in self.elements:
            if isinstance(element, OpPassManager):
                yield from element._walk_passes()
            else:
                yield element

    @property
    def passes(self) -> List[Pass]:
        """All passes in execution order, flattened across nesting."""
        return list(self._walk_passes())

    def to_spec(self) -> str:
        """Canonical textual form, e.g. ``builtin.module(cse,...)``."""
        parts = [element.to_spec() for element in self.elements]
        return f"{self.anchor}({','.join(parts)})"

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:
        return f"<OpPassManager {self.to_spec()}>"


class PassManager(OpPassManager):
    """The root pipeline: runs the pass tree and collects a report.

    Accepts a flat pass list for backwards compatibility; nested pipelines
    are built with :meth:`OpPassManager.nest`.  Instrumentations added with
    :meth:`add_instrumentation` observe every pass execution; wall-clock
    timing is always recorded into ``report.timings`` keyed by pipeline
    position.

    A run is serial and in-process.  Worker processes are not a tier of
    this class: ``repro-opt --jobs N`` ships whole batch segments to them
    (see ``docs/robustness.md``).  ``cache`` attaches a
    :class:`~repro.transforms.compile_cache.CompileCache`: a run whose
    ``(module fingerprint, pipeline spec)`` key is cached short-circuits
    the whole pipeline.
    """

    def __init__(self, passes: Optional[Iterable[Pass]] = None,
                 verify_after_each: bool = False,
                 anchor: str = MODULE_ANCHOR,
                 cache: Optional["CompileCache"] = None):
        super().__init__(anchor)
        for pass_ in passes or []:
            self.add(pass_)
        self.instrumentations: List[PassInstrumentation] = []
        self.verify_after_each = verify_after_each
        self.cache = cache
        #: Persistent across runs so batch drivers and benchmarks can
        #: observe warm-vs-cold analysis costs; fingerprint validation
        #: keeps stale entries from ever being served.
        self.analysis_manager = AnalysisManager()
        if verify_after_each:
            self.add_instrumentation(VerifierInstrumentation())

    def add_instrumentation(
            self, instrumentation: PassInstrumentation) -> "PassManager":
        self.instrumentations.append(instrumentation)
        return self

    # -- execution -----------------------------------------------------------
    def run(self, op: Operation,
            report: Optional[CompileReport] = None) -> CompileReport:
        report = report if report is not None else CompileReport()
        cache_key = report.cache_key = None
        # A cache hit skips pass execution entirely, so it must not be
        # taken while instrumentations are attached — --verify-each and
        # the IR-printing hooks observe *runs*, and silently dropping
        # their output on repeated inputs would be wrong.
        if self.cache is not None and not self.instrumentations \
                and op.name == MODULE_ANCHOR:
            # Key on the *input* fingerprint, before the pipeline mutates it.
            start = time.perf_counter()
            cache_key = self.cache.memo_key_for(op, self.to_spec())
            report.cache_key = cache_key
            hit = self.cache.lookup(cache_key)
            if hit is not None:
                # Self-healing: a corrupt entry (failed clone/splice)
                # must never fail a compile a cold run would pass —
                # forget it and fall through to the cold path.
                try:
                    materialized = hit.materialize()
                    if fault_point("compile-cache.hit",
                                   key=cache_key[0]) == "corrupt":
                        raise RuntimeError("injected corrupt cache entry")
                    self._splice_cached(op, materialized, cache_key)
                except Exception as error:  # noqa: BLE001 - self-healing
                    self.cache.forget(cache_key)
                    report.add_statistic("compile-cache", "recovered", 1)
                    report.remark(
                        "compile-cache: recovered from corrupt entry "
                        f"({type(error).__name__}: {error})")
                    hit = None
            if hit is not None:
                # The hit carries the analyses the original compile left
                # valid: they hold for the spliced (structurally
                # identical) result, so clients can warm them knowingly.
                if hit.preserved_analyses:
                    self.analysis_manager.note_carried(hit.preserved_analyses)
                # Timed: fingerprint + lookup + splice.
                report.add_cache_hit(hit.hit_statistics(), hit.remarks,
                                     time.perf_counter() - start)
                return report
        fresh = CompileReport() if cache_key is not None else report
        self._execute(op, fresh)
        if cache_key is not None:
            from .compile_cache import CachedCompile

            self.cache.store(cache_key, CachedCompile(
                module=op.clone({}),
                statistics=[(s.pass_name, s.name, s.value)
                            for s in fresh.statistics],
                remarks=list(fresh.remarks),
                preserved_analyses=tuple(
                    self.analysis_manager.preserved_names_for(op))))
            report.merge(fresh)
            report.add_statistic("compile-cache", "misses", 1)
        return report

    def _execute(self, op: Operation, report: CompileReport) -> None:
        # The built-in timing instrumentation is per-run and innermost
        # (last in before-order, first in after-order), so user hooks are
        # not charged to the pass they wrap.
        timing = TimingInstrumentation()
        instrumentations = list(self.instrumentations) + [timing]
        positions = self._slot_positions()
        for instrumentation in instrumentations:
            instrumentation.run_before_pipeline(op)
        try:
            with analysis_scope(self.analysis_manager):
                self._run_pipeline(self, op, report, instrumentations,
                                   positions)
        except BaseException:
            # No analysis describes what a failed run left behind, and
            # the caller may drop the module: keep none anchored in it.
            self.analysis_manager.invalidate(op)
            raise
        finally:
            for key, value in timing.timings.items():
                report.timings[key] = report.timings.get(key, 0.0) + value
            for instrumentation in reversed(instrumentations):
                instrumentation.run_after_pipeline(op)

    @staticmethod
    def _splice_cached(op: Operation, materialized: Operation,
                       cache_key) -> None:
        """Replace ``op``'s body with a materialized cached result.

        ``materialized`` is a private deep clone of the cached template,
        so the spliced body is structurally identical to what a cold
        compile would have produced and shares no state with the cache.
        Children are detached from the clone *before* the target is
        emptied, so every failure-prone step happens while ``op`` is
        still untouched (the cache self-healing path relies on that).
        The replaced children are only unlinked, not erased op by op:
        nothing outside a module body uses a value defined inside it, so
        the old body is garbage as a whole once it is unreachable.
        """
        staged = [child.detach() for child
                  in materialized.regions[0].blocks[0].operations]
        target = op.regions[0].blocks[0]
        for child in target.operations:
            child.detach()
        for child in staged:
            target.append(child)
        # What ``op`` holds now is named by the entry it came from: the
        # next pipeline's CompileCache.memo_key_for need not print it.
        op_memo(op)[CONTENT_TOKEN] = cache_key

    def _slot_positions(self) -> Dict[Tuple[int, int], int]:
        """Pipeline position per ``(id(pipeline), element index)`` slot.

        Keyed by slot rather than by pass object so one pass instance
        scheduled in two slots still gets two distinct positions (and two
        distinct timing buckets).
        """
        positions: Dict[Tuple[int, int], int] = {}
        counter = [0]

        def assign(pipeline: OpPassManager) -> None:
            for index, element in enumerate(pipeline.elements):
                if isinstance(element, OpPassManager):
                    assign(element)
                else:
                    positions[(id(pipeline), index)] = counter[0]
                    counter[0] += 1

        assign(self)
        return positions

    def _run_pipeline(self, pipeline: OpPassManager, op: Operation,
                      report: CompileReport,
                      instrumentations: List[PassInstrumentation],
                      positions: Dict[Tuple[int, int], int]) -> None:
        for index, element in enumerate(pipeline.elements):
            if isinstance(element, OpPassManager):
                for anchored in self._anchored_ops(op, element.anchor):
                    if anchored.parent is None and anchored is not op:
                        continue  # erased by an earlier sibling run
                    self._run_pipeline(element, anchored, report,
                                       instrumentations, positions)
            else:
                # (Re-)label the pass with this slot's position right
                # before the hooks fire; a shared instance is thus always
                # reported under the slot it is currently running in.
                element.pipeline_position = \
                    positions[(id(pipeline), index)]
                self._run_pass(element, op, report, instrumentations)

    @staticmethod
    def _anchored_ops(root: Operation, anchor: str) -> List[Operation]:
        """``root`` when it is an ``anchor`` op, else the ``anchor`` ops
        under it in pre-order.  Anchors are symbols (a function, a nested
        module), so only ``root`` and the symbol tables in it are looked
        into, never a function body."""
        if root.OPERATION_NAME == anchor:
            return [root]
        found: List[Operation] = []

        def collect(table: Operation) -> None:
            for region in table.regions:
                for block in region.blocks:
                    for op in block.operations:
                        if op.OPERATION_NAME == anchor:
                            found.append(op)
                        if op._trait_mask_ & _SYMBOL_TABLE:
                            collect(op)

        collect(root)
        return found

    def _run_pass(self, pass_: Pass, op: Operation, report: CompileReport,
                  instrumentations: List[PassInstrumentation]) -> None:
        for instrumentation in instrumentations:
            instrumentation.run_before_pass(pass_, op)
        try:
            pass_.run(op, report)
        except (ValueError, PassCrash):
            raise
        except Exception as error:
            raise PassCrash(pass_.NAME, error) from error
        # The pass may have mutated the anchor (and anything below it):
        # evict stale analyses unless the pass declared them preserved.
        manager = current_analysis_manager()
        if manager is not None:
            manager.invalidate(op, pass_.preserves())
        try:
            for instrumentation in reversed(instrumentations):
                instrumentation.run_after_pass(pass_, op)
        except VerificationError as error:
            for instrumentation in instrumentations:
                instrumentation.run_after_failed_verify(pass_, op, error)
            raise

    def __repr__(self) -> str:
        return f"<PassManager {self.to_spec()}>"
