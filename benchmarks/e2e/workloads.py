"""The five workloads.

Each drives the system through its public entry points only —
``parse_module``, ``verify``, ``build_named_pipeline``, ``emit_mlir``,
``ExecutionEngine``, ``CompileCache``/``DiskCache``, the ``repro-run``
and ``repro-served`` executables and ``ServeClient`` — and sees nothing
but generated text.  A workload

* sets itself up (programs, texts, references, priming, daemon);
* runs *samples*: one sweep of its operations, every operation a
  calibrated chunk of the :class:`~measure.Sampler`, with a span around
  every layer call (free unless the recorder is on);
* reports its end-to-end values, its exact counts (a separate counted
  pass), its per-layer rows, and checks every output it kept against
  the NumPy reference of the program that produced it.

Every workload has its operation in two states: *cold* (nothing cached
for this input) and *warm* (the same input seen before by whatever cache
sits in its path).
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import math
import os
import pstats
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import (
    AliasAnalysis,
    AnalysisManager,
    MemoryAccessAnalysis,
    ReachingDefinitionAnalysis,
    SYCLAliasAnalysis,
    UniformityAnalysis,
)
from repro.dialects.func import FuncOp
from repro.interp import ExecutionEngine, synthesize_spec
from repro.ir import Printer, parse_module, verify
from repro.target import emit_mlir
from repro.transforms import (
    CompileCache,
    DiskCache,
    PassInstrumentation,
    build_named_pipeline,
    dump_pass_pipeline,
)

import measure
import metrics
import programs as P

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
#: Scratch files live inside the benchmark's own (git-ignored) directory.
WORK_ROOT = os.path.join(HERE, ".work")

RTOL, ATOL = 1e-3, 1e-4
#: Calibration units on each side of a chunk that lasts about a second.
LONG_CHUNK_UNITS = 10


def tool_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def count_ops(module) -> int:
    return sum(1 for _ in module.walk())


def functions_of(module) -> Dict[str, object]:
    """Symbol name -> function-like operation, nested modules included."""
    return {op.get_str_attr("sym_name"): op for op in module.walk()
            if op.regions and op.name.endswith(".func")}


def profile_calls(work: Callable[[], object]) -> int:
    """Exact number of Python-level and builtin calls ``work`` makes."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    return pstats.Stats(profiler).total_calls


# ---------------------------------------------------------------------------
# The layered operations (every layer call under a span)
# ---------------------------------------------------------------------------

class SpanInstrumentation(PassInstrumentation):
    """Opens one span per pass execution."""

    def __init__(self, recorder: measure.SpanRecorder, prefix: str):
        self.recorder = recorder
        self.prefix = prefix

    def run_before_pass(self, pass_, op) -> None:
        self.recorder.open(f"{self.prefix}transforms.pass.{pass_.NAME}")

    def run_after_pass(self, pass_, op) -> None:
        self.recorder.close()


class Compiler:
    """text -> sycl-mlir -> lower-to-llvm -> MLIR text, layer by layer."""

    def __init__(self, recorder: measure.SpanRecorder):
        self.recorder = recorder

    def optimize(self, text: str, pipeline: str = "sycl-mlir", cache=None,
                 prefix: str = ""):
        """Parse, verify and run ``pipeline``; ``(module, report)``."""
        span = self.recorder.span
        with span(prefix + "ir.parse"):
            module = parse_module(text)
        with span(prefix + "ir.verify"):
            verify(module)
        with span(prefix + "transforms.build_pipeline"):
            manager = build_named_pipeline(pipeline)
            manager.cache = cache
            if self.recorder.enabled and cache is None:
                manager.add_instrumentation(
                    SpanInstrumentation(self.recorder, prefix))
        with span(prefix + ("transforms.pipeline" if cache is None
                            else "transforms.cache")):
            report = manager.run(module)
        with span(prefix + "ir.verify"):
            verify(module)
        return module, report

    def lower(self, module, cache=None, prefix: str = ""):
        """Lower in place and export; ``(mlir text, report)``."""
        span = self.recorder.span
        with span(prefix + "transforms.build_pipeline"):
            manager = build_named_pipeline("lower-to-llvm")
            manager.cache = cache
            if self.recorder.enabled and cache is None:
                manager.add_instrumentation(
                    SpanInstrumentation(self.recorder, prefix))
        with span(prefix + ("target.lower" if cache is None
                            else "transforms.cache")):
            report = manager.run(module)
        with span(prefix + "ir.verify"):
            verify(module)
        with span(prefix + "target.emit"):
            emitted = emit_mlir(module)
        return emitted, report

    def compile(self, text: str, cache=None, prefix: str = ""):
        """The compile workloads' operation; ``(module, mlir, reports)``."""
        module, report = self.optimize(text, cache=cache, prefix=prefix)
        emitted, lowering = self.lower(module, cache=cache, prefix=prefix)
        return module, emitted, (report, lowering)

    def execute(self, module, program: P.Program, tier: str = "auto",
                prefix: str = "", functions=None) -> "Run":
        """Fresh engine, empty executable cache.  ``functions`` saves the
        symbol walk when many kernels of one module are executed."""
        span = self.recorder.span
        function = (functions or functions_of(module))[program.name]
        binding = argument_binding(function, program)
        with span(prefix + "interp.synthesize"):
            resolved = synthesize_spec(function, program.spec(binding))
        with span(prefix + "interp.execute"):
            engine = ExecutionEngine(module, tier=tier)
            execution = engine.execute(function, resolved)
        return Run.of(execution, binding)


def argument_binding(function, program: P.Program) -> Dict[str, str]:
    """Declared accessor name -> the parsed function's argument name.

    They differ in multi-kernel modules: printed SSA names are unique
    per module, so the second kernel's ``%A`` comes back as ``%A_0``.
    """
    actual = [argument.name_hint or f"arg{position}"
              for position, argument in enumerate(function.arguments)]
    declared = [accessor.name for accessor in program.source.accessors]
    return dict(zip(declared, actual[1:]))


@dataclasses.dataclass
class Run:
    """One execution's outcome, buffers keyed by *declared* name."""

    memory: Dict[str, Sequence[float]]
    counters: Dict[str, int]
    binding: Dict[str, str] = dataclasses.field(default_factory=dict)

    @classmethod
    def of(cls, execution, binding: Dict[str, str]) -> "Run":
        memory = {name: execution.memory[actual]
                  for name, actual in binding.items()
                  if actual in execution.memory}
        return cls(memory, execution.counters, binding)


def mismatches(program: P.Program, memory: Dict[str, Sequence[float]],
               limit: Optional[int] = None,
               binding: Optional[Dict[str, str]] = None) -> List[str]:
    """Buffers of ``memory`` that differ from the NumPy reference.

    Inputs are checked too: a read-only buffer must come back as the fill
    formula says, which validates the restated formula on every run.
    ``limit`` compares only the first values (what ``repro-run
    --print-buffers`` shows).
    """
    inputs = P.program_inputs(program, binding)
    expected = program.reference(inputs)
    wrong = []
    for name, shape in program.buffers.items():
        want = np.asarray(expected.get(name, inputs[name]),
                          dtype=np.float64).reshape(-1)
        got = memory.get(name)
        if got is None:
            wrong.append(f"{program.name}:{name} missing")
            continue
        got = np.asarray(got, dtype=np.float64).reshape(-1)
        if limit is not None:
            want = want[:limit]
            got = got[:limit]
        if got.shape != want.shape or \
                not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            wrong.append(f"{program.name}:{name} differs")
    return wrong


def moved_bytes(counters: Dict[str, int]) -> int:
    return counters["bytes_read"] + counters["bytes_written"]


def quality_counts(ours: Sequence[Dict[str, int]],
                   pairs: Sequence[Tuple[Dict[str, int], Dict[str, int]]]
                   ) -> Dict[str, float]:
    """Dynamic totals of ``ours`` (counters of the ``sycl-mlir`` code) and
    the geometric means over ``(ours, dpcpp)`` pairs of ``dpcpp``'s
    counts relative to ours."""
    return {
        "dyn_ops": sum(c["ops"] for c in ours),
        "dyn_bytes": sum(moved_bytes(c) for c in ours),
        "ops_ratio_dpcpp": geometric_mean(
            [theirs["ops"] / mine["ops"] for mine, theirs in pairs]),
        "bytes_ratio_dpcpp": geometric_mean(
            [moved_bytes(theirs) / moved_bytes(mine)
             for mine, theirs in pairs]),
    }


class Workload:
    """Life cycle shared by the five workloads."""

    name = ""

    def __init__(self, seed: int, smoke: bool,
                 recorder: measure.SpanRecorder,
                 spare_cpus: Sequence[int] = ()):
        self.seed = seed
        self.smoke = smoke
        self.recorder = recorder
        #: CPUs this process may use besides the one it is pinned to.
        self.spare_cpus = tuple(spare_cpus)
        self.compiler = Compiler(recorder)
        self.sample_index = 0
        #: Oracle results: comparisons made, and what differed.
        self.checked = 0
        self.problems: List[str] = []

    def tag(self, program: str) -> None:
        self.recorder.tags = {"workload": self.name, "program": program,
                              "sample": self.sample_index}

    # -- to be provided -----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def sample(self, sampler: measure.Sampler) -> None:
        raise NotImplementedError

    def timings(self, sampler: measure.Sampler) -> Dict[str, float]:
        """``cold_s``, ``warm_s``, ``ops_per_s`` of a sampler's rows.

        A sweep's time is the sum over its operations of each
        operation's median: every program keeps its own row, and the
        noise of many short rows averages out in the sum.
        """
        cold = self.sum_of_medians(sampler, "cold.")
        warm = self.sum_of_medians(sampler, "warm.")
        operations = sum(row.startswith(("cold.", "warm."))
                         for row in sampler.rows)
        return {"cold_s": cold, "warm_s": warm,
                "ops_per_s": operations / (cold + warm)}

    def spreads(self, sampler: measure.Sampler) -> Dict[str, float]:
        """Sample-to-sample spread (IQR over median) behind each timing:
        of the per-sample totals of the cold and of the warm rows."""
        result = {}
        for metric, prefix in (("cold_s", "cold."), ("warm_s", "warm.")):
            rows = [samples for row, samples in sampler.rows.items()
                    if row.startswith(prefix)]
            totals = [sum(samples[index][1] for samples in rows)
                      for index in range(min(map(len, rows)))]
            result[metric] = measure.spread(totals)
        result["ops_per_s"] = max(result.values())
        return result

    def count_calls(self) -> int:
        """Python calls of one cold pass over the workload's operations
        (``cProfile``); runs right after the warm-up sample, so the
        process has the same history every time."""
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        """The other exact end-to-end counts; runs after :meth:`check`."""
        raise NotImplementedError

    def check(self) -> None:
        """Compare kept outputs with the references."""
        raise NotImplementedError

    def layers(self, sampler: measure.Sampler) -> Dict[str, float]:
        """Per-layer rows beyond the span self-times."""
        return {}

    def program_rows(self, sampler: measure.Sampler) -> Dict[str, float]:
        """``<state>.<program>`` -> median normalised seconds."""
        return {row: sampler.median(row) for row in sampler.rows}

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that does the work."""
        return measure.peak_rss_mb()

    # -- shared helpers -----------------------------------------------------
    def expect(self, program: P.Program, memory, limit=None,
               binding=None) -> None:
        self.checked += 1
        self.problems.extend(mismatches(program, memory, limit, binding))

    def expect_run(self, program: P.Program, run: "Run") -> None:
        self.expect(program, run.memory, binding=run.binding)

    @staticmethod
    def raw_seconds(sampler: measure.Sampler, prefix: str) -> float:
        """Un-normalised counterpart of :meth:`sum_of_medians`."""
        return sum(statistics.median(raw for raw, _ in samples)
                   for row, samples in sampler.rows.items()
                   if row.startswith(prefix))

    @staticmethod
    def sum_of_medians(sampler: measure.Sampler, prefix: str) -> float:
        return sum(sampler.median(row) for row in sampler.rows
                   if row.startswith(prefix))


# ---------------------------------------------------------------------------
# compile_kernels / compile_large
# ---------------------------------------------------------------------------

class OpCountInstrumentation(PassInstrumentation):
    """Counts the operations under each pass's anchor after it ran."""

    def __init__(self):
        #: pipeline position -> [pass NAME, ops after, summed over anchors]
        self.by_position: Dict[int, list] = {}

    def run_after_pass(self, pass_, op) -> None:
        position = getattr(pass_, "pipeline_position", 0) or 0
        entry = self.by_position.setdefault(position, [pass_.NAME, 0])
        entry[1] += count_ops(op)

    def ops_after(self) -> Dict[str, int]:
        """Per pass NAME, the count after its last instance in the pipeline."""
        result: Dict[str, int] = {}
        for position in sorted(self.by_position):
            name, total = self.by_position[position]
            result[name] = total
        return result


class CompileKernels(Workload):
    """64 seeded kernel variants + one host+device program, one module
    each; nothing is executed inside the timed region."""

    name = "compile_kernels"
    per_family = 8
    units_per_side = 1

    def setup(self) -> None:
        started = time.perf_counter()
        self.programs = P.compile_variants(
            self.seed, per_family=1 if self.smoke else self.per_family)
        host_kernel = P.gemm(f"gemm_{P.seed_tag(self.seed, 'host')}_k",
                             8, 16, 4)
        host_text, _ = P.host_program(
            host_kernel, f"main_{P.seed_tag(self.seed, 'host')}")
        self.host_kernel = host_kernel
        self.units = self.build_units(host_text)
        self.frontend_s = time.perf_counter() - started
        self.cache = CompileCache()
        #: unit label -> lowered module of the latest cold compile.
        self.lowered: Dict[str, object] = {}
        self.reports: Dict[str, tuple] = {}

    def build_units(self, host_text: str) -> List[Tuple[str, str]]:
        """``(label, text)`` per translation unit."""
        units = [(program.name, P.module_text([program]))
                 for program in self.programs]
        units.append((self.host_kernel.name, host_text))
        return units

    def unit_programs(self, label: str) -> List[P.Program]:
        if label == self.host_kernel.name:
            return [self.host_kernel]
        return [p for p in self.programs if p.name == label]

    # -- the timed region ----------------------------------------------------
    def sample(self, sampler: measure.Sampler) -> None:
        for label, text in self.units:
            self.tag(label)
            result = sampler.chunk(
                f"cold.{label}", lambda: self.compiler.compile(text),
                units=self.units_per_side)
            if result is not None:
                self.lowered[label], _, self.reports[label] = result
            sampler.chunk(
                f"warm.{label}",
                lambda: self.compiler.compile(text, cache=self.cache,
                                              prefix="warm."),
                units=self.units_per_side)
        self.sample_index += 1

    def program_rows(self, sampler: measure.Sampler) -> Dict[str, float]:
        rows: Dict[str, float] = {}
        for row in sampler.rows:
            state, label = row.split(".", 1)
            family = label.rsplit("_", 2)[0] if label != \
                self.host_kernel.name else "gemm_host"
            key = f"{state}.{family}"
            rows[key] = rows.get(key, 0.0) + sampler.median(row)
        return rows

    # -- counts ---------------------------------------------------------------
    def count_calls(self) -> int:
        return profile_calls(
            lambda: [self.compiler.compile(text) for _, text in self.units])

    def counts(self) -> Dict[str, float]:
        """Static size of the emitted modules, dynamic counts of the
        oracle's launches of them, and ``dpcpp``'s dynamic counts relative
        to ours on one fixed-shape variant per family, lowered alike."""
        pairs = []
        for program in self.programs:
            if program.params["shape"] != P.COMPILE_SHAPES[0]:
                continue
            module, _ = self.compiler.optimize(P.module_text([program]),
                                               "dpcpp")
            self.compiler.lower(module)
            run = self.compiler.execute(module, program)
            self.expect_run(program, run)
            pairs.append((self.executed[program.name], run.counters))
        return dict(quality_counts(list(self.executed.values()), pairs),
                    code_ops=sum(count_ops(module)
                                 for module in self.lowered.values()))

    # -- oracle ---------------------------------------------------------------
    def check(self) -> None:
        """Execute every emitted (lowered) kernel once at its small size."""
        self.executed: Dict[str, Dict[str, int]] = {}
        for label, module in self.lowered.items():
            functions = functions_of(module)
            for program in self.unit_programs(label):
                run = self.compiler.execute(module, program,
                                            functions=functions)
                self.expect_run(program, run)
                self.executed[program.name] = run.counters

    # -- per layer --------------------------------------------------------------
    def layers(self, sampler: measure.Sampler) -> Dict[str, float]:
        rows = pass_rows(self.units, self.reports.values(), lower=True)
        rows.update(analysis_rows(self.units))
        rows.update(text_rows(self.units, self.lowered.values()))
        rows["transforms.cache.hit_ratio"] = self.cache.stats.hit_rate()
        return rows


class CompileLarge(CompileKernels):
    """The same 65 kernels as one translation unit."""

    name = "compile_large"
    units_per_side = LONG_CHUNK_UNITS

    def build_units(self, host_text: str) -> List[Tuple[str, str]]:
        # The host+device module already nests a `kernels` module; the 64
        # variants join it at top level, where symbol lookup finds them.
        module = parse_module(host_text)
        for program in self.programs:
            module.append(program.function())
        return [("large", Printer().print_module(module) + "\n")]

    def unit_programs(self, label: str) -> List[P.Program]:
        return list(self.programs) + [self.host_kernel]


def pass_rows(units, report_pairs, lower: bool = False) -> Dict[str, float]:
    """``applied`` from the statistics in ``report_pairs`` (one tuple of
    reports per compile) and ``ir_ops_after`` from one more, instrumented,
    compile of each ``(label, text)`` unit, lowered too if ``lower``."""
    applied: Dict[str, int] = {}
    for pair in report_pairs:
        for report in pair:
            for stat in report.statistics:
                if stat.name not in metrics.NOT_A_REWRITE:
                    applied[stat.pass_name] = \
                        applied.get(stat.pass_name, 0) + stat.value
    after: Dict[str, int] = {}
    for _, text in units:
        module = parse_module(text)
        for pipeline in ("sycl-mlir", "lower-to-llvm")[:1 + lower]:
            counter = OpCountInstrumentation()
            manager = build_named_pipeline(pipeline)
            manager.add_instrumentation(counter)
            manager.run(module)
            for name, total in counter.ops_after().items():
                after[name] = after.get(name, 0) + total
    rows: Dict[str, float] = {}
    for name in metrics.PASSES:
        rows[f"transforms.pass.{name}.applied"] = applied.get(name, 0)
        rows[f"transforms.pass.{name}.ir_ops_after"] = after.get(name, 0)
    return rows


def analysis_rows(units) -> Dict[str, float]:
    """Seconds to build (and, for the alias analyses, to query over every
    pair of accessed memrefs) each analysis through a fresh
    ``AnalysisManager``, summed over the kernels of ``units``."""
    classes = {"alias": AliasAnalysis, "sycl_alias": SYCLAliasAnalysis,
               "uniformity": UniformityAnalysis,
               "memory_access": MemoryAccessAnalysis,
               "reaching_definitions": ReachingDefinitionAnalysis}
    seconds = dict.fromkeys(classes, 0.0)
    for _, text in units:
        module = parse_module(text)
        for function in module.walk():
            if not isinstance(function, FuncOp):
                continue
            memrefs = [op.operands[-2] if op.name.endswith("store")
                       else op.operands[0]
                       for op in function.walk()
                       if op.name in ("affine.load", "affine.store")]
            raw = {}
            with measure.Bracket() as bracket:
                for name, analysis_class in classes.items():
                    start = time.perf_counter()
                    analysis = AnalysisManager().get(analysis_class,
                                                     function)
                    if name.endswith("alias"):
                        for a in memrefs:
                            for b in memrefs:
                                analysis.alias(a, b)
                    raw[name] = time.perf_counter() - start
            for name, elapsed in raw.items():
                seconds[name] += bracket.normalise(elapsed)
    return {f"analysis.{name}_s": value for name, value in seconds.items()}


def text_rows(units, lowered_modules) -> Dict[str, float]:
    """Printer, fingerprint and parse-rate rows, measured on the units."""
    rows = {"ir.print_s": 0.0, "ir.fingerprint_s": 0.0}
    parse_s = 0.0
    ops = 0
    for _, text in units:
        with measure.Bracket() as bracket:
            start = time.perf_counter()
            module = parse_module(text)
            parsed = time.perf_counter()
            Printer().print_module(module)
            printed = time.perf_counter()
            CompileCache.key_for(module, "")
            done = time.perf_counter()
        parse_s += bracket.normalise(parsed - start)
        rows["ir.print_s"] += bracket.normalise(printed - parsed)
        rows["ir.fingerprint_s"] += bracket.normalise(done - printed)
        ops += count_ops(module)
    rows["ir.parse_us_per_op"] = parse_s / ops * 1e6
    rows["target.lowered_ops"] = sum(count_ops(m) for m in lowered_modules)
    return rows


# ---------------------------------------------------------------------------
# exec_heavy
# ---------------------------------------------------------------------------

class ExecHeavy(Workload):
    """Nine programs at execution-heavy sizes: warm sweeps of engines
    that have run before (``warm_s``) and text -> buffers through a fresh
    engine with an empty executable cache (``cold_s``)."""

    name = "exec_heavy"

    def setup(self) -> None:
        started = time.perf_counter()
        self.programs = P.exec_programs(self.seed, self.smoke)
        # The lowered-CFG program: the same GEMM source, small enough
        # for the only tier that runs branch CFGs today.
        extent = 8 if self.smoke else 16
        self.cfg = P.gemm(f"gemm_cfg_{P.seed_tag(self.seed, 'cfg')}",
                          extent, extent, 4)
        self.cfg.family = "gemm_cfg"
        self.entries = [(p, P.module_text([p]), False)
                        for p in self.programs]
        self.entries.append((self.cfg, P.module_text([self.cfg]), True))
        self.frontend_s = time.perf_counter() - started
        #: family -> (engine, function, resolved spec) of the warm sweeps.
        self.warm: Dict[str, tuple] = {}
        self.modules: Dict[str, object] = {}
        self.reports: List[tuple] = []
        for program, text, lowered in self.entries:
            module, reports = self.prepare(text, lowered)
            self.reports.append(reports)
            function = functions_of(module)[program.name]
            resolved = synthesize_spec(function, program.spec())
            engine = ExecutionEngine(module, tier="auto")
            engine.execute(function, resolved)
            self.warm[program.family] = (engine, function, resolved)
            self.modules[program.family] = module
        self.last: Dict[str, object] = {}

    def prepare(self, text: str, lowered: bool, pipeline: str = "sycl-mlir"):
        """Compile (and lower) ``text``; ``(module, reports)``."""
        module, report = self.compiler.optimize(text, pipeline)
        if not lowered:
            return module, (report,)
        return module, (report, self.compiler.lower(module)[1])

    def from_text(self, program: P.Program, text: str, lowered: bool,
                  pipeline: str = "sycl-mlir") -> "Run":
        """The cold operation: text in, result buffers out."""
        module, _ = self.prepare(text, lowered, pipeline)
        return self.compiler.execute(module, program)

    def warm_counters(self, program: P.Program) -> Dict[str, int]:
        """Counters of the ``sycl-mlir`` code's latest warm execution."""
        return self.last[program.family][1].counters

    def sample(self, sampler: measure.Sampler) -> None:
        span = self.recorder.span
        for program, text, lowered in self.entries:
            self.tag(program.family)
            engine, function, resolved = self.warm[program.family]

            def warm_execute():
                with span("warm.interp.execute"):
                    return engine.execute(function, resolved)

            warm = sampler.chunk(f"warm.{program.family}", warm_execute)
            cold = sampler.chunk(
                f"cold.{program.family}",
                lambda: self.from_text(program, text, lowered))
            self.last[program.family] = (program, warm, cold)
        self.sample_index += 1

    def count_calls(self) -> int:
        return profile_calls(
            lambda: [self.from_text(program, text, lowered)
                     for program, text, lowered in self.entries])

    def counts(self) -> Dict[str, float]:
        pairs = []
        for program, text, lowered in self.entries:
            run = self.from_text(program, text, lowered, "dpcpp")
            self.expect_run(program, run)
            pairs.append((self.warm_counters(program), run.counters))
        return dict(quality_counts([mine for mine, _ in pairs], pairs),
                    code_ops=sum(map(count_ops, self.modules.values())))

    def check(self) -> None:
        for program, warm, cold in self.last.values():
            if warm is not None:
                self.expect(program, warm.memory)
            if cold is not None:
                self.expect_run(program, cold)

    def layers(self, sampler: measure.Sampler) -> Dict[str, float]:
        rows = pass_rows([(p.name, text) for p, text, lowered
                          in self.entries if not lowered], self.reports)
        for name, value in pass_rows(
                [(p.name, text) for p, text, lowered in self.entries
                 if lowered], (), lower=True).items():
            rows[name] += value
        rows["interp.fallbacks"] = sum(
            sum("fell back" in remark for remark in set(engine.remarks))
            for engine, _, _ in self.warm.values())
        rows.update(self.tier_rows())
        rows.update(self.acpp_rows())
        rows.update(self.codegen_rows())
        return rows

    def tier_rows(self) -> Dict[str, float]:
        """One normalised execution per program on every pinned tier that
        accepts it.  The interpreter is pinned only where ``auto`` ends
        there anyway: elsewhere it would take minutes at these sizes."""
        seconds = dict.fromkeys(metrics.TIERS, 0.0)
        executed = dict.fromkeys(metrics.TIERS, 0)
        auto_total = best_total = 0.0
        for program, _, _ in self.entries:
            engine, function, resolved = self.warm[program.family]
            module = self.modules[program.family]
            auto_tier = self.last[program.family][1].tier
            measured: Dict[str, float] = {}
            for tier in metrics.TIERS:
                if tier == "interp" and auto_tier != "interp":
                    continue
                pinned = ExecutionEngine(module, tier=tier)
                if pinned.execute(function, resolved).tier != tier:
                    continue
                execution, measured[tier] = measure.timed(
                    lambda: pinned.execute(function, resolved))
                seconds[tier] += measured[tier]
                executed[tier] += execution.counters["ops"]
            auto_total += measured[auto_tier]
            best_total += min(measured.values())
        rows = {"interp.auto_vs_best": auto_total / best_total}
        for tier in metrics.TIERS:
            rows[f"interp.exec.{tier}_s"] = seconds[tier]
            rows[f"interp.ops_per_s.{tier}"] = \
                executed[tier] / seconds[tier] if seconds[tier] else 0.0
        return rows

    def acpp_rows(self) -> Dict[str, float]:
        pairs = [(self.warm_counters(program),
                  self.from_text(program, text, lowered,
                                 "adaptivecpp-jit").counters)
                 for program, text, lowered in self.entries]
        ratios = quality_counts((), pairs)
        return {"interp.acpp.ops_ratio": ratios["ops_ratio_dpcpp"],
                "interp.acpp.bytes_ratio": ratios["bytes_ratio_dpcpp"]}

    def codegen_rows(self) -> Dict[str, float]:
        """JIT code generation alone, where the JIT accepts the kernel."""
        from repro.interp import (
            ExecutableCache,
            JITUnsupportedError,
            compile_executable,
        )

        total = 0.0
        for program, _, _ in self.entries:
            function = self.warm[program.family][1]
            if program.local_size is None:
                mode = "basic"
            elif any(op.name == "sycl.group_barrier"
                     for op in function.walk()):
                mode = "nd-barrier"
            else:
                mode = "nd"
            try:
                total += measure.timed(lambda: compile_executable(
                    function, mode, cache=ExecutableCache()))[1]
            except JITUnsupportedError:
                continue
        return {"interp.jit_codegen_s": total}


# ---------------------------------------------------------------------------
# cold_cli
# ---------------------------------------------------------------------------

_BUFFER_LINE = re.compile(r"^(\w+) = \[(.*?)(?:, \.\.\. \(\d+ values\))?\]$")
_COST_LINE = re.compile(r"^\s+(ops executed|bytes moved):\s+(\d+)$")


class ColdCli(Workload):
    """A fresh ``repro-run`` process per operation, against an emptied
    (``cold_s``) or a primed (``warm_s``) disk cache."""

    name = "cold_cli"

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb(children=True)

    def setup(self) -> None:
        started = time.perf_counter()
        extent = 8 if self.smoke else 16
        self.program = P.small_gemm(self.seed, "cli", extent, 4)
        self.text = P.module_text([self.program])
        self.frontend_s = time.perf_counter() - started
        self.root = os.path.join(
            WORK_ROOT, f"cli-{os.getpid()}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.input = os.path.join(self.root, "gemm.mlir")
        with open(self.input, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        self.cold_dir = os.path.join(self.root, "cold")
        self.warm_dir = os.path.join(self.root, "warm")
        self.outputs: List[str] = []
        self.counters: Dict[str, Dict[str, int]] = {}
        self.run_tool(self.warm_dir)  # prime

    def command(self, cache_dir: str, pipeline: str = "sycl-mlir"
                ) -> List[str]:
        extent = "x".join(str(e) for e in self.program.global_size)
        local = "x".join(str(e) for e in self.program.local_size)
        command = [sys.executable, "-m", "repro.tools.repro_run", self.input,
                   "--pipeline", pipeline, "--print-buffers",
                   "--cost-report", "--cache-dir", cache_dir,
                   "--global-size", extent, "--local-size", local]
        for name, shape in self.program.buffers.items():
            command += ["--buffer",
                        f"{name}={'x'.join(str(e) for e in shape)}"]
        return command

    def run_tool(self, cache_dir: str, pipeline: str = "sycl-mlir") -> str:
        with self.recorder.span("tools.process"):
            completed = subprocess.run(
                self.command(cache_dir, pipeline), capture_output=True,
                text=True, env=tool_environment())
        if completed.returncode != 0:
            raise RuntimeError(
                f"repro-run exited {completed.returncode}: "
                f"{completed.stderr.strip()[-300:]}")
        self.counters[pipeline] = self.cost_report(completed.stderr)
        return completed.stdout

    @staticmethod
    def cost_report(stderr: str) -> Dict[str, int]:
        return {key: int(value) for key, value in
                (match.groups() for match in
                 map(_COST_LINE.match, stderr.splitlines()) if match)}

    def sample(self, sampler: measure.Sampler) -> None:
        self.tag(self.program.family)
        shutil.rmtree(self.cold_dir, ignore_errors=True)
        for state, cache_dir in (("cold", self.cold_dir),
                                 ("warm", self.warm_dir)):
            # The child inherits this process's CPU, so the units on
            # either side of it ran where it ran.
            output = sampler.chunk(f"{state}.cli",
                                   lambda: self.run_tool(cache_dir),
                                   units=LONG_CHUNK_UNITS)
            if output is not None:
                self.outputs.append(output)
        self.sample_index += 1

    def count_calls(self) -> int:
        """The whole cold process, imports included, under ``cProfile``."""
        profile = os.path.join(self.root, "calls.prof")
        shutil.rmtree(self.cold_dir, ignore_errors=True)
        command = self.command(self.cold_dir)
        command[1:1] = ["-m", "cProfile", "-o", profile]
        subprocess.run(command, check=True, capture_output=True,
                       env=tool_environment())
        return pstats.Stats(profile).total_calls

    def counts(self) -> Dict[str, float]:
        ours = dict(self.counters["sycl-mlir"])
        self.run_tool(self.cold_dir, "dpcpp")
        theirs = self.counters["dpcpp"]
        module, _ = self.compiler.optimize(self.text)
        return {"code_ops": count_ops(module),
                "dyn_ops": ours["ops executed"],
                "dyn_bytes": ours["bytes moved"],
                "ops_ratio_dpcpp":
                    theirs["ops executed"] / ours["ops executed"],
                "bytes_ratio_dpcpp":
                    theirs["bytes moved"] / ours["bytes moved"]}

    def check(self) -> None:
        """Every process printed the first values of every buffer."""
        for output in self.outputs:
            memory = {}
            for line in output.splitlines():
                match = _BUFFER_LINE.match(line)
                if match:
                    memory[match.group(1)] = [
                        float(v) for v in match.group(2).split(", ")]
            shown = min((len(v) for v in memory.values()), default=0)
            self.expect(self.program, memory, limit=shown)

    def layers(self, sampler: measure.Sampler) -> Dict[str, float]:
        rows = import_rows()
        rows.update(self.replica_rows())
        _, report = self.compiler.optimize(self.text)
        rows.update(pass_rows([(self.program.name, self.text)],
                              [(report,)]))
        return rows

    def replica_rows(self) -> Dict[str, float]:
        """What the tool does, repeated in this process around the public
        calls: the pipeline through a disk-backed cache that misses and
        stores, hits on disk, then hits in memory."""
        replica = os.path.join(self.root, "replica")
        shutil.rmtree(replica, ignore_errors=True)
        rows: Dict[str, float] = {}
        lookups = hits = 0
        cache = None
        for row in ("miss_store", "disk_hit", "mem_hit"):
            if row != "mem_hit":
                cache = CompileCache(disk=DiskCache(replica))
            module = parse_module(self.text)
            manager = build_named_pipeline("sycl-mlir")
            manager.cache = cache
            report, rows[f"transforms.cache.{row}_s"] = measure.timed(
                lambda: manager.run(module))
            lookups += 1
            hits += report.get_statistic("compile-cache", "hits")
        rows["transforms.cache.hit_ratio"] = hits / lookups
        return rows

    def close(self) -> None:
        shutil.rmtree(getattr(self, "root", ""), ignore_errors=True)


#: Runs in a fresh interpreter.  The imports are timed before anything
#: else is imported (the harness's own modules pull in standard-library
#: modules the tools need too, and would take the credit).
_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import repro.dialects
t1 = time.perf_counter()
import repro.tools.repro_opt
numpy_imported = int("numpy" in sys.modules)
import repro.tools.repro_run
t2 = time.perf_counter()
modules = len(sys.modules)
import json
sys.path.insert(0, {here!r})
import measure
unit = measure.calibrate(7)
print(json.dumps({{"dialects": measure.normalise(t1 - t0, unit),
                  "tools": measure.normalise(t2 - t0, unit),
                  "modules": modules, "numpy": numpy_imported}}))
"""


def import_rows() -> Dict[str, float]:
    """Start-up rows, from fresh interpreters: a bare one, and one that
    imports the dialects and then the ``repro-run`` tool."""
    bare = [measure.timed(lambda: subprocess.run(
        [sys.executable, "-c", "pass"], check=True,
        env=tool_environment()))[1] for _ in range(3)]
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(here=HERE)],
        check=True, capture_output=True, text=True, env=tool_environment())
    result = json.loads(probe.stdout)
    return {"tools.bare_python_s": statistics.median(bare),
            "tools.import_s": result["tools"],
            "dialects.import_s": result["dialects"],
            "tools.import_modules": result["modules"],
            "tools.numpy_imported": result["numpy"]}


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------

class ServeMix(Workload):
    """A ``repro-served`` daemon under a closed loop of two clients.

    One sample is one batch: both clients send :attr:`BATCH` requests
    each, waiting for every reply.  The schedule repeats a cycle of 160
    requests — per hot program 12 compiles of it (cache hits,
    ``warm_s``), 5 compiles of never-seen variants of it (miss + store,
    ``cold_s``) and 3 executes: 60 / 25 / 15 % — in an order the seed
    shuffles anew every cycle.  Rows are kept per class *and* program
    (a miss of the 24 KB median filter and one of the 2 KB vector add
    are different populations; the median of their mixture would sit
    between the modes and jump); ``cold_s`` and ``warm_s`` are the means
    over the programs of the per-program medians.
    """

    name = "serve_mix"
    CLIENTS = 2
    BATCH = 10
    CHECK_ONE_IN = 20
    #: Requests per program and cycle, by class.
    CYCLE = (("compile_hit", 12), ("compile_miss", 5), ("execute", 3))

    def setup(self) -> None:
        from repro.serve import ServeClient

        started = time.perf_counter()
        self.programs = P.serve_programs(self.seed, self.smoke)
        self.texts = {p.family: P.module_text([p]) for p in self.programs}
        self.frontend_s = time.perf_counter() - started
        self.by_family = {p.family: p for p in self.programs}
        self.spec = dump_pass_pipeline(build_named_pipeline("sycl-mlir"))
        self.rng = random.Random(self.seed)
        self.pending: List[tuple] = []
        self.variant = 0
        self.retries = 0
        self.errors = 0
        self.rtts: List[float] = []
        #: (program, memory) of execute replies, (program, text) of the
        #: sampled compile replies.
        self.executions: List[tuple] = []
        self.compiled: List[tuple] = []

        # The daemon inherits this thread's CPU, where the calibration
        # units between batches run; the client threads, which mostly
        # wait, move to another CPU when there is one.
        self.client_cpu = min(self.spare_cpus) if self.spare_cpus else None

        self.root = os.path.join(WORK_ROOT, f"serve-{os.getpid()}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.repro_served", "--port", "0",
             "--cache-dir", os.path.join(self.root, "cache"),
             # Small enough to fill within a run: the daemon's memory
             # then no longer depends on how many misses a run fits in.
             "--max-entries", "32"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=tool_environment())
        banner = self.daemon.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        if match is None:
            raise RuntimeError(f"repro-served did not start: {banner!r}")
        self.address = (match.group(1), int(match.group(2)))
        self.clients = [ServeClient(*self.address, max_retries=0)
                        for _ in range(self.CLIENTS)]
        # Prime: every hot module compiled and every hot kernel run once.
        self.hot_replies = {}
        self.hot_counters = {}
        for program in self.programs:
            self.hot_replies[program.family] = self.request(
                self.clients[0], ("compile", program,
                                  self.texts[program.family]))
            self.hot_counters[program.family] = self.request(
                self.clients[0], ("execute", program,
                                  self.texts[program.family]))["counters"]

    # -- requests ------------------------------------------------------------
    def plan(self, kind: str, program: P.Program) -> tuple:
        """``(kind, program, text)``; a miss gets a name never used."""
        text = self.texts[program.family]
        if kind != "compile_miss":
            return kind, program, text
        self.variant += 1
        name = f"{program.family}_{P.seed_tag(self.seed, 'v')}" \
            f"_{self.variant:06d}"
        return (kind, dataclasses.replace(program, name=name),
                text.replace(program.name, name))

    def next_request(self) -> tuple:
        if not self.pending:
            cycle = [(kind, program) for program in self.programs
                     for kind, count in self.CYCLE for _ in range(count)]
            self.rng.shuffle(cycle)
            self.pending = cycle
        return self.plan(*self.pending.pop())

    def message(self, plan: tuple, spec: Optional[str] = None) -> dict:
        """The protocol fields of one planned request."""
        kind, program, text = plan
        message = {"method": "compile", "ir": text,
                   "passes": spec or self.spec}
        if kind == "execute":
            message.update(
                method="execute", entry=program.name,
                global_size=list(program.global_size),
                local_size=list(program.local_size)
                if program.local_size else None,
                buffers={name: list(shape)
                         for name, shape in program.buffers.items()})
        return message

    def request(self, client, plan: tuple, spec: Optional[str] = None
                ) -> dict:
        from repro.serve.client import ServeError

        message = self.message(plan, spec)
        method = message.pop("method")
        for attempt in range(3):
            try:
                return client.request(method, **message)
            except ServeError as error:
                if not error.retryable or attempt == 2:
                    self.errors += 1
                    raise
                self.retries += 1
        raise AssertionError("unreachable")

    def client_run(self, client, plans: List[tuple], out: List[tuple]
                   ) -> None:
        """One client's share of a batch; ``(plan, rtt_s, reply)`` each."""
        recorder = self.recorder
        if self.client_cpu is not None:
            os.sched_setaffinity(0, {self.client_cpu})
        with recorder.span("chunk:serve.client"):
            for plan in plans:
                reply = None
                with recorder.span(f"serve.{plan[0]}"):
                    start = time.perf_counter()
                    try:
                        reply = self.request(client, plan)
                    except Exception as error:  # noqa: BLE001 - counted
                        reply = error
                    rtt = time.perf_counter() - start
                out.append((plan, rtt, reply))

    ROWS = {"compile_hit": "warm.hit", "compile_miss": "cold.miss",
            "execute": "exec.execute"}

    def sample(self, sampler: measure.Sampler) -> None:
        self.tag("mix")
        plans = [[self.next_request() for _ in range(self.BATCH)]
                 for _ in self.clients]
        results: List[List[tuple]] = [[] for _ in self.clients]
        first_span = len(self.recorder.spans)

        def batch() -> float:
            threads = [threading.Thread(target=self.client_run,
                                        args=(client, plan, out))
                       for client, plan, out
                       in zip(self.clients, plans, results)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - start

        wall, unit = sampler.bracket(batch)
        sampler.record("batch", wall, unit)
        sampler.fold_spans(first_span, unit)
        for plan, rtt, reply in (r for out in results for r in out):
            kind, program, _ = plan
            sampler.attempted += 1
            if isinstance(reply, Exception):
                sampler.failed += 1
                sampler.errors.append(f"{kind}: {reply}")
                continue
            sampler.record(f"{self.ROWS[kind]}.{program.family}", rtt, unit)
            self.rtts.append(measure.normalise(rtt, unit))
            if kind == "execute":
                self.executions.append((program, reply["memory"]))
            elif self.rng.randrange(self.CHECK_ONE_IN) == 0:
                self.compiled.append((program, reply["text"]))
        self.sample_index += 1

    @staticmethod
    def class_latency(sampler: measure.Sampler, prefix: str) -> float:
        """Mean over the programs of their median latency in a class."""
        medians = [sampler.median(row) for row in sampler.rows
                   if row.startswith(prefix)]
        # A smoke run's single batch may hold no request of a class.
        return statistics.mean(medians) if medians else 0.0

    def timings(self, sampler: measure.Sampler) -> Dict[str, float]:
        # Throughput over whole schedule cycles only: every cycle holds
        # the same requests, so its time does not depend on the shuffle.
        per_batch = self.CLIENTS * self.BATCH
        per_cycle = len(self.programs) * sum(n for _, n in self.CYCLE) \
            // per_batch
        walls = [normalised for _, normalised in sampler.rows["batch"]]
        whole = len(walls) // per_cycle * per_cycle or len(walls)
        return {"cold_s": self.class_latency(sampler, "cold.miss."),
                "warm_s": self.class_latency(sampler, "warm.hit."),
                "ops_per_s": whole * per_batch / sum(walls[:whole])}

    def spreads(self, sampler: measure.Sampler) -> Dict[str, float]:
        # Request rows differ in length; the batches stand for them all.
        batches = measure.spread([normalised for _, normalised
                                  in sampler.rows["batch"]])
        return dict.fromkeys(("cold_s", "warm_s", "ops_per_s"), batches)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.daemon.pid}/status",
                  encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    # -- counts ---------------------------------------------------------------
    def count_calls(self) -> int:
        """The service handling the schedule's first requests, in this
        process (the daemon's request threads cannot be profiled from
        outside)."""
        from repro.serve import CompileService

        # A fixed composition in a fixed order, so that the count does
        # not depend on the seed: per program 3 hits, 1 miss, 1 execute.
        plans = [self.plan(kind, self.by_family[family])
                 for family in P.FAMILIES
                 for kind in ("compile_hit",) * 3 + ("compile_miss",
                                                     "execute")]
        service = CompileService(
            cache_dir=os.path.join(self.root, "counted"))

        def handle_all():
            for plan in plans:
                reply = service.handle(dict(self.message(plan), id=1),
                                       lambda event: None)
                if not reply.get("ok"):
                    raise RuntimeError(reply.get("error"))

        return profile_calls(handle_all)

    def counts(self) -> Dict[str, float]:
        dpcpp = dump_pass_pipeline(build_named_pipeline("dpcpp"))
        pairs = []
        for program in self.programs:
            reply = self.request(
                self.clients[0],
                ("execute", program, self.texts[program.family]), dpcpp)
            self.executions.append((program, reply["memory"]))
            pairs.append((self.hot_counters[program.family],
                          reply["counters"]))
        return dict(quality_counts([mine for mine, _ in pairs], pairs),
                    code_ops=sum(count_ops(parse_module(reply["text"]))
                                 for reply in self.hot_replies.values()))

    def check(self) -> None:
        for program, memory in self.executions:
            self.expect(program, memory)
        for program, text in self.compiled:
            self.expect_run(
                program, self.compiler.execute(parse_module(text), program))

    # -- per layer --------------------------------------------------------------
    def layers(self, sampler: measure.Sampler) -> Dict[str, float]:
        rows = import_rows()
        client = self.clients[0]
        pings = [measure.timed(client.ping)[1] for _ in range(20)]
        # The same hit without the daemon around it: parse, verify, a
        # memory hit of the pipeline, verify, print.
        cache = CompileCache()

        def local_hit(text: str) -> None:
            module, _ = self.compiler.optimize(text, cache=cache)
            Printer().print_module(module)

        local = []
        for text in self.texts.values():
            local_hit(text)  # fill
            local.append(statistics.median(
                measure.timed(lambda: local_hit(text))[1]
                for _ in range(3)))
        hit = self.class_latency(sampler, "warm.hit.")
        rows.update(pass_rows(
            self.texts.items(),
            [(self.compiler.optimize(text)[1],)
             for text in self.texts.values()]))
        status = client.status()["cache"]
        lookups = status["hits"] + status["misses"]
        rows.update({
            "serve.ping_rtt_s": statistics.median(pings),
            "serve.compile_hit_rtt_s": hit,
            "serve.compile_miss_rtt_s":
                self.class_latency(sampler, "cold.miss."),
            "serve.execute_rtt_s":
                self.class_latency(sampler, "exec.execute."),
            "serve.overhead_s": hit - statistics.mean(local),
            "serve.rtt_tail_s": measure.tail(self.rtts)[1],
            "serve.retries": self.retries,
            "serve.errors": self.errors,
            "transforms.cache.hit_ratio":
                status["hits"] / lookups if lookups else 0.0,
        })
        return rows

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return
        try:
            if daemon.poll() is None:
                self.clients[0].shutdown()
        except Exception:  # noqa: BLE001 - the kill below still stops it
            pass
        for client in getattr(self, "clients", []):
            client.close()
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)
