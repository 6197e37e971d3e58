"""Lowering benchmark scenarios (the BENCH_10 scenario family).

Prices the target subsystem (``docs/lowering.md``) on the BENCH_5
kernels so the conversion passes and the exporter are tracked by the
same regression gate as every other phase:

* ``lower/pipeline-vecadd`` / ``lower/pipeline-gemm`` — the full
  ``lower-to-llvm`` pipeline (accessor lowering, affine lowering,
  scf→cf expansion, arith/memref/func→llvm conversion) on a fresh
  module per repeat;
* ``lower/exec-vecadd`` / ``lower/exec-gemm`` — executing the fully
  lowered CFG module through the engine, with a structured-module
  reference timed alongside (``structured_seconds`` /
  ``overhead_vs_structured``) — the price of running branch-dispatch
  IR instead of structured regions;
* ``lower/emit-mlir`` / ``lower/parse-mlir`` — exporting the lowered
  GEMM in upstream-MLIR clause order and parsing it back, the
  round-trip contract the export tests enforce byte-for-byte.

Record ``seconds`` are what ``benchmarks/compare.py`` gates.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.interp.differential import synthesize_spec
from repro.interp.engine import ExecutionEngine
from repro.ir import parse_module
from repro.target import emit_mlir
from repro.transforms.pipelines import build_named_pipeline

from .kernels import build_gemm_module, build_vecadd_module


def _time_best(callable_: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _lower(module):
    """``lower-to-llvm`` on a clone; the input module stays structured."""
    lowered = module.clone({})
    build_named_pipeline("lower-to-llvm", None, 1).run(lowered)
    return lowered


def _exec_scenario(name: str, module, entry: str, resolved,
                   repeats: int, tier: str = "interp") -> Dict:
    # Mirrors jit_bench._tier_scenario: one engine, an untimed warmup
    # populating any caches, then a best-of-N warm loop.  Both sides of
    # the structured-vs-lowered comparison are pinned to the scalar tier
    # on purpose (the JIT compiles CFG functions too): the overhead
    # ratio prices the interpreter's block dispatch, not a tier change.
    engine = ExecutionEngine(module, tier=tier)
    function = module.lookup_symbol(entry)
    warmup = engine.execute(function, resolved)
    seconds = _time_best(lambda: engine.execute(function, resolved),
                         repeats)
    record: Dict = {"name": name, "seconds": seconds,
                    "tier": warmup.tier,
                    "ops": warmup.counters["ops"]}
    if seconds > 0:
        record["ops_per_second"] = record["ops"] / seconds
    return record


def run_lower_suite(repeats: int = 3, smoke: bool = False) -> Dict:
    """The lowering scenario family for ``BENCH_*.json``.

    Sizes mirror :func:`benchmarks.jit_bench.run_jit_suite` so the
    lowered-execution numbers share denominators with the tier family.
    """
    vec_size = 256 if smoke else 2048
    gemm_size = 4 if smoke else 8
    work_group = 2 if smoke else 4

    vec_module, vec_entry, vec_spec = build_vecadd_module(vec_size)
    gemm_module, gemm_specs = build_gemm_module(gemm_size, work_group)
    workloads = [
        ("vecadd", vec_module, vec_entry, vec_spec),
        ("gemm", gemm_module, "gemm", gemm_specs["gemm"]),
    ]

    records: List[Dict] = []
    for label, module, entry, spec in workloads:
        records.append({
            "name": f"lower/pipeline-{label}",
            "seconds": _time_best(lambda m=module: _lower(m), repeats),
        })

        # Launch configuration resolved once from the structured module
        # and reused for the lowered one — the differential harness's
        # contract, so both executions see identical inputs.
        resolved = synthesize_spec(module.lookup_symbol(entry), spec)
        reference = _exec_scenario(f"structured-ref/{label}", module,
                                   entry, resolved, repeats)
        lowered = _lower(module)
        record = _exec_scenario(f"lower/exec-{label}", lowered, entry,
                                resolved, repeats)
        record["structured_seconds"] = reference["seconds"]
        if reference["seconds"] > 0:
            record["overhead_vs_structured"] = (
                record["seconds"] / reference["seconds"])
        records.append(record)

    # Exporter cost on the richest output: the lowered GEMM CFG.
    lowered_gemm = _lower(gemm_module)
    records.append({
        "name": "lower/emit-mlir",
        "seconds": _time_best(lambda: emit_mlir(lowered_gemm), repeats),
    })
    exported = emit_mlir(lowered_gemm)
    records.append({
        "name": "lower/parse-mlir",
        "seconds": _time_best(lambda: parse_module(exported), repeats),
        "ir_bytes": len(exported),
    })

    return {
        "config": {"vecadd_items": vec_size, "gemm_size": gemm_size,
                   "work_group": work_group, "smoke": smoke},
        "records": records,
    }


def summarize(results: Dict) -> str:
    """One human line for the runner's ``--out`` summary."""
    records = {record["name"]: record
               for record in results.get("lower", {}).get("records", ())}
    parts = []
    for name in ("lower/pipeline-gemm", "lower/exec-gemm",
                 "lower/emit-mlir"):
        record = records.get(name)
        if record is None:
            continue
        overhead = record.get("overhead_vs_structured")
        suffix = f" ({overhead:.1f}x vs structured)" if overhead else ""
        parts.append(f"{name} {record['seconds']:.5f}s{suffix}")
    return f"lowering: {', '.join(parts)}" if parts else ""
