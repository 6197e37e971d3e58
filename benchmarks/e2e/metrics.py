"""Names, units, directions and bounds of every metric — the one table
``BENCHMARK.json`` is written from and the test compares it against.

Every workload reports every metric (the driver's contract); the README
says what each end-to-end metric means on each workload and which
per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("compile_kernels",
     "65 seeded one-kernel modules compiled text to lowered MLIR: per-kernel "
     "pass, analysis and lowering cost with the parser at its small-input "
     "floor"),
    ("compile_large",
     "the same 65 kernels as one 4k-op translation unit: differs from "
     "compile_kernels only in module size, so superlinear per-module costs "
     "(parse, fingerprint) show here"),
    ("exec_heavy",
     "nine programs at execution-heavy sizes, swept warm and from text: "
     "compile is under 2 % of the work, pass quality shows as dyn_ops, "
     "dyn_bytes and warm_s; covers every tier and the fallback path"),
    ("cold_cli",
     "a fresh repro-run process per sample, disk cache emptied or primed: "
     "the one-shot user pays start-up and imports every time and uses the "
     "cache both ways"),
    ("serve_mix",
     "a repro-served daemon under a closed loop of 2 clients, 60 % hits, "
     "25 % misses, 15 % executes: framing, pool checkout, re-parse and "
     "cache traffic with start-up amortised away"),
)

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("py_calls", "count", "lower", 0.02),
    ("code_ops", "count", "lower", 0.02),
    ("dyn_ops", "count", "lower", 0.005),
    ("dyn_bytes", "count", "lower", 0.005),
    ("ops_ratio_dpcpp", "ratio", "higher", 0.005),
    ("bytes_ratio_dpcpp", "ratio", "higher", 0.005),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: Passes of the ``sycl-mlir`` and ``lower-to-llvm`` pipelines, by NAME.
PASSES: Tuple[str, ...] = (
    "canonicalize", "cse", "host-raising", "host-device-propagation",
    "loop-internalization", "sycl-licm", "detect-reduction", "dce",
    "lower-sycl-accessors", "lower-affine", "convert-scf-to-cf",
    "convert-arith-to-llvm", "convert-memref-to-llvm",
    "convert-func-to-llvm",
)

#: Statistics that count bookkeeping, not rewrites; left out of ``applied``.
NOT_A_REWRITE = frozenset({"key_cache_hits"})

ANALYSES: Tuple[str, ...] = ("alias", "sycl_alias", "uniformity",
                             "memory_access", "reaching_definitions")

TIERS: Tuple[str, ...] = ("interp", "jit", "vector")


def per_layer() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    rows: List[Tuple[str, str, str]] = [
        ("ir.parse_s", "s", "lower"),
        ("ir.parse_us_per_op", "us", "lower"),
        ("ir.verify_s", "s", "lower"),
        ("ir.print_s", "s", "lower"),
        ("ir.fingerprint_s", "s", "lower"),
        ("tools.bare_python_s", "s", "lower"),
        ("tools.import_s", "s", "lower"),
        ("tools.import_modules", "count", "lower"),
        ("tools.numpy_imported", "count", "lower"),
        ("tools.process_s", "s", "lower"),
        ("dialects.import_s", "s", "lower"),
        ("frontend.build_s", "s", "lower"),
        ("transforms.build_pipeline_s", "s", "lower"),
        ("transforms.pipeline_s", "s", "lower"),
    ]
    for name in PASSES:
        rows.append((f"transforms.pass.{name}_s", "s", "lower"))
        rows.append((f"transforms.pass.{name}.ir_ops_after", "count",
                     "lower"))
        rows.append((f"transforms.pass.{name}.applied", "count", "higher"))
    rows += [(f"analysis.{name}_s", "s", "lower") for name in ANALYSES]
    rows += [
        ("transforms.cache.mem_hit_s", "s", "lower"),
        ("transforms.cache.disk_hit_s", "s", "lower"),
        ("transforms.cache.miss_store_s", "s", "lower"),
        ("transforms.cache.hit_ratio", "ratio", "higher"),
        ("target.lower_s", "s", "lower"),
        ("target.emit_s", "s", "lower"),
        ("target.lowered_ops", "count", "lower"),
        ("interp.synthesize_s", "s", "lower"),
        ("interp.jit_codegen_s", "s", "lower"),
        ("interp.execute_s", "s", "lower"),
    ]
    rows += [(f"interp.exec.{tier}_s", "s", "lower") for tier in TIERS]
    rows += [(f"interp.ops_per_s.{tier}", "1/s", "higher") for tier in TIERS]
    rows += [
        ("interp.auto_vs_best", "ratio", "lower"),
        ("interp.fallbacks", "count", "lower"),
        ("interp.acpp.ops_ratio", "ratio", "higher"),
        ("interp.acpp.bytes_ratio", "ratio", "higher"),
        ("serve.ping_rtt_s", "s", "lower"),
        ("serve.compile_hit_rtt_s", "s", "lower"),
        ("serve.compile_miss_rtt_s", "s", "lower"),
        ("serve.execute_rtt_s", "s", "lower"),
        ("serve.overhead_s", "s", "lower"),
        ("serve.rtt_tail_s", "s", "lower"),
        ("serve.retries", "count", "lower"),
        ("serve.errors", "count", "lower"),
        ("setup.warmup_s", "s", "lower"),
        ("raw.cold_s", "s", "lower"),
        ("raw.warm_s", "s", "lower"),
        ("cal.unit_s", "s", "lower"),
        ("cal.spread", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return rows


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 12,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer()],
    }
