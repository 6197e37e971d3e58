"""Transformation passes (paper, Sections VI and VII)."""

from .canonicalize import CanonicalizePass, DCEPass, erase_dead_ops, fold_operation
from .cse import CSEPass
from .detect_reduction import DetectReduction, ReductionCandidate
from .host_device import (
    AccessorInfo,
    HostDeviceOptimizationPass,
    KernelLaunchInfo,
    host_constructor_of,
)
from .host_raising import (
    DEVICE_MODULE_NAME,
    HostRaisingPass,
    classify_runtime_call,
    extract_kernel_name,
)
from .compile_cache import CachedCompile, CacheStats, CompileCache
from .disk_cache import DiskCache, DiskCacheStats, cache_dir_from_env
from .licm import LoopInvariantCodeMotion, VersionedLICM
from .loop_internalization import LoopInternalization, work_group_size_of
from .lower_sycl import LowerAccessorSubscripts
from .pass_manager import (
    CompileReport,
    FunctionPass,
    GcTiming,
    IRPrintingInstrumentation,
    LintInstrumentation,
    ModulePass,
    OpPassManager,
    Pass,
    PassInstrumentation,
    PassManager,
    PassOptions,
    PassRegistration,
    PassStatistic,
    TimingInstrumentation,
    VerifierInstrumentation,
    lookup_pass,
    register_pass,
    register_pass_alias,
)
from .pipelines import (
    OptimizationOptions,
    PipelineParseError,
    adaptivecpp_aot_pipeline,
    adaptivecpp_jit_pipeline,
    available_passes,
    build_named_pipeline,
    check_pass_pipeline,
    describe_registered_passes,
    dpcpp_pipeline,
    dump_pass_pipeline,
    parse_pass_pipeline,
    resolve_pass_name,
    shipped_pipeline_names,
    sycl_mlir_pipeline,
)
from .rewrite import (
    NonConvergenceWarning,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
)
from .specialization import RuntimeCheckedAliasAnalysis

__all__ = [
    "CanonicalizePass", "DCEPass", "erase_dead_ops", "fold_operation",
    "CSEPass",
    "DetectReduction", "ReductionCandidate",
    "AccessorInfo", "HostDeviceOptimizationPass", "KernelLaunchInfo",
    "host_constructor_of",
    "DEVICE_MODULE_NAME", "HostRaisingPass", "classify_runtime_call",
    "extract_kernel_name",
    "LoopInvariantCodeMotion", "VersionedLICM",
    "LoopInternalization", "work_group_size_of",
    "LowerAccessorSubscripts",
    "CachedCompile", "CacheStats", "CompileCache",
    "DiskCache", "DiskCacheStats", "cache_dir_from_env",
    "CompileReport", "FunctionPass", "GcTiming",
    "IRPrintingInstrumentation",
    "LintInstrumentation",
    "ModulePass", "OpPassManager", "Pass", "PassInstrumentation",
    "PassManager", "PassOptions", "PassRegistration", "PassStatistic",
    "TimingInstrumentation", "VerifierInstrumentation", "lookup_pass",
    "register_pass", "register_pass_alias",
    "OptimizationOptions", "PipelineParseError", "adaptivecpp_aot_pipeline",
    "adaptivecpp_jit_pipeline", "available_passes", "build_named_pipeline",
    "check_pass_pipeline",
    "describe_registered_passes", "dpcpp_pipeline", "dump_pass_pipeline",
    "parse_pass_pipeline", "resolve_pass_name", "sycl_mlir_pipeline",
    "NonConvergenceWarning", "PatternRewriter", "RewritePattern",
    "apply_patterns_greedily",
    "RuntimeCheckedAliasAnalysis",
]
