"""Transformation passes (paper, Sections VI and VII).

Every name is resolved on first use (PEP 562, as in ``repro.interp``):
importing the package — which importing any submodule does — loads no
pass, so a process that only consults the compile cache
(``repro.transforms.compile_cache``) pays for nothing else.  The pass
registry does not rely on this package having been imported: it loads
the built-in pass modules itself (see
:func:`repro.transforms.pass_manager.lookup_pass`).
"""

from .. import _lazy_exports

#: Lazily resolved attributes -> defining submodule.
_LAZY = {
    "CanonicalizePass": "canonicalize", "DCEPass": "canonicalize",
    "erase_dead_ops": "canonicalize", "fold_operation": "canonicalize",
    "CSEPass": "cse",
    "DetectReduction": "detect_reduction",
    "ReductionCandidate": "detect_reduction",
    "AccessorInfo": "host_device",
    "HostDeviceOptimizationPass": "host_device",
    "KernelLaunchInfo": "host_device", "host_constructor_of": "host_device",
    "DEVICE_MODULE_NAME": "host_raising", "HostRaisingPass": "host_raising",
    "classify_runtime_call": "host_raising",
    "extract_kernel_name": "host_raising",
    "LoopInvariantCodeMotion": "licm",
    "LoopInternalization": "loop_internalization",
    "work_group_size_of": "loop_internalization",
    "LowerAccessorSubscripts": "lower_sycl",
    "Mem2Reg": "mem2reg",
    "CachedCompile": "compile_cache", "CacheStats": "compile_cache",
    "CompileCache": "compile_cache",
    "DiskCache": "disk_cache", "DiskCacheStats": "disk_cache",
    "cache_dir_from_env": "disk_cache",
    "CompileReport": "pass_manager", "FunctionPass": "pass_manager",
    "GcTiming": "pass_manager",
    "IRPrintingInstrumentation": "pass_manager",
    "LintInstrumentation": "pass_manager",
    "ModulePass": "pass_manager", "OpPassManager": "pass_manager",
    "Pass": "pass_manager", "PassInstrumentation": "pass_manager",
    "PassManager": "pass_manager", "PassOptions": "pass_manager",
    "PassRegistration": "pass_manager", "PassStatistic": "pass_manager",
    "TimingInstrumentation": "pass_manager",
    "VerifierInstrumentation": "pass_manager", "lookup_pass": "pass_manager",
    "register_pass": "pass_manager", "register_pass_alias": "pass_manager",
    "PipelineParseError": "pipelines", "available_passes": "pipelines",
    "build_named_pipeline": "pipelines", "check_pass_pipeline": "pipelines",
    "describe_registered_passes": "pipelines",
    "dump_pass_pipeline": "pipelines", "parse_pass_pipeline": "pipelines",
    "resolve_pass_name": "pipelines", "shipped_pipeline_names": "pipelines",
    "NonConvergenceWarning": "rewrite", "PatternRewriter": "rewrite",
    "RewritePattern": "rewrite", "apply_patterns_greedily": "rewrite",
    "RuntimeCheckedAliasAnalysis": "specialization",
}

__getattr__ = _lazy_exports(__name__, _LAZY)
__all__ = list(_LAZY)
