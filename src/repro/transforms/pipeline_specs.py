"""The shipped pipelines, each defined by its canonical spec.

``NAMED_PIPELINE_SPECS[name]`` *is* the pipeline ``repro-opt --pipeline
name`` runs: :func:`repro.transforms.pipelines.build_named_pipeline`
parses it (once per process) and nothing else describes it.  Each entry
is also its own canonical dump, the string
:class:`~repro.transforms.compile_cache.CompileCache` keys are made of.
The table is a leaf module so that a tool can name its pipelines and
compute a front key without importing a single pass.

* ``sycl-mlir`` — the paper's flow: host raising and host-device
  propagation, then the SYCL-aware device passes (Loop Internalization,
  SYCL LICM, Detect Reduction) while accessor semantics are still
  visible, and only then accessor lowering and cleanup of the lowered
  form (CSE merges equal addresses; the second LICM round hoists the
  address arithmetic the lowering exposed).
* ``dpcpp`` — the DPC++ baseline: premature accessor lowering, then
  generic optimizations with the dialect-independent alias analysis, so
  accessor-derived pointers may alias and array reductions stay in
  memory.
* ``adaptivecpp-aot`` / ``adaptivecpp-jit`` — the AdaptiveCpp SSCP
  baseline: lowering and light cleanup ahead of time, then launch-time
  optimizations trusting the disjointness facts the JIT observes
  (``alias=runtime-checked``).
* ``lower-to-llvm`` — progressive lowering to an LLVM-dialect CFG (see
  :mod:`repro.target.conversions` and ``docs/lowering.md``).

Every device pipeline opens ``canonicalize,cse,mem2reg``: promoting
constant-indexed private arrays is what LLVM's ``-O3`` does for each of
the modelled compilers, so none of them may be counted without it.
"""

NAMED_PIPELINE_SPECS = {
    "adaptivecpp-aot":
        "builtin.module(func.func(canonicalize,cse,mem2reg,"
        "lower-sycl-accessors,canonicalize,cse))",
    "adaptivecpp-jit":
        "builtin.module(func.func(canonicalize,cse,mem2reg,"
        "sycl-licm{alias=runtime-checked},"
        "detect-reduction{alias=runtime-checked},lower-sycl-accessors,"
        "canonicalize,cse,sycl-licm{alias=runtime-checked},dce))",
    "dpcpp":
        "builtin.module(func.func(canonicalize,cse,mem2reg,"
        "lower-sycl-accessors,canonicalize,cse,sycl-licm{alias=generic},"
        "detect-reduction{alias=generic},canonicalize,cse,dce))",
    "lower-to-llvm":
        "builtin.module(func.func(lower-sycl-accessors,lower-affine,"
        "convert-memref-to-llvm,convert-scf-to-cf,convert-arith-to-llvm),"
        "convert-func-to-llvm)",
    "sycl-mlir":
        "builtin.module(func.func(canonicalize,cse,mem2reg),host-raising,"
        "host-device-propagation,func.func(canonicalize,"
        "loop-internalization,sycl-licm,detect-reduction,"
        "lower-sycl-accessors,canonicalize,cse,sycl-licm,dce))",
}
