"""Canonical specs of the shipped pipelines, as a leaf table.

``NAMED_PIPELINE_SPECS[name]`` is what
``dump_pass_pipeline(build_named_pipeline(name))`` returns for every
``jobs`` — the string :class:`~repro.transforms.compile_cache.CompileCache`
keys are made of.  It lives apart from :mod:`repro.transforms.pipelines`
so that a tool can name its pipelines and compute a front key without
importing a single pass.  The two AdaptiveCpp pipelines are *defined* by
their entry (``parse_pass_pipeline(spec)``).  ``sycl-mlir`` and ``dpcpp``
are built in code from their ``OptimizationOptions``, ``lower-to-llvm``
because batch drivers build it per module (parsing a spec costs ten times
the calls of building it); their entries are the default build's dump,
and ``tests/test_front_key.py`` holds the two descriptions together.
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
