"""Tests for the tiered execution engine (interp / jit / vector).

The heart of the file is the tier-equivalence matrix: every paper
listing kernel and the internalizing GEMM (:func:`_tiled_gemm`) must
produce identical results on the scalar interpreter, the
compile-to-Python JIT and the vectorized ND-range tier — before and
after every shipped pipeline.
"""

import subprocess
import sys

import pytest

from repro.faults import fault_plan
from repro.interp.differential import (
    DifferentialError,
    compare_executions,
    run_differential,
    synthesize_spec,
)
from repro.interp.engine import (
    Backend,
    ExecutionEngine,
    ExecutorRegistrationError,
    TierFallback,
    _EXECUTORS,
    register_executor,
    registered_executors,
)
from repro.interp.jit import _Emitter, compile_executable
from repro.interp.jit_runtime import ExecutableCache
from repro.interp.vectorize import compile_vector, vector_legality
from repro.ir import Printer
from repro.transforms import build_named_pipeline
from repro.transforms.disk_cache import DiskCache

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    listing_execution_specs,
    memory_differences,
    wrap_in_module,
)

TIERS = ("interp", "jit", "vector")
PIPELINES = ("sycl-mlir", "dpcpp", "adaptivecpp-aot", "adaptivecpp-jit")


def _tiled_gemm():
    """The internalizing GEMM: ``sycl-mlir`` tiles its k-loop by 4
    through local memory, so its output runs barriers on every tier."""
    return build_gemm_module(size=8, work_group=4)


def _listing_module():
    return wrap_in_module(build_listing1_function()[0],
                          build_listing2_function()[0],
                          build_listing3_function()[0])


def _execute_all(module, specs, tier):
    engine = ExecutionEngine(module, tier=tier)
    executions, skipped = engine.execute_module(specs)
    assert not skipped, skipped
    return executions, engine


# ---------------------------------------------------------------------------
# Tier-equivalence matrix
# ---------------------------------------------------------------------------

class TestTierEquivalence:
    @pytest.mark.parametrize("tier", ("jit", "vector", "auto"))
    def test_listings_match_interpreter(self, tier):
        module = _listing_module()
        specs = listing_execution_specs()
        baseline, _ = _execute_all(module, specs, "interp")
        tiered, _ = _execute_all(module, specs, tier)
        assert set(tiered) == set(baseline)
        for name, before in baseline.items():
            compare_executions(before, tiered[name])

    @pytest.mark.parametrize("tier", ("jit", "vector", "auto"))
    def test_gemm_matches_interpreter(self, tier):
        module, specs = _tiled_gemm()
        baseline, _ = _execute_all(module, specs, "interp")
        tiered, _ = _execute_all(module, specs, tier)
        compare_executions(baseline["gemm"], tiered["gemm"])

    @pytest.mark.parametrize("pipeline", PIPELINES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_gemm_differential_per_pipeline(self, pipeline, tier):
        module, specs = _tiled_gemm()
        report = run_differential(module, pipeline, specs=specs, tier=tier)
        assert "gemm" in report.executed

    @pytest.mark.parametrize("pipeline", PIPELINES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_listings_differential_per_pipeline(self, pipeline, tier):
        module = _listing_module()
        specs = listing_execution_specs()
        report = run_differential(module, pipeline, specs=specs, tier=tier)
        assert report.executed  # at least one listing executed both sides

    def test_sycl_mlir_tiles_the_fixture(self):
        # Guard: the matrix above covers tiled, barrier execution only
        # while sycl-mlir internalizes this GEMM.
        module, _ = _tiled_gemm()
        build_named_pipeline("sycl-mlir").run(module)
        assert "sycl.group_barrier" in Printer().print_module(module)

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_declined_tile_runs_untiled(self, tier):
        # Work-groups of 2 do not pay for a tile: no barrier, a remark.
        module, specs = build_gemm_module(size=4, work_group=2)
        report = run_differential(module, "sycl-mlir", specs=specs,
                                  tier=tier)
        assert report.executed == ["gemm"]
        optimized = module.clone({})
        compile_report = build_named_pipeline("sycl-mlir").run(optimized)
        assert "sycl.group_barrier" not in Printer().print_module(optimized)
        assert any(remark.startswith(
            "loop-internalization: a tile of 2 lowers neither ops nor bytes")
            for remark in compile_report.remarks)

    def test_explicit_tier_is_reported(self):
        module, specs = _tiled_gemm()
        for tier in TIERS:
            executions, _ = _execute_all(module, specs, tier)
            assert executions["gemm"].tier == tier


# ---------------------------------------------------------------------------
# Vector-tier legality and fallback
# ---------------------------------------------------------------------------

class TestVectorFallback:
    def test_divergent_kernel_falls_back_with_remark(self):
        module = _listing_module()
        specs = listing_execution_specs()
        engine = ExecutionEngine(module, tier="vector")
        executions, _ = engine.execute_module(specs)
        # Listing 2 branches on the global id: lanes would diverge.
        assert executions["non_uniform"].tier == "interp"
        assert any("divergent" in remark for remark in engine.remarks)
        # Listing 3 is straight-line: it vectorizes.
        assert executions["mem_acc"].tier == "vector"

    def test_vector_legality_reasons(self):
        module = _listing_module()
        divergent = module.lookup_symbol("non_uniform")
        assert "divergent" in vector_legality(divergent)
        straight = module.lookup_symbol("mem_acc")
        assert vector_legality(straight) is None

    def test_plain_function_never_vectorizes(self):
        module = _listing_module()
        engine = ExecutionEngine(module, tier="vector")
        executions, _ = engine.execute_module(listing_execution_specs())
        assert executions["foo"].tier == "interp"


# ---------------------------------------------------------------------------
# Executable cache
# ---------------------------------------------------------------------------

class TestExecutableCache:
    def test_memory_hit_and_miss(self):
        module, _ = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        cache = ExecutableCache()
        first = compile_executable(function, "nd", cache=cache)
        second = compile_executable(function, "nd", cache=cache)
        assert second.entry is first.entry
        assert second.origin == "memory"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        # A different mode is a different key.
        compile_executable(function, "nd-barrier", cache=cache)
        assert cache.stats.misses == 2

    def test_fingerprint_keyed_across_clones(self):
        module, _ = build_gemm_module(size=4, work_group=2)
        cache = ExecutableCache()
        compile_executable(module.lookup_symbol("gemm"), "nd", cache=cache)
        clone = module.clone({})
        compile_executable(clone.lookup_symbol("gemm"), "nd", cache=cache)
        # One entry stored, one hit on it, and no disk tier to count.
        assert cache.describe() == {"entries": 1, "hits": 1, "misses": 1,
                                    "evictions": 0, "recovered": 0}

    def test_disk_round_trip(self, tmp_path):
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        disk = DiskCache(str(tmp_path / "cache"))
        warm = ExecutableCache(disk=disk)
        compile_executable(function, "nd", cache=warm)
        assert disk.stats.stores == 1
        # A cold in-memory cache sharing the directory rehydrates the
        # generated source instead of re-emitting it.
        cold = ExecutableCache(disk=DiskCache(str(tmp_path / "cache")))
        executable = compile_executable(function, "nd", cache=cold)
        assert executable.origin == "disk" and cold.disk.stats.hits == 1
        # The one counting rule: a disk answer is a hit of the table.
        assert (cold.stats.hits, cold.stats.misses) == (1, 0)
        # The rehydrated executable actually runs.
        engine = ExecutionEngine(module, tier="jit",
                                 executable_cache=cold)
        executions, _ = engine.execute_module(specs)
        assert executions["gemm"].tier == "jit"
        assert executable.entry is not None


    def test_key_memo_does_not_keep_functions_alive(self):
        """The memo used to hold every keyed function (and with it the
        whole parsed module): a daemon parses a new one per request."""
        import gc
        import weakref

        cache = ExecutableCache()
        module, _ = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        key = cache.key_for(function, "nd")
        assert cache.key_for(function, "nd") is key  # memoized
        alive = weakref.ref(module)
        del module, function
        gc.collect()
        assert alive() is None

    def test_entry_of_an_older_emitter_is_a_miss(self, tmp_path):
        """A disk entry holds generated source.  One written under the
        pre-versioning tag (``jit:<mode>``) still compiles, so only the
        key can keep a newer emitter from running it."""
        from repro.interp.jit_runtime import EMITTER_VERSIONS

        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        disk = DiskCache(str(tmp_path / "cache"))
        cache = ExecutableCache(disk=disk)
        fingerprint, tag = cache.key_for(function, "nd")
        assert tag == f"jit{EMITTER_VERSIONS['jit']}:nd"
        stale = ("def _run(_args, _GR, _LR, _PR, _counters, _max_steps):\n"
                 "    return None  # an older emitter's idea of this kernel\n")
        assert disk.store((fingerprint, "jit:nd"), stale)
        executable = compile_executable(function, "nd", cache=cache)
        assert executable.origin == "fresh"
        assert disk.stats.hits == 0 and cache.stats.misses == 1
        assert executable.source != stale
        # ... and the primed directory still yields correct results.
        baseline, _ = _execute_all(module, specs, "interp")
        engine = ExecutionEngine(module, tier="jit", executable_cache=cache)
        executions, _ = engine.execute_module(specs)
        assert executions["gemm"].tier == "jit"
        compare_executions(baseline["gemm"], executions["gemm"])


# ---------------------------------------------------------------------------
# The oracle catches a miscompiling emitter
# ---------------------------------------------------------------------------

class TestSeededMiscompile:
    def test_wrong_codegen_is_caught(self, monkeypatch):
        # Seed a deliberate bug: float addition emitted as subtraction.
        monkeypatch.setitem(_Emitter.BIN_FLOAT, "arith.addf", "-")
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        resolved = synthesize_spec(function, specs["gemm"])
        before = ExecutionEngine(module, tier="interp").execute(
            function, resolved)
        after = ExecutionEngine(module, tier="jit").execute(
            function, resolved)
        assert after.tier == "jit"
        with pytest.raises(DifferentialError):
            compare_executions(before, after)


# ---------------------------------------------------------------------------
# Fault injection: jit.compile / jit.exec degrade to the interpreter
# ---------------------------------------------------------------------------

class TestFaultDegradation:
    def _baseline(self, module, function, resolved):
        return ExecutionEngine(module, tier="interp").execute(
            function, resolved)

    def test_corrupt_compile_degrades_with_remark(self):
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        resolved = synthesize_spec(function, specs["gemm"])
        baseline = self._baseline(module, function, resolved)
        with fault_plan("jit.compile=corrupt"):
            engine = ExecutionEngine(module, tier="jit")
            execution = engine.execute(function, resolved)
        assert execution.tier == "interp"
        assert any("jit" in r for r in engine.remarks)
        compare_executions(baseline, execution)

    def test_corrupt_vector_compile_runs_on_the_jit(self):
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        resolved = synthesize_spec(function, specs["gemm"])
        baseline = self._baseline(module, function, resolved)
        engine = ExecutionEngine(module, tier="auto")
        with fault_plan("vector.compile=corrupt"):
            execution = engine.execute(function, resolved)
        assert execution.tier == "jit"
        assert any(r.startswith("tier 'vector' degraded for 'gemm'") and
                   "injected corrupt vector executable" in r
                   for r in engine.remarks)
        compare_executions(baseline, execution)
        # The poisoned executable was never cached: the next run compiles.
        assert engine.execute(function, resolved).tier == "vector"

    def test_transient_exec_falls_back_with_remark(self):
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        resolved = synthesize_spec(function, specs["gemm"])
        baseline = self._baseline(module, function, resolved)
        with fault_plan("jit.exec@gemm=transient"):
            engine = ExecutionEngine(module, tier="jit")
            execution = engine.execute(function, resolved)
        assert execution.tier == "interp"
        assert any("injected" in r for r in engine.remarks)
        compare_executions(baseline, execution)


# ---------------------------------------------------------------------------
# The executor registry
# ---------------------------------------------------------------------------

class TestExecutorRegistry:
    def test_builtin_tiers_registered(self):
        names = registered_executors()
        for name in TIERS:
            assert name in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExecutorRegistrationError):
            register_executor("jit", Backend())

    def test_unknown_tier_rejected(self):
        module = _listing_module()
        with pytest.raises(ValueError, match="unknown execution tier"):
            ExecutionEngine(module, tier="cuda")

    def test_custom_tier_participates_in_plan(self):
        class Declining(Backend):
            NAME = "declining"

            def launch(self, engine, function, values, global_size,
                       local_size=None, interpreter=None):
                raise TierFallback("declines everything")

            def call(self, engine, function, values, interpreter=None):
                raise TierFallback("declines everything")

        register_executor("declining", Declining())
        try:
            module = _listing_module()
            engine = ExecutionEngine(module, tier="declining")
            assert engine.tier_plan() == ("declining", "interp")
            executions, _ = engine.execute_module(
                listing_execution_specs())
            assert all(e.tier == "interp" for e in executions.values())
            assert engine.remarks
        finally:
            _EXECUTORS.pop("declining", None)


# ---------------------------------------------------------------------------
# The scalar tier's own entry point
# ---------------------------------------------------------------------------

class TestInterpreterLaunch:
    def test_launch_matches_engine(self):
        import numpy as np

        from repro.interp.interpreter import Interpreter
        from repro.runtime import Accessor, Buffer

        module, _ = build_gemm_module(size=4, work_group=2)

        def run(launch):
            a = Buffer(np.arange(16, dtype=np.float32).reshape(4, 4))
            b = Buffer(np.ones((4, 4), dtype=np.float32))
            c = Buffer(np.zeros((4, 4), dtype=np.float32))
            result = launch("gemm", [Accessor(a, "read"), Accessor(b, "read"),
                                     Accessor(c, "read_write")],
                            (4, 4), (2, 2))
            return c.host_array().tolist(), result.counters.as_dict()

        direct = run(Interpreter(module).launch)
        engine = run(ExecutionEngine(module, tier="interp").launch)
        assert direct == engine
        assert any(row != [0.0] * 4 for row in direct[0])

    def test_execute_matches_execute_module(self):
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        resolved = synthesize_spec(function, specs["gemm"])
        engine = ExecutionEngine(module, tier="interp")
        direct = engine.execute(function, resolved)
        executions, skipped = engine.execute_module(specs)
        assert not skipped, skipped
        compare_executions(direct, executions["gemm"])
        assert direct.tier == "interp"

    def test_entry_points_raise_no_deprecation_warning(self):
        import warnings

        import numpy as np

        from repro.interp.interpreter import Interpreter
        from repro.runtime import Accessor, Buffer

        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        args = [Accessor(Buffer(np.ones((4, 4), dtype=np.float32)), mode)
                for mode in ("read", "read", "read_write")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Interpreter(module).launch("gemm", args, (4, 4), (2, 2))
            engine = ExecutionEngine(module, tier="interp")
            engine.execute(function,
                           synthesize_spec(function, specs["gemm"]))
            engine.execute_module(specs)


# ---------------------------------------------------------------------------
# Lazy imports
# ---------------------------------------------------------------------------

class TestLazyImport:
    def test_engine_resolves_without_eager_dialects(self):
        script = (
            "import sys\n"
            "import repro.interp\n"
            "eager = [m for m in sys.modules"
            " if m.startswith('repro.dialects')]\n"
            "assert not eager, eager\n"
            "assert repro.interp.ExecutionEngine is not None\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)


# ---------------------------------------------------------------------------
# repro-run wiring
# ---------------------------------------------------------------------------

class TestReproRunTiers:
    @pytest.fixture
    def gemm_path(self, tmp_path):
        module, _ = build_gemm_module(size=4, work_group=2)
        path = tmp_path / "gemm.mlir"
        path.write_text(Printer().print_module(module) + "\n",
                        encoding="utf-8")
        return path

    def test_list_tiers(self, capsys):
        from repro.tools.repro_run import main

        assert main(["--list-tiers"]) == 0
        out = capsys.readouterr().out.split()
        assert "auto" in out and "interp" in out
        assert "jit" in out and "vector" in out

    @pytest.mark.parametrize("tier", TIERS)
    def test_tier_flag_reported_in_header(self, tier, gemm_path, capsys):
        from repro.tools.repro_run import main

        rc = main([str(gemm_path), "--entry", "gemm", "--tier", tier])
        assert rc == 0
        assert f"[tier: {tier}]" in capsys.readouterr().out

    def test_unknown_tier_is_usage_error(self, gemm_path, capsys):
        from repro.tools.repro_run import main

        rc = main([str(gemm_path), "--entry", "gemm", "--tier", "cuda"])
        assert rc == 2
        assert "unknown execution tier" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CFG mode of the JIT: hand-written multi-block functions
# ---------------------------------------------------------------------------

def _cfg_module(body: str):
    from repro.ir import parse_module, verify

    module = parse_module('"builtin.module"() ({\n' + body
                          + '\n}) : () -> ()\n')
    verify(module)
    return module


def _on_both_tiers(module, name, spec=None, **engine_options):
    """Execute ``name`` on the interpreter and on the pinned JIT; the
    JIT must have compiled it (no fallback remark) and must agree on
    results, memory and every counter."""
    runs = {}
    for tier in ("interp", "jit"):
        engine = ExecutionEngine(module, tier=tier, **engine_options)
        runs[tier] = engine.run(name, spec)
        assert engine.remarks == []
    assert runs["jit"].tier == "jit"
    assert runs["jit"].results == runs["interp"].results
    assert not memory_differences(runs["jit"].memory, runs["interp"].memory)
    assert runs["jit"].counters == runs["interp"].counters
    return runs["interp"]


_SWAP_ON_BACK_EDGE = '''
  "func.func"() {function_type = (index) -> (index, index), sym_name = "swap"} : () -> () ({
   ^bb0(%n: index):
    %c0 = "arith.constant"() {value = 0 : index} : () -> (index)
    %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
    %c10 = "arith.constant"() {value = 10 : index} : () -> (index)
    %c20 = "arith.constant"() {value = 20 : index} : () -> (index)
    "cf.br"(%c0, %c10, %c20) : (index, index, index) -> () [^bb1]
   ^bb1(%i: index, %a: index, %b: index):
    %more = "arith.cmpi"(%i, %n) {predicate = "slt"} : (index, index) -> (i1)
    "cf.cond_br"(%more) {num_true_args = 0 : i64} : (i1) -> () [^bb2, ^bb3]
   ^bb2():
    %next = "arith.addi"(%i, %c1) : (index, index) -> (index)
    "cf.br"(%next, %b, %a) : (index, index, index) -> () [^bb1]
   ^bb3():
    "func.return"(%a, %b) : (index, index) -> ()
  })
'''

_ARGUMENTS_PER_EDGE = '''
  "func.func"() {function_type = (i1, index, index) -> (index), sym_name = "per_edge"} : () -> () ({
   ^bb0(%c: i1, %x: index, %y: index):
    "cf.cond_br"(%c, %x, %y, %y, %x) {num_true_args = 2 : i64} : (i1, index, index, index, index) -> () [^bb1, ^bb1]
   ^bb1(%p: index, %q: index):
    %d = "arith.subi"(%p, %q) : (index, index) -> (index)
    "func.return"(%d) : (index) -> ()
  })
'''

# %k is defined in the entry block and next used two blocks later, in a
# block that comes *first* in the region (layout is not dominance).
_DOMINATING_VALUE = '''
  "func.func"() {function_type = (index) -> (index), sym_name = "far_use"} : () -> () ({
   ^bb0(%x: index):
    %c3 = "arith.constant"() {value = 3 : index} : () -> (index)
    %k = "arith.muli"(%x, %c3) : (index, index) -> (index)
    "cf.br"() : () -> () [^bb2]
   ^bb1():
    %r = "arith.addi"(%k, %m) : (index, index) -> (index)
    "func.return"(%r) : (index) -> ()
   ^bb2():
    %m = "arith.addi"(%x, %c3) : (index, index) -> (index)
    "cf.br"() : () -> () [^bb1]
  })
'''

# Three rounds of: publish to the work-group tile, barrier, read the
# neighbour's slot, barrier — a barrier pair inside a CFG loop.
_BARRIER_IN_LOOP = '''
  "func.func"() {function_type = (memref<?x!sycl_nd_item_1>, memref<8xindex>) -> (), sycl.kernel = unit, sym_name = "rotate"} : () -> () ({
   ^bb0(%item: memref<?x!sycl_nd_item_1>, %out: memref<8xindex>):
    %d0 = "arith.constant"() {value = 0 : i32} : () -> (i32)
    %g = "sycl.nd_item.get_global_id"(%item, %d0) : (memref<?x!sycl_nd_item_1>, i32) -> (index)
    %l = "sycl.nd_item.get_local_id"(%item, %d0) : (memref<?x!sycl_nd_item_1>, i32) -> (index)
    %grp = "sycl.nd_item.get_group"(%item) {dimensions = 1 : i64} : (memref<?x!sycl_nd_item_1>) -> (!sycl_group_1)
    %tile = "memref.alloc"() : () -> (memref<4xindex, local>)
    %c0 = "arith.constant"() {value = 0 : index} : () -> (index)
    %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
    %c3 = "arith.constant"() {value = 3 : index} : () -> (index)
    %c4 = "arith.constant"() {value = 4 : index} : () -> (index)
    "cf.br"(%c0) : (index) -> () [^bb1]
   ^bb1(%t: index):
    %more = "arith.cmpi"(%t, %c3) {predicate = "slt"} : (index, index) -> (i1)
    "cf.cond_br"(%more) {num_true_args = 0 : i64} : (i1) -> () [^bb2, ^bb3]
   ^bb2():
    %mine = "arith.addi"(%g, %t) : (index, index) -> (index)
    "memref.store"(%mine, %tile, %l) : (index, memref<4xindex, local>, index) -> ()
    "sycl.group_barrier"(%grp) : (!sycl_group_1) -> ()
    %right = "arith.addi"(%l, %c1) : (index, index) -> (index)
    %slot = "arith.remsi"(%right, %c4) : (index, index) -> (index)
    %theirs = "memref.load"(%tile, %slot) : (memref<4xindex, local>, index) -> (index)
    %old = "memref.load"(%out, %g) : (memref<8xindex>, index) -> (index)
    %sum = "arith.addi"(%old, %theirs) : (index, index) -> (index)
    "memref.store"(%sum, %out, %g) : (index, memref<8xindex>, index) -> ()
    "sycl.group_barrier"(%grp) : (!sycl_group_1) -> ()
    %next = "arith.addi"(%t, %c1) : (index, index) -> (index)
    "cf.br"(%next) : (index) -> () [^bb1]
   ^bb3():
    "func.return"() : () -> ()
  })
'''

_INFINITE_LOOP = '''
  "func.func"() {function_type = (index) -> (index), sym_name = "spin"} : () -> () ({
   ^bb0(%x: index):
    "cf.br"(%x) : (index) -> () [^bb1]
   ^bb1(%i: index):
    %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
    %n = "arith.addi"(%i, %c1) : (index, index) -> (index)
    "cf.br"(%n) : (index) -> () [^bb1]
  })
'''

_POINTER_LOAD = '''
  "func.func"() {function_type = (memref<4xf32>, index) -> (f32), sym_name = "peek"} : () -> () ({
   ^bb0(%buf: memref<4xf32>, %i: index):
    %p = "builtin.unrealized_conversion_cast"(%buf) : (memref<4xf32>) -> (!llvm.ptr<f32>)
    "cf.br"() : () -> () [^bb1]
   ^bb1():
    %q = "llvm.getelementptr"(%p, %i) {static_offsets = []} : (!llvm.ptr<f32>, index) -> (!llvm.ptr)
    %v = "llvm.load"(%q) : (!llvm.ptr) -> (f32)
    "func.return"(%v) : (f32) -> ()
  })
'''


def _lowered(module):
    for pipeline in ("sycl-mlir", "lower-to-llvm"):
        build_named_pipeline(pipeline).run(module)
    return module


class TestCFGMode:
    @pytest.mark.parametrize("n,expected", [(0, [10, 20]), (3, [20, 10]),
                                            (4, [10, 20])])
    def test_swap_of_block_arguments_on_a_back_edge(self, n, expected):
        from repro.interp import ExecutionSpec

        run = _on_both_tiers(_cfg_module(_SWAP_ON_BACK_EDGE), "swap",
                             ExecutionSpec(scalars={"n": n}))
        assert run.results == expected

    @pytest.mark.parametrize("flag,expected", [(True, [5]), (False, [-5])])
    def test_cond_br_passes_different_arguments_per_edge(self, flag,
                                                         expected):
        from repro.interp import ExecutionSpec

        run = _on_both_tiers(
            _cfg_module(_ARGUMENTS_PER_EDGE), "per_edge",
            ExecutionSpec(scalars={"c": flag, "x": 7, "y": 2}))
        assert run.results == expected

    def test_value_of_a_dominating_block_used_two_blocks_later(self):
        from repro.interp import ExecutionSpec

        run = _on_both_tiers(_cfg_module(_DOMINATING_VALUE), "far_use",
                             ExecutionSpec(scalars={"x": 5}))
        assert run.results == [5 * 3 + 5 + 3]

    def test_barrier_inside_a_cfg_loop(self):
        from repro.interp import ExecutionSpec

        run = _on_both_tiers(
            _cfg_module(_BARRIER_IN_LOOP), "rotate",
            ExecutionSpec(global_size=(8,), local_size=(4,)))
        assert run.counters["barriers"] == 8 * 3 * 2

    def test_infinite_loop_hits_the_step_budget_alike(self):
        from repro.interp.memory import TrapError

        module = _cfg_module(_INFINITE_LOOP)
        messages = {}
        for tier in ("interp", "jit"):
            engine = ExecutionEngine(module, tier=tier, max_steps=500)
            with pytest.raises(TrapError) as trap:
                engine.run("spin")
            assert engine.remarks == []
            messages[tier] = str(trap.value)
        budget = "exceeded the interpreter step budget (500 ops)"
        assert messages["jit"] == budget
        # The interpreter also names the op it stopped at.
        assert messages["interp"].startswith(budget + " at '")

    def test_out_of_bounds_pointer_load_traps_alike(self):
        from repro.interp import ExecutionSpec
        from repro.interp.memory import TrapError

        module = _cfg_module(_POINTER_LOAD)
        inside = _on_both_tiers(module, "peek",
                                ExecutionSpec(scalars={"i": 3}))
        assert inside.counters["loads"] == 1
        assert inside.counters["bytes_read"] == 4
        messages = set()
        for tier in ("interp", "jit"):
            engine = ExecutionEngine(module, tier=tier)
            with pytest.raises(TrapError) as trap:
                engine.run("peek", ExecutionSpec(scalars={"i": 7}))
            assert engine.remarks == []
            messages.add(str(trap.value))
        assert messages == {
            "flat index 7 out of bounds for memref of 4 elements"}

    def test_miscompiling_emitter_is_caught_on_a_lowered_module(
            self, monkeypatch):
        # ``llvm.mul`` is compiled through the ``arith.muli`` entry of
        # the one operator table, so seeding the bug there miscompiles
        # the lowered module too — and the oracle sees it.
        from repro.interp import ExecutionSpec

        monkeypatch.setitem(_Emitter.BIN_INT, "arith.muli", "+")
        module = _lowered(_cfg_module(_DOMINATING_VALUE))
        function = module.lookup_symbol("far_use")
        assert any(op.name == "llvm.mul" for op in function.walk())
        resolved = synthesize_spec(function,
                                   ExecutionSpec(scalars={"x": 5}))
        before = ExecutionEngine(module, tier="interp").execute(
            function, resolved)
        after = ExecutionEngine(module, tier="jit").execute(
            function, resolved)
        assert after.tier == "jit"
        with pytest.raises(DifferentialError):
            compare_executions(before, after)

    def test_unreachable_blocks_are_not_compiled(self):
        module = _cfg_module(_DOMINATING_VALUE.replace(
            '"cf.br"() : () -> () [^bb1]\n  })',
            '"cf.br"() : () -> () [^bb1]\n   ^bb3():\n'
            '    "func.return"(%x) : (index) -> ()\n  })'))
        source = _Emitter(module.lookup_symbol("far_use"),
                          "function").emit()
        assert source.count("_bb ==") == 2


# ---------------------------------------------------------------------------
# The math dialect on all three tiers
# ---------------------------------------------------------------------------

def _math_kernel(op_name, element, operand=None):
    """``out[i] = op(...)`` over a 1-D range.  ``operand`` maps the
    loaded ``x[i]`` to the op's first operand (default: ``x*x + 0.5``
    for the ops with a restricted domain, ``x`` itself otherwise)."""
    from repro.dialects import math as math_d
    from repro.frontend.kernel_builder import (
        AccessorParam,
        Expr,
        KernelSource,
    )
    from repro.ir.operations import lookup_op_class

    op_class = lookup_op_class(op_name)
    restricted = op_name in ("math.sqrt", "math.rsqrt", "math.log",
                             "math.powf")

    def body(k):
        i = k.global_id(0)
        x = k.load("x", [i])
        if operand is not None:
            first = operand(k, x)
        else:
            first = x * x + 0.5 if restricted else x
        operands = [first]
        if op_class in (math_d.PowFOp, math_d.FmaOp):
            operands.append(k.load("y", [i]))
        if op_class is math_d.FmaOp:
            operands.append(k.load("z", [i]))
        op = k._insert(op_class.build(*[e.value for e in operands]))
        k.store("out", [i], Expr(k, op.result))

    source = KernelSource(
        "apply", body=body, nd_range_dims=1, uses_nd_item=False,
        accessors=[AccessorParam(name, 1, element, "read")
                   for name in "xyz"]
        + [AccessorParam("out", 1, element, "write")])
    return wrap_in_module(source.build())


def _math_spec():
    from repro.interp import ExecutionSpec

    return ExecutionSpec(global_size=(24,),
                         buffers={name: (24,) for name in
                                  ("x", "y", "z", "out")})


MATH_OPS = ("math.sqrt", "math.rsqrt", "math.exp", "math.log", "math.sin",
            "math.cos", "math.absf", "math.floor", "math.ceil", "math.tanh",
            "math.powf", "math.fma")

#: Domain edges: op -> the first operand that leaves its domain.
MATH_DOMAIN_EDGES = [
    ("math.sqrt", -1.0), ("math.rsqrt", 0.0), ("math.log", 0.0),
    ("math.log", -1.0), ("math.powf", -2.0), ("math.exp", 1000.0),
]


class TestMathOnEveryTier:
    @pytest.mark.parametrize("width", (32, 64))
    @pytest.mark.parametrize("op_name", MATH_OPS)
    def test_values_and_counters_match_the_interpreter(self, op_name,
                                                       width):
        from repro.ir import FloatType

        module = _math_kernel(op_name, FloatType(width))
        runs = {}
        for tier in TIERS:
            engine = ExecutionEngine(module, tier=tier)
            runs[tier] = engine.run("apply", _math_spec())
            assert runs[tier].tier == tier, engine.remarks
        # The JIT calls the interpreter's scalar functions: bit-equal.
        assert not memory_differences(runs["jit"].memory,
                                      runs["interp"].memory)
        # NumPy's lane-wise forms may differ from libm in the last bit.
        compare_executions(runs["interp"], runs["vector"], rtol=1e-6)
        for tier in ("jit", "vector"):
            assert runs[tier].counters == runs["interp"].counters

    @pytest.mark.parametrize("op_name,edge", MATH_DOMAIN_EDGES)
    def test_domain_errors_trap_alike(self, op_name, edge):
        from repro.interp.memory import TrapError
        from repro.ir import f32

        # ``x * 0 + edge`` keeps the operand work-item-varying, so the
        # vector tier takes its lane-array path.  (powf's exponent is
        # the fractional-or-not buffer ``y``; -2 ** 0.375.. is complex.)
        module = _math_kernel(op_name, f32(),
                              operand=lambda k, x: x * 0.0 + edge)
        messages = {}
        for tier in TIERS:
            engine = ExecutionEngine(module, tier=tier)
            with pytest.raises(TrapError) as trap:
                engine.run("apply", _math_spec())
            assert engine.remarks == [], tier
            messages[tier] = str(trap.value)
        assert messages["interp"].startswith(f"'{op_name}' domain error: ")
        assert messages["jit"] == messages["interp"]
        assert messages["vector"] == messages["interp"]

    @pytest.mark.parametrize("op_name", MATH_OPS)
    def test_nan_operands_behave_alike(self, op_name):
        import math

        from repro.interp.memory import TrapError
        from repro.ir import f32

        # 0/0 is a defined NaN on every tier (IEEE divf).
        module = _math_kernel(
            op_name, f32(),
            operand=lambda k, x: (x * 0.0) / (x * 0.0))
        outcomes = {}
        for tier in TIERS:
            engine = ExecutionEngine(module, tier=tier)
            try:
                run = engine.run("apply", _math_spec())
            except TrapError as trap:
                outcomes[tier] = str(trap)
            else:
                assert run.tier == tier
                outcomes[tier] = ["nan" if math.isnan(v) else v
                                  for v in run.memory["out"].tolist()]
            assert engine.remarks == []
        assert outcomes["jit"] == outcomes["interp"]
        assert outcomes["vector"] == outcomes["interp"]
        if op_name in ("math.floor", "math.ceil"):
            assert "domain error" in outcomes["interp"]  # int(nan)
        else:
            # (powf(nan, 0) is 1, so not *every* lane must be NaN.)
            assert "nan" in outcomes["interp"]

    def test_lowered_fdiv_by_zero_stays_infinite(self):
        """``llvm.fdiv`` is ``arith.divf``: x/0 is +-inf before and
        after lowering, on the interpreter and on the JIT."""
        import math

        from repro.ir import f32

        module = _math_kernel(
            "math.absf", f32(),
            operand=lambda k, x: (x * 0.0 + 1.0) / (x * 0.0))
        for lowered in (False, True):
            if lowered:
                build_named_pipeline("lower-to-llvm").run(module)
            for tier in ("interp", "jit"):
                run = ExecutionEngine(module, tier=tier).run(
                    "apply", _math_spec())
                assert run.tier == tier
                assert all(math.isinf(v) for v in run.memory["out"])


def _nbody_shaped():
    """Partner loop with ``rsqrt``: no branch, so lockstep is legal."""
    from repro.frontend.kernel_builder import AccessorParam, KernelSource
    from repro.ir import f32

    def body(k):
        i = k.global_id(0)
        with k.loop(0, 6) as j:
            delta = k.load("pos", [j]) - k.load("pos", [i])
            inverse = k.rsqrt(delta * delta + 0.25)
            k.store("acc", [i], k.load("acc", [i])
                    + delta * inverse * inverse * inverse)

    return KernelSource(
        "pull", body=body, nd_range_dims=1, uses_nd_item=False,
        accessors=[AccessorParam("pos", 1, f32(), "read"),
                   AccessorParam("acc", 1, f32(), "read_write")])


def _sobel_shaped():
    """3x3 stencil behind a border test on the work-item id: divergent."""
    from repro.frontend.kernel_builder import AccessorParam, KernelSource
    from repro.ir import f32

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.if_then((i > 0) & (i < 5) & (j > 0) & (j < 5)):
            horizontal = k.load("src", [i, j + 1]) - k.load("src", [i, j - 1])
            vertical = k.load("src", [i + 1, j]) - k.load("src", [i - 1, j])
            k.store("dst", [i, j], k.sqrt(horizontal * horizontal
                                          + vertical * vertical))

    return KernelSource(
        "edges", body=body, nd_range_dims=2, uses_nd_item=False,
        accessors=[AccessorParam("src", 2, f32(), "read"),
                   AccessorParam("dst", 2, f32(), "read_write")])


class TestAutoTierWithMath:
    @pytest.mark.parametrize("build,spec,chosen", [
        (_nbody_shaped, dict(global_size=(6,),
                             buffers={"pos": (6,), "acc": (6,)}), "vector"),
        (_sobel_shaped, dict(global_size=(6, 6),
                             buffers={"src": (6, 6), "dst": (6, 6)}), "jit"),
    ])
    def test_no_math_kernel_ends_on_the_interpreter(self, build, spec,
                                                    chosen):
        from repro.interp import ExecutionSpec

        source = build()
        module = wrap_in_module(source.build())
        spec = ExecutionSpec(**spec)
        baseline = ExecutionEngine(module, tier="interp").run(
            source.name, spec)
        auto = ExecutionEngine(module, tier="auto").run(source.name, spec)
        assert auto.tier == chosen
        compare_executions(baseline, auto, rtol=1e-6)
        assert auto.counters == baseline.counters


# ---------------------------------------------------------------------------
# Whole-launch lockstep: group axis, local tiles, uniformity levels
# ---------------------------------------------------------------------------

def _nd_kernel(name, body, arrays, element=None):
    """A 1-D ND-item kernel over ``arrays`` (name -> access mode, or
    ``"local"`` for a local accessor)."""
    from repro.frontend.kernel_builder import AccessorParam, KernelSource
    from repro.ir import f32

    source = KernelSource(
        name, body=body, nd_range_dims=1,
        accessors=[AccessorParam(array, 1, element or f32(), "read_write",
                                 target="local") if mode == "local"
                   else AccessorParam(array, 1, element or f32(), mode)
                   for array, mode in arrays.items()])
    return wrap_in_module(source.build())


def _local_tile(k, size):
    from repro.dialects import memref
    from repro.ir import MemRefType, f32

    return k._insert(memref.AllocOp.build(
        MemRefType((size,), f32(), "local"))).result


def _scf_loop(k, lower, upper, body):
    """``scf.for`` (the builder's own ``loop`` is ``affine.for``)."""
    from repro.dialects import scf
    from repro.frontend.kernel_builder import Expr

    loop = k._insert(scf.ForOp.build(
        k._as_index(lower), k._as_index(upper), k._as_index(1)))
    saved = k._builder.insertion_point
    k._builder.set_insertion_point_to_end(loop.body)
    body(Expr(k, loop.body.arguments[0]))
    k._insert(scf.YieldOp.build())
    k._builder.insertion_point = saved


def _nd_spec(groups, size, **buffers):
    from repro.interp import ExecutionSpec

    total = groups * size
    return ExecutionSpec(
        global_size=(total,), local_size=(size,),
        buffers={name: shape or (total,)
                 for name, shape in buffers.items()})


def _run_on_every_tier(module, name, spec, **engine_options):
    """Execute on all tiers; memory and the counters dict must equal the
    interpreter's exactly.  Returns ``tier -> (execution, remarks)``."""
    runs = {}
    for tier in TIERS:
        engine = ExecutionEngine(module, tier=tier, **engine_options)
        run = engine.run(name, spec)
        assert run.tier == tier, engine.remarks
        runs[tier] = (run, engine.remarks)
    reference = runs["interp"][0]
    for tier in ("jit", "vector"):
        assert not memory_differences(runs[tier][0].memory,
                                      reference.memory), tier
        assert runs[tier][0].counters == reference.counters, tier
    return runs


def _trap_on_every_tier(module, name, spec, **engine_options):
    """Every tier must trap; returns ``tier -> message``."""
    from repro.interp.memory import TrapError

    messages = {}
    for tier in TIERS:
        engine = ExecutionEngine(module, tier=tier, **engine_options)
        with pytest.raises(TrapError) as trap:
            engine.run(name, spec)
        assert type(trap.value) is TrapError
        assert engine.remarks == [], tier
        messages[tier] = str(trap.value)
    return messages


def _triangular_kernel(bound):
    """``out[i] += a[j]`` for ``j`` below ``bound(k)``."""
    def body(k):
        i = k.global_id(0)
        _scf_loop(k, 0, bound(k), lambda j: k.store(
            "out", [i], k.load("out", [i]) + k.load("a", [j])))

    return _nd_kernel("tri", body, {"a": "read", "out": "read_write"})


class TestWholeLaunchLockstep:
    @pytest.mark.parametrize("through_argument", (False, True))
    def test_local_tiles_are_isolated_per_group(self, through_argument):
        """Every group fills its tile with its own values and reads a
        neighbour lane's slot back after the barrier."""
        def body(k):
            tile = k.parameter("tile").value if through_argument \
                else _local_tile(k, 4)
            li = k.local_id(0)
            k.private_store(tile, li, k.load("a", [k.global_id(0)]))
            k.group_barrier()
            k.store("out", [k.global_id(0)],
                    k.private_load(tile, (li + 1) % 4))

        arrays, shapes = {"a": "read", "out": "write"}, {}
        if through_argument:
            arrays["tile"], shapes["tile"] = "local", (4,)
        module = _nd_kernel("rotate", body, arrays)
        runs = _run_on_every_tier(
            module, "rotate", _nd_spec(3, 4, a=None, out=None, **shapes))
        run, remarks = runs["vector"]
        assert remarks == []
        a = run.memory["a"].tolist()
        assert run.memory["out"].tolist() == [
            a[4 * (i // 4) + (i + 1) % 4] for i in range(12)]
        assert len(set(run.memory["out"])) > 4  # groups really differ

    def test_uniform_position_store_last_lane_wins(self):
        """A per-item value stored at one location: the last lane of
        each group wins in a local tile, the last lane of the launch in
        global memory (racy SYCL, but the tiers must still agree)."""
        def body(k):
            tile = _local_tile(k, 2)
            value = k.load("a", [k.global_id(0)])
            k.private_store(tile, 1, value)
            k.store("last", [0], value)
            k.group_barrier()
            k.store("out", [k.global_id(0)], k.private_load(tile, 1))

        module = _nd_kernel("winner", body, {
            "a": "read", "last": "read_write", "out": "write"})
        runs = _run_on_every_tier(
            module, "winner", _nd_spec(3, 4, a=None, last=(1,), out=None))
        run, _ = runs["vector"]
        a = run.memory["a"].tolist()
        assert run.memory["out"].tolist() == [
            a[4 * (i // 4) + 3] for i in range(12)]
        assert run.memory["last"].tolist() == [a[11]]

    def test_group_dependent_loop_bound_walks_per_group(self):
        import numpy as np

        from repro.runtime import Accessor, Buffer

        module = _triangular_kernel(lambda k: k.group_id(0) * 2)
        function = module.lookup_symbol("tri")
        assert vector_legality(function) is None
        runs = _run_on_every_tier(module, "tri",
                                  _nd_spec(4, 2, a=None, out=None))
        remark = ("vector: per-group walk for 'tri': loop bound depends "
                  "on the group id")
        assert runs["vector"][1] == [remark]
        # Caller-owned buffers: still the vector tier, same remark.
        a = Buffer(np.arange(8, dtype=np.float32) + 1.0)
        out = Buffer(np.zeros(8, dtype=np.float32))
        engine = ExecutionEngine(module, tier="auto")
        engine.launch("tri", [Accessor(a, "read"),
                              Accessor(out, "read_write")], (8,), (2,))
        assert engine.remarks == [remark]
        np.testing.assert_array_equal(
            out.host_array(),
            [sum(range(1, 2 * (i // 2) + 1)) for i in range(8)])

    def test_per_item_loop_bound_declines_before_running(self):
        import numpy as np

        from repro.runtime import Accessor, Buffer

        module = _triangular_kernel(lambda k: k.local_id(0) + 1)
        function = module.lookup_symbol("tri")
        assert vector_legality(function) == \
            "a loop bound varies per work-item"
        spec = _nd_spec(2, 4, a=None, out=None)
        baseline = ExecutionEngine(module, tier="interp").run("tri", spec)
        engine = ExecutionEngine(module, tier="vector")
        run = engine.run("tri", spec)
        assert run.tier == "interp"
        assert engine.remarks == [
            "tier 'vector' fell back for 'tri': a loop bound varies per "
            "work-item"]  # a decline, not a mid-run "degraded"
        assert not memory_differences(run.memory, baseline.memory)
        # launch() cannot re-materialize: only a pre-execution decline
        # lets it fall through, and the buffers must be untouched by it.
        a = Buffer(np.arange(8, dtype=np.float32) + 1.0)
        out = Buffer(np.zeros(8, dtype=np.float32))
        auto = ExecutionEngine(module, tier="auto")
        auto.launch("tri", [Accessor(a, "read"),
                            Accessor(out, "read_write")], (8,), (4,))
        assert len(auto.remarks) == 1 and "'vector' fell back" in \
            auto.remarks[0]  # ... and the JIT took it
        np.testing.assert_array_equal(
            out.host_array(),
            [sum(range(1, i % 4 + 2)) for i in range(8)])

    def test_uniformity_flows_through_loop_carried_values(self):
        """A bound that only becomes per-item on the loop's back edge
        (``n = 0; repeat: n += local_id``) still declines up front; a
        launch-uniform non-constant bound takes the one walk silently."""
        from repro.dialects import scf
        from repro.frontend.kernel_builder import Expr

        def carried_bound(k):
            zero = k.index_constant(0)
            loop = k._insert(scf.ForOp.build(
                zero.value, k._as_index(2), k._as_index(1),
                iter_args=[zero.value]))
            saved = k._builder.insertion_point
            k._builder.set_insertion_point_to_end(loop.body)
            grown = Expr(k, loop.body.arguments[1]) + k.local_id(0)
            k._insert(scf.YieldOp.build([grown.value]))
            k._builder.insertion_point = saved
            return Expr(k, loop.results[0])

        module = _triangular_kernel(carried_bound)
        assert vector_legality(module.lookup_symbol("tri")) == \
            "a loop bound varies per work-item"
        module = _triangular_kernel(lambda k: k.local_range(0))
        assert vector_legality(module.lookup_symbol("tri")) is None
        engine = ExecutionEngine(module, tier="vector")
        assert engine.run("tri", _nd_spec(3, 4, a=None, out=None)).tier \
            == "vector"
        assert engine.remarks == []

    def test_private_array_uniform_and_per_lane_indices(self):
        """Lanes-last private storage: row access at a uniform index,
        fancy access at a per-lane one, f32 rounding on every store."""
        def body(k):
            scratch = k.private_array(4)
            li = k.local_id(0)
            x = k.load("a", [k.global_id(0)])
            for slot in range(4):
                k.private_store(scratch, slot, x * 0.1 + float(slot))
            k.private_store(scratch, li % 4, x * 0.7)
            with k.loop(0, 4) as j:
                k.store("out", [k.global_id(0)],
                        k.load("out", [k.global_id(0)])
                        + k.private_load(scratch, j)
                        * k.private_load(scratch, (li + 1) % 4))

        module = _nd_kernel("scratch", body,
                            {"a": "read", "out": "read_write"})
        runs = _run_on_every_tier(module, "scratch",
                                  _nd_spec(3, 4, a=None, out=None))
        assert runs["vector"][1] == []

    def test_traps_match_the_interpreter(self):
        # Out of bounds in the last group only.
        def copy(k):
            k.store("out", [k.global_id(0)], k.load("a", [k.global_id(0)]))

        module = _nd_kernel("copy", copy, {"a": "read", "out": "write"})
        messages = _trap_on_every_tier(
            module, "copy", _nd_spec(3, 4, a=None, out=(8,)))
        for tier in TIERS:  # (only the interpreter also names the index)
            assert messages[tier].startswith("accessor index "), tier
            assert messages[tier].endswith(
                "out of bounds for buffer of shape (8,)"), tier

        # Division by zero in exactly one lane of one group.
        from repro.ir import i32

        def divide(k):
            i = k.global_id(0)
            k.store("out", [i], (k.load("a", [i]) + 40) % (i - 9).to_int())

        module = _nd_kernel("divide", divide,
                            {"a": "read", "out": "write"}, element=i32())
        messages = _trap_on_every_tier(
            module, "divide", _nd_spec(3, 4, a=None, out=None))
        assert messages["interp"] == "division by zero in 'arith.remsi'"
        assert messages["vector"] == messages["jit"] == messages["interp"]

        # One element past the end of a unit-stride access (the vector
        # tier's slice path): the interpreter's text on every tier, for a
        # basic and an ND-range launch.
        from repro.frontend.kernel_builder import AccessorParam, KernelSource
        from repro.interp import ExecutionSpec
        from repro.ir import f32

        for uses_nd_item, local_size in ((False, None), (True, (3,))):
            source = KernelSource(
                "past", body=copy, nd_range_dims=1, uses_nd_item=uses_nd_item,
                accessors=[AccessorParam("a", 1, f32(), "read"),
                           AccessorParam("out", 1, f32(), "write")])
            module = wrap_in_module(source.build())
            build_named_pipeline("sycl-mlir").run(module)
            messages = _trap_on_every_tier(module, "past", ExecutionSpec(
                global_size=(9,), local_size=local_size,
                buffers={"a": (8,), "out": (9,)}))
            assert set(messages.values()) == {
                "flat index 8 out of bounds for memref of 8 elements"}

        # The step budget: 12 items x 8 iterations cannot fit in 200.
        module = _triangular_kernel(lambda k: 8)
        messages = _trap_on_every_tier(
            module, "tri", _nd_spec(3, 4, a=None, out=None), max_steps=200)
        for tier in TIERS:
            assert messages[tier].startswith(
                "exceeded the interpreter step budget (200 ops)"), tier

    def test_walk_count_is_independent_of_the_group_count(self):
        """Clock-free scaling: with launch-uniform bounds the generated
        body (its ``_walk`` function) runs once however many work-groups
        the launch has; a bound on the group id costs one walk per
        group."""
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "_walk":
                calls.append(frame.f_code.co_filename)

        def tiled(k):
            tile = _local_tile(k, 4)
            li = k.local_id(0)
            k.private_store(tile, li, k.load("a", [k.global_id(0)]))
            k.group_barrier()
            with k.loop(0, 4) as j:
                k.store("out", [k.global_id(0)],
                        k.load("out", [k.global_id(0)])
                        + k.private_load(tile, j))

        def walked(module, name, groups):
            del calls[:]
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                run = ExecutionEngine(module, tier="vector").run(
                    name, _nd_spec(groups, 4, a=None, out=None))
            finally:
                sys.setprofile(previous)
            assert run.tier == "vector"
            assert set(calls) == {f"<repro-jit:{name}>"}
            return len(calls)

        module = _nd_kernel("tiled", tiled,
                            {"a": "read", "out": "read_write"})
        assert walked(module, "tiled", 4) == walked(module, "tiled", 64)
        module = _triangular_kernel(lambda k: k.group_id(0) % 2)
        assert walked(module, "tri", 4) < walked(module, "tri", 64)

    def test_legality_memo_is_invalidated_by_in_place_passes(self):
        from repro.interp.vectorize import _compute_legality
        from repro.transforms import parse_pass_pipeline

        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        engine = ExecutionEngine(module, tier="auto")
        resolved = synthesize_spec(function, specs["gemm"])
        assert engine.execute(function, resolved).tier == "vector"
        parse_pass_pipeline(
            "builtin.module(func.func(lower-affine,convert-scf-to-cf))"
        ).run(module)
        assert vector_legality(function) == _compute_legality(function)
        assert "'cf.br' is not vectorized" in vector_legality(function)
        after = engine.execute(function, resolved)
        assert after.tier == "jit"
        assert not any("degraded" in remark for remark in engine.remarks)


class TestVectorCompiledOnce:
    """The vector tier's executables: cached like the JIT's, and the
    unit-stride slice path."""

    def test_a_second_engine_on_an_identical_kernel_hits_memory(self):
        module, specs = build_gemm_module(size=4, work_group=2)
        cache = ExecutableCache()
        engine = ExecutionEngine(module, tier="vector", executable_cache=cache)
        first = engine.run("gemm", specs["gemm"])
        assert first.tier == "vector" and engine.remarks == []
        clone = module.clone({})
        executable = compile_vector(clone.lookup_symbol("gemm"), "nd",
                                    "launch", cache)
        assert executable.origin == "memory"
        second = ExecutionEngine(clone, tier="vector",
                                 executable_cache=cache).run(
            "gemm", specs["gemm"])
        assert len(cache) == 1
        assert (cache.stats.misses, cache.stats.hits) == (1, 2)
        compare_executions(first, second)
        assert second.counters == first.counters

    def test_a_disk_cache_rehydrates_vector_source(self, tmp_path):
        module, specs = build_gemm_module(size=4, work_group=2)
        warm = ExecutableCache(disk=DiskCache(str(tmp_path / "cache")))
        baseline = ExecutionEngine(module, tier="vector",
                                   executable_cache=warm).run(
            "gemm", specs["gemm"])
        assert warm.disk.stats.stores == 1
        cold = ExecutableCache(disk=DiskCache(str(tmp_path / "cache")))
        executable = compile_vector(module.lookup_symbol("gemm"), "nd",
                                    "launch", cold)
        assert executable.origin == "disk" and cold.disk.stats.hits == 1
        assert (cold.stats.hits, cold.stats.misses) == (1, 0)
        rerun = ExecutionEngine(module, tier="vector",
                                executable_cache=cold).run(
            "gemm", specs["gemm"])
        assert rerun.tier == "vector"
        compare_executions(baseline, rerun)

    def test_vector_and_jit_executables_do_not_collide(self):
        module, specs = build_gemm_module(size=4, work_group=2)
        function = module.lookup_symbol("gemm")
        cache = ExecutableCache()
        from repro.interp.jit_runtime import EMITTER_VERSIONS

        fingerprint, _ = cache.key_for(function, "nd")
        assert cache.key_for(function, "nd:launch", "vector") == (
            fingerprint, f"vector{EMITTER_VERSIONS['vector']}:nd:launch")
        runs = {}
        for tier in ("jit", "vector", "jit", "vector"):
            runs[tier] = ExecutionEngine(
                module, tier=tier, executable_cache=cache).run(
                "gemm", specs["gemm"])
            assert runs[tier].tier == tier
        assert cache.describe()["entries"] == 2
        assert (cache.stats.misses, cache.stats.hits) == (2, 2)
        compare_executions(runs["jit"], runs["vector"])

    def test_unit_stride_access_on_a_ranged_accessor(self):
        """``out[i] = 2 a[i] + i`` with ranged accessors (offsets 3 and
        1): slices on the vector tier, and the interpreter's buffers and
        counters."""
        import numpy as np

        from repro.frontend.kernel_builder import AccessorParam, KernelSource
        from repro.ir import f32
        from repro.runtime import Accessor, Buffer

        def body(k):
            i = k.global_id(0)
            k.store("out", [i], k.load("a", [i]) * 2.0 + i.to_float())

        source = KernelSource(
            "shift", body=body, nd_range_dims=1, uses_nd_item=False,
            accessors=[AccessorParam("a", 1, f32(), "read"),
                       AccessorParam("out", 1, f32(), "read_write")])
        module = wrap_in_module(source.build())
        build_named_pipeline("sycl-mlir").run(module)
        executable = compile_vector(module.lookup_symbol("shift"), "basic",
                                    "launch")
        assert executable.source.count(" + _L]") == 2  # one load, one store
        results = {}
        for tier in TIERS:
            a = Buffer(np.arange(16, dtype=np.float32) * 0.75)
            out = Buffer(np.full(16, -1.0, dtype=np.float32))
            engine = ExecutionEngine(module, tier=tier)
            launch = engine.launch("shift", [
                Accessor(a, "read", access_range=(10,), offset=(3,)),
                Accessor(out, "read_write", access_range=(10,), offset=(1,)),
            ], (10,))
            assert engine.remarks == [], tier
            results[tier] = (out.host_array().tolist(),
                             launch.counters.as_dict())
        assert results["vector"] == results["interp"] == results["jit"]
        assert results["interp"][0][1:11] == [
            2 * 0.75 * (i + 3) + i for i in range(10)]


class TestEngineReuse:
    def test_distinct_remarks_are_recorded_once(self):
        module = _listing_module()
        function = module.lookup_symbol("non_uniform")
        resolved = synthesize_spec(
            function, listing_execution_specs().get("non_uniform"))
        engine = ExecutionEngine(module, tier="vector")
        engine.execute(function, resolved)
        first = list(engine.remarks)
        assert len(first) == 1 and "fell back" in first[0]
        for _ in range(3):
            engine.execute(function, resolved)
        assert engine.remarks == first

    def test_buffers_are_filled_once_per_resolved_spec(self, monkeypatch):
        from repro.interp import differential

        fills = []
        original = differential._fill_array

        def counting(element_type, seed, total):
            fills.append(seed)
            return original(element_type, seed, total)

        monkeypatch.setattr(differential, "_fill_array", counting)
        module = _triangular_kernel(lambda k: 3)
        function = module.lookup_symbol("tri")
        spec = _nd_spec(2, 4, a=None, out=None)
        resolved = synthesize_spec(function, spec)
        engine = ExecutionEngine(module, tier="vector")
        first = engine.execute(function, resolved)
        assert len(fills) == 2  # a and out
        second = engine.execute(function, resolved)
        assert len(fills) == 2
        # The kernel accumulates into ``out``: a template it had written
        # through would show as a different second result.
        assert not memory_differences(second.memory, first.memory)
        fresh = ExecutionEngine(module, tier="interp").execute(
            function, synthesize_spec(function, spec))
        assert not memory_differences(fresh.memory, first.memory)

    @pytest.mark.parametrize("tier", TIERS)
    def test_in_place_mutation_is_seen_by_the_same_engine(self, tier):
        # The JIT memoized its executable key per function object: after
        # an in-place edit the same engine kept running the old code.
        from repro.dialects import arith
        from repro.ir import FloatAttr, f32

        def body(k):
            i = k.global_id(0)
            k.store("c", [i], k.load("a", [i]) + k.load("b", [i]) * 2.5)

        module = _nd_kernel("vec_add", body,
                            {"a": "read", "b": "read", "c": "write"})
        function = module.lookup_symbol("vec_add")
        resolved = synthesize_spec(function,
                                   _nd_spec(2, 4, a=None, b=None, c=None))
        engine = ExecutionEngine(module, tier=tier)
        before = engine.execute(function, resolved)
        assert before.tier == tier, engine.remarks
        alpha, = [op for op in function.walk_type(arith.ConstantOp)
                  if op.get_attr("value") == FloatAttr(2.5, f32())]
        alpha.set_attr("value", FloatAttr(100.0, f32()))
        after = engine.execute(function, resolved)
        fresh = ExecutionEngine(module, tier="interp").execute(
            function, resolved)
        assert not memory_differences(after.memory, fresh.memory)
        assert memory_differences(after.memory, before.memory)

    def test_a_barrier_added_in_place_keeps_the_kernel_on_the_jit(self):
        # "Does it contain a barrier" was memoized by id(function) alone:
        # an in-place edit (or a new function at a recycled address) got
        # the old answer, the wrong compilation mode and a fallback.
        from repro.dialects import sycl

        groups = []

        def body(k):
            i = k.global_id(0)
            groups.append(k._insert(sycl.SYCLNDItemGetGroupOp.build(
                k.item, k.source.nd_range_dims)))
            k.store("c", [i], k.load("a", [i]))

        module = _nd_kernel("copy", body, {"a": "read", "c": "write"})
        function = module.lookup_symbol("copy")
        resolved = synthesize_spec(function, _nd_spec(2, 4, a=None, c=None))
        engine = ExecutionEngine(module, tier="jit")
        before = engine.execute(function, resolved)
        assert before.tier == "jit", engine.remarks
        group, = groups
        group.parent.insert_after(
            group, sycl.SYCLGroupBarrierOp.build(group.result))
        after = engine.execute(function, resolved)
        assert after.tier == "jit", engine.remarks
        assert not memory_differences(after.memory, before.memory)
        assert after.counters["barriers"] == 8


class TestMemoryContract:
    """``FunctionExecution.memory``: per buffer a read-only 1-D array in
    the element's dtype, the same on every tier."""

    def test_accessor_buffers_are_read_only_f32_views_on_every_tier(self):
        import numpy as np

        module, specs = build_gemm_module(size=4, work_group=2)
        runs = {tier: ExecutionEngine(module, tier=tier).run(
            "gemm", specs["gemm"]) for tier in TIERS}
        for tier, run in runs.items():
            assert run.tier == tier
            assert sorted(run.memory) == ["A", "B", "C"]
            for name, values in run.memory.items():
                assert values.ndim == 1 and values.size == 16, name
                assert values.dtype == np.float32, name
                assert values.flags.writeable is False, name
                with pytest.raises(ValueError):
                    values[0] = 1.0
            assert not memory_differences(run.memory, runs["interp"].memory)

    def test_memref_arguments_and_globals_follow_the_same_contract(self):
        import numpy as np

        from repro.dialects import arith, func as func_dialect, memref
        from repro.ir import Builder, InsertionPoint, MemRefType, index

        module = wrap_in_module(build_listing1_function()[0])
        module.append(memref.GlobalOp.build(
            "state", MemRefType((2,), index()), constant=False))
        bump = func_dialect.FuncOp.build("bump", [index()])
        b = Builder(InsertionPoint.at_end(bump.body))
        get = b.insert(memref.GetGlobalOp.build(
            "state", MemRefType((2,), index())))
        c1 = b.insert(arith.ConstantOp.build(1, index()))
        b.insert(memref.StoreOp.build(bump.arguments[0], get.result,
                                      [c1.result]))
        b.insert(func_dialect.ReturnOp.build())
        module.append(bump)
        executions, skipped = ExecutionEngine(
            module, tier="interp").execute_module()
        assert skipped == {}
        memory = {**executions["foo"].memory, **executions["bump"].memory}
        assert sorted(memory) == ["global:state", "ptr1", "ptr2"]
        for name, values in memory.items():
            assert values.ndim == 1 and values.dtype == np.int64, name
            assert values.flags.writeable is False, name
        assert memory["ptr1"].shape == (1,)  # a 0-d memref<i32>
        assert memory["global:state"][0] == 0
        assert memory["global:state"][1] != 0


# ---------------------------------------------------------------------------
# Op semantics on every tier: one kernel per op group
# ---------------------------------------------------------------------------

def _kernel(name, body, arrays, dims=1, nd_item=True):
    """A kernel over ``arrays`` (name -> (access mode, element type))."""
    from repro.frontend.kernel_builder import AccessorParam, KernelSource

    source = KernelSource(
        name, body=body, nd_range_dims=dims, uses_nd_item=nd_item,
        accessors=[AccessorParam(array, dims, element, mode)
                   for array, (mode, element) in arrays.items()])
    return wrap_in_module(source.build())


def _emit(k, op):
    """Insert ``op`` through the builder; its result as an ``Expr``."""
    from repro.frontend.kernel_builder import Expr

    return Expr(k, k._insert(op).result)


def _query(k, op_class, source, dim=None):
    """A SYCL query on ``source``; ``dim`` is an int (a constant
    operand), an ``Expr`` (a dynamic one) or None (no operand)."""
    if isinstance(dim, int):
        dim = k._dim_constant(dim)
    elif dim is not None:
        dim = dim.value
    return _emit(k, op_class.build(source, dim))


def _dynamic_dims(k, rank):
    """Yields an ``i32`` dimension operand no emitter can fold: the
    induction variable of a loop over the ``rank`` dimensions."""
    from repro.dialects import arith
    from repro.ir import i32

    with k.loop(0, rank) as d:
        yield _emit(k, arith.IndexCastOp.build(d.value, i32()))


def _nd_queries(k):
    """``out[i, j]``: every ``nd_item`` range and linear-id query."""
    from repro.dialects import sycl

    i, j = k.global_id(0), k.global_id(1)
    value = (k.global_range(0) * 1000 + k.global_range(1) * 100
             + k.local_range(1) * 10 + k.group_range(0)
             + _query(k, sycl.SYCLNDItemGetGlobalLinearIDOp, k.item) * 10000
             + _query(k, sycl.SYCLNDItemGetLocalLinearIDOp, k.item)
             * 1000000)
    k.store("out", [i, j], value.to_float())
    for dim in _dynamic_dims(k, 2):
        k.store("out", [i, j], k.load("out", [i, j]) + (
            _query(k, sycl.SYCLNDItemGetGlobalRangeOp, k.item, dim) * 7
            + _query(k, sycl.SYCLNDItemGetLocalRangeOp, k.item, dim) * 3
            + _query(k, sycl.SYCLNDItemGetGroupRangeOp, k.item, dim)
        ).to_float())


def _item_queries(k):
    """``out[i]``: ``item.get_range`` / ``get_linear_id`` on a launch
    without a local range."""
    from repro.dialects import sycl

    i = k.global_id(0)
    value = (k.global_range(0) * 100
             + _query(k, sycl.SYCLItemGetLinearIDOp, k.item) * 10)
    k.store("out", [i], value.to_float())
    for dim in _dynamic_dims(k, 1):
        k.store("out", [i], k.load("out", [i]) + _query(
            k, sycl.SYCLItemGetRangeOp, k.item, dim).to_float())


def _range_objects(k):
    """``out[i]``: ``range.get`` / ``range.size`` of a constructed range
    and ``accessor.get_range`` / ``get_offset`` of ``a``."""
    from repro.dialects import memref, sycl
    from repro.ir import MemRefType

    i = k.global_id(0)
    cell = k._insert(memref.AllocaOp.build(
        MemRefType((1,), sycl.RangeType(2)))).result
    k._insert(sycl.SYCLConstructorOp.build(
        "range", cell, [k.global_range(0).value, k.local_range(0).value]))
    value = (_query(k, sycl.SYCLRangeGetOp, cell, 0) * 1000
             + _query(k, sycl.SYCLRangeGetOp, cell, 1) * 100
             + _query(k, sycl.SYCLRangeSizeOp, cell) * 10
             + k.accessor_range("a")
             + _query(k, sycl.SYCLAccessorGetOffsetOp, k._params["a"], 0))
    k.store("out", [i], value.to_float() + k.load("a", [i]))
    for dim in _dynamic_dims(k, 2):
        k.store("out", [i], k.load("out", [i]) + _query(
            k, sycl.SYCLRangeGetOp, cell, dim).to_float())


def _memref_ops(k):
    """``out[i]``: a work-item buffer read through ``memref.cast`` and
    sized by ``memref.dim``, then freed by ``memref.dealloc``."""
    from repro.dialects import memref
    from repro.ir import DYNAMIC, MemRefType, f32

    i = k.global_id(0)
    scratch = k._insert(memref.AllocOp.build(MemRefType((3,), f32()))).result
    k.private_store(scratch, 0, k.load("a", [i]))
    k.private_store(scratch, 1, 2.0)
    k.private_store(scratch, 2, 0.5)
    widened = k._insert(memref.CastOp.build(
        scratch, MemRefType((DYNAMIC,), f32()))).result
    extent = _emit(k, memref.DimOp.build(widened, k.index_constant(0).value))
    value = (k.private_load(widened, 0) * k.private_load(scratch, 1)
             + k.private_load(widened, 2) + extent.to_float())
    k.store("out", [i], value)
    with k.loop(0, 1) as d:
        dynamic = _emit(k, memref.DimOp.build(widened, d.value))
        k.store("out", [i], k.load("out", [i]) + dynamic.to_float())
    k._insert(memref.DeallocOp.build(scratch))


def _dim_out_of_range(k):
    """``memref.dim`` of dimension 1 of a rank-1 buffer."""
    from repro.dialects import memref
    from repro.ir import MemRefType, f32

    scratch = k._insert(memref.AllocOp.build(MemRefType((3,), f32()))).result
    extent = _emit(k, memref.DimOp.build(scratch, k.index_constant(1).value))
    k.store("out", [k.global_id(0)], extent.to_float())


def _carried_sum(k):
    """``out[i] = a[i] + sum(a[0:4])``: an ``scf.for`` carrying a
    work-group-uniform sum."""
    from repro.dialects import scf
    from repro.frontend.kernel_builder import Expr

    i = k.global_id(0)
    loop = k._insert(scf.ForOp.build(
        k._as_index(0), k._as_index(4), k._as_index(1),
        [k.constant(0.0).value]))
    saved = k._builder.insertion_point
    k._builder.set_insertion_point_to_end(loop.body)
    j, total = (Expr(k, arg) for arg in loop.body.arguments)
    k._insert(scf.YieldOp.build([(total + k.load("a", [j])).value]))
    k._builder.insertion_point = saved
    k.store("out", [i], Expr(k, loop.results[0]) + k.load("a", [i]))


def _int_and_float_ops(k):
    """``iout[i]`` / ``out[i]``: shifts, unsigned division, ``remf``,
    ``negf``, the width casts and an unordered ``cmpf``."""
    from repro.dialects import arith
    from repro.ir import f32, f64, i32, i64

    i = k.global_id(0)
    x = k.load("a", [i])
    n = _emit(k, arith.FPToSIOp.build((x * 4.0).value, i32()))
    square = n * n + 1
    c = {v: k.constant(v, i32()) for v in (1, 2, 3, 5)}
    shifted = _emit(k, arith.ShRSIOp.build(
        _emit(k, arith.ShLIOp.build(n.value, c[2].value)).value,
        c[1].value))
    quotient = _emit(k, arith.DivUIOp.build(square.value, c[3].value))
    remainder = _emit(k, arith.RemUIOp.build(square.value, c[5].value))
    wide = _emit(k, arith.ExtSIOp.build(shifted.value, i64())) * 3
    narrow = _emit(k, arith.TruncIOp.build(wide.value, i32()))
    k.store("iout", [i], narrow * 10000 + quotient * 100 + remainder)

    double = _emit(k, arith.ExtFOp.build(x.value, f64())) * 2.0
    back = _emit(k, arith.TruncFOp.build(double.value, f32()))
    rem = _emit(k, arith.RemFOp.build(x.value, k.constant(1.5).value))
    unordered = _emit(k, arith.CmpFOp.build("ult", x.value,
                                            k.constant(0.5).value))
    k.store("out", [i], unordered.select(-back, rem))


def _builder_math(k):
    """``out[i]``: the builder's math helpers, reflected operators,
    comparisons, boolean combinators, casts and ``select``."""
    i = k.global_id(0)
    x = k.load("a", [i])
    positive = k.fabs(x) + 1.0
    value = (k.exp(x * 0.25) + k.log(positive) + k.sin(x) * k.cos(x)
             + k.floor(x) + k.pow(positive, 0.5))
    value = 3.0 * (2.0 - (1.0 + value)) + 1.0 / positive
    value = value + (x * 2.0).to_int().to_index().to_float()
    keep = (x <= 0.5) | ~x.ne(1.5)
    k.store("out", [i], k.select(keep, value, -value))


def _uniform_branch(k):
    """``out[i]``: an ``if_then_else`` on the group id."""
    i = k.global_id(0)
    x = k.load("a", [i])
    with k.if_then_else(k.group_id(0) < 1) as (then_branch, else_branch):
        with then_branch:
            k.store("out", [i], x + 1.0)
        with else_branch:
            k.store("out", [i], x * 0.5)


def _spec(global_size, local_size=None, **buffers):
    from repro.interp import ExecutionSpec

    return ExecutionSpec(global_size=global_size, local_size=local_size,
                         buffers=buffers)


class TestOpSemanticsOnEveryTier:
    """One kernel per op group runs on the interpreter, the JIT and the
    vector tier: no tier falls back, and buffers and counters agree."""

    def test_nd_item_range_and_linear_id_queries(self):
        from repro.ir import f32

        module = _kernel("nd", _nd_queries,
                         {"out": ("write", f32())}, dims=2)
        runs = _run_on_every_tier(module, "nd", _spec(
            (4, 6), (2, 3), out=(4, 6)))
        out = runs["interp"][0].memory["out"]
        # item (1, 2): ranges 4x6 / 2x3, groups 2x2, global linear id 8,
        # local linear id 5; per dimension 7g + 3l + p summed over both.
        assert out[8] == 4632 + 80000 + 5000000 + (28 + 6 + 2) + (42 + 9 + 2)

    def test_item_range_and_linear_id_queries(self):
        from repro.ir import f32

        module = _kernel("item", _item_queries,
                         {"out": ("write", f32())}, nd_item=False)
        runs = _run_on_every_tier(module, "item", _spec((6,), out=(6,)))
        assert runs["interp"][0].memory["out"].tolist() == [
            606.0 + 10 * i for i in range(6)]

    def test_range_objects_and_accessor_ranges(self):
        from repro.ir import f32

        module = _kernel("ranges", _range_objects,
                         {"a": ("read", f32()), "out": ("write", f32())})
        _run_on_every_tier(module, "ranges", _spec((8,), (4,), a=(8,),
                                                   out=(8,)))

    def test_memref_dim_cast_and_dealloc(self):
        from repro.ir import f32

        module = _kernel("scratch", _memref_ops,
                         {"a": ("read", f32()), "out": ("write", f32())})
        _run_on_every_tier(module, "scratch", _spec((8,), (4,), a=(8,),
                                                    out=(8,)))

    def test_scf_for_reduction_is_detected_and_runs_alike(self):
        """``detect-reduction`` carries ``out[i]`` through an ``scf.for``
        (the builder's ``loop`` is ``affine.for``)."""
        from repro.transforms.pass_manager import CompileReport

        def body(k):
            i = k.global_id(0)
            _scf_loop(k, 0, 4, lambda j: k.store(
                "out", [i], k.load("out", [i]) + j.to_float()))

        module = _nd_kernel("acc", body, {"out": "read_write"})
        spec = _nd_spec(2, 4, out=None)
        run_differential(module, "sycl-mlir", specs={"acc": spec})
        report = CompileReport()
        build_named_pipeline("sycl-mlir").run(module, report=report)
        assert report.get_statistic("detect-reduction",
                                    "reductions_detected") == 1
        _run_on_every_tier(module, "acc", spec)

    def test_memref_dim_out_of_range_traps_alike(self):
        from repro.ir import f32

        module = _kernel("baddim", _dim_out_of_range,
                         {"out": ("write", f32())})
        messages = _trap_on_every_tier(module, "baddim",
                                       _spec((4,), (2,), out=(4,)))
        assert set(messages.values()) == {"memref.dim 1 out of range"}

    def test_loop_carried_uniform_value(self):
        from repro.ir import f32

        module = _kernel("carried", _carried_sum,
                         {"a": ("read", f32()), "out": ("write", f32())})
        runs = _run_on_every_tier(module, "carried", _spec(
            (8,), (4,), a=(8,), out=(8,)))
        memory = runs["interp"][0].memory
        total = sum(memory["a"][:4].tolist())
        assert memory["out"].tolist() == pytest.approx(
            [total + v for v in memory["a"].tolist()])

    def test_shifts_unsigned_division_and_width_casts(self):
        from repro.ir import f32, i32

        module = _kernel("casts", _int_and_float_ops,
                         {"a": ("read", f32()), "out": ("write", f32()),
                          "iout": ("write", i32())})
        spec = _spec((16,), (4,), a=(16,), out=(16,), iout=(16,))
        runs = _run_on_every_tier(module, "casts", spec)
        # Lowered, the casts are llvm.sext / trunc / fpext / fptrunc /
        # fptosi, which the interpreter and the JIT's CFG mode run.
        lowered = _lowered(module)
        names = {op.name for op in lowered.walk()}
        assert {"llvm.sext", "llvm.trunc", "llvm.fpext", "llvm.fptrunc",
                "llvm.fptosi"} <= names
        run = _on_both_tiers(lowered, "casts", spec)
        assert not memory_differences(run.memory,
                                      runs["interp"][0].memory)

    def test_builder_math_reflected_operators_and_select(self):
        from repro.ir import f32

        module = _kernel("mathy", _builder_math,
                         {"a": ("read", f32()), "out": ("write", f32())})
        _run_on_every_tier(module, "mathy", _spec((8,), (4,), a=(8,),
                                                  out=(8,)))

    def test_if_then_else_runs_on_the_jit_and_declines_the_vector_tier(self):
        from repro.ir import f32

        module = _kernel("branchy", _uniform_branch,
                         {"a": ("read", f32()), "out": ("write", f32())})
        spec = _spec((8,), (4,), a=(8,), out=(8,))
        run = _on_both_tiers(module, "branchy", spec)
        a, out = run.memory["a"], run.memory["out"]
        assert out.tolist() == [v + 1.0 for v in a[:4]] + [
            v * 0.5 for v in a[4:]]
        engine = ExecutionEngine(module, tier="vector")
        assert engine.run("branchy", spec).tier == "interp"
        assert engine.remarks == ["tier 'vector' fell back for 'branchy': "
                                  "uniform control flow ('scf.if') is not "
                                  "vectorized"]


_LLVM_CALLS = '''
  "func.func"() {function_type = (f32) -> (f32), sym_name = "twice", sym_visibility = "private"} : () -> () ({
   ^bb0(%x: f32):
    %y = "arith.addf"(%x, %x) : (f32, f32) -> (f32)
    "func.return"(%y) : (f32) -> ()
  })
  "func.func"() {function_type = (f32, i1, i32) -> (f32, i64, i64, i64), sym_name = "caller"} : () -> () ({
   ^bb0(%x: f32, %flag: i1, %n: i32):
    %u = "llvm.mlir.undef"() : () -> (i64)
    %c = "llvm.call"(%x) {callee = "twice"} : (f32) -> (f32)
    %b = "llvm.bitcast"(%c) : (f32) -> (f32)
    %z = "llvm.zext"(%flag) : (i1) -> (i64)
    %w = "llvm.zext"(%n) : (i32) -> (i64)
    "func.return"(%b, %u, %z, %w) : (f32, i64, i64, i64) -> ()
  })
  "llvm.mlir.global"() {sym_name = "g", constant = unit} : () -> ()
  "func.func"() {function_type = () -> (!llvm.ptr), sym_name = "addr"} : () -> () ({
    %p = "llvm.mlir.addressof"() {global_name = "g"} : () -> (!llvm.ptr)
    "func.return"(%p) : (!llvm.ptr) -> ()
  })
'''


class TestInterpreterOnlyLLVMOps:
    """``llvm.call`` / ``llvm.mlir.undef`` / ``llvm.bitcast`` /
    ``llvm.zext`` run on the interpreter only: the JIT and the vector
    tier decline them with a ``TierFallback`` remark."""

    def test_call_undef_bitcast_and_zext(self):
        from repro.interp import ExecutionSpec

        module = _cfg_module(_LLVM_CALLS)
        spec = ExecutionSpec(scalars={"x": 1.5, "flag": True, "n": -2})
        run = ExecutionEngine(module, tier="interp").run("caller", spec)
        assert run.tier == "interp"
        assert run.results == [3.0, 0, 1, 2 ** 32 - 2]
        assert run.counters["calls"] == 1
        for tier, reason in (
                ("jit", "'caller' is not jit-compilable: operation "
                        "'llvm.mlir.undef'"),
                ("vector", "vector tier executes kernels only")):
            engine = ExecutionEngine(module, tier=tier)
            fallback = engine.run("caller", spec)
            assert fallback.tier == "interp"
            assert fallback.results == run.results
            assert engine.remarks == [
                f"tier '{tier}' fell back for 'caller': {reason}"]

    def test_a_kernel_holding_one_declines_both_compiled_tiers(self):
        from repro.dialects import llvm
        from repro.ir import i64

        def body(k):
            _emit(k, llvm.LLVMUndefOp(operands=(), result_types=(i64(),)))
            k.store("out", [k.global_id(0)], 1.0)

        module = _nd_kernel("undef", body, {"out": "write"})
        for tier, reason in (
                ("jit", "'undef' is not jit-compilable: operation "
                        "'llvm.mlir.undef'"),
                ("vector", "operation 'llvm.mlir.undef' is not "
                           "vectorized")):
            engine = ExecutionEngine(module, tier=tier)
            run = engine.run("undef", _nd_spec(1, 4, out=None))
            assert run.tier == "interp"
            assert run.memory["out"].tolist() == [1.0] * 4
            assert engine.remarks == [
                f"tier '{tier}' fell back for 'undef': {reason}"]

    def test_global_address_traps_on_the_interpreter(self):
        from repro.interp.memory import TrapError

        engine = ExecutionEngine(_cfg_module(_LLVM_CALLS), tier="interp")
        with pytest.raises(TrapError, match="'llvm.mlir.addressof' models "
                                            "opaque host LLVM IR"):
            engine.run("addr")
