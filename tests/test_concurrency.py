"""Determinism and safety of the parallel scheduler and the compile cache.

The contract under test (see ``docs/concurrency.md``):

* compiling with ``jobs=1`` and ``jobs=4`` produces byte-identical
  printed IR, identical statistics totals (and list order) and the same
  position-keyed timing buckets;
* a cache hit splices IR structurally equal to a cold compile and
  replays the cold run's statistics;
* a function pipeline that mutates IR outside its own anchored function
  raises :class:`ConcurrentWriteError` under ``jobs>1`` instead of
  silently corrupting use lists / order indexes, and
  ``Context.allow_unregistered_threading`` opts out of the guard.
"""

import pytest

from repro.dialects import arith
from repro.dialects.func import FuncOp
from repro.ir import (
    ConcurrentWriteError,
    Context,
    Printer,
    i64,
    verify,
)
from repro.testing.generate import GeneratorConfig, generate_module
from repro.transforms import (
    CompileCache,
    CompileReport,
    FunctionPass,
    PassManager,
    build_named_pipeline,
    parse_pass_pipeline,
)

from .helpers import (
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"


def _listing_module():
    return wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])


def _synthetic_module():
    return generate_module(GeneratorConfig(num_ops=600, num_kernels=8,
                                           seed=11))


def _run(module, jobs, cache=None):
    manager = parse_pass_pipeline(PIPELINE)
    manager.jobs = jobs
    manager.cache = cache
    try:
        report = manager.run(module)
    finally:
        manager.close()
    return report


class TestParallelDeterminism:
    @pytest.mark.parametrize("build_module",
                             [_listing_module, _synthetic_module])
    def test_jobs4_output_byte_identical_to_serial(self, build_module):
        serial, parallel = build_module(), build_module()
        _run(serial, jobs=1)
        _run(parallel, jobs=4)
        assert Printer().print_module(serial) == \
            Printer().print_module(parallel)
        verify(parallel)

    def test_statistics_totals_and_order_identical(self):
        serial_report = _run(_synthetic_module(), jobs=1)
        parallel_report = _run(_synthetic_module(), jobs=4)
        assert [(s.pass_name, s.name, s.value)
                for s in serial_report.statistics] == \
            [(s.pass_name, s.name, s.value)
             for s in parallel_report.statistics]

    def test_timing_keys_stable_across_job_counts(self):
        serial_report = _run(_synthetic_module(), jobs=1)
        parallel_report = _run(_synthetic_module(), jobs=4)
        assert set(serial_report.timings) == set(parallel_report.timings)
        # Position-keyed: one bucket per scheduled slot, "N: name".
        assert all(": " in key for key in parallel_report.timings)

    def test_named_pipeline_parallel_matches_serial(self):
        serial, parallel = _synthetic_module(), _synthetic_module()
        build_named_pipeline("dpcpp").run(serial)
        manager = build_named_pipeline("dpcpp", jobs=4)
        try:
            manager.run(parallel)
        finally:
            manager.close()
        assert Printer().print_module(serial) == \
            Printer().print_module(parallel)

    def test_single_function_module_stays_serial(self):
        module = wrap_in_module(build_listing1_function()[0])
        reference = wrap_in_module(build_listing1_function()[0])
        _run(reference, jobs=1)
        _run(module, jobs=4)
        assert Printer().print_module(module) == \
            Printer().print_module(reference)


class TestCompileCache:
    def test_hit_is_structurally_equal_to_cold_compile(self):
        cache = CompileCache()
        cold, warm, reference = (_synthetic_module(), _synthetic_module(),
                                 _synthetic_module())
        _run(reference, jobs=1)
        _run(cold, jobs=1, cache=cache)
        _run(warm, jobs=1, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert Printer().print_module(warm) == \
            Printer().print_module(reference)
        assert Printer().print_module(cold) == \
            Printer().print_module(reference)
        verify(warm)

    def test_hit_replays_cold_statistics(self):
        cache = CompileCache()
        cold_report = _run(_synthetic_module(), jobs=1, cache=cache)
        warm_report = _run(_synthetic_module(), jobs=1, cache=cache)
        cold = {(s.pass_name, s.name): s.value
                for s in cold_report.statistics
                if s.pass_name != "compile-cache"}
        warm = {(s.pass_name, s.name): s.value
                for s in warm_report.statistics
                if s.pass_name != "compile-cache"}
        assert cold == warm
        assert warm_report.get_statistic("compile-cache", "hits") == 1
        assert cold_report.get_statistic("compile-cache", "misses") == 1

    def test_hit_records_its_own_timing_bucket(self):
        cache = CompileCache()
        _run(_synthetic_module(), jobs=1, cache=cache)
        warm_report = _run(_synthetic_module(), jobs=1, cache=cache)
        # Statistics replay the cold compile; the timing table accounts
        # for the warm segment through the dedicated hit bucket.
        assert "compile-cache: hit" in warm_report.timings
        assert warm_report.timings["compile-cache: hit"] > 0.0

    def test_key_distinguishes_pipelines(self):
        cache = CompileCache()
        module_a, module_b = _synthetic_module(), _synthetic_module()
        for module, spec in ((module_a, "builtin.module(func.func(cse))"),
                             (module_b, "builtin.module(func.func(dce))")):
            manager = parse_pass_pipeline(spec)
            manager.cache = cache
            manager.run(module)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_lru_eviction_is_bounded(self):
        cache = CompileCache(max_entries=1)
        manager = parse_pass_pipeline(PIPELINE)
        manager.cache = cache
        manager.run(_synthetic_module())
        manager.run(_listing_module())
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_parallel_and_cached_runs_compose(self):
        cache = CompileCache()
        cold, warm, reference = (_synthetic_module(), _synthetic_module(),
                                 _synthetic_module())
        _run(reference, jobs=1)
        _run(cold, jobs=4, cache=cache)
        _run(warm, jobs=4, cache=cache)
        assert cache.stats.hits == 1
        assert Printer().print_module(warm) == \
            Printer().print_module(reference)


class _SiblingMutatingPass(FunctionPass):
    """Deliberately broken: mutates a *sibling* function's body."""

    NAME = "mutate-sibling"

    def run_on_function(self, function, report):
        module = function.parent_op()
        for sibling in module.walk(include_self=False):
            if isinstance(sibling, FuncOp) and sibling is not function:
                sibling.body.append(arith.ConstantOp.build(1, i64()))
                return


class _ModuleMutatingPass(FunctionPass):
    """Deliberately broken: appends to the module block from a worker."""

    NAME = "mutate-module"

    def run_on_function(self, function, report):
        module = function.parent_op()
        module.regions[0].blocks[0].append(
            FuncOp.build("injected", [i64()]))


def _rogue_manager(rogue_pass, jobs):
    manager = PassManager(jobs=jobs)
    manager.nest("func.func").add(rogue_pass)
    return manager


class TestWriteGuard:
    def _run_rogue(self, rogue_pass, jobs):
        manager = _rogue_manager(rogue_pass, jobs)
        try:
            manager.run(_listing_module())
        finally:
            manager.close()

    def test_sibling_mutation_raises_under_jobs(self):
        with pytest.raises(ConcurrentWriteError):
            self._run_rogue(_SiblingMutatingPass(), jobs=2)

    def test_module_mutation_raises_under_jobs(self):
        with pytest.raises(ConcurrentWriteError):
            self._run_rogue(_ModuleMutatingPass(), jobs=2)

    def test_serial_run_is_unguarded(self):
        # jobs=1 keeps the legacy single-writer behaviour: no guard, no
        # error — cross-function mutation is legal in a serial pipeline.
        self._run_rogue(_SiblingMutatingPass(), jobs=1)

    def test_allow_unregistered_threading_opts_out(self):
        Context.allow_unregistered_threading(True)
        try:
            self._run_rogue(_SiblingMutatingPass(), jobs=2)
        finally:
            Context.allow_unregistered_threading(False)
        with pytest.raises(ConcurrentWriteError):
            self._run_rogue(_SiblingMutatingPass(), jobs=2)

    def test_own_function_mutation_is_allowed(self):
        module = _listing_module()
        reference = _listing_module()
        _run(reference, jobs=1)
        _run(module, jobs=4)  # canonicalize/cse/dce mutate freely
        assert Printer().print_module(module) == \
            Printer().print_module(reference)


class _CloningPass(FunctionPass):
    """Clones a region-holding op inside its own function (the
    DetectReduction / LoopInternalization pattern): building the clone
    mutates *detached* IR, which the write guard must permit."""

    NAME = "clone-own-loop"

    def run_on_function(self, function, report):
        for op in function.walk(include_self=False):
            if op.regions and op.parent is not None:
                clone = op.clone({})
                op.parent.insert_after(op, clone)
                clone.erase()
                return


class TestWorkerLocalCloning:
    def test_cloning_region_ops_is_legal_under_jobs(self):
        # Regression: WriteGuard used to reject all mutation of detached
        # IR, so Region.clone_into inside a worker raised.
        manager = PassManager(jobs=2)
        manager.nest("func.func").add(_CloningPass())
        try:
            manager.run(_synthetic_module())
        finally:
            manager.close()

    def test_sycl_mlir_pipeline_with_reduction_listings(self):
        # The paper listing modules exercise the cloning passes
        # (DetectReduction rewrites reduction loops).
        serial, parallel = _listing_module(), _listing_module()
        build_named_pipeline("sycl-mlir").run(serial)
        manager = build_named_pipeline("sycl-mlir", jobs=4)
        try:
            manager.run(parallel)
        finally:
            manager.close()
        assert Printer().print_module(serial) == \
            Printer().print_module(parallel)


class TestCacheInstrumentationBypass:
    def test_cache_not_consulted_while_instrumented(self):
        from repro.transforms import PassInstrumentation

        cache = CompileCache()
        seen = []

        class Probe(PassInstrumentation):
            def run_before_pass(self, pass_, op):
                seen.append(pass_.NAME)

        for _ in range(2):
            manager = parse_pass_pipeline(PIPELINE)
            manager.cache = cache
            manager.add_instrumentation(Probe())
            manager.run(_listing_module())
        # Both runs executed for real (hooks fired twice per pipeline),
        # and the cache was never consulted.
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        assert len(seen) == 2 * len(parse_pass_pipeline(PIPELINE).passes) * 3

    def test_print_ir_after_all_prints_every_segment(self, tmp_path,
                                                     capsys):
        from repro.tools.repro_opt import main as repro_opt

        text = Printer().print_module(
            wrap_in_module(build_listing1_function()[0])) + "\n"
        batch = tmp_path / "batch.mlir"
        batch.write_text(text + "// -----\n" + text, encoding="utf-8")
        rc = repro_opt([str(batch), "--split-input-file",
                        "--passes", "cse", "--print-ir-after-all",
                        "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        dumps = capsys.readouterr().err.count("IR Dump After")
        assert dumps == 2  # one per segment — the hit path would skip one

    def test_instrumented_batch_reports_no_dead_cache(self, tmp_path,
                                                      capsys):
        # --verify-each disables caching; --report must not print a
        # "0 hits, 0 misses" line implying a cache was active.
        from repro.tools.repro_opt import main as repro_opt

        text = Printer().print_module(
            wrap_in_module(build_listing1_function()[0])) + "\n"
        batch = tmp_path / "batch.mlir"
        batch.write_text(text + "// -----\n" + text, encoding="utf-8")
        rc = repro_opt([str(batch), "--split-input-file", "--verify-each",
                        "--passes", "cse", "--report",
                        "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        assert "compile cache" not in capsys.readouterr().err

    def test_hits_never_rewrite_ssa_names_of_later_segments(self,
                                                            tmp_path):
        # Structurally identical segments spelled with different value
        # names must keep their own names in the output, cache or not.
        from repro.tools.repro_opt import main as repro_opt

        first = Printer().print_module(
            wrap_in_module(build_listing1_function()[0])) + "\n"
        second = first.replace("%v1", "%renamed1").replace("%v2",
                                                           "%renamed2")
        assert "%renamed1" in second
        batch = tmp_path / "batch.mlir"
        batch.write_text(first + "// -----\n" + second, encoding="utf-8")
        outputs = {}
        for flag, label in (((), "cached"), (("--no-cache",), "nocache")):
            out = tmp_path / f"{label}.mlir"
            rc = repro_opt([str(batch), "--split-input-file",
                            "--passes", "cse", *flag, "-o", str(out)])
            assert rc == 0
            outputs[label] = out.read_text(encoding="utf-8")
        assert outputs["cached"] == outputs["nocache"]
        cached_segments = outputs["cached"].split("// -----")
        assert "%renamed1" in cached_segments[1]
        assert "%renamed1" not in cached_segments[0]


class TestBatchDriver:
    def test_split_input_file_shares_cache(self, tmp_path, capsys):
        from repro.tools.repro_opt import main as repro_opt

        text = Printer().print_module(_listing_module()) + "\n"
        batch = tmp_path / "batch.mlir"
        batch.write_text(text + "// -----\n" + text, encoding="utf-8")
        out = tmp_path / "out.mlir"
        rc = repro_opt([str(batch), "--split-input-file", "--jobs", "2",
                        "--passes", "canonicalize,cse", "-o", str(out),
                        "--report"])
        assert rc == 0
        stderr = capsys.readouterr().err
        assert "compile cache: 1 hits, 1 misses" in stderr
        segments = [segment for segment in
                    out.read_text(encoding="utf-8").split("// -----")
                    if segment.strip()]
        assert len(segments) == 2
        assert segments[0].strip() == segments[1].strip()

    def test_multiple_inputs_compile_in_order(self, tmp_path):
        from repro.tools.repro_opt import main as repro_opt

        first = tmp_path / "first.mlir"
        second = tmp_path / "second.mlir"
        first.write_text(
            Printer().print_module(
                wrap_in_module(build_listing1_function()[0])) + "\n",
            encoding="utf-8")
        second.write_text(
            Printer().print_module(
                wrap_in_module(build_listing2_function()[0])) + "\n",
            encoding="utf-8")
        out = tmp_path / "out.mlir"
        rc = repro_opt([str(first), str(second), "--passes", "canonicalize",
                        "-o", str(out)])
        assert rc == 0
        content = out.read_text(encoding="utf-8")
        assert content.count("// -----") == 1
        assert content.index('"foo"') < content.index('"non_uniform"')

    def test_single_input_skips_the_cache(self, tmp_path, capsys):
        # One segment can never hit, so the fingerprint + template-clone
        # cost is skipped entirely (no cache line in --report).
        from repro.tools.repro_opt import main as repro_opt

        source = tmp_path / "in.mlir"
        source.write_text(
            Printer().print_module(
                wrap_in_module(build_listing1_function()[0])) + "\n",
            encoding="utf-8")
        rc = repro_opt([str(source), "--passes", "cse", "--report",
                        "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        assert "compile cache" not in capsys.readouterr().err

    def test_jobs_rejects_nonpositive(self, capsys):
        from repro.tools.repro_opt import main as repro_opt

        assert repro_opt(["--jobs", "0", "--passes", "cse"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestReportMerge:
    def test_merge_without_renumbering_sums_same_buckets(self):
        target = CompileReport(timings={"0: canonicalize": 1.0})
        other = CompileReport(timings={"0: canonicalize": 2.0})
        target.merge(other, renumber_timings=False)
        assert target.timings == {"0: canonicalize": 3.0}

    def test_merge_default_still_renumbers(self):
        target = CompileReport(timings={"0: canonicalize": 1.0})
        other = CompileReport(timings={"0: canonicalize": 2.0})
        target.merge(other)
        assert target.timings == {"0: canonicalize": 1.0,
                                  "1: canonicalize": 2.0}
