"""The compile cache and the batch driver (see ``docs/concurrency.md``).

The contract under test:

* a cache hit splices IR structurally equal to a cold compile and
  replays the cold run's statistics;
* ``repro-opt --jobs N`` compiles a batch on worker processes, and its
  output, statistics and timing rows are those of the serial batch;
* a batch the parent must watch (lint, instrumentation, diagnostics
  verification, exported syntax) compiles serially under any ``--jobs``;
* a merged report sums the same pipeline's statistics and timing
  buckets;
* ``repro-served`` request threads share one analysis manager, each in
  its own per-thread scope.
"""

import multiprocessing
import re
import threading

import pytest

from repro.analysis import (
    AnalysisManager,
    analysis_scope,
    current_analysis_manager,
)
from repro.faults import fault_plan
from repro.ir import DominanceInfo, Printer, parse_module, verify
from repro.testing.generate import GeneratorConfig, generate_module
from repro.tools import repro_lint, repro_run
from repro.transforms import (
    CompileCache,
    CompileReport,
    FunctionPass,
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


def _run(module, cache=None):
    manager = parse_pass_pipeline(PIPELINE)
    manager.cache = cache
    return manager.run(module)


class TestCompileCache:
    def test_hit_is_structurally_equal_to_cold_compile(self):
        cache = CompileCache()
        cold, warm, reference = (_synthetic_module(), _synthetic_module(),
                                 _synthetic_module())
        _run(reference)
        _run(cold, cache=cache)
        _run(warm, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert Printer().print_module(warm) == \
            Printer().print_module(reference)
        assert Printer().print_module(cold) == \
            Printer().print_module(reference)
        verify(warm)

    def test_hit_replays_cold_statistics(self):
        cache = CompileCache()
        cold_report = _run(_synthetic_module(), cache=cache)
        warm_report = _run(_synthetic_module(), cache=cache)
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
        _run(_synthetic_module(), cache=cache)
        warm_report = _run(_synthetic_module(), cache=cache)
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
        rc = repro_opt([str(batch), "--split-input-file",
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

    def test_jobs_compiles_the_batch_on_worker_processes(self, tmp_path,
                                                         capsys):
        from repro.tools.repro_opt import main as repro_opt

        batch = tmp_path / "batch.mlir"
        batch.write_text("// -----\n".join(
            Printer().print_module(wrap_in_module(build()[0])) + "\n"
            for build in (build_listing1_function,
                          build_listing2_function)), encoding="utf-8")
        outputs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.mlir"
            rc = repro_opt([str(batch), "--split-input-file",
                            "--jobs", jobs, "--passes", "canonicalize,cse",
                            "--report", "-o", str(out)])
            assert rc == 0
            outputs[jobs] = (out.read_bytes(), capsys.readouterr().err)
        assert outputs["2"][0] == outputs["1"][0]
        assert "process-tier: segments = 2" in outputs["2"][1]
        assert "process-tier" not in outputs["1"][1]

    def test_jobs_rejects_nonpositive(self, capsys):
        from repro.tools.repro_opt import main as repro_opt

        assert repro_opt(["--jobs", "0", "--passes", "cse"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestReportMerge:
    def test_merge_sums_same_buckets(self):
        target = CompileReport(timings={"0: canonicalize": 1.0})
        other = CompileReport(timings={"0: canonicalize": 2.0})
        target.merge(other)
        assert target.timings == {"0: canonicalize": 3.0}


def _batch_file(tmp_path, modules, name="batch.mlir"):
    """One ``--split-input-file`` batch holding ``modules`` in order."""
    path = tmp_path / name
    path.write_text("// -----\n".join(
        Printer().print_module(module) + "\n" for module in modules),
        encoding="utf-8")
    return path


def _listing_segments():
    return [wrap_in_module(build()[0]) for build in (
        build_listing1_function, build_listing2_function,
        build_listing3_function)]


def _synthetic_segments():
    return [generate_module(GeneratorConfig(num_ops=300, num_kernels=3,
                                            seed=seed))
            for seed in (11, 12)]


def _compile_cli(tmp_path, capsys, inputs, jobs, extra=()):
    """Run ``repro-opt`` on ``inputs`` with ``--jobs jobs``; returns the
    exit code, the output bytes (``None`` when nothing was written) and
    stderr."""
    from repro.tools.repro_opt import main as repro_opt

    out = tmp_path / f"out-jobs{jobs}.mlir"
    rc = repro_opt([str(path) for path in inputs]
                   + ["--jobs", str(jobs), "-o", str(out), *extra])
    written = out.read_bytes() if out.exists() else None
    return rc, written, capsys.readouterr().err


def _pass_lines(err):
    """``--report`` lines a serial and a process batch share: the pass
    statistics and remarks, without the tier's and caches' own."""
    return [line for line in err.splitlines()
            if not re.search(r"process-tier|cache|analysis manager", line)]


def _timing_rows(err):
    """Row names of a ``--timing`` table (the ``gc:`` row only counts the
    parent's collector, so it is left out)."""
    return [line.split(")  ", 1)[1] for line in err.splitlines()
            if re.match(r"^\s+\d+\.\d+ \(\s*[\d.]+%\)  ", line)
            and not line.split(")  ", 1)[1].startswith("gc:")]


class TestProcessBatchDeterminism:
    """``--jobs N`` moves a batch onto worker processes without changing
    a byte of what the serial batch prints or reports."""

    @pytest.mark.parametrize("build_segments",
                             [_listing_segments, _synthetic_segments])
    def test_output_byte_identical_to_serial(self, tmp_path, capsys,
                                             build_segments):
        batch = _batch_file(tmp_path, build_segments())
        extra = ("--split-input-file", "--passes", PIPELINE, "--report")
        rc, serial, serial_err = _compile_cli(tmp_path, capsys, [batch], 1,
                                              extra)
        assert rc == 0, serial_err
        rc, parallel, err = _compile_cli(tmp_path, capsys, [batch], 2,
                                         extra)
        assert rc == 0, err
        assert parallel == serial
        segments = len(build_segments())
        assert f"process-tier: segments = {segments}" in err
        for text in parallel.decode("utf-8").split("// -----\n"):
            verify(parse_module(text))

    def test_statistics_totals_and_order_identical(self, tmp_path, capsys):
        batch = _batch_file(tmp_path, _synthetic_segments())
        extra = ("--split-input-file", "--passes", PIPELINE, "--report")
        _, _, serial_err = _compile_cli(tmp_path, capsys, [batch], 1, extra)
        _, _, err = _compile_cli(tmp_path, capsys, [batch], 2, extra)
        serial_lines = _pass_lines(serial_err)
        assert any(" = " in line for line in serial_lines)
        assert _pass_lines(err) == serial_lines

    def test_timing_rows_identical_to_serial(self, tmp_path, capsys):
        batch = _batch_file(tmp_path, _listing_segments())
        extra = ("--split-input-file", "--passes", PIPELINE, "--timing")
        _, _, serial_err = _compile_cli(tmp_path, capsys, [batch], 1, extra)
        _, _, err = _compile_cli(tmp_path, capsys, [batch], 2, extra)
        rows = _timing_rows(serial_err)
        # Position-keyed: one row per scheduled slot, "N: name".
        assert rows and all(": " in row for row in rows[:-1])
        assert rows[-1] == "Total"
        assert _timing_rows(err) == rows

    @pytest.mark.parametrize("pipeline", ["dpcpp", "sycl-mlir"])
    def test_named_pipeline_matches_serial(self, tmp_path, capsys,
                                           pipeline):
        batch = _batch_file(tmp_path, _listing_segments())
        extra = ("--split-input-file", "--pipeline", pipeline, "--report")
        rc, serial, serial_err = _compile_cli(tmp_path, capsys, [batch], 1,
                                              extra)
        assert rc == 0, serial_err
        rc, parallel, err = _compile_cli(tmp_path, capsys, [batch], 2,
                                         extra)
        assert rc == 0, err
        assert parallel == serial
        assert "process-tier: segments = 3" in err

    def test_several_input_files_keep_input_order(self, tmp_path, capsys):
        inputs = []
        for index, module in enumerate(_listing_segments()):
            inputs.append(_batch_file(tmp_path, [module],
                                      name=f"in{index}.mlir"))
        extra = ("--passes", PIPELINE, "--report")
        rc, serial, _ = _compile_cli(tmp_path, capsys, inputs, 1, extra)
        assert rc == 0
        rc, parallel, err = _compile_cli(tmp_path, capsys, inputs, 2, extra)
        assert rc == 0, err
        assert parallel == serial
        assert "process-tier: segments = 3" in err
        text = parallel.decode("utf-8")
        assert text.index('"foo"') < text.index('"non_uniform"') \
            < text.index('"mem_acc"')


class TestSerialBatchConditions:
    """A batch that something in the parent must watch, or that prints
    through the in-process printer, compiles serially even under
    ``--jobs N``: the process tier is never dispatched."""

    def _serial_and_jobs(self, tmp_path, capsys, extra):
        batch = _batch_file(tmp_path, _listing_segments())
        runs = {}
        for jobs in (1, 2):
            with fault_plan("process-tier.dispatch=transient") as plan:
                runs[jobs] = _compile_cli(
                    tmp_path, capsys, [batch], jobs,
                    ("--split-input-file", *extra))
            assert plan.fires == []
        assert multiprocessing.active_children() == []
        return runs

    @pytest.mark.parametrize("extra", [
        ("--passes", PIPELINE, "--lint"),
        ("--passes", PIPELINE, "--lint-each"),
        ("--passes", PIPELINE, "--verify-each"),
        ("--passes", PIPELINE, "--print-ir-after-all"),
        ("--passes", PIPELINE, "--print-ir-after", "cse"),
        (),
    ], ids=["lint", "lint-each", "verify-each", "print-ir-after-all",
            "print-ir-after", "no-pipeline"])
    def test_batch_compiles_in_process(self, tmp_path, capsys, extra):
        runs = self._serial_and_jobs(tmp_path, capsys, (*extra, "--report"))
        assert runs[2] == runs[1]
        assert "process-tier" not in runs[2][2]

    def test_verify_diagnostics_checks_in_process(self, tmp_path, capsys):
        runs = self._serial_and_jobs(
            tmp_path, capsys,
            ("--passes", PIPELINE, "--verify-diagnostics"))
        assert runs[2] == runs[1] == (0, None, "")


class TestRemovedJobOptions:
    """Only ``repro-opt`` fans out, and only a batch: the other CLIs
    have no ``--jobs``."""

    @pytest.mark.parametrize("tool", [repro_lint, repro_run],
                             ids=["repro-lint", "repro-run"])
    def test_jobs_is_a_usage_error(self, tool, tmp_path, capsys):
        source = _batch_file(tmp_path, _listing_segments()[:1])
        with pytest.raises(SystemExit) as exc:
            tool.main([str(source), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestReportMergeContract:
    def test_merge_sums_statistics_in_first_seen_order(self):
        target = CompileReport()
        target.add_statistic("cse", "erased", 2)
        other = CompileReport()
        other.add_statistic("dce", "erased", 1)
        other.add_statistic("cse", "erased", 3)
        target.merge(other)
        assert [(s.pass_name, s.name, s.value)
                for s in target.statistics] == [("cse", "erased", 5),
                                                ("dce", "erased", 1)]
        assert target.get_statistic("cse", "erased") == 5

    def test_merge_appends_remarks_and_keeps_distinct_buckets(self):
        target = CompileReport(timings={"0: canonicalize": 1.0},
                               remarks=["first"])
        other = CompileReport(timings={"1: cse": 2.0}, remarks=["second"])
        target.merge(other)
        assert target.remarks == ["first", "second"]
        assert target.timings == {"0: canonicalize": 1.0, "1: cse": 2.0}

    def test_cache_miss_report_matches_an_uncached_run(self):
        uncached = _run(_synthetic_module())
        cached = _run(_synthetic_module(), cache=CompileCache())
        assert set(cached.timings) == set(uncached.timings)
        assert [(s.pass_name, s.name, s.value)
                for s in cached.statistics
                if s.pass_name != "compile-cache"] == \
            [(s.pass_name, s.name, s.value) for s in uncached.statistics]


class _DominanceRequest(FunctionPass):
    """Requests DominanceInfo per function through the current manager."""

    NAME = "test-dominance-request"

    def run_on_function(self, function, report):
        self.get_analysis(DominanceInfo, function)


class TestSharedAnalysisManager:
    """The locks kept for ``repro-served``: request threads each run a
    pass manager of their own against one shared analysis manager."""

    def test_each_thread_sees_only_its_own_scope(self):
        managers = [AnalysisManager(), AnalysisManager()]
        inside = threading.Barrier(2)
        seen = {}

        def worker(index):
            with analysis_scope(managers[index]):
                inside.wait(timeout=10)
                seen[index] = current_analysis_manager()
                inside.wait(timeout=10)
            seen[index, "after"] = current_analysis_manager()

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert seen == {0: managers[0], 1: managers[1],
                        (0, "after"): None, (1, "after"): None}
        assert current_analysis_manager() is None

    def test_request_threads_share_one_manager(self):
        def request_manager():
            manager = parse_pass_pipeline(PIPELINE)
            manager.nest("func.func").add(_DominanceRequest())
            return manager

        reference = _listing_module()
        request_manager().run(reference)
        expected = Printer().print_module(reference)
        shared = AnalysisManager()
        printed = [None] * 4
        errors = []

        def request(index):
            try:
                manager = request_manager()
                manager.analysis_manager = shared
                module = _listing_module()
                manager.run(module)
                printed[index] = Printer().print_module(module)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=request, args=(index,))
                   for index in range(len(printed))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert printed == [expected] * len(printed)
        # Every request built the dominance of its own three functions
        # through the one shared manager.
        assert shared.misses == len(printed) * 3
