"""FileCheck-lite tests for the instrumentation-backed ``repro-opt`` flags.

Each flag added by the pass-infrastructure redesign gets a textual
before/after test through the driver: ``--print-ir-before``,
``--print-ir-after``, ``--print-ir-after-all``, ``--verify-each``,
``--dump-pass-pipeline`` and the schema-printing ``--list-passes``.
"""

import re

import pytest

from repro.ir import Printer, parse_module, verify
from repro.tools.repro_opt import main as repro_opt_main

from .filecheck import filecheck
from .helpers import build_listing2_function, wrap_in_module

NESTED_SPEC = ("builtin.module(cse,func.func("
               "canonicalize{max-iterations=10},licm))")
CANONICAL_SPEC = ("builtin.module(cse,func.func("
                  "canonicalize{max-iterations=10},sycl-licm))")


@pytest.fixture
def listing_path(tmp_path):
    function, _ = build_listing2_function()
    path = tmp_path / "input.mlir"
    path.write_text(
        Printer().print_module(wrap_in_module(function)) + "\n",
        encoding="utf-8")
    return path


class TestDumpPassPipeline:
    def test_dump_emits_canonical_spec(self, listing_path, tmp_path, capsys):
        rc = repro_opt_main([
            str(listing_path), "--passes", NESTED_SPEC,
            "--dump-pass-pipeline", "-o", str(tmp_path / "out.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        filecheck(err, f"""
            CHECK: {CANONICAL_SPEC}
        """)

    def test_dumped_spec_is_accepted_back(self, listing_path, tmp_path,
                                          capsys):
        # The acceptance criterion: feed the dumped spec back through the
        # driver and get the same optimized output.
        first = tmp_path / "first.mlir"
        rc = repro_opt_main([str(listing_path), "--passes", NESTED_SPEC,
                             "--dump-pass-pipeline", "-o", str(first)])
        assert rc == 0
        dumped_spec = capsys.readouterr().err.strip().splitlines()[0]
        second = tmp_path / "second.mlir"
        rc = repro_opt_main([str(listing_path), "--passes", dumped_spec,
                             "-o", str(second)])
        assert rc == 0
        assert first.read_text(encoding="utf-8") == \
            second.read_text(encoding="utf-8")


class TestPrintIRFlags:
    def test_print_ir_before_selected_pass(self, listing_path, tmp_path,
                                           capsys):
        rc = repro_opt_main([
            str(listing_path), "--passes", "canonicalize,cse",
            "--print-ir-before", "cse", "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        filecheck(err, """
            CHECK-NOT: IR Dump Before canonicalize
            CHECK: // -----// IR Dump Before cse
            CHECK: "builtin.module"
            CHECK: "func.func"
        """)

    def test_print_ir_after_selected_pass(self, listing_path, tmp_path,
                                          capsys):
        rc = repro_opt_main([
            str(listing_path), "--passes", "canonicalize,cse",
            "--print-ir-after", "canonicalize",
            "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        filecheck(err, """
            CHECK: // -----// IR Dump After canonicalize
            CHECK-NOT: IR Dump After cse
        """)

    def test_print_ir_after_all(self, listing_path, tmp_path, capsys):
        rc = repro_opt_main([
            str(listing_path), "--passes", "canonicalize,cse",
            "--print-ir-after-all", "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        filecheck(err, """
            CHECK: // -----// IR Dump After canonicalize
            CHECK: // -----// IR Dump After cse
        """)

    def test_print_ir_flags_resolve_aliases(self, listing_path, tmp_path,
                                            capsys):
        # `licm` is an alias of sycl-licm; the selector must still match.
        rc = repro_opt_main([
            str(listing_path), "--passes", "func.func(licm)",
            "--print-ir-after", "licm", "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        filecheck(err, """
            CHECK: // -----// IR Dump After sycl-licm
        """)

    def test_print_ir_flags_reject_unknown_pass(self, listing_path, capsys):
        rc = repro_opt_main([
            str(listing_path), "--passes", "cse",
            "--print-ir-before", "frobnicate"])
        assert rc == 2
        assert "unknown pass 'frobnicate'" in capsys.readouterr().err

    def test_function_anchored_dump_shows_function_not_module(
            self, listing_path, tmp_path, capsys):
        rc = repro_opt_main([
            str(listing_path), "--passes", "func.func(canonicalize)",
            "--print-ir-before", "canonicalize",
            "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        filecheck(err, """
            CHECK: // -----// IR Dump Before canonicalize
            CHECK-NOT: "builtin.module"
            CHECK: "func.func"
        """)


class TestVerifyEach:
    def test_verify_each_passes_on_clean_pipeline(self, listing_path,
                                                  tmp_path):
        out = tmp_path / "out.mlir"
        rc = repro_opt_main([str(listing_path), "--passes", NESTED_SPEC,
                             "--verify-each", "-o", str(out)])
        assert rc == 0
        verify(parse_module(out.read_text(encoding="utf-8")))

    def test_verify_each_composes_with_timing(self, listing_path, tmp_path,
                                              capsys):
        rc = repro_opt_main([str(listing_path), "--passes", "canonicalize,cse",
                             "--verify-each", "--timing",
                             "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        # Timing rows are keyed by pipeline position.
        filecheck(err, """
            CHECK: Pass execution timing report
            CHECK: 0: canonicalize
            CHECK: 1: cse
            CHECK: Total
        """)

    def test_timing_adds_one_gc_row_and_leaves_no_hook(self, listing_path,
                                                       tmp_path, capsys):
        import gc

        hooks = list(gc.callbacks)
        rc = repro_opt_main([str(listing_path), "--passes", "canonicalize,cse",
                             "--timing", "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        err = capsys.readouterr().err
        # After the total: collector pauses are inside the rows above.
        filecheck(err, """
            CHECK: 1: cse
            CHECK: Total
            CHECK: gc:
        """)
        assert len(re.findall(
            r"gc: \d+/\d+/\d+ collections \(gen 0/1/2\)", err)) == 1
        assert err.count("gc:") == 1
        assert gc.callbacks == hooks

    def test_no_gc_hook_and_no_gc_row_without_timing(self, listing_path,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        from repro.transforms import GcTiming

        def installed(self):
            raise AssertionError("the gc hook was installed")

        monkeypatch.setattr(GcTiming, "start", installed)
        rc = repro_opt_main([str(listing_path), "--passes", "canonicalize,cse",
                             "--report", "-o", str(tmp_path / "o.mlir")])
        assert rc == 0
        assert "gc:" not in capsys.readouterr().err

    def test_gc_timing_counts_a_forced_collection(self):
        import gc

        from repro.transforms import CompileReport, GcTiming

        report = CompileReport()
        timing = GcTiming().start()
        gc.collect()
        timing.stop(report)
        assert timing.collections[2] >= 1 and timing.pause > 0.0
        (row, seconds), = report.timings.items()
        assert row.startswith("gc: ") and seconds == timing.pause
        gc.collect()  # the hook is gone
        assert report.timings == {row: seconds}


class TestListPasses:
    def test_list_passes_includes_option_schemas(self, capsys):
        assert repro_opt_main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        filecheck(out, """
            CHECK: canonicalize
            CHECK: max-iterations : int = 32
            CHECK: prune-dead : bool = true
            CHECK: licm-generic  (alias of sycl-licm{alias=generic})
            CHECK: sycl-licm
            CHECK: alias : str = sycl (one of: sycl, generic, runtime-checked)
            CHECK: stat: ops_hoisted
        """)


class TestSpecErrors:
    def test_bad_option_reports_offset_and_exits_2(self, listing_path,
                                                   capsys):
        rc = repro_opt_main([str(listing_path), "--passes",
                             "canonicalize{max-iterations=ten}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "expects an integer" in err
        assert "at character" in err

    def test_unknown_pass_reports_offset_and_exits_2(self, listing_path,
                                                     capsys):
        rc = repro_opt_main([str(listing_path), "--passes",
                             "cse,frobnicate"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown pass 'frobnicate'" in err
        assert "at character 4" in err
