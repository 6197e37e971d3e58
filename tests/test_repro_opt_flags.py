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


class TestFrontTier:
    """Plain compiles are answered from the cache's front tier: same
    bytes on stdout and stderr, same exit code, with and without it."""

    FLAG_SETS = [
        [],
        ["--print-locations"],
        ["--no-verify"],
        ["--allow-unregistered"],
    ]

    @pytest.fixture
    def batch_path(self, tmp_path):
        listing = Printer().print_module(
            wrap_in_module(build_listing2_function()[0]))
        other = listing.replace("sym_name = \"", "sym_name = \"other_")
        broken = listing.replace("func.return", "func.retrun", 1)
        path = tmp_path / "batch.mlir"
        # Duplicated segments, a distinct one and one that fails.
        path.write_text("\n// -----\n".join(
            [listing, other, listing, broken, other, listing]) + "\n",
            encoding="utf-8")
        return path

    def _run(self, capsys, argv):
        rc = repro_opt_main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("flags", FLAG_SETS,
                             ids=lambda flags: " ".join(flags) or "plain")
    def test_batches_are_byte_identical_with_and_without_the_cache(
            self, batch_path, tmp_path, capsys, flags):
        argv = [str(batch_path), "--split-input-file",
                "--passes", NESTED_SPEC] + flags
        reference = self._run(capsys, argv + ["--no-cache"])
        # The misspelt terminator fails its segment — unless unregistered
        # operations are allowed, which is why that flag is in the key.
        failed = "--allow-unregistered" not in flags
        assert reference[0] == int(failed)
        assert ("FAILED" in reference[1]) == failed
        assert self._run(capsys, argv) == reference
        # ... and from a primed --cache-dir, cold then warm.
        cached = argv + ["--cache-dir", str(tmp_path / "cache")]
        assert self._run(capsys, cached) == reference
        assert self._run(capsys, cached) == reference

    def test_report_counts_front_hits_on_their_own_line(
            self, batch_path, tmp_path, capsys):
        argv = [str(batch_path), "--split-input-file", "--passes",
                NESTED_SPEC, "--report", "--cache-dir",
                str(tmp_path / "cache")]
        rc, cold_out, cold_err = self._run(capsys, argv)
        assert rc == 1
        # Five good segments, two distinct: 2 compiles, 3 front hits; the
        # broken one is looked up (and fails to parse) every time.
        filecheck(cold_err, """
            CHECK: compile-cache: misses = 2
            CHECK: compile-cache: hits = 3
            CHECK: compile cache: 3 hits, 2 misses, 2 entries
            CHECK: front cache: 3 hits, 3 misses, 2 entries
        """)
        rc, warm_out, warm_err = self._run(capsys, argv)
        assert rc == 1 and warm_out == cold_out
        filecheck(warm_err, """
            CHECK: compile-cache: hits = 5
            CHECK: compile cache: 5 hits, 0 misses, 0 entries
            CHECK: front cache: 5 hits, 1 misses, 2 entries
        """)
        # What a hit reports is what the compile reported.
        statistic = re.compile(r"^  (?!compile-cache)\S+: .* = \d+$", re.M)
        assert statistic.findall(cold_err)
        assert statistic.findall(warm_err) == statistic.findall(cold_err)

    def test_a_warm_process_does_not_parse(self, listing_path, tmp_path,
                                           capsys, monkeypatch):
        argv = [str(listing_path), "--passes", NESTED_SPEC,
                "--cache-dir", str(tmp_path / "cache")]
        reference = self._run(capsys, argv)
        assert reference[0] == 0

        def no_parse(*args, **kwargs):
            raise AssertionError("a front hit never parses")

        monkeypatch.setattr("repro.ir.parse_module", no_parse)
        assert self._run(capsys, argv) == reference
        # Another file name only shows in locations: still a hit
        # without them, a different entry with them.
        renamed = tmp_path / "renamed.mlir"
        renamed.write_text(listing_path.read_text(encoding="utf-8"),
                           encoding="utf-8")
        assert self._run(capsys, [str(renamed)] + argv[1:]) == reference
        with pytest.raises(AssertionError, match="never parses"):
            repro_opt_main([str(renamed)] + argv[1:]
                           + ["--print-locations"])

    @pytest.mark.parametrize("flags", [["--lint"], ["--verify-each"],
                                       ["--print-ir-after-all"]])
    def test_observed_compiles_bypass_the_tier(self, listing_path, tmp_path,
                                               capsys, flags):
        argv = [str(listing_path), "--passes", NESTED_SPEC, "--report",
                "--cache-dir", str(tmp_path / "cache")] + flags
        first = self._run(capsys, argv)
        second = self._run(capsys, argv)
        assert "front cache:" not in first[2] + second[2]
        assert first[:2] == second[:2]


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
