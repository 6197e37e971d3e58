"""Tests for the ``repro-run`` driver (parse -> optimize -> execute)."""

from pathlib import Path

import pytest

from repro.dialects import builtin
from repro.ir import Printer, index
from repro.tools.repro_run import main as repro_run
from repro.transforms import shipped_pipeline_names

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)


@pytest.fixture
def scalar_module_path(tmp_path):
    # @sum_to(%n: index) -> index, plus a second function so --entry is
    # required.
    from repro.dialects import arith, func, scf
    from repro.ir import Builder, InsertionPoint

    module = builtin.ModuleOp.build("m")
    f = func.FuncOp.build("sum_to", [index()], [index()],
                          arg_names=["n"])
    b = Builder(InsertionPoint.at_end(f.body))
    c0 = b.insert(arith.ConstantOp.build(0, index()))
    c1 = b.insert(arith.ConstantOp.build(1, index()))
    loop = b.insert(scf.ForOp.build(c0.result, f.arguments[0], c1.result,
                                    [c0.result]))
    lb = Builder(InsertionPoint.at_end(loop.body))
    add = lb.insert(arith.AddIOp.build(loop.region_iter_args[0],
                                       loop.induction_variable()))
    lb.insert(scf.YieldOp.build([add.result]))
    b.insert(func.ReturnOp.build([loop.results[0]]))
    module.append(f)
    g = func.FuncOp.build("other", [], [])
    Builder(InsertionPoint.at_end(g.body)).insert(func.ReturnOp.build())
    module.append(g)
    path = tmp_path / "scalars.mlir"
    path.write_text(Printer().print_module(module) + "\n",
                    encoding="utf-8")
    return path


def _gemm_path(tmp_path, work_group):
    module, _ = build_gemm_module(size=8, work_group=work_group)
    path = tmp_path / f"gemm{work_group}.mlir"
    path.write_text(Printer().print_module(module) + "\n",
                    encoding="utf-8")
    return path


@pytest.fixture
def kernel_module_path(tmp_path):
    """The internalizing GEMM: ``sycl-mlir`` tiles it by 8 (local tiles,
    barriers)."""
    return _gemm_path(tmp_path, 8)


@pytest.fixture
def wg4_module_path(tmp_path):
    """The GEMM with work-groups of 4, for the launch-rejection tests."""
    return _gemm_path(tmp_path, 4)


class TestScalarExecution:
    def test_entry_with_named_arg(self, scalar_module_path, capsys):
        rc = repro_run([str(scalar_module_path), "--entry", "sum_to",
                        "--arg", "n=10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "@sum_to" in out
        assert "result[0] = 45" in out

    def test_entry_required_with_two_functions(self, scalar_module_path,
                                               capsys):
        assert repro_run([str(scalar_module_path)]) == 2
        assert "--entry is required" in capsys.readouterr().err

    def test_unknown_entry_lists_candidates(self, scalar_module_path,
                                            capsys):
        assert repro_run([str(scalar_module_path), "--entry", "nope"]) == 2
        err = capsys.readouterr().err
        assert "sum_to" in err and "other" in err

    def test_list_functions(self, scalar_module_path, capsys):
        assert repro_run([str(scalar_module_path),
                          "--list-functions"]) == 0
        out = capsys.readouterr().out
        assert "@sum_to(%n: index) -> (index)" in out
        assert "@other" in out

    def test_buffer_shape_for_scalar_argument_is_rejected(
            self, scalar_module_path, capsys):
        rc = repro_run([str(scalar_module_path), "--entry", "sum_to",
                        "--buffer", "n=2x2"])
        assert rc == 1
        assert "use a scalar value" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mlir"
        bad.write_text("not ir", encoding="utf-8")
        assert repro_run([str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_conflicting_pipeline_flags(self, scalar_module_path, capsys):
        rc = repro_run([str(scalar_module_path), "--entry", "sum_to",
                        "--passes", "cse", "--pipeline", "sycl-mlir"])
        assert rc == 2


class TestKernelExecution:
    ARGS = ["--entry", "gemm", "--global-size", "8x8",
            "--local-size", "8x8", "--buffer", "A=8x8",
            "--buffer", "B=8x8", "--buffer", "C=8x8"]

    def test_launch_and_print_buffers(self, kernel_module_path, capsys):
        rc = repro_run([str(kernel_module_path), *self.ARGS,
                        "--print-buffers"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "@gemm launched over 8x8 (local: 8x8)" in out
        assert "C = [" in out

    def test_pipeline_then_execute(self, kernel_module_path, capsys):
        rc = repro_run([str(kernel_module_path), *self.ARGS,
                        "--pipeline", "sycl-mlir", "--print-buffers"])
        assert rc == 0
        assert "C = [" in capsys.readouterr().out

    def test_cost_report_uses_device_model(self, kernel_module_path,
                                           capsys):
        rc = repro_run([str(kernel_module_path), *self.ARGS,
                        "--cost-report", "--device", "small"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "cost report (device: Unit-test GPU)" in err
        assert "roofline estimate" in err
        assert "-bound" in err

    def test_identical_results_with_and_without_pipeline(
            self, kernel_module_path, capsys):
        # repro-run's synthesized inputs are deterministic, so the
        # optimized and unoptimized executions must print identical
        # buffer contents — the CLI face of the differential harness.
        assert repro_run([str(kernel_module_path), *self.ARGS,
                          "--print-buffers"]) == 0
        plain = capsys.readouterr().out
        assert repro_run([str(kernel_module_path), *self.ARGS,
                          "--pipeline", "sycl-mlir",
                          "--print-buffers"]) == 0
        optimized = capsys.readouterr().out
        assert plain == optimized

    def test_malformed_size_is_usage_error(self, wg4_module_path,
                                           capsys):
        rc = repro_run([str(wg4_module_path), "--entry", "gemm",
                        "--global-size", "4xtwo"])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_misspelled_buffer_name_is_rejected(self, wg4_module_path,
                                                capsys):
        # A typo'd name must not silently fall back to synthesized data.
        rc = repro_run([str(wg4_module_path), "--entry", "gemm",
                        "--global-size", "8x8", "--local-size", "4x4",
                        "--buffer", "a=8x8"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown argument" in err
        assert "A, B, C" in err  # lists the real argument names

    def test_scalar_arg_for_memory_argument_is_rejected(
            self, wg4_module_path, capsys):
        rc = repro_run([str(wg4_module_path), "--entry", "gemm",
                        "--global-size", "8x8", "--local-size", "4x4",
                        "--arg", "A=3"])
        assert rc == 1
        assert "buffer shape" in capsys.readouterr().err

    def test_rank_mismatched_local_size_exits_one(self, wg4_module_path,
                                                  capsys):
        rc = repro_run([str(wg4_module_path), "--entry", "gemm",
                        "--global-size", "8x8", "--local-size", "4"])
        assert rc == 1
        assert "execution failed" in capsys.readouterr().err

    def test_another_local_size_than_the_required_one_exits_one(
            self, wg4_module_path, capsys):
        rc = repro_run([str(wg4_module_path), "--entry", "gemm",
                        "--global-size", "8x8", "--local-size", "2x2",
                        "--pipeline", "sycl-mlir"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "repro-run: execution failed: kernel 'gemm' requires "
            "work-group size 4x4 (sycl.work_group_size), launched with "
            "local size 2x2"]

    def test_step_budget_flag(self, kernel_module_path, capsys):
        rc = repro_run([str(kernel_module_path), *self.ARGS,
                        "--max-steps", "10"])
        assert rc == 1
        assert "step budget" in capsys.readouterr().err


class TestPrintedBuffers:
    """``--print-buffers`` text is parsed by scripts (the e2e benchmark's
    ``cold_cli`` among them): pinned byte for byte.  Float buffers
    (``.6g``, a truncated prefix with its count), 0-d ``i32`` storage."""

    GOLDEN = Path(__file__).parent / "golden"

    @pytest.mark.parametrize("case,argv", [
        ("gemm", ["--entry", "gemm", "--global-size", "8x8",
                  "--local-size", "4x4", "--buffer", "A=8x8",
                  "--buffer", "B=8x8", "--buffer", "C=8x8",
                  "--pipeline", "sycl-mlir"]),
        ("foo", ["--entry", "foo"]),
        ("mem_acc", ["--entry", "mem_acc", "--global-size", "2x2",
                     "--buffer", "acc=3x128x130"]),
    ])
    def test_text_is_pinned(self, tmp_path, capsys, case, argv):
        if case == "gemm":
            module, _ = build_gemm_module(size=8, work_group=4)
        else:
            module = wrap_in_module(*[build()[0] for build in (
                build_listing1_function, build_listing2_function,
                build_listing3_function)])
        path = tmp_path / "in.mlir"
        path.write_text(Printer().print_module(module) + "\n",
                        encoding="utf-8")
        assert repro_run([str(path), *argv, "--print-buffers"]) == 0
        expected = (self.GOLDEN / f"print_buffers_{case}.txt").read_text(
            encoding="utf-8")
        assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# --cache-dir and the cache's front tier
# ---------------------------------------------------------------------------

def _listing_path(tmp_path, name, *functions):
    path = tmp_path / f"{name}.mlir"
    path.write_text(
        Printer().print_module(wrap_in_module(*functions)) + "\n",
        encoding="utf-8")
    return path


def _front_tier_inputs(tmp_path):
    """``name -> (path, execution flags)``: the three paper listings and
    the internalizing GEMM."""
    gemm_path = _gemm_path(tmp_path, 8)
    return {
        "listing1": (_listing_path(tmp_path, "l1",
                                   build_listing1_function()[0]),
                     ["--entry", "foo"]),
        "listing2": (_listing_path(tmp_path, "l2",
                                   build_listing2_function()[0]),
                     ["--global-size", "4x4", "--arg", "idx=3"]),
        "listing3": (_listing_path(tmp_path, "l3",
                                   build_listing3_function()[0]),
                     ["--entry", "mem_acc", "--global-size", "2x2",
                      "--buffer", "acc=3x128x130"]),
        "gemm": (gemm_path, TestKernelExecution.ARGS),
    }


def _run(capsys, argv):
    rc = repro_run([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def spy_cache(monkeypatch):
    """Every ``CompileCache`` the tool builds, in creation order."""
    from repro.transforms import compile_cache

    created = []

    class Recorded(compile_cache.CompileCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(compile_cache, "CompileCache", Recorded)
    return created


class TestFrontTier:
    @pytest.mark.parametrize("tier", ["auto", "interp"])
    @pytest.mark.parametrize("pipeline", shipped_pipeline_names())
    def test_same_bytes_without_a_cache_cold_and_primed(
            self, tmp_path, capsys, spy_cache, pipeline, tier):
        for name, (path, flags) in _front_tier_inputs(tmp_path).items():
            argv = [path, *flags, "--pipeline", pipeline, "--tier", tier,
                    "--print-buffers", "--cost-report"]
            cached = argv + ["--cache-dir", tmp_path / f"cache-{name}"]
            reference = _run(capsys, argv)
            assert reference[0] == 0, (name, reference[2])
            del spy_cache[:]
            assert _run(capsys, cached) == reference, (name, "cold")
            assert _run(capsys, cached) == reference, (name, "primed")
            cold, primed = spy_cache
            assert cold.front.stats.hits == 0
            assert primed.front.stats.hits == 1, name
            assert len(primed) == 0  # no second-level traffic on a hit

    @pytest.mark.parametrize("flags", [["--list-functions"],
                                       ["--entry", "gemm"]])
    def test_listing_and_entry_selection_see_the_recorded_module(
            self, kernel_module_path, tmp_path, capsys, flags):
        argv = [kernel_module_path, *TestKernelExecution.ARGS[2:], *flags,
                "--pipeline", "lower-to-llvm"]
        reference = _run(capsys, argv)
        assert reference[0] == 0 and "gemm" in reference[1]
        cached = argv + ["--cache-dir", tmp_path / "cache"]
        assert _run(capsys, cached) == reference
        assert _run(capsys, cached) == reference

    def test_a_hit_parses_only_the_recorded_text_and_runs_no_pass(
            self, kernel_module_path, tmp_path, capsys, monkeypatch):
        import repro.ir
        from repro.transforms import PassManager

        argv = [kernel_module_path, *TestKernelExecution.ARGS,
                "--pipeline", "sycl-mlir", "--print-buffers",
                "--cache-dir", tmp_path / "cache"]
        reference = _run(capsys, argv)
        assert reference[0] == 0

        parsed = []
        real_parse = repro.ir.parse_module

        def spying_parse(text, *args, **kwargs):
            parsed.append(text)
            return real_parse(text, *args, **kwargs)

        def no_pass(*args, **kwargs):
            raise AssertionError("a front hit runs no pass")

        monkeypatch.setattr("repro.ir.parse_module", spying_parse)
        monkeypatch.setattr(PassManager, "run", no_pass)
        assert _run(capsys, argv) == reference
        (recorded,) = parsed
        assert recorded != kernel_module_path.read_text(encoding="utf-8")
        assert "sycl.work_group_size" in recorded
        assert "sycl.group_barrier" in recorded  # the tiled module

    def test_verify_and_unregistered_flags_never_share_an_entry(
            self, kernel_module_path, tmp_path, capsys, spy_cache):
        from repro.transforms import DiskCache

        root = tmp_path / "cache"
        base = [kernel_module_path, *TestKernelExecution.ARGS,
                "--pipeline", "dpcpp", "--cache-dir", root]
        entries = []
        for extra in ([], ["--no-verify"], ["--allow-unregistered"],
                      ["--no-verify", "--allow-unregistered"]):
            assert _run(capsys, base + extra)[0] == 0
            assert spy_cache[-1].front.stats.hits == 0, extra
            entries.append(len(DiskCache(root)))
        # One second-level entry, then one front entry per combination.
        assert entries == [2, 3, 4, 5]
        for extra in ([], ["--no-verify"]):
            assert _run(capsys, base + extra)[0] == 0
            assert spy_cache[-1].front.stats.hits == 1, extra

    def test_other_tools_front_entries_are_not_taken(
            self, kernel_module_path, tmp_path, capsys, spy_cache):
        from repro.serve import CompileService
        from repro.tools.repro_opt import main as repro_opt
        from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS

        root = tmp_path / "cache"
        text = kernel_module_path.read_text(encoding="utf-8")
        assert repro_opt([str(kernel_module_path), "--pipeline", "sycl-mlir",
                          "--cache-dir", str(root), "-o",
                          str(tmp_path / "out.mlir")]) == 0
        service = CompileService(cache_dir=str(root))
        reply = service.handle(
            {"id": 1, "method": "compile", "ir": text,
             "passes": NAMED_PIPELINE_SPECS["sycl-mlir"]}, lambda _: None)
        assert reply["ok"]
        del spy_cache[:]

        argv = [kernel_module_path, *TestKernelExecution.ARGS,
                "--pipeline", "sycl-mlir", "--print-buffers"]
        reference = _run(capsys, argv)
        assert _run(capsys, argv + ["--cache-dir", root]) == reference
        (cache,) = spy_cache
        # Same text, same spec, another form tag: a front miss; the
        # second level, which all three share, answers from disk.
        assert (cache.front.stats.hits, cache.front.stats.misses) == (0, 1)
        assert (cache.disk.stats.hits, cache.disk.stats.misses) == (1, 1)

    def _prime(self, capsys, argv):
        """Run once, return ``(reference, front key, spec, cache root)``."""
        from repro.transforms import CompileCache
        from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS

        reference = _run(capsys, argv)
        assert reference[0] == 0
        path, pipeline = argv[0], argv[argv.index("--pipeline") + 1]
        spec = NAMED_PIPELINE_SPECS[pipeline]
        key = CompileCache.front_key(
            path.read_text(encoding="utf-8"), spec, "repro-run",
            False, False)
        return reference, key, spec

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: "this is not IR\n",
        # Parses; an op after the terminator does not verify.
        lambda text: text.replace(
            '"func.return"() : () -> ()\n',
            '"func.return"() : () -> ()\n'
            '    "func.return"() : () -> ()\n', 1),
    ], ids=["truncated", "not-ir", "not-verifying"])
    def test_an_unusable_recorded_text_degrades_heals_and_is_counted(
            self, kernel_module_path, tmp_path, capsys, spy_cache, damage):
        from repro.transforms import CompileCache, DiskCache
        from repro.transforms.compile_cache import FRONT_PREFIX

        root = tmp_path / "cache"
        argv = [kernel_module_path, *TestKernelExecution.ARGS,
                "--pipeline", "sycl-mlir", "--print-buffers",
                "--cache-dir", root]
        reference, key, spec = self._prime(capsys, argv)
        disk = DiskCache(root)
        good = disk.load((FRONT_PREFIX + key, spec))
        bad = damage(good["text"])
        assert bad != good["text"]
        # A well-formed entry (its text passes its stored fingerprint)
        # whose text is not the module the key promises.
        assert disk.store((FRONT_PREFIX + key, spec), bad,
                          statistics=good["statistics"],
                          remarks=good["remarks"],
                          preserved_analyses=good["preserved_analyses"],
                          resolved_fingerprint=good["resolved_fingerprint"])
        del spy_cache[:]

        assert _run(capsys, argv) == reference
        (cache,) = spy_cache
        front = cache.describe()["front"]
        assert (front["recovered"], front["hits"]) == (1, 0)
        assert cache.disk.stats.corrupt_recoveries == 1
        # The slow path recorded the entry again.
        healed = CompileCache(disk=DiskCache(root)).front_lookup(key, spec)
        assert healed.text == good["text"]
        assert _run(capsys, argv) == reference
        assert spy_cache[-1].front.stats.hits == 1

    def test_a_corrupt_hit_fault_degrades_heals_and_is_counted(
            self, kernel_module_path, tmp_path, capsys, spy_cache):
        from repro.faults import fault_plan

        argv = [kernel_module_path, *TestKernelExecution.ARGS,
                "--pipeline", "sycl-mlir", "--print-buffers",
                "--cache-dir", tmp_path / "cache"]
        reference, _, _ = self._prime(capsys, argv)
        del spy_cache[:]
        with fault_plan("compile-cache.hit=corrupt"):
            assert _run(capsys, argv) == reference
        (cache,) = spy_cache
        front = cache.describe()["front"]
        assert (front["recovered"], front["hits"]) == (1, 0)
        assert _run(capsys, argv) == reference
        assert spy_cache[-1].front.stats.hits == 1

    @pytest.mark.parametrize("source, message", [
        ('"builtin.module"() ({\n  "arith.nope"() : () -> ()\n}) '
         ': () -> ()\n', "parse error: line 2:28: unknown operation"),
        ('"builtin.module"() ({\n  "func.func"() {function_type = () -> (),'
         ' sym_name = "f"} : () -> () ({\n    "func.return"() : () -> ()\n'
         '    "func.return"() : () -> ()\n  })\n}) : () -> ()\n',
         ":3:5: error: func.return: terminator must be the last"),
    ], ids=["parse-error", "verification-error"])
    def test_a_broken_source_is_never_recorded(
            self, tmp_path, capsys, spy_cache, source, message):
        from repro.transforms import DiskCache

        path = tmp_path / "broken.mlir"
        path.write_text(source, encoding="utf-8")
        root = tmp_path / "cache"
        argv = [path, "--pipeline", "sycl-mlir"]
        reference = _run(capsys, argv)
        assert reference[0] == 1 and message in reference[2]
        for _ in range(2):
            assert _run(capsys, argv + ["--cache-dir", root]) == reference
            assert spy_cache[-1].front.stats.hits == 0
        assert len(DiskCache(root)) == 0

    def test_passes_specs_stay_on_the_second_level(
            self, kernel_module_path, tmp_path, capsys, spy_cache):
        argv = [kernel_module_path, *TestKernelExecution.ARGS,
                "--passes", "canonicalize, cse", "--print-buffers",
                "--cache-dir", tmp_path / "cache"]
        reference = _run(capsys, argv[:-2])
        assert _run(capsys, argv) == reference
        assert _run(capsys, argv) == reference
        cold, warm = spy_cache
        assert (cold.disk.stats.hits, warm.disk.stats.hits) == (0, 1)
        assert warm.front.stats.lookups == 0
