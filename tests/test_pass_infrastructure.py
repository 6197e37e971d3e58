"""Tests for the nested, options-aware pass-manager infrastructure.

Covers the tentpole properties of the redesign:

* pipeline-spec round trip: ``dump(parse(s)) == dump(parse(dump(parse(s))))``
  for nested + options specs, and parsed pipelines behave exactly like
  hand-built ones;
* typed option parsing (booleans, ints, choices, unknown keys) with
  character-offset diagnostics;
* per-function anchoring: a func-anchored pass runs once per isolated
  function and never observes siblings;
* instrumentation ordering, including ``run_after_failed_verify``;
* position-keyed timing aggregation (duplicate passes stay distinct) and
  the analogous ``CompileReport.merge`` re-keying.
"""

import pytest

from repro.dialects import arith, builtin, func
from repro.ir import Printer, VerificationError, i64, parse_module, verify
from repro.transforms import (
    CSEPass,
    CanonicalizePass,
    CompileReport,
    DCEPass,
    DetectReduction,
    FunctionPass,
    HostDeviceOptimizationPass,
    HostRaisingPass,
    LoopInternalization,
    LoopInvariantCodeMotion,
    OpPassManager,
    PassInstrumentation,
    PassManager,
    PipelineParseError,
    VerifierInstrumentation,
    available_passes,
    build_named_pipeline,
    dump_pass_pipeline,
    lookup_pass,
    parse_pass_pipeline,
    register_pass,
    shipped_pipeline_names,
)
from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS

from .helpers import (
    ABLATIONS,
    ablated,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

LISTING_BUILDERS = (
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
)


def _two_function_module():
    module = builtin.ModuleOp.build()
    for name in ("f", "g"):
        f = func.FuncOp.build(name, [])
        c = arith.ConstantOp.build(7, i64())
        f.body.append(c)
        f.body.append(func.ReturnOp.build())
        module.append(f)
    return module


# ---------------------------------------------------------------------------
# Pipeline-spec round trip
# ---------------------------------------------------------------------------

ROUND_TRIP_SPECS = [
    "canonicalize,cse",
    "builtin.module(cse,func.func(canonicalize{max-iterations=10},licm))",
    "func.func(canonicalize{prune-dead=false},cse)",
    "builtin.module(host-raising,host-device-propagation"
    "{propagate-scalars=false},func.func(licm{alias=generic}))",
    "detect-reduction-generic",
    "builtin.module(func.func(canonicalize,cse,dce),host-raising)",
    "canonicalize{max-iterations=10,prune-dead=false}",
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_dump_parse_round_trip(self, spec):
        once = dump_pass_pipeline(parse_pass_pipeline(spec))
        twice = dump_pass_pipeline(parse_pass_pipeline(once))
        assert once == twice

    def test_dump_is_canonical_for_aliases(self):
        # `licm` is an alias; the dump names the primary pass.
        spec = dump_pass_pipeline(parse_pass_pipeline("licm"))
        assert spec == "builtin.module(sycl-licm)"
        # Preset options of an alias survive the round trip.
        spec = dump_pass_pipeline(parse_pass_pipeline("licm-generic"))
        assert spec == "builtin.module(sycl-licm{alias=generic})"

    def test_flat_and_nested_specs_build_equal_pipelines(self):
        flat = parse_pass_pipeline("canonicalize,cse")
        nested = parse_pass_pipeline("builtin.module(canonicalize,cse)")
        assert dump_pass_pipeline(flat) == dump_pass_pipeline(nested)

    @pytest.mark.parametrize("builder", LISTING_BUILDERS)
    def test_parsed_pipeline_matches_hand_built(self, builder):
        # The acceptance criterion: running the parsed spec on the paper
        # listing modules matches the equivalent hand-built PassManager.
        spec = "builtin.module(cse,func.func(" \
               "canonicalize{max-iterations=10},licm))"
        parsed_module = wrap_in_module(builder()[0])
        hand_module = wrap_in_module(builder()[0])

        parse_pass_pipeline(spec).run(parsed_module)

        pm = PassManager()
        pm.add(CSEPass())
        nested = pm.nest("func.func")
        nested.add(CanonicalizePass(max_iterations=10))
        nested.add(LoopInvariantCodeMotion())
        pm.run(hand_module)

        assert Printer().print_module(parsed_module) == \
            Printer().print_module(hand_module)
        verify(parsed_module)

    @pytest.mark.parametrize("builder", LISTING_BUILDERS)
    def test_sycl_mlir_pipeline_round_trips_and_matches(self, builder):
        pipeline = build_named_pipeline("sycl-mlir")
        spec = dump_pass_pipeline(pipeline)
        assert dump_pass_pipeline(parse_pass_pipeline(spec)) == spec

        direct = wrap_in_module(builder()[0])
        reparsed = wrap_in_module(builder()[0])
        pipeline.run(direct)
        parse_pass_pipeline(spec).run(reparsed)
        assert Printer().print_module(direct) == \
            Printer().print_module(reparsed)


# ---------------------------------------------------------------------------
# Named pipelines: built from their spec, one pass instance per manager
# ---------------------------------------------------------------------------

#: ``sycl-mlir`` with each ablation's passes left out, as the option-driven
#: builder the spec table replaced dumped them.
ABLATED_SYCL_MLIR = {
    "licm":
        "builtin.module(func.func(canonicalize,cse,mem2reg),host-raising,"
        "host-device-propagation,func.func(canonicalize,"
        "loop-internalization,detect-reduction,lower-sycl-accessors,"
        "canonicalize,cse,dce))",
    "detect_reduction":
        "builtin.module(func.func(canonicalize,cse,mem2reg),host-raising,"
        "host-device-propagation,func.func(canonicalize,"
        "loop-internalization,sycl-licm,lower-sycl-accessors,canonicalize,"
        "cse,sycl-licm,dce))",
    "loop_internalization":
        "builtin.module(func.func(canonicalize,cse,mem2reg),host-raising,"
        "host-device-propagation,func.func(canonicalize,sycl-licm,"
        "detect-reduction,lower-sycl-accessors,canonicalize,cse,sycl-licm,"
        "dce))",
    "host_device_propagation":
        "builtin.module(func.func(canonicalize,cse,mem2reg),host-raising,"
        "func.func(canonicalize,loop-internalization,sycl-licm,"
        "detect-reduction,lower-sycl-accessors,canonicalize,cse,sycl-licm,"
        "dce))",
    "host_raising":
        "builtin.module(func.func(canonicalize,cse,mem2reg),"
        "host-device-propagation,func.func(canonicalize,"
        "loop-internalization,sycl-licm,detect-reduction,"
        "lower-sycl-accessors,canonicalize,cse,sycl-licm,dce))",
    "canonicalize":
        "builtin.module(func.func(mem2reg),host-raising,"
        "host-device-propagation,func.func(loop-internalization,sycl-licm,"
        "detect-reduction,lower-sycl-accessors,sycl-licm))",
    "all_disabled":
        "builtin.module(func.func(canonicalize,cse,mem2reg),"
        "func.func(canonicalize,lower-sycl-accessors,canonicalize,cse,dce))",
}


class TestNamedPipelines:
    def test_ablations_dump_as_recorded(self):
        assert {ablation: dump_pass_pipeline(ablated("sycl-mlir", drop))
                for ablation, drop in ABLATIONS.items()} == ABLATED_SYCL_MLIR

    def test_built_pipelines_share_no_pass(self):
        for name in shipped_pipeline_names():
            first = build_named_pipeline(name)
            second = build_named_pipeline(name)
            owned = {id(obj) for pass_ in first.passes
                     for obj in (pass_, pass_.options)}
            assert not owned & {id(obj) for pass_ in second.passes
                                for obj in (pass_, pass_.options)}, name
            for pass_ in first.passes:
                for option in vars(pass_.options):
                    setattr(pass_.options, option, None)
            assert dump_pass_pipeline(second) == NAMED_PIPELINE_SPECS[name]
        module = wrap_in_module(*[b()[0] for b in LISTING_BUILDERS])
        first, second = (build_named_pipeline("sycl-mlir") for _ in "ab")
        first.run(module)
        assert dump_pass_pipeline(second) == NAMED_PIPELINE_SPECS["sycl-mlir"]
        assert dump_pass_pipeline(build_named_pipeline("sycl-mlir")) == \
            NAMED_PIPELINE_SPECS["sycl-mlir"]

    def test_licm_keeps_its_alias_analysis_out_of_the_manager(self):
        # The alias analyses are stateless: each pass builds its own from
        # its ``alias=`` option instead of fetching (and fingerprinting)
        # one through the analysis manager.
        module = wrap_in_module(build_listing3_function()[0])
        manager = parse_pass_pipeline("builtin.module(func.func(sycl-licm))")
        report = manager.run(module)
        assert report.get_statistic("sycl-licm", "ops_hoisted") > 0
        assert not [name for name in manager.analysis_manager.preserved_names()
                    if name.endswith("AliasAnalysis")]
        assert manager.analysis_manager.describe()["misses"] == 0


# ---------------------------------------------------------------------------
# Option parsing
# ---------------------------------------------------------------------------

class TestOptionParsing:
    @pytest.mark.parametrize("text, expected", [
        ("true", True), ("True", True), ("1", True),
        ("false", False), ("False", False), ("0", False),
    ])
    def test_boolean_spellings(self, text, expected):
        manager = parse_pass_pipeline(f"canonicalize{{prune-dead={text}}}")
        assert manager.passes[0].options.prune_dead is expected

    def test_integer_option(self):
        manager = parse_pass_pipeline("canonicalize{max-iterations=7}")
        assert manager.passes[0].options.max_iterations == 7

    def test_bad_boolean_is_an_error_with_offset(self):
        with pytest.raises(PipelineParseError,
                           match=r"expects a boolean.*at character 24"):
            parse_pass_pipeline("canonicalize{prune-dead=maybe}")

    def test_bad_integer_is_an_error(self):
        with pytest.raises(PipelineParseError, match="expects an integer"):
            parse_pass_pipeline("canonicalize{max-iterations=ten}")

    def test_unknown_option_key_is_an_error(self):
        with pytest.raises(PipelineParseError,
                           match=r"unknown option 'frobnicate' for pass "
                                 r"'canonicalize'.*available options: "
                                 r"max-iterations, prune-dead"):
            parse_pass_pipeline("canonicalize{frobnicate=1}")

    def test_choice_option_rejects_unknown_value(self):
        with pytest.raises(PipelineParseError,
                           match="expects one of sycl, generic"):
            parse_pass_pipeline("licm{alias=psychic}")

    def test_unknown_pass_reports_token_and_offset(self):
        with pytest.raises(PipelineParseError,
                           match=r"unknown pass 'frobnicate'.*available "
                                 r"passes.*at character 13"):
            parse_pass_pipeline("canonicalize,frobnicate")

    def test_unterminated_option_block(self):
        with pytest.raises(PipelineParseError,
                           match=r"expected ',' or '}' .* got end of spec"):
            parse_pass_pipeline("canonicalize{max-iterations=3")

    def test_pass_does_not_take_nested_pipeline(self):
        with pytest.raises(PipelineParseError,
                           match="pass 'cse' does not take a nested"):
            parse_pass_pipeline("cse(canonicalize)")

    def test_unknown_anchor(self):
        with pytest.raises(PipelineParseError,
                           match="unknown pipeline anchor 'spirv.module'"):
            parse_pass_pipeline("spirv.module(cse)")

    def test_module_pass_cannot_nest_under_function(self):
        with pytest.raises(PipelineParseError,
                           match="cannot schedule pass 'host-raising'"):
            parse_pass_pipeline("func.func(host-raising)")

    def test_empty_nested_pipeline_is_an_error(self):
        with pytest.raises(PipelineParseError, match="empty pass pipeline"):
            parse_pass_pipeline("builtin.module(cse,func.func())")

    def test_missing_comma_between_options_is_an_error(self):
        with pytest.raises(PipelineParseError,
                           match=r"expected ',' or '}' after an option"):
            parse_pass_pipeline(
                "canonicalize{max-iterations=10 prune-dead=false}")

    def test_trailing_comma_in_option_block_is_an_error(self):
        with pytest.raises(PipelineParseError, match="trailing ','"):
            parse_pass_pipeline("canonicalize{max-iterations=10,}")

    def test_resolve_pass_name_resolves_aliases(self):
        from repro.transforms import resolve_pass_name

        assert resolve_pass_name("licm") == "sycl-licm"
        assert resolve_pass_name("cse") == "cse"
        with pytest.raises(ValueError, match="available passes"):
            resolve_pass_name("nope")

    def test_programmatic_option_overrides(self):
        pass_ = CanonicalizePass(max_iterations=5)
        assert pass_.to_spec() == "canonicalize{max-iterations=5}"
        assert CanonicalizePass().to_spec() == "canonicalize"

    def test_prune_dead_option_changes_behaviour(self):
        text = ('"builtin.module"() : () -> () ({\n'
                '  "func.func"() {sym_name = "f", function_type = () -> ()} '
                ': () -> () ({\n'
                '    %a = "arith.constant"() {value = 1 : i64} : () -> (i64)\n'
                '    "func.return"() : () -> ()\n'
                '  })\n'
                '})')

        kept = parse_module(text)
        parse_pass_pipeline("canonicalize{prune-dead=false}").run(kept)
        assert any(op.name == "arith.constant"
                   for op in kept.walk())

        pruned = parse_module(text)
        parse_pass_pipeline("canonicalize").run(pruned)
        assert not any(op.name == "arith.constant"
                       for op in pruned.walk())


# ---------------------------------------------------------------------------
# Nesting and anchoring
# ---------------------------------------------------------------------------

class _SpyPass(FunctionPass):
    """Records the ops each invocation can observe."""

    NAME = "spy"

    def __init__(self):
        super().__init__()
        self.seen_roots = []
        self.seen_functions = []

    def run(self, op, report):
        self.seen_roots.append(op.name)
        super().run(op, report)

    def run_on_function(self, function, report):
        visible = sorted({o.sym_name for o in function.walk()
                          if isinstance(o, func.FuncOp)})
        self.seen_functions.append((function.sym_name, visible))


class TestAnchoring:
    def test_function_anchored_pass_runs_per_isolated_function(self):
        module = _two_function_module()
        spy = _SpyPass()
        pm = PassManager()
        pm.nest("func.func").add(spy)
        pm.run(module)
        # Two invocations, each rooted at one function, each seeing only
        # that function — never a sibling.
        assert spy.seen_roots == ["func.func", "func.func"]
        assert spy.seen_functions == [("f", ["f"]), ("g", ["g"])]

    def test_module_scheduled_function_pass_iterates_itself(self):
        module = _two_function_module()
        spy = _SpyPass()
        PassManager([spy]).run(module)
        # Legacy flat scheduling: one invocation rooted at the module.
        assert spy.seen_roots == ["builtin.module"]
        assert [name for name, _ in spy.seen_functions] == ["f", "g"]

    def test_add_rejects_incompatible_anchor(self):
        pm = PassManager()
        nested = pm.nest("func.func")
        with pytest.raises(ValueError, match="cannot schedule"):
            nested.add(HostRaisingPass())

    def test_nest_rejects_module_under_function(self):
        nested = PassManager().nest("func.func")
        with pytest.raises(ValueError, match="cannot nest"):
            nested.nest("builtin.module")

    def test_unknown_anchor_is_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline anchor"):
            PassManager().nest("gpu.module")
        with pytest.raises(ValueError, match="unknown pipeline anchor"):
            OpPassManager("gpu.module")

    def test_flattened_passes_view_and_len(self):
        pm = PassManager([CSEPass()])
        pm.nest("func.func").add(CanonicalizePass()).add(DCEPass())
        assert [p.NAME for p in pm.passes] == ["cse", "canonicalize", "dce"]
        assert len(pm) == 3


def _walked_anchors(root, anchor):
    """The anchors a walk over every op under ``root`` finds."""
    if root.name == anchor:
        return [root]
    return [op for op in root.walk(include_self=False) if op.name == anchor]


class TestAnchorsInSymbolTables:
    """Anchors are found in ``root`` and its symbol tables only; a
    function body is never looked into."""

    def _host_module(self):
        from .test_late_lowering import _host_device_module

        return _host_device_module()[0]

    def test_nested_module_kernels_are_anchored(self):
        module = self._host_module()
        anchors = PassManager._anchored_ops(module, "func.func")
        assert [op.sym_name for op in anchors] == ["gemm_k"]
        assert anchors[0].parent_op().name == "builtin.module"
        assert anchors[0].parent_op() is not module
        assert anchors == _walked_anchors(module, "func.func")
        nested = PassManager._anchored_ops(module, "builtin.module")
        assert nested == _walked_anchors(module, "builtin.module")
        assert len(nested) == 1

    def test_a_nested_pipeline_runs_on_the_nested_kernels(self):
        module = wrap_in_module(build_listing1_function()[0])
        kernels = builtin.ModuleOp.build("kernels")
        kernels.append(build_listing3_function()[0])
        module.append(kernels)
        spy = _SpyPass()
        pm = PassManager()
        pm.nest("func.func").add(spy)
        pm.run(module)
        assert [name for name, _ in spy.seen_functions] == [
            op.sym_name for op in _walked_anchors(module, "func.func")]
        assert len(spy.seen_functions) == 2

    def test_only_symbol_tables_are_listed(self, monkeypatch):
        from repro.ir import Block

        listed = []
        operations = Block.operations.fget

        def recording(block):
            listed.append(block.parent_op().name)
            return operations(block)

        module = self._host_module()
        monkeypatch.setattr(Block, "operations", property(recording))
        PassManager._anchored_ops(module, "func.func")
        assert listed == ["builtin.module", "builtin.module"]

    @pytest.mark.parametrize("pipeline", ["sycl-mlir", "dpcpp"])
    def test_outputs_match_anchoring_by_walk(self, pipeline, monkeypatch):
        outputs = []
        for by_walk in (False, True):
            if by_walk:
                monkeypatch.setattr(PassManager, "_anchored_ops",
                                    staticmethod(_walked_anchors))
            module = self._host_module()
            report = CompileReport()
            build_named_pipeline(pipeline).run(module, report=report)
            build_named_pipeline("lower-to-llvm").run(module, report=report)
            outputs.append((Printer().print_module(module),
                            sorted((s.pass_name, s.name, s.value)
                                   for s in report.statistics),
                            report.remarks))
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

class _Recorder(PassInstrumentation):
    def __init__(self, label, log):
        self.label = label
        self.log = log

    def run_before_pipeline(self, op):
        self.log.append(f"{self.label}.before_pipeline")

    def run_after_pipeline(self, op):
        self.log.append(f"{self.label}.after_pipeline")

    def run_before_pass(self, pass_, op):
        self.log.append(f"{self.label}.before:{pass_.NAME}")

    def run_after_pass(self, pass_, op):
        self.log.append(f"{self.label}.after:{pass_.NAME}")

    def run_after_failed_verify(self, pass_, op, error):
        self.log.append(f"{self.label}.failed_verify:{pass_.NAME}")


class _BreakIRPass(FunctionPass):
    """Appends a second terminator, invalidating the function."""

    NAME = "break-ir"

    def run_on_function(self, function, report):
        function.body.append(func.ReturnOp.build())


class TestInstrumentation:
    def test_hooks_nest_like_a_stack(self):
        log = []
        pm = PassManager([CanonicalizePass(), CSEPass()])
        pm.add_instrumentation(_Recorder("A", log))
        pm.add_instrumentation(_Recorder("B", log))
        pm.run(_two_function_module())
        assert log == [
            "A.before_pipeline", "B.before_pipeline",
            "A.before:canonicalize", "B.before:canonicalize",
            "B.after:canonicalize", "A.after:canonicalize",
            "A.before:cse", "B.before:cse",
            "B.after:cse", "A.after:cse",
            "B.after_pipeline", "A.after_pipeline",
        ]

    def test_verifier_instrumentation_raises_and_notifies(self):
        log = []
        pm = PassManager([_BreakIRPass()])
        pm.add_instrumentation(_Recorder("A", log))
        pm.add_instrumentation(VerifierInstrumentation())
        with pytest.raises(VerificationError):
            pm.run(_two_function_module())
        assert "A.failed_verify:break-ir" in log

    def test_verify_after_each_legacy_flag_still_works(self):
        pm = PassManager([_BreakIRPass()], verify_after_each=True)
        with pytest.raises(VerificationError):
            pm.run(_two_function_module())
        # A clean pipeline under the same flag is fine.
        PassManager([CanonicalizePass()],
                    verify_after_each=True).run(_two_function_module())

    def test_after_pipeline_hooks_run_when_a_pass_fails_verification(self):
        log = []
        pm = PassManager([_BreakIRPass()], verify_after_each=True)
        pm.add_instrumentation(_Recorder("A", log))
        with pytest.raises(VerificationError):
            pm.run(_two_function_module())
        # Teardown hooks still fire so resources opened in
        # run_before_pipeline are not leaked.
        assert "A.after_pipeline" in log

    def test_ir_printing_dumps_the_ir_a_pass_broke(self):
        import io

        from repro.transforms import IRPrintingInstrumentation

        stream = io.StringIO()
        pm = PassManager([_BreakIRPass()], verify_after_each=True)
        pm.add_instrumentation(IRPrintingInstrumentation(stream=stream))
        with pytest.raises(VerificationError):
            pm.run(_two_function_module())
        dump = stream.getvalue()
        assert dump.startswith("// -----// IR Dump After Failed Verify of "
                               "break-ir")
        assert dump.count('"func.return"') >= 2

    def test_ir_printing_selectors_accept_false(self):
        from repro.transforms import IRPrintingInstrumentation

        instrumentation = IRPrintingInstrumentation(print_before=True,
                                                    print_after=False)
        assert instrumentation.print_after == frozenset()

    def test_function_anchored_instrumentation_sees_function_roots(self):
        log = []
        pm = PassManager()
        pm.nest("func.func").add(CanonicalizePass())
        roots = []

        class _RootRecorder(PassInstrumentation):
            def run_before_pass(self, pass_, op):
                roots.append(op.name)

        pm.add_instrumentation(_RootRecorder())
        pm.run(_two_function_module())
        assert roots == ["func.func", "func.func"]
        assert log == []


# ---------------------------------------------------------------------------
# Timing aggregation
# ---------------------------------------------------------------------------

class TestTiming:
    def test_duplicate_passes_get_distinct_buckets(self):
        pm = PassManager([CanonicalizePass(), CSEPass(), CanonicalizePass()])
        report = pm.run(_two_function_module())
        keys = sorted(report.timings)
        assert keys == ["0: canonicalize", "1: cse", "2: canonicalize"]

    def test_nested_runs_aggregate_under_one_position(self):
        pm = PassManager()
        pm.nest("func.func").add(CanonicalizePass()).add(CSEPass())
        report = pm.run(_two_function_module())
        # Two functions ran through each pass, but each pass occupies one
        # pipeline position.
        assert sorted(report.timings) == ["0: canonicalize", "1: cse"]

    def test_merge_into_empty_report_keeps_positions(self):
        report = CompileReport()
        report.merge(CompileReport(timings={"0: cse": 1.0}))
        assert report.timings == {"0: cse": 1.0}

    def test_shared_pass_instance_keeps_per_slot_buckets(self):
        # Positions are keyed by pipeline slot, not by pass object, so one
        # instance scheduled twice still reports two distinct buckets.
        shared = CanonicalizePass()
        pm = PassManager([shared, CSEPass(), shared])
        report = pm.run(_two_function_module())
        assert sorted(report.timings) == \
            ["0: canonicalize", "1: cse", "2: canonicalize"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_duplicate_registration_is_an_error(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_pass
            class _Clash(FunctionPass):  # noqa: F841
                NAME = "canonicalize"

                def run_on_function(self, function, report):
                    pass

    def test_lookup_and_build(self):
        registration = lookup_pass("canonicalize")
        assert registration is not None
        pass_ = registration.build({"max_iterations": 3})
        assert pass_.options.max_iterations == 3

    def test_alias_registrations_point_at_primaries(self):
        generic = lookup_pass("licm-generic")
        assert generic.alias_of == "sycl-licm"
        built = generic.build()
        assert built.options.alias == "generic"

    def test_paper_pass_names_are_registered(self):
        names = available_passes()
        for expected in ("canonicalize", "cse", "dce", "licm",
                         "detect-reduction", "loop-internalization",
                         "host-raising", "lower-sycl-accessors",
                         "host-device-propagation", "sycl-licm"):
            assert expected in names

    @pytest.mark.parametrize("name", sorted(
        n for n in available_passes()))
    def test_every_registered_pass_runs_standalone(self, name):
        # The CI smoke matrix in miniature: each registered pass runs on a
        # combined listing module and leaves verifiable IR behind.
        module = wrap_in_module(*[b()[0] for b in LISTING_BUILDERS])
        parse_pass_pipeline(name).run(module)
        verify(module)


# ---------------------------------------------------------------------------
# Declared metadata
# ---------------------------------------------------------------------------

class TestDeclaredMetadata:
    @pytest.mark.parametrize("pass_class", [
        CanonicalizePass, CSEPass, DCEPass, DetectReduction,
        HostDeviceOptimizationPass, HostRaisingPass, LoopInternalization,
        LoopInvariantCodeMotion,
    ])
    def test_statistics_are_declared(self, pass_class):
        assert pass_class.STATISTICS, \
            f"{pass_class.__name__} declares no statistics"
        for name, description in pass_class.STATISTICS:
            assert name and description

    def test_anchors(self):
        assert CanonicalizePass.ANCHOR == "func.func"
        assert HostRaisingPass.ANCHOR == "builtin.module"
        assert HostDeviceOptimizationPass.ANCHOR == "builtin.module"

    def test_reported_statistics_are_declared(self):
        # Statistics reported on a real run are a subset of the declared
        # schema (the schema is what --list-passes advertises).
        module = wrap_in_module(*[b()[0] for b in LISTING_BUILDERS])
        report = build_named_pipeline("sycl-mlir").run(module)
        declared = {}
        for name in available_passes():
            registration = lookup_pass(name)
            declared.setdefault(registration.pass_class.NAME, set()).update(
                stat for stat, _ in registration.pass_class.STATISTICS)
        for stat in report.statistics:
            assert stat.name in declared.get(stat.pass_name, set()), \
                f"undeclared statistic {stat.pass_name}.{stat.name}"
