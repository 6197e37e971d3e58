"""The seeded synthetic IR generator (:mod:`repro.testing.generate`)."""

import random

import pytest

from repro.dialects.func import FuncOp
from repro.interp import ExecutionSpec
from repro.interp.differential import run_differential
from repro.ir import Printer, parse_module, verify
from repro.testing.generate import GeneratorConfig, count_ops, generate_module
from repro.transforms.pipelines import parse_pass_pipeline, shipped_pipeline_names

#: Every fodder knob off: ``bench_main`` is a flat run of binary ops.
_PLAIN = dict(num_ops=300, nesting_depth=0, duplicate_density=0.0,
              foldable_density=0.0, dead_density=0.0, chain_density=0.0,
              dead_chain_depth=0, num_kernels=0)


def _functions(module):
    return {op.sym_name: op for op in module.walk(include_self=False)
            if isinstance(op, FuncOp)}


def _main_ops(module):
    return list(_functions(module)["bench_main"].body.operations)


class TestGenerator:
    def test_generated_module_is_valid_and_sized(self):
        config = GeneratorConfig(num_ops=200, num_kernels=2, seed=3)
        module = generate_module(config)
        verify(module)
        assert abs(count_ops(module) - 200) < 60

    def test_generation_is_deterministic(self):
        config = GeneratorConfig(num_ops=120, seed=7)
        first = Printer().print_module(generate_module(config))
        second = Printer().print_module(generate_module(config))
        assert first == second

    def test_generated_module_round_trips(self):
        config = GeneratorConfig(num_ops=100, num_kernels=1)
        text = Printer().print_module(generate_module(config))
        assert Printer().print_module(parse_module(text)) == text

    def test_different_seeds_give_different_modules(self):
        texts = {Printer().print_module(
                     generate_module(GeneratorConfig(num_ops=120, seed=seed)))
                 for seed in range(3)}
        assert len(texts) == 3

    def test_generation_leaves_the_global_random_state_alone(self):
        random.seed(11)
        expected = random.random()
        random.seed(11)
        generate_module(GeneratorConfig(num_ops=120))
        assert random.random() == expected

    def test_count_ops_counts_nested_ops_but_not_the_module(self):
        module = generate_module(GeneratorConfig(**_PLAIN))
        # One func.func plus its flat body (terminator included).
        assert count_ops(module) == 1 + len(_main_ops(module))


class TestShape:
    @pytest.mark.parametrize("num_kernels", (0, 1, 3))
    def test_kernel_count_follows_config(self, num_kernels):
        module = generate_module(GeneratorConfig(num_ops=200,
                                                 num_kernels=num_kernels))
        functions = _functions(module)
        kernels = sorted(name for name, fn in functions.items()
                         if fn.get_attr("sycl.kernel") is not None)
        assert kernels == [f"bench_kernel_{k}" for k in range(num_kernels)]
        assert set(functions) == set(kernels) | {"bench_main"}

    def test_kernels_take_three_accessors_and_a_size(self):
        module = generate_module(GeneratorConfig(num_ops=200))
        kernel = _functions(module)["bench_kernel_0"]
        names = [arg.name_hint for arg in kernel.arguments]
        assert names == ["accA", "accB", "accC", "n"]
        types = [str(arg.type) for arg in kernel.arguments]
        assert types[0] == types[1] == types[2] == "memref<64x64xf32>"
        assert types[3] == "index"

    def test_zero_nesting_depth_emits_no_loops(self):
        module = generate_module(GeneratorConfig(num_ops=400, nesting_depth=0,
                                                 num_kernels=0))
        names = {op.name for op in module.walk(include_self=False)}
        assert "scf.for" not in names

    def test_duplicates_are_the_only_cse_fodder(self):
        def cse_erased(**overrides):
            module = generate_module(GeneratorConfig(**{**_PLAIN, **overrides}))
            before = count_ops(module)
            parse_pass_pipeline("cse").run(module)
            return before - count_ops(module)

        assert cse_erased() == 0
        assert cse_erased(duplicate_density=0.5) > 50

    def test_foldable_density_emits_add_zero_identities(self):
        def zero_constants(**overrides):
            module = generate_module(GeneratorConfig(**{**_PLAIN, **overrides}))
            return sum(1 for op in _main_ops(module)
                       if op.name == "arith.constant"
                       and op.get_attr("value").value == 0)

        assert zero_constants() == 0
        assert zero_constants(foldable_density=0.5) > 20

    def test_dead_density_leaves_binary_op_results_unused(self):
        def unused_share(**overrides):
            ops = [op for op in _main_ops(generate_module(
                       GeneratorConfig(**{**_PLAIN, "chain_density": 1.0,
                                          **overrides})))
                   if op.name in ("arith.addi", "arith.muli", "arith.subi")]
            return sum(not op.result.has_uses() for op in ops) / len(ops)

        # Chained ops feed the next one, so only the last result is unused.
        assert unused_share() < 0.01
        assert unused_share(dead_density=1.0) == 1.0

    def test_dead_chain_depth_emits_a_single_use_addi_chain(self):
        def longest_chain(**overrides):
            ops = _main_ops(generate_module(
                GeneratorConfig(**{**_PLAIN, "num_ops": 2000, **overrides})))
            best = run = 0
            for prev, op in zip(ops, ops[1:]):
                linked = (op.name == prev.name == "arith.addi"
                          and op.operands[0] is prev.result
                          and prev.result.users() == [op])
                run = run + 1 if linked else 0
                best = max(best, run)
            return best

        assert longest_chain() < 8
        assert longest_chain(dead_chain_depth=64) >= 63


class TestGeneratedExecution:
    @pytest.mark.parametrize("pipeline", shipped_pipeline_names())
    def test_equivalent_under_shipped_pipeline(self, pipeline):
        module = generate_module(GeneratorConfig(num_ops=150, num_kernels=2,
                                                 seed=1))
        specs = {f"bench_kernel_{k}": ExecutionSpec(scalars={"n": 4})
                 for k in range(2)}
        report = run_differential(module, pipeline, specs=specs)
        assert report.executed == ["bench_kernel_0", "bench_kernel_1",
                                   "bench_main"]
        assert report.skipped == {}
