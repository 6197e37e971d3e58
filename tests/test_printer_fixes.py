"""Regression tests for printer naming and successor-label bugs."""

import re

from repro.dialects import arith, builtin
from repro.ir import Block, Operation, Printer, i64


class TestNameCollisions:
    def test_hint_collision_fallback_is_unique(self):
        module = builtin.ModuleOp.build()
        for value in (1, 2, 3):
            op = arith.ConstantOp.build(value, i64())
            op.result.name_hint = "c"
            module.append(op)
        text = Printer().print_module(module)
        defined = re.findall(r"(%[A-Za-z0-9_.$]+) =", text)
        assert len(defined) == 3
        assert len(set(defined)) == 3, f"duplicate SSA names in:\n{text}"

    def test_numeric_hint_does_not_collide_with_anonymous_names(self):
        # A value whose hint prints as %0 must not clash with the first
        # anonymous value (which would also be named %0).
        module = builtin.ModuleOp.build()
        hinted = arith.ConstantOp.build(1, i64())
        hinted.result.name_hint = "0"
        anonymous = arith.ConstantOp.build(2, i64())
        module.append(hinted)
        module.append(anonymous)
        text = Printer().print_module(module)
        defined = re.findall(r"(%[A-Za-z0-9_.$]+) =", text)
        assert len(set(defined)) == 2, f"duplicate SSA names in:\n{text}"

    def test_block_argument_fallback_is_unique(self):
        printer = Printer()
        block_a = Block([i64()])
        block_b = Block([i64()])
        names = {printer.value_name(block_a.arguments[0]),
                 printer.value_name(block_b.arguments[0])}
        assert len(names) == 2


class TestSuccessorLabels:
    def _graph_op(self):
        """An op whose single region has three blocks and a back edge."""
        op = Operation(regions=1)
        region = op.regions[0]
        blocks = [region.add_block(Block()) for _ in range(3)]
        branch = Operation(successors=(blocks[2],))
        blocks[0].append(branch)
        skip = Operation(successors=(blocks[0], blocks[2]))
        blocks[1].append(skip)
        return op, branch, skip

    def test_labels_use_region_block_index(self):
        op, _, _ = self._graph_op()
        text = Printer().print_op_to_string(op)
        # The branch in ^bb0 targets the third block: must print ^bb2, not
        # the successor's position in the successor list (^bb0).
        lines = text.splitlines()
        branch_line = next(l for l in lines if "[" in l)
        assert "[^bb2]" in branch_line

    def test_multiple_successors_print_their_own_indices(self):
        op, _, _ = self._graph_op()
        text = Printer().print_op_to_string(op)
        assert "[^bb0, ^bb2]" in text

    def test_detached_successor_prints_placeholder(self):
        detached = Block()
        branch = Operation(successors=(detached,))
        parent = Operation(regions=1)
        parent.regions[0].add_block(Block()).append(branch)
        assert "^bb?" in Printer().print_op_to_string(parent)

    def test_labelling_a_cfg_scans_each_region_once(self):
        # One branch per block: a linear scan of region.blocks per
        # successor is O(blocks^2); the per-region index reads the block
        # list a constant number of times however many branches there are.
        class CountingList(list):
            iterations = 0

            def __iter__(self):
                CountingList.iterations += 1
                return list.__iter__(self)

        op = Operation(regions=1)
        region = op.regions[0]
        blocks = [region.add_block(Block()) for _ in range(200)]
        for index, block in enumerate(blocks):
            block.append(Operation(
                successors=(blocks[(index + 1) % len(blocks)], blocks[0])))
        region.blocks = CountingList(region.blocks)
        text = Printer().print_op_to_string(op)
        assert CountingList.iterations <= 4
        labels = re.findall(r"\[(\^bb\d+), \^bb0\]", text)
        assert labels == [f"^bb{(i + 1) % 200}" for i in range(200)]

    def test_reused_printer_relabels_after_the_ir_changed(self):
        op, _, _ = self._graph_op()
        printer = Printer()
        assert "[^bb2]" in printer.print_op_to_string(op)
        region = op.regions[0]
        region.blocks.insert(0, region.blocks.pop())  # ^bb2 becomes ^bb0
        # The branch that targeted ^bb2 now targets ^bb0 (and sits in ^bb1).
        assert "[^bb0]" in printer.print_op_to_string(op)
