"""Invariants of the intrusive linked-list operation storage.

The linked list must behave observably like the list it replaced:
``move_before``/``move_after``/``erase``/``insert_before``/``insert_after``
preserve iteration order, ``walk()`` stays safe when the current (or a
nested) operation is erased mid-iteration, and ordering queries
(``is_before_in_block``/``block_index``) stay correct through arbitrary
mutation, including the order-key renumbering path.
"""

import pytest

from repro.dialects import arith, builtin, scf
from repro.ir import Block, IRError, Region, i64, index
from repro.ir.values import Use


def _constants(n):
    """A detached block with n constant ops valued 0..n-1."""
    block = Block()
    ops = [block.append(arith.ConstantOp.build(i, i64())) for i in range(n)]
    return block, ops


def _values(block):
    return [op.get_int_attr("value") for op in block]


class TestLinkedListStructure:
    def test_append_order_and_len(self):
        block, ops = _constants(5)
        assert _values(block) == [0, 1, 2, 3, 4]
        assert len(block) == 5
        assert block.first_op is ops[0]
        assert block.last_op is ops[4]

    def test_operations_view_is_a_snapshot(self):
        block, ops = _constants(3)
        view = block.operations
        view.reverse()  # mutating the view must not affect the block
        assert _values(block) == [0, 1, 2]

    def test_insert_before_and_after(self):
        block, ops = _constants(3)
        block.insert_before(ops[0], arith.ConstantOp.build(10, i64()))
        block.insert_after(ops[2], arith.ConstantOp.build(11, i64()))
        block.insert_before(ops[1], arith.ConstantOp.build(12, i64()))
        block.insert_after(ops[1], arith.ConstantOp.build(13, i64()))
        assert _values(block) == [10, 0, 12, 1, 13, 2, 11]

    def test_insert_at_index_matches_list_semantics(self):
        block, _ = _constants(3)
        block.insert(0, arith.ConstantOp.build(20, i64()))
        block.insert(2, arith.ConstantOp.build(21, i64()))
        block.insert(99, arith.ConstantOp.build(22, i64()))
        assert _values(block) == [20, 0, 21, 1, 2, 22]

    def test_insert_before_self_is_a_noop(self):
        block, ops = _constants(3)
        assert block.insert_before(ops[1], ops[1]) is ops[1]
        ops[1].move_before(ops[1])
        assert _values(block) == [0, 1, 2]
        assert block.last_op is ops[2]

    def test_insert_with_foreign_anchor_is_rejected(self):
        block_a, ops_a = _constants(2)
        block_b, _ = _constants(1)
        with pytest.raises(IRError, match="anchor"):
            block_b.insert_before(ops_a[0], arith.ConstantOp.build(9, i64()))

    def test_detach_relinks_neighbours(self):
        block, ops = _constants(3)
        ops[1].detach()
        assert _values(block) == [0, 2]
        assert ops[1].parent is None
        assert ops[0].next_op() is ops[2]
        assert ops[2].prev_op() is ops[0]
        # A detached op can be re-appended.
        block.append(ops[1])
        assert _values(block) == [0, 2, 1]

    def test_erase_first_middle_last(self):
        block, ops = _constants(5)
        ops[0].erase()
        ops[2].erase()
        ops[4].erase()
        assert _values(block) == [1, 3]
        assert block.first_op is ops[1]
        assert block.last_op is ops[3]

    def test_move_before_and_after_preserve_order(self):
        block, ops = _constants(4)
        ops[3].move_before(ops[0])
        assert _values(block) == [3, 0, 1, 2]
        ops[0].move_after(ops[2])
        assert _values(block) == [3, 1, 2, 0]
        # Moving within the same neighbourhood.
        ops[1].move_after(ops[1].next_op())
        assert _values(block) == [3, 2, 1, 0]

    def test_move_between_blocks(self):
        block_a, ops_a = _constants(3)
        block_b, ops_b = _constants(2)
        ops_a[1].move_before(ops_b[1])
        assert _values(block_a) == [0, 2]
        assert _values(block_b) == [0, 1, 1]
        assert ops_a[1].parent is block_b


class TestOrderingQueries:
    def test_is_before_in_block(self):
        block, ops = _constants(4)
        assert ops[0].is_before_in_block(ops[3])
        assert not ops[3].is_before_in_block(ops[0])
        assert not ops[2].is_before_in_block(ops[2])

    def test_is_before_requires_same_block(self):
        block_a, ops_a = _constants(1)
        block_b, ops_b = _constants(1)
        with pytest.raises(IRError):
            ops_a[0].is_before_in_block(ops_b[0])

    def test_block_index_tracks_mutation(self):
        block, ops = _constants(4)
        assert [op.block_index() for op in ops] == [0, 1, 2, 3]
        ops[0].erase()
        assert ops[2].block_index() == 1
        block.insert_before(ops[1], arith.ConstantOp.build(7, i64()))
        assert ops[1].block_index() == 1
        assert ops[3].block_index() == 3

    def test_block_index_rejects_detached_op(self):
        block, ops = _constants(2)
        detached = ops[0].detach()
        with pytest.raises(IRError):
            detached.block_index()

    def test_order_survives_repeated_insertion_at_same_point(self):
        # Bisecting the same gap repeatedly exhausts it and forces the
        # renumbering path; ordering must stay exact throughout.
        block, ops = _constants(2)
        anchor = ops[1]
        previous = ops[0]
        for i in range(200):
            inserted = block.insert_before(anchor, arith.ConstantOp.build(
                100 + i, i64()))
            assert previous.is_before_in_block(inserted)
            assert inserted.is_before_in_block(anchor)
            anchor = inserted
        values = _values(block)
        assert values[0] == 0 and values[-1] == 1
        assert values[1:-1] == list(range(100 + 199, 100 - 1, -1))


class TestWalkUnderErasure:
    def _nested_module(self):
        module = builtin.ModuleOp.build()
        c0 = module.append(arith.ConstantOp.build(0, index()))
        c8 = module.append(arith.ConstantOp.build(8, index()))
        c1 = module.append(arith.ConstantOp.build(1, index()))
        loop = module.append(scf.ForOp.build(c0.result, c8.result, c1.result))
        inner = loop.body.append(arith.ConstantOp.build(42, i64()))
        loop.body.append(scf.YieldOp.build())
        return module, loop, inner

    def test_walk_safe_under_erasure_of_current(self):
        module, loop, inner = self._nested_module()
        visited = []
        for op in module.walk(include_self=False):
            if op.parent is None:
                continue
            visited.append(op.name)
            if op.name == "arith.constant" and not op.has_uses():
                op.erase()
        assert "scf.for" in visited
        # The unused inner constant was erased while being visited.
        assert inner.parent is None

    def test_walk_safe_under_erasure_of_nested(self):
        module, loop, inner = self._nested_module()
        seen_inner = []
        for op in module.walk(include_self=False):
            if op.parent is None:
                continue
            if op is loop:
                # Erase a nested op while visiting its ancestor.
                inner.erase()
            seen_inner.append(op is inner)
        assert not any(seen_inner)

    def test_walk_safe_under_erasure_of_subtree(self):
        module, loop, inner = self._nested_module()
        visited = []
        for op in module.walk(include_self=False):
            if op.parent is None:
                continue
            if op is loop:
                # Erase the whole loop subtree while standing on it; the
                # nested ops must not be yielded afterwards.
                loop.erase()
                continue
            visited.append(op)
        assert inner not in visited
        assert inner.parent is None

    def test_erase_rejects_op_with_uses(self):
        block = Block()
        c = block.append(arith.ConstantOp.build(1, i64()))
        block.append(arith.AddIOp.build(c.result, c.result))
        with pytest.raises(IRError, match="still have uses"):
            c.erase()


class TestUseListInvariants:
    def test_users_are_distinct_and_in_use_order(self):
        block = Block()
        c = block.append(arith.ConstantOp.build(1, i64()))
        first = block.append(arith.AddIOp.build(c.result, c.result))
        second = block.append(arith.MulIOp.build(c.result, first.result))
        assert c.result.users() == [first, second]
        assert c.result.num_uses() == 3

    def test_remove_use_and_replace_all_uses(self):
        block = Block()
        a = block.append(arith.ConstantOp.build(1, i64()))
        b = block.append(arith.ConstantOp.build(2, i64()))
        user = block.append(arith.AddIOp.build(a.result, a.result))
        a.result.replace_all_uses_with(b.result)
        assert not a.result.has_uses()
        assert b.result.users() == [user]
        assert user.operands[0] is b.result and user.operands[1] is b.result

    def test_many_uses_scale(self):
        # 1000 users: users() and the final RAUW must stay linear (this
        # was quadratic with the old list-scan use chain).
        block = Block()
        c = block.append(arith.ConstantOp.build(1, i64()))
        d = block.append(arith.ConstantOp.build(2, i64()))
        users = [block.append(arith.AddIOp.build(c.result, c.result))
                 for _ in range(1000)]
        assert c.result.num_uses() == 2000
        assert c.result.users() == users
        c.result.replace_all_uses_with(d.result)
        assert not c.result.has_uses()
        assert d.result.num_uses() == 2000

    def test_a_use_is_a_value_found_by_owner_and_index(self):
        block = Block()
        c = block.append(arith.ConstantOp.build(1, i64()))
        twice = block.append(arith.AddIOp.build(c.result, c.result))
        uses = c.result.uses
        assert uses == [Use(twice, 0), Use(twice, 1)]
        assert uses == [(twice, 0), (twice, 1)]
        assert [(use.owner, use.index) for use in uses] == uses
        # Owners compare by identity: an equal-looking op is another use.
        other = block.append(arith.AddIOp.build(c.result, c.result))
        assert Use(other, 0) != Use(twice, 0)
        assert c.result.uses == uses + [Use(other, 0), Use(other, 1)]
        assert c.result.users() == [twice, other]

    def test_set_operand_moves_exactly_one_use(self):
        block = Block()
        a = block.append(arith.ConstantOp.build(1, i64()))
        b = block.append(arith.ConstantOp.build(2, i64()))
        twice = block.append(arith.AddIOp.build(a.result, a.result))
        twice.set_operand(1, b.result)
        assert a.result.uses == [Use(twice, 0)]
        assert b.result.uses == [Use(twice, 1)]
        twice.set_operand(0, b.result)
        assert not a.result.has_uses()
        # Use order is the order the uses were made in, not operand order.
        assert b.result.uses == [Use(twice, 1), Use(twice, 0)]
        assert twice.operands == (b.result, b.result)

    def test_replace_uses_in_only_touches_the_given_ops(self):
        block = Block()
        a = block.append(arith.ConstantOp.build(1, i64()))
        b = block.append(arith.ConstantOp.build(2, i64()))
        kept = block.append(arith.AddIOp.build(a.result, a.result))
        moved = block.append(arith.MulIOp.build(a.result, kept.result))
        a.result.replace_uses_in(b.result, [moved])
        assert a.result.uses == [Use(kept, 0), Use(kept, 1)]
        assert b.result.uses == [Use(moved, 0)]
        assert moved.operands == (b.result, kept.result)

    def test_dropping_operand_uses_leaves_the_rest_in_order(self):
        block = Block()
        c = block.append(arith.ConstantOp.build(1, i64()))
        first = block.append(arith.AddIOp.build(c.result, c.result))
        second = block.append(arith.MulIOp.build(c.result, first.result))
        third = block.append(arith.AddIOp.build(c.result, second.result))
        second.drop_all_uses_of_operands()
        assert second.operands == ()
        assert c.result.uses == [Use(first, 0), Use(first, 1), Use(third, 0)]
        assert not first.result.has_uses()
        # `third` still uses `second`: erasing it must be refused, and
        # allowed once the last use is gone.
        with pytest.raises(IRError, match="still have uses"):
            second.erase()
        third.erase()
        second.erase()
        assert list(block) == [c, first]


class TestSharedEmptyContainers:
    def test_region_less_ops_share_one_empty_object(self):
        a = arith.ConstantOp.build(1, i64())
        b = arith.ConstantOp.build(2, i64())
        assert a.regions is b.regions and a.regions == ()
        assert a.successors is b.successors
        assert a.operands == () and len(a.results) == 1

    def test_appending_to_the_shared_regions_raises(self):
        op = arith.ConstantOp.build(1, i64())
        with pytest.raises(AttributeError):
            op.regions.append(Region(op))
        assert arith.ConstantOp.build(2, i64()).regions == ()

    def test_add_region_gives_the_op_its_own_list(self):
        a = arith.ConstantOp.build(1, i64())
        b = arith.ConstantOp.build(2, i64())
        region = a.add_region()
        assert a.regions == [region] and region.parent is a
        assert b.regions == ()
        given = Region()
        assert a.add_region(given) is given
        assert a.regions == [region, given] and given.parent is a
        assert list(a.all_blocks()) == []

    def test_results_cannot_be_edited_in_place(self):
        op = arith.ConstantOp.build(1, i64())
        assert isinstance(op.results, tuple)
        assert op.result is op.results[0]
