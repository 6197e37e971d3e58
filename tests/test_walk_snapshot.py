"""``Operation.walk`` keeps its snapshot contract with cached block tuples.

``walk`` pushes each block's cached reversed tuple of its operations
(``Block._reversed``) instead of building a list per visited op.  The
contract is the old one: a block is captured when its parent op is
expanded, right after that op is yielded.  :func:`reference_walk` is the
walk before the cache, kept as the reference; both must yield the same
sequence while the caller edits the IR, on every golden and on generated
modules, and after each ``Block`` mutator.
"""

from pathlib import Path

import pytest

from repro.ir import Block, Operation, UnregisteredOp, parse_module
from repro.ir.attributes import IntegerAttr
from repro.ir.types import i64
from repro.testing.generate import GeneratorConfig, generate_module
from repro.transforms import build_named_pipeline

GOLDEN = Path(__file__).parent / "golden"


def reference_walk(root, include_self=True):
    """The walk before block snapshots were cached: a fresh reversed list
    of every block, built when its parent op is expanded."""
    stack = []

    def push_children(op):
        for region in reversed(op.regions):
            for block in reversed(region.blocks):
                ops = block.operations
                ops.reverse()
                stack.extend(ops)

    if include_self:
        stack.append(root)
    else:
        push_children(root)
    while stack:
        op = stack.pop()
        yield op
        push_children(op)


def _op(tag, regions=0):
    return UnregisteredOp("test.op",
                          attributes={"tag": IntegerAttr(tag, i64())},
                          regions=regions)


def _tree():
    """``(root, tag -> op)``::

        root
          0
          1 { 2, 3 { 4 }, 5 } { 6 ^bb 7 }
          8
          9
    """
    ops = {tag: _op(tag) for tag in (0, 2, 4, 5, 6, 7, 8, 9)}
    ops[1] = _op(1, regions=2)
    ops[3] = _op(3, regions=1)
    root = _op(-1, regions=1)
    top = root.regions[0].add_block(Block())
    for tag in (0, 1, 8, 9):
        top.append(ops[tag])
    first = ops[1].regions[0].add_block(Block())
    for tag in (2, 3, 5):
        first.append(ops[tag])
    ops[3].regions[0].add_block(Block()).append(ops[4])
    ops[1].regions[1].add_block(Block()).append(ops[6])
    ops[1].regions[1].add_block(Block()).append(ops[7])
    return root, ops


def _tag(op):
    return op.get_int_attr("tag")


def _walked(walk, edit, warm, include_self=True):
    """The tags ``walk`` yields over a fresh tree while ``edit(op, ops)``
    runs on each yielded op; ``warm`` caches every snapshot first."""
    root, ops = _tree()
    if warm:
        list(root.walk())
    seen = []
    for op in walk(root, include_self):
        seen.append(_tag(op))
        edit(op, ops)
    return seen


def _at(tag, action):
    def edit(op, ops):
        if _tag(op) == tag:
            action(ops)
    return edit


EDITS = {
    "nothing": lambda op, ops: None,
    "erase the yielded op": lambda op, ops:
        op.erase() if _tag(op) in (1, 4, 8) else None,
    "erase the yielded region op": _at(3, lambda ops: ops[3].erase()),
    "erase a later sibling": _at(0, lambda ops: ops[8].erase()),
    "erase a later nested sibling": _at(2, lambda ops: ops[5].erase()),
    "move a later sibling up": _at(0, lambda ops: ops[9].move_before(ops[1])),
    "move a later sibling down": _at(0, lambda ops: ops[1].move_after(ops[9])),
    "move a later op into a visited block": _at(
        2, lambda ops: ops[8].move_before(ops[1])),
    "move a later op out of its block": _at(
        2, lambda ops: ops[5].move_after(ops[9])),
    "insert before the yielded op": _at(
        2, lambda ops: ops[2].parent.insert_before(ops[2], _op(100))),
    "insert after the yielded op": _at(
        2, lambda ops: ops[2].parent.insert_after(ops[2], _op(101))),
    "insert after the last yielded op": _at(
        9, lambda ops: ops[9].parent.insert_after(ops[9], _op(102))),
    "insert into the yielded op's region": _at(
        1, lambda ops: ops[1].regions[0].blocks[0].insert_before(
            ops[2], _op(103))),
    "erase an op nested in the yielded op": _at(
        1, lambda ops: (ops[4].erase(), ops[2].erase())),
    "empty a block of the yielded op": _at(
        1, lambda ops: ops[1].regions[1].blocks[0].erase_all_ops()),
}


class TestSnapshotContract:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_same_sequence_as_the_reference(self, edit, include_self, warm):
        expected = _walked(reference_walk, EDITS[edit], warm, include_self)
        actual = _walked(Operation.walk, EDITS[edit], warm, include_self)
        assert actual == expected

    def test_the_tree_walks_in_pre_order(self):
        assert _walked(Operation.walk, EDITS["nothing"], True) == [
            -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_a_region_filled_before_expansion_is_seen(self):
        seen = _walked(Operation.walk,
                       EDITS["insert into the yielded op's region"], True)
        assert seen[:5] == [-1, 0, 1, 103, 2]


def _modules():
    for path in sorted(GOLDEN.glob("*.mlir")):
        if not path.name.endswith("_errors.mlir"):
            yield path.name, lambda path=path: parse_module(path.read_text())
    for seed in range(31):
        yield f"generated{seed}", lambda seed=seed: generate_module(
            GeneratorConfig(num_ops=200, nesting_depth=2, num_kernels=2,
                            seed=seed))


MODULES = dict(_modules())


def _same_walks(module):
    for root in [module] + list(reference_walk(module)):
        for include_self in (True, False):
            walked = list(root.walk(include_self))
            assert walked == list(reference_walk(root, include_self))


class TestUnmutatedModules:
    @pytest.mark.parametrize("label", sorted(MODULES))
    def test_same_sequence_as_the_reference(self, label):
        module = MODULES[label]()
        _same_walks(module)
        _same_walks(module)  # now from the cached snapshots

    @pytest.mark.parametrize("label", ["listing3.mlir", "generated0",
                                       "generated7"])
    def test_snapshots_follow_a_pipeline_of_edits(self, label):
        module = MODULES[label]()
        _same_walks(module)
        build_named_pipeline("sycl-mlir").run(module)
        _same_walks(module)
        build_named_pipeline("lower-to-llvm").run(module)
        _same_walks(module)


def _clone_region_into(ops):
    ops[0].add_region(ops[1].regions[0].clone_into(ops[0], {}))


#: mutator -> (edit of a walked tree, the tags a walk must then yield).
MUTATORS = {
    "append": (lambda ops: ops[3].regions[0].blocks[0].append(_op(50)),
               [-1, 0, 1, 2, 3, 4, 50, 5, 6, 7, 8, 9]),
    "insert": (lambda ops: ops[1].regions[0].blocks[0].insert(1, _op(50)),
               [-1, 0, 1, 2, 50, 3, 4, 5, 6, 7, 8, 9]),
    "insert_before": (lambda ops: ops[8].parent.insert_before(
        ops[8], _op(50)), [-1, 0, 1, 2, 3, 4, 5, 6, 7, 50, 8, 9]),
    "insert_after": (lambda ops: ops[0].parent.insert_after(
        ops[0], _op(50)), [-1, 0, 50, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    "insert_after the last op": (lambda ops: ops[5].parent.insert_after(
        ops[5], _op(50)), [-1, 0, 1, 2, 3, 4, 5, 50, 6, 7, 8, 9]),
    "detach": (lambda ops: ops[5].detach(),
               [-1, 0, 1, 2, 3, 4, 6, 7, 8, 9]),
    "erase": (lambda ops: ops[8].erase(), [-1, 0, 1, 2, 3, 4, 5, 6, 7, 9]),
    "erase a region op": (lambda ops: ops[3].erase(),
                          [-1, 0, 1, 2, 5, 6, 7, 8, 9]),
    "move_before": (lambda ops: ops[9].move_before(ops[2]),
                    [-1, 0, 1, 9, 2, 3, 4, 5, 6, 7, 8]),
    "move_after": (lambda ops: ops[0].move_after(ops[4]),
                   [-1, 1, 2, 3, 4, 0, 5, 6, 7, 8, 9]),
    "erase_all_ops": (lambda ops: ops[1].regions[0].blocks[0]
                      .erase_all_ops(), [-1, 0, 1, 6, 7, 8, 9]),
    "clone_into": (_clone_region_into,
                   [-1, 0, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
}


class TestMutatorsInvalidate:
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_a_walk_after_the_mutator_sees_the_new_contents(self, mutator):
        edit, expected = MUTATORS[mutator]
        root, ops = _tree()
        list(root.walk())  # cache every snapshot
        edit(ops)
        assert [_tag(op) for op in root.walk()] == expected
        assert list(root.walk()) == list(reference_walk(root))
