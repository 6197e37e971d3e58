"""Structural and CFG dominance queries for region-based IR.

The IR used by this project is mostly structured (scf / affine control
flow rather than arbitrary CFGs), where dominance reduces to the question
"does operation A occur before operation B, where A's block is an
ancestor of (or equal to) B's block?".  After ``convert-scf-to-cf``
function bodies become genuine multi-block CFGs built from ``cf.br`` /
``cf.cond_br``; for those, per-region block dominator sets are computed
with the classic iterative data-flow algorithm (``dom(entry) = {entry}``,
``dom(b) = {b} ∪ ⋂ dom(preds(b))``) and memoized on the region's
operation (:func:`~repro.ir.operations.op_memo`) until an edit moves the
enclosing function's version stamp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .operations import Block, Operation, Region, op_memo
from .values import BlockArgument, Value


def _dominator_sets(region: Region) -> Dict[int, Set[int]]:
    """Block dominator sets of one multi-block region.

    Unreachable blocks keep the full block set as dominators (the
    conventional solution of the data-flow equations), which makes
    queries about them conservatively permissive — the verifier will not
    reject uses in code no execution can reach.
    """
    # The op holds the region, so its id is not reused while memoized.
    memo = op_memo(region.parent)
    key = ("dominators", id(region))
    cached = memo.get(key)
    if cached is not None:
        return cached

    blocks = region.blocks
    ids = [id(block) for block in blocks]
    all_ids = set(ids)
    preds: Dict[int, Set[int]] = {bid: set() for bid in ids}
    for block in blocks:
        terminator = block.last_op
        if terminator is None:
            continue
        for successor in terminator.successors:
            if id(successor) in preds:
                preds[id(successor)].add(id(block))

    entry = ids[0]
    dom: Dict[int, Set[int]] = {
        bid: ({entry} if bid == entry else set(all_ids)) for bid in ids}
    changed = True
    while changed:
        changed = False
        for bid in ids:
            if bid == entry:
                continue
            new = set(all_ids)
            for pred in preds[bid]:
                new &= dom[pred]
            new.add(bid)
            if new != dom[bid]:
                dom[bid] = new
                changed = True

    memo[key] = dom
    return dom


def block_dominates(a: Block, b: Block) -> bool:
    """True if block ``a`` dominates block ``b`` within their region."""
    if a is b:
        return True
    region = a.parent
    if region is None or region is not b.parent:
        return False
    return id(a) in _dominator_sets(region).get(id(b), set())


class DominanceInfo:
    """Answers dominance queries within a region tree rooted at ``root``."""

    def __init__(self, root: Operation):
        self.root = root

    # ------------------------------------------------------------------
    def enclosing_blocks(self, op: Operation) -> List[Block]:
        """Blocks enclosing ``op``, innermost first."""
        blocks: List[Block] = []
        block: Optional[Block] = op.parent
        while block is not None:
            blocks.append(block)
            parent_op = block.parent_op()
            block = parent_op.parent if parent_op is not None else None
        return blocks

    def properly_dominates(self, a: Operation, b: Operation) -> bool:
        """True if ``a`` strictly dominates ``b``."""
        if a is b:
            return False
        if a.parent is b.parent:
            return a.is_before_in_block(b)
        # Hoist b to the ancestor living in a's block.
        ancestor: Optional[Operation] = b
        while ancestor is not None and ancestor.parent is not a.parent:
            ancestor = ancestor.parent_op()
        if ancestor is not None:
            if ancestor is a:
                # a encloses b; an enclosing op does not dominate its body
                # ops for SSA purposes, but region nesting makes values
                # visible.
                return True
            return a.is_before_in_block(ancestor)
        # No ancestor of b shares a's block: a and (an ancestor of) b may
        # still live in sibling blocks of one multi-block region — decide
        # by CFG block dominance.
        region = a.parent.parent if a.parent is not None else None
        if region is None:
            return False
        ancestor = b
        while ancestor is not None:
            block = ancestor.parent
            if block is not None and block.parent is region:
                return block_dominates(a.parent, block)
            ancestor = ancestor.parent_op()
        return False

    def dominates(self, a: Operation, b: Operation) -> bool:
        return a is b or self.properly_dominates(a, b)

    def value_dominates(self, value: Value, op: Operation) -> bool:
        """True if ``value`` is usable at ``op``."""
        if isinstance(value, BlockArgument):
            owner = value.owner_block()
            enclosing = self.enclosing_blocks(op)
            if owner in enclosing:
                return True
            region = owner.parent if owner is not None else None
            if region is not None:
                for block in enclosing:
                    if block.parent is region:
                        return block_dominates(owner, block)
            return False
        defining = value.defining_op()
        if defining is None:
            return True
        return self.properly_dominates(defining, op)


def properly_dominates(a: Operation, b: Operation) -> bool:
    return DominanceInfo(a).properly_dominates(a, b)
