"""IR construction helpers: insertion points and the builder."""

from __future__ import annotations

from typing import Optional

from .operations import Block, IRError, Operation


class InsertionPoint:
    """A position inside a block where new operations are inserted.

    Anchored on the operation the point currently precedes (``None`` means
    "at the end"), so creating a point and inserting through it are O(1)
    regardless of block size; successive inserts land in program order
    before the anchor, like MLIR's ``OpBuilder``.
    """

    def __init__(self, block: Block, index: Optional[int] = None):
        self.block = block
        if index is None:
            self._before: Optional[Operation] = None
        elif index < 0:
            # Rare path; keep list-style negative indexing via a snapshot.
            ops = block.operations
            self._before = ops[index] if -index <= len(ops) else block.first_op
        else:
            # O(index) walk instead of materializing the whole block.
            anchor = block.first_op
            for _ in range(index):
                if anchor is None:
                    break
                anchor = anchor.next_op()
            self._before = anchor

    @classmethod
    def at_end(cls, block: Block) -> "InsertionPoint":
        return cls(block)

    @classmethod
    def at_start(cls, block: Block) -> "InsertionPoint":
        point = cls(block)
        point._before = block.first_op
        return point

    @classmethod
    def before(cls, op: Operation) -> "InsertionPoint":
        if op.parent is None:
            raise IRError("operation has no parent block")
        point = cls(op.parent)
        point._before = op
        return point

    def move_before(self, op: Operation) -> "InsertionPoint":
        """Re-anchor this point before ``op`` (O(1), reuses the object)."""
        if op.parent is None:
            raise IRError("operation has no parent block")
        self.block = op.parent
        self._before = op
        return self

    def advance_past(self, op: Operation) -> None:
        """If anchored on ``op``, re-anchor on its successor (same position).

        Call before erasing ``op`` so the point does not dangle.
        """
        if self._before is op and op.parent is not None:
            self.block = op.parent
            self._before = op.next_op()

    def insert(self, op: Operation) -> Operation:
        if self._before is None:
            self.block.append(op)
        else:
            self.block.insert_before(self._before, op)
        return op


class Builder:
    """Creates operations at an insertion point.

    The builder is intentionally small: operation classes expose ``build``
    class methods with meaningful argument names, and the builder only takes
    care of placement.
    """

    def __init__(self, insertion_point: Optional[InsertionPoint] = None):
        self.insertion_point = insertion_point

    # -- placement management -------------------------------------------------
    def set_insertion_point_to_end(self, block: Block) -> None:
        self.insertion_point = InsertionPoint.at_end(block)

    # -- creation --------------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        if self.insertion_point is None:
            raise IRError("builder has no insertion point")
        return self.insertion_point.insert(op)
