"""SSA values: operation results and block arguments."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from .types import Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .operations import Block, Operation


class Use(NamedTuple):
    """A single use of a value: operand ``index`` of ``owner``.

    A plain value — compared and hashed by owner identity (operations do
    not define ``__eq__``) and index — so a use is its own key in the
    use-def chain, and ``(owner, index)`` finds it.
    """

    owner: "Operation"
    index: int


#: ``(owner, index)`` pair -> :class:`Use`, without a Python-level call.
_as_use = partial(tuple.__new__, Use)


class Value:
    """Base class of all SSA values.

    The use-def chain is an order-preserving dict whose keys are the
    uses as plain ``(owner, index)`` pairs, which hash and compare like
    the :class:`Use` they stand for.  An operation registers an operand
    with one dict store, dropping one is O(1) and ``users()`` is
    O(uses) even for values with many uses (dicts keep insertion order,
    preserving use order for deterministic traversals).
    """

    __slots__ = ("type", "_name_hint", "_uses")

    def __init__(self, type_: Type, name_hint: Optional[str] = None):
        self.type = type_
        self._name_hint = name_hint
        self._uses: Dict[Tuple["Operation", int], None] = {}

    def _rename(self, name_hint: Optional[str]) -> None:
        # The hint is part of the printed form, which caches key on: a
        # rename moves the version stamps around its owner, like any
        # other edit of the IR.
        owner = self.defining_op()
        _operations._touch(
            owner if owner is not None else self.owner_block().parent_op())
        self._name_hint = name_hint

    # -- use-def chain -----------------------------------------------------
    @property
    def uses(self) -> List[Use]:
        """List view of the uses, in insertion order."""
        return list(map(_as_use, self._uses))

    def drop_all_uses(self) -> None:
        """Forget every use without rewriting the owners' operand lists."""
        self._uses.clear()

    def has_uses(self) -> bool:
        return bool(self._uses)

    def num_uses(self) -> int:
        return len(self._uses)

    def users(self) -> List["Operation"]:
        """Distinct operations using this value, in use order."""
        return list(dict.fromkeys(owner for owner, _ in self._uses))

    def replace_all_uses_with(self, other: "Value") -> None:
        """Replace every use of this value with ``other``; one stamp
        move serves all the owners, which share their isolated ops."""
        uses = self._uses
        if other is self or not uses:
            return
        moved = other._uses
        for key in uses:
            owner, index = key
            owner._operands[index] = other
            moved[key] = None
        self._uses = {}
        _operations._touch(owner)

    def replace_uses_in(self, other: "Value", ops) -> None:
        """Replace uses of this value with ``other`` only inside ``ops``."""
        op_set = set(id(op) for op in ops)
        for owner, index in list(self._uses):
            if id(owner) in op_set:
                owner.set_operand(index, other)

    # -- structural queries -------------------------------------------------
    def defining_op(self) -> Optional["Operation"]:
        """The operation producing this value, or None for block arguments."""
        return None

    def owner_block(self) -> Optional["Block"]:
        """The block this value is introduced in."""
        return None

    def __repr__(self) -> str:
        hint = self.name_hint or "?"
        return f"<Value %{hint} : {self.type}>"


#: The preferred SSA name, or ``None``.  Reading goes straight to the
#: slot; assigning moves the version stamps (values under construction
#: — the parser's, a clone's — write ``_name_hint`` directly).
Value.name_hint = property(Value._name_hint.__get__, Value._rename)


class OpResult(Value):
    """A result produced by an operation.

    Only :class:`~repro.ir.operations.Operation` makes results, and it
    fills the slots itself (``type``, ``_name_hint``, ``_uses``, ``op``,
    ``result_index``): ``OpResult()`` takes no arguments and runs no
    Python code, so an operation costs no call per result.
    """

    __slots__ = ("op", "result_index")

    __init__ = object.__init__

    def defining_op(self) -> Optional["Operation"]:
        return self.op

    def owner_block(self) -> Optional["Block"]:
        return self.op.parent

    def __repr__(self) -> str:
        return f"<OpResult #{self.result_index} of {self.op.name} : {self.type}>"


class BlockArgument(Value):
    """An argument of a block (including region entry blocks)."""

    __slots__ = ("block", "arg_index")

    def __init__(self, block: "Block", index: int, type_: Type,
                 name_hint: Optional[str] = None):
        super().__init__(type_, name_hint)
        self.block = block
        self.arg_index = index

    def owner_block(self) -> Optional["Block"]:
        return self.block

    def __repr__(self) -> str:
        return f"<BlockArgument #{self.arg_index} : {self.type}>"


from . import operations as _operations  # noqa: E402  (imports this module)
