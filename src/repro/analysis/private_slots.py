"""Block-local store-to-load forwarding for work-item private arrays.

A ``memref.alloca`` is one work-item's own storage: while every use of
it is a load or a store *of* it, nothing else can read or write it, and
inside one block the value a constant slot holds is simply the last one
stored there.  :func:`forward_private_slots` decides, for one allocation,
whether every load can be answered that way — the ``mem2reg`` pass
(:mod:`repro.transforms.mem2reg`) then replaces the loads, and the lint
rule ``uninitialised-private-load`` reports the loads nothing can answer.

The walk is per block.  A use nested in a region of some op of the block
(a loop body, a branch) may run any number of times, so that op clears
what the block knew; a load must be reached by a store of its own block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import Block, Operation, Value, is_scalar
from ..dialects import affine, memref
from ..dialects.arith import constant_value_of

_LOADS = (memref.LoadOp, affine.AffineLoadOp)
_STORES = (memref.StoreOp, affine.AffineStoreOp)
#: The constant indices of one access.
Slot = Tuple[int, ...]


@dataclass
class SlotForwarding:
    """What :func:`forward_private_slots` found for one allocation."""

    #: Why the allocation has to stay in memory (a reason code), or None.
    decline: Optional[str] = None
    #: The use behind the decline; None when it is the allocation itself.
    culprit: Optional[Operation] = None
    #: The culprit loads a slot nothing has written since the allocation.
    never_written: bool = False
    #: ``(load, value its slot holds)`` for every load of the allocation;
    #: complete only when ``decline`` is None.  No value is itself one of
    #: these loads.
    forwarded: List[Tuple[Operation, Value]] = field(default_factory=list)


def forward_private_slots(allocation: Operation) -> SlotForwarding:
    """Forward stores to loads of ``allocation`` (a ``memref.alloca``)."""
    array = allocation.results[0]
    type_ = array.type
    if type_.memory_space == "local":
        return SlotForwarding("shared-space")
    if not is_scalar(type_.element_type):
        return SlotForwarding("aggregate-element")
    if not type_.has_static_shape():
        return SlotForwarding("dynamic-index")

    # Every use must be a typed load or store of a constant in-bounds slot.
    #: block -> its ``(use, slot)`` events; ``slot`` is None for an op
    #: that holds uses in its regions.
    by_block: Dict[Block, List[Tuple[Operation, Optional[Slot]]]] = {}
    for user, operand in array.uses:
        if isinstance(user, _LOADS) and operand == 0:
            accessed, indices = user.results[0], user.operands[1:]
        elif isinstance(user, _STORES) and operand == 1:
            accessed, indices = user.operands[0], user.operands[2:]
        else:
            return SlotForwarding("escapes", user)
        if accessed.type != type_.element_type \
                or len(indices) != len(type_.shape):
            return SlotForwarding("escapes", user)
        slot = tuple(constant_value_of(index) for index in indices)
        if None in slot:
            return SlotForwarding("dynamic-index", user)
        if not all(0 <= at < extent for at, extent in zip(slot, type_.shape)):
            return SlotForwarding("out-of-bounds", user)
        by_block.setdefault(user.parent, []).append((user, slot))

    # An op holding a use in one of its regions clobbers its own block.
    home = allocation.parent
    home_holder = home.parent_op()
    holders = set()
    for block in list(by_block):
        while block is not home:
            holder = block.parent_op()
            # ``home``'s own holder is reached from a sibling block of a CFG.
            if holder is None or holder is home_holder or holder in holders:
                break
            holders.add(holder)
            block = holder.parent
            by_block.setdefault(block, []).append((holder, None))

    found = SlotForwarding()
    for block, events in by_block.items():
        events.sort(key=lambda event: event[0].block_index())
        known: Dict[Slot, Value] = {}
        untouched = block is home
        for op, slot in events:
            if slot is None:
                known.clear()
                untouched = False
            elif isinstance(op, _STORES):
                known[slot] = op.operands[0]
            elif slot in known:
                found.forwarded.append((op, known[slot]))
            else:
                return SlotForwarding("uninitialised-slot", op, untouched)

    # A stored value may itself be a forwarded load (of another block,
    # walked later): follow the chain, which only ever leads upwards.
    answers = {id(load.results[0]): value for load, value in found.forwarded}
    for position, (load, value) in enumerate(found.forwarded):
        while id(value) in answers:
            value = answers[id(value)]
        found.forwarded[position] = (load, value)
    return found
