"""Operation traits.

Traits are declarative markers attached to operation classes.  Analyses and
transformations query traits instead of hard-coding operation names, which is
how the paper's uniformity analysis is kept dialect-agnostic (Section V-C:
"A custom trait informs the analysis about SYCL operations that are known
sources of non-uniformity").
"""

from __future__ import annotations

import enum


class Trait(enum.Enum):
    """Known operation traits."""

    #: The operation has no side effects and can be freely duplicated/erased.
    PURE = "pure"
    #: The operation terminates a block (e.g. ``func.return``, ``scf.yield``).
    TERMINATOR = "terminator"
    #: The operation materializes a compile-time constant.
    CONSTANT_LIKE = "constant_like"
    #: Regions of this operation do not capture values defined above,
    #: except through explicit block arguments (e.g. ``func.func``).
    ISOLATED_FROM_ABOVE = "isolated_from_above"
    #: The operation's regions contain a single block.
    SINGLE_BLOCK = "single_block"
    #: The result of the operation differs between work-items in a
    #: work-group (a source of non-uniformity for the uniformity analysis).
    NON_UNIFORM_SOURCE = "non_uniform_source"
    #: The operation yields the same value for all work-items in a
    #: work-group (e.g. work-group id, group range queries).
    UNIFORM_SOURCE = "uniform_source"
    #: The operation is a work-group synchronization barrier.
    BARRIER = "barrier"
    #: The operation defines a symbol (function, global).
    SYMBOL = "symbol"
    #: The operation holds a symbol table in its region (e.g. module).
    SYMBOL_TABLE = "symbol_table"
    #: The operation behaves like a structured loop.
    LOOP_LIKE = "loop_like"
    #: The operation is commutative in its operands.
    COMMUTATIVE = "commutative"
    #: The operation can fail at runtime on some inputs (integer division
    #: by zero, out-of-range shifts, math domain errors).  Side-effect
    #: free but NOT speculatable: hoisting one above a guard or out of a
    #: possibly-zero-trip loop can introduce a trap that the original
    #: program never executed.
    MAY_TRAP = "may_trap"


# Each trait gets a bit, so a class's trait set collapses into the int
# mask ``Operation.__init_subclass__`` stores as ``_trait_mask_``; a
# trait query is then an integer AND instead of a frozenset lookup that
# would hash the enum member on every call.
for _index, _trait in enumerate(Trait):
    _trait.bit = 1 << _index


def has_trait(op_or_class, trait: Trait) -> bool:
    """Return True if the operation (or operation class) carries ``trait``.

    For code off the hot path: a hot loop reads ``op._trait_mask_``
    against ``trait.bit`` itself (docs/performance.md, "Per-op questions
    are attribute reads").
    """
    return bool(op_or_class._trait_mask_ & trait.bit)
