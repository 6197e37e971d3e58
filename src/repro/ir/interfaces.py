"""Operation interfaces.

Interfaces let analyses reason about operations from any dialect without
knowing the concrete operation, mirroring MLIR's interface mechanism.  The
most important one here is the *memory effects* interface used by the
reaching-definition analysis, the uniformity analysis and LICM (paper,
Sections V-B, V-C and VI-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from .traits import Trait

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .values import Value


class EffectKind(enum.Enum):
    """Kinds of memory effects an operation may have on a value."""

    READ = "read"
    WRITE = "write"
    ALLOCATE = "allocate"
    FREE = "free"


@dataclass(frozen=True)
class MemoryEffect:
    """A single memory effect.

    ``value`` is the SSA value whose pointed-to memory is affected; ``None``
    means the effect applies to an unspecified location (e.g. a call with
    unknown side effects on some resource).
    """

    kind: EffectKind
    value: Optional["Value"] = None
    resource: str = "default"


def read(value: Optional["Value"] = None, resource: str = "default") -> MemoryEffect:
    return MemoryEffect(EffectKind.READ, value, resource)


def write(value: Optional["Value"] = None, resource: str = "default") -> MemoryEffect:
    return MemoryEffect(EffectKind.WRITE, value, resource)


def allocate(value: Optional["Value"] = None) -> MemoryEffect:
    return MemoryEffect(EffectKind.ALLOCATE, value)


def free(value: Optional["Value"] = None) -> MemoryEffect:
    return MemoryEffect(EffectKind.FREE, value)


class MemoryEffectsInterface:
    """Mixin for operations with *known* memory effects.

    Operations implementing this interface override :meth:`memory_effects`
    and return the complete list of effects; an empty list means the
    operation has no memory effects.  Operations that do not implement the
    interface have *unknown* effects, which analyses treat conservatively.
    """

    __slots__ = ()

    def memory_effects(self) -> List[MemoryEffect]:  # pragma: no cover
        raise NotImplementedError


class LoopLikeInterface:
    """Mixin for structured loop operations (``scf.for``, ``affine.for``)."""

    __slots__ = ()

    def loop_body(self):  # pragma: no cover - overridden
        """Return the :class:`Block` forming the loop body."""
        raise NotImplementedError

    def induction_variable(self):  # pragma: no cover - overridden
        """Return the induction variable block argument, if any."""
        raise NotImplementedError

    def is_defined_outside(self, value) -> bool:
        """Return True if ``value`` is defined outside this loop's body."""
        from .operations import Operation

        region_op: Operation = self  # type: ignore[assignment]
        defining = value.defining_op()
        if defining is None:
            # Block argument: outside unless it belongs to the loop body.
            return value.owner_block() not in region_op.all_blocks()
        ancestor = defining
        while ancestor is not None:
            if ancestor is region_op:
                return False
            ancestor = ancestor.parent_op()
        return True


class InterpretableOpInterface:
    """Mixin for operations that carry their own execution semantics.

    The IR interpreter (:mod:`repro.interp`) first consults the
    per-dialect evaluator registry
    (:func:`repro.interp.registry.register_evaluator`); operations not
    found there but implementing this interface are evaluated through
    :meth:`interpret`.  ``args`` holds the already-evaluated operand
    values and ``ctx`` is the active
    :class:`repro.interp.interpreter.EvalContext`; the method returns one
    Python value per op result.
    """

    __slots__ = ()

    def interpret(self, args: Sequence[object], ctx) -> Sequence[object]:  # pragma: no cover
        raise NotImplementedError


class CallOpInterface:
    """Mixin for call-like operations."""

    __slots__ = ()

    def callee_name(self) -> Optional[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def call_arguments(self) -> Sequence["Value"]:  # pragma: no cover
        raise NotImplementedError


class BranchOpInterface:
    """Mixin for terminators transferring control to successor blocks."""

    __slots__ = ()

    def successor_operands(self, index: int) -> Sequence["Value"]:  # pragma: no cover
        raise NotImplementedError


#: The traits that mean "no memory effects" for an op without declared
#: effects.
EFFECT_FREE_TRAITS = Trait.PURE.bit | Trait.CONSTANT_LIKE.bit


def get_memory_effects(op) -> Optional[List[MemoryEffect]]:
    """Return the memory effects of ``op`` or ``None`` if unknown.

    Pure operations (carrying :data:`Trait.PURE`) trivially have no effects.
    ``op._HAS_EFFECTS`` is ``isinstance(op, MemoryEffectsInterface)``,
    fixed per class.
    """
    if op._HAS_EFFECTS:
        return op.memory_effects()
    if op._trait_mask_ & EFFECT_FREE_TRAITS:
        return []
    return None


def is_side_effect_free(op) -> bool:
    """True when ``op`` is known to have no memory effects at all."""
    effects = get_memory_effects(op)
    return effects is not None and len(effects) == 0
