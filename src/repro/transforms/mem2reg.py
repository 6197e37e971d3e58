"""Promotion of constant-indexed private arrays to SSA values.

Both compilers the paper compares hand their device code to LLVM's
``-O3``, where SROA and mem2reg turn a work-item's private array that is
only ever indexed by constants into registers.  This pass is that step,
in every device pipeline alike: a ``memref.alloca`` whose loads can all
be answered by a store of their own block
(:func:`repro.analysis.private_slots.forward_private_slots`) loses its
loads to the stored values, and the stores and the allocation, now
write-only, go with them.  An allocation it cannot promote is left
exactly as it was, and the report says why.

A forwarded value skips the rounding a store to an ``f32`` array would
have applied, exactly as Detect Reduction's ``iter_args`` do.
"""

from __future__ import annotations

from ..analysis.private_slots import forward_private_slots
from ..ir import is_scalar, location_of
from ..dialects.func import FuncOp
from ..dialects.memref import AllocaOp
from .canonicalize import erase_orphaned_ops
from .pass_manager import CompileReport, FunctionPass, register_pass


@register_pass
class Mem2Reg(FunctionPass):
    """Promotes constant-indexed private arrays to SSA values."""

    NAME = "mem2reg"

    STATISTICS = (
        ("allocas_promoted", "private allocations replaced by SSA values"),
        ("loads_forwarded", "loads replaced by the value last stored"),
        ("allocas_declined", "allocations left in memory (see the remarks)"),
    )

    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        allocas = [op for op in function.walk() if isinstance(op, AllocaOp)]
        if not any(is_scalar(alloca.results[0].type.element_type)
                   for alloca in allocas):
            return
        for alloca in allocas:
            found = forward_private_slots(alloca)
            if found.decline is not None:
                report.add_statistic(self.NAME, "allocas_declined")
                where = location_of(found.culprit or alloca).describe()
                report.remark(
                    f"{self.NAME}: {found.decline}: '{alloca.results[0].type}'"
                    f" at {where} stays in memory in {function.sym_name}")
                continue
            orphans = [alloca]
            for load, value in found.forwarded:
                load.replace_all_uses_with([value])
                orphans.extend(at.defining_op() for at in load.operands[1:])
                load.erase()
            # The allocation is write-only now: it goes with its stores,
            # and with the slot constants only the accesses used.
            erase_orphaned_ops(orphans)
            report.add_statistic(self.NAME, "allocas_promoted")
            if found.forwarded:
                report.add_statistic(self.NAME, "loads_forwarded",
                                     len(found.forwarded))
