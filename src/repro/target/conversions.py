"""Conversion passes: structured IR down to an LLVM-dialect CFG.

The ``lower-to-llvm`` pipeline (registered in
:mod:`repro.transforms.pipelines`) composes the passes defined here:

``lower-affine``
    ``affine.for`` / ``affine.load`` / ``affine.store`` /
    ``affine.apply`` / ``affine.min`` to their ``scf`` / ``memref`` /
    ``arith`` equivalents.
``convert-memref-to-llvm``
    ``memref.load`` / ``memref.store`` into
    ``llvm.getelementptr`` + ``llvm.load`` / ``llvm.store`` through a
    ``builtin.unrealized_conversion_cast`` pointer bridge, and private
    static allocations into ``llvm.alloca``.  It runs while the control
    flow is still structured, so each address ingredient is built once,
    where its operands are defined.
``convert-scf-to-cf``
    structured ``scf.if`` / ``scf.for`` / ``scf.while`` into a
    branch-based CFG of ``cf.br`` / ``cf.cond_br`` blocks; an
    ``scf.for`` becomes a rotated loop whose body is its own latch.
``convert-arith-to-llvm``
    ``arith.*`` into the mirroring ``llvm.*`` arithmetic.
``convert-func-to-llvm``
    ``func.func`` / ``func.return`` / ``func.call`` into ``llvm.func``
    / ``llvm.return`` / ``llvm.call``.

Every pass is robust standalone (the CI pass-smoke job runs each
registered pass in isolation with ``--verify-each``): operations a pass
cannot convert are left untouched rather than rejected, so partially
lowered modules always verify and interpret.  The differential harness
(:mod:`repro.interp.differential`) is the proof the full composition
preserves semantics.
"""

from __future__ import annotations

from typing import List, Optional

from ..dialects import affine as affine_d
from ..dialects import arith, cf, memref, scf
from ..dialects import llvm as llvm_d
from ..dialects.builtin import UnrealizedConversionCastOp
from ..dialects.func import CallOp, FuncOp, ReturnOp
from ..ir import (
    Block,
    IndexType,
    MemRefType,
    Operation,
    PointerType,
    Region,
    is_scalar,
)
from ..transforms.pass_manager import (
    CompileReport,
    FunctionPass,
    ModulePass,
    register_pass,
)


def _move_block(block: Block, region: Region) -> Block:
    """Move ``block`` (and its argument identities) into ``region``."""
    old = block.parent
    if old is not None:
        old.blocks.remove(block)
    region.add_block(block)
    return block


def _pop_terminator(block: Block, op_class) -> List:
    """Detach ``block``'s terminator if it is an ``op_class``.

    Returns the terminator's operands (the values the structured region
    yielded); a missing terminator means "yields nothing".
    """
    terminator = block.terminator
    if terminator is None or not isinstance(terminator, op_class):
        return []
    values = list(terminator.operands)
    terminator.erase()
    return values


# ---------------------------------------------------------------------------
# lower-affine
# ---------------------------------------------------------------------------

@register_pass
class LowerAffine(FunctionPass):
    """Expand ``affine.*`` into ``scf`` loops and plain memory accesses.

    ``affine.apply`` becomes a ``muli``/``addi`` chain (skipping zero
    coefficients and strength-reducing unit ones), ``affine.min`` a
    ``minsi`` chain, and ``affine.for``'s integer step is materialized
    as an ``arith.constant`` — once, before the outermost enclosing
    loop — so the loop can become ``scf.for``.  The
    affine body *block* is moved, not cloned, preserving block-argument
    identities and any nested regions untouched.
    """

    NAME = "lower-affine"
    DESCRIPTION = "lower affine operations to scf/memref/arith"
    STATISTICS = (
        ("lowered", "affine operations expanded to scf/memref/arith"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        lowered = 0
        while True:
            target = None
            for op in function.walk(include_self=False):
                if isinstance(op, (affine_d.AffineForOp,
                                   affine_d.AffineLoadOp,
                                   affine_d.AffineStoreOp,
                                   affine_d.AffineApplyOp,
                                   affine_d.AffineMinOp)):
                    target = op
                    break
            if target is None:
                break
            self._lower(target)
            lowered += 1
        if lowered:
            report.add_statistic(self.NAME, "lowered", lowered)

    # ------------------------------------------------------------------
    def _lower(self, op: Operation) -> None:
        if isinstance(op, affine_d.AffineForOp):
            self._lower_for(op)
        elif isinstance(op, affine_d.AffineLoadOp):
            new = memref.LoadOp.build(op.memref, list(op.indices))
            op.parent.insert_before(op, new)
            op.replace_all_uses_with(list(new.results))
            op.erase()
        elif isinstance(op, affine_d.AffineStoreOp):
            new = memref.StoreOp.build(op.value, op.memref, list(op.indices))
            op.parent.insert_before(op, new)
            op.erase()
        elif isinstance(op, affine_d.AffineApplyOp):
            self._lower_apply(op)
        elif isinstance(op, affine_d.AffineMinOp):
            self._lower_min(op)

    def _lower_for(self, op: affine_d.AffineForOp) -> None:
        block = op.parent
        outermost = op
        ancestor = op.parent_op()
        while ancestor is not None:
            if isinstance(ancestor, (affine_d.AffineForOp, scf.ForOp,
                                     scf.WhileOp, scf.ParallelOp)):
                outermost = ancestor
            ancestor = ancestor.parent_op()
        step = arith.ConstantOp.build(op.step, IndexType())
        outermost.parent.insert_before(outermost, step)
        loop = scf.ForOp.build(op.lower_bound, op.upper_bound,
                               step.results[0], list(op.init_args))
        block.insert_before(op, loop)
        old_body, new_body = op.body, loop.body
        for old_arg, new_arg in zip(old_body.arguments, new_body.arguments):
            old_arg.replace_all_uses_with(new_arg)
        for body_op in old_body.operations:
            new_body.append(body_op)
        yielded = _pop_terminator(new_body, affine_d.AffineYieldOp)
        new_body.append(scf.YieldOp.build(yielded))
        op.replace_all_uses_with(list(loop.results))
        op.erase()

    def _lower_apply(self, op: affine_d.AffineApplyOp) -> None:
        block = op.parent
        coefficients = op.coefficients
        if len(coefficients) != len(op.operands):
            return  # malformed hand-written IR; leave it alone
        constant = op.get_int_attr("constant", 0)
        total: Optional = None
        for coeff, operand in zip(coefficients, op.operands):
            if coeff == 0:
                continue
            if coeff == 1:
                term = operand
            else:
                c = arith.ConstantOp.build(coeff, IndexType())
                block.insert_before(op, c)
                mul = arith.MulIOp.build(operand, c.results[0])
                block.insert_before(op, mul)
                term = mul.results[0]
            if total is None:
                total = term
            else:
                add = arith.AddIOp.build(total, term)
                block.insert_before(op, add)
                total = add.results[0]
        if constant != 0 or total is None:
            c = arith.ConstantOp.build(constant, IndexType())
            block.insert_before(op, c)
            if total is None:
                total = c.results[0]
            else:
                add = arith.AddIOp.build(total, c.results[0])
                block.insert_before(op, add)
                total = add.results[0]
        op.replace_all_uses_with([total])
        op.erase()

    def _lower_min(self, op: affine_d.AffineMinOp) -> None:
        block = op.parent
        total = op.operands[0]
        for operand in op.operands[1:]:
            low = arith.MinSIOp.build(total, operand)
            block.insert_before(op, low)
            total = low.results[0]
        op.replace_all_uses_with([total])
        op.erase()


# ---------------------------------------------------------------------------
# convert-scf-to-cf
# ---------------------------------------------------------------------------

@register_pass
class ConvertSCFToCF(FunctionPass):
    """Expand structured ``scf`` control flow into a ``cf`` CFG.

    Only operations whose parent block lives directly in the function
    region are expanded: ``scf`` nested inside a ``SINGLE_BLOCK``
    structured region (an ``affine.for`` body, an ``scf.parallel``
    band) stays structured, so the pass is safe standalone — run
    ``lower-affine`` first for a full lowering.  Expansion is
    outermost-first; inner ``scf`` becomes eligible once its block is
    moved into the function region.

    Blocks are *moved*, never cloned: region block arguments keep their
    identity and become ordinary CFG block arguments.
    """

    NAME = "convert-scf-to-cf"
    DESCRIPTION = "convert structured scf control flow to cf branches"
    STATISTICS = (
        ("expanded", "structured scf operations expanded into CFG blocks"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        region = function.regions[0]
        expanded = 0
        while True:
            target = None
            for block in region.blocks:
                for op in block.operations:
                    if isinstance(op, (scf.IfOp, scf.ForOp, scf.WhileOp)):
                        target = op
                        break
                if target is not None:
                    break
            if target is None:
                break
            self._expand(target, region)
            expanded += 1
        if expanded:
            report.add_statistic(self.NAME, "expanded", expanded)

    # ------------------------------------------------------------------
    def _expand(self, op: Operation, region: Region) -> None:
        block = op.parent
        # The continuation block receives the op's results as arguments.
        cont = Block([result.type for result in op.results])
        trailing = block.operations
        for trailing_op in trailing[trailing.index(op) + 1:]:
            cont.append(trailing_op)
        if isinstance(op, scf.IfOp):
            self._expand_if(op, block, cont, region)
        elif isinstance(op, scf.ForOp):
            self._expand_for(op, block, cont, region)
        else:
            self._expand_while(op, block, cont, region)
        region.add_block(cont)
        op.replace_all_uses_with(list(cont.arguments))
        op.erase()

    def _expand_if(self, op: scf.IfOp, block: Block, cont: Block,
                   region: Region) -> None:
        then_block = _move_block(op.then_block, region)
        then_block.append(cf.BranchOp.build(
            cont, _pop_terminator(then_block, scf.YieldOp)))
        if op.has_else():
            false_dest = _move_block(op.else_block, region)
            false_dest.append(cf.BranchOp.build(
                cont, _pop_terminator(false_dest, scf.YieldOp)))
        else:
            false_dest = cont
        block.append(cf.CondBranchOp.build(
            op.condition, then_block, (), false_dest, ()))

    def _expand_for(self, op: scf.ForOp, block: Block, cont: Block,
                    region: Region) -> None:
        """A rotated loop: the body is its own latch, so a trip runs the
        increment, the compare and one branch.  The preheader enters the
        body directly when the loop provably runs at least once, and
        otherwise guards the first trip with ``lb < ub``."""
        body = _move_block(op.body, region)
        entry = [op.lower_bound, *op.init_args]
        if (op.constant_trip_count() or 0) >= 1:
            block.append(cf.BranchOp.build(body, entry))
        else:
            guard = arith.CmpIOp.build("slt", op.lower_bound, op.upper_bound)
            block.append(guard)
            block.append(cf.CondBranchOp.build(
                guard.results[0], body, entry, cont, list(op.init_args)))
        yielded = _pop_terminator(body, scf.YieldOp)
        bump = arith.AddIOp.build(body.arguments[0], op.step)
        again = arith.CmpIOp.build("slt", bump.results[0], op.upper_bound)
        body.append(bump)
        body.append(again)
        body.append(cf.CondBranchOp.build(
            again.results[0], body, [bump.results[0], *yielded],
            cont, yielded))

    def _expand_while(self, op: scf.WhileOp, block: Block, cont: Block,
                      region: Region) -> None:
        before = _move_block(op.before_block, region)
        after = _move_block(op.after_block, region)
        block.append(cf.BranchOp.build(before, list(op.operands)))
        condition = before.terminator
        assert isinstance(condition, scf.ConditionOp), \
            "scf.while before-region must end with scf.condition"
        flag, forwarded = condition.operands[0], list(condition.operands[1:])
        condition.erase()
        before.append(cf.CondBranchOp.build(
            flag, after, forwarded, cont, forwarded))
        after.append(cf.BranchOp.build(
            before, _pop_terminator(after, scf.YieldOp)))


# ---------------------------------------------------------------------------
# convert-arith-to-llvm
# ---------------------------------------------------------------------------

@register_pass
class ConvertArithToLLVM(FunctionPass):
    """Rewrite ``arith.*`` into the mirroring ``llvm.*`` operations.

    Types are left untouched (``index`` stays ``index``; the project's
    LLVM dialect is value-typed the same way ``arith`` is), so the
    rewrite is a name-and-class change with identical operands, results
    and attributes.  Unmapped ``arith`` operations are left in place.
    """

    NAME = "convert-arith-to-llvm"
    DESCRIPTION = "convert arith operations to their llvm equivalents"
    STATISTICS = (
        ("converted", "arith operations rewritten to llvm equivalents"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        converted = 0
        for op in list(function.walk(include_self=False)):
            target = llvm_d.ARITH_TO_LLVM.get(op.name)
            if target is None:
                continue
            new = target(
                operands=tuple(op.operands),
                result_types=tuple(result.type for result in op.results),
                attributes=dict(op.attributes))
            op.parent.insert_before(op, new)
            op.replace_all_uses_with(list(new.results))
            op.erase()
            converted += 1
        if converted:
            report.add_statistic(self.NAME, "converted", converted)


# ---------------------------------------------------------------------------
# convert-memref-to-llvm
# ---------------------------------------------------------------------------

def _address_builder(function: FuncOp):
    """``ingredient(access, key, build, *args)``: the result of
    ``build(*args)`` for ``key``, needed at ``access`` — each pure op
    that addresses memory in ``function`` built once.

    An ingredient is keyed by its kind and operands.  A new one goes right
    after the innermost definition among its operands — one without
    operands at the top of the entry block — so it dominates every access
    those operands reach and serves all of them.  In structured form the
    innermost definition is found by walking up from the access through
    the enclosing blocks, with no dominance query.  When an operand is
    defined in a block that does not enclose the access (CFG input), the
    op goes before the access and is not reused.  A closure rather than a
    class: a class definition costs calls at import, and every tool that
    loads the pass registry imports this module, lowering or not.
    """
    entry = function.regions[0].blocks[0]
    built = {}
    # Ops placed at a definition; a later op for the same definition goes
    # after them, so hoisted ops keep their creation order.
    placed = set()

    def innermost_definition(access, operands):
        """An op, or a block for its arguments; None if some operand is
        not visible structurally."""
        if not operands:
            return entry
        depth = {}
        block = access.parent
        while True:
            depth[block] = len(depth)
            owner = block.parent.parent
            if owner is function:
                break
            block = owner.parent
        # The entry block dominates every block of a CFG body.
        depth.setdefault(entry, len(depth))
        best, best_depth = None, 0
        for value in operands:
            block = value.owner_block()
            if block not in depth:
                return None
            op = value.defining_op()
            if best is None or depth[block] < best_depth or (
                    depth[block] == best_depth and op is not None and (
                        isinstance(best, Block)
                        or best.is_before_in_block(op))):
                best, best_depth = (block if op is None else op), depth[block]
        return best

    def ingredient(access, key, build, *args):
        value = built.get(key)
        if value is not None:
            return value
        op = build(*args)
        anchor = innermost_definition(access, op.operands)
        if anchor is None:
            access.parent.insert_before(access, op)
            return op.results[0]
        if isinstance(anchor, Block):
            block, before = anchor, anchor.first_op
        else:
            block, before = anchor.parent, anchor.next_op()
        while before in placed:
            before = before.next_op()
        block.insert_before(before, op)
        placed.add(op)
        built[key] = op.results[0]
        return op.results[0]

    return ingredient


@register_pass
class ConvertMemRefToLLVM(FunctionPass):
    """Lower memref accesses to ``llvm.getelementptr`` + load/store.

    A converted access bridges the memref SSA value into ``!llvm.ptr``
    with a ``builtin.unrealized_conversion_cast`` (the runtime value —
    ``MemRefStorage``/``MemRefView``/accessor binding — passes through
    unchanged), computes a row-major linear offset, and indexes with a
    single dynamic ``getelementptr`` operand:

    * rank-1 accesses (including the dynamic-shaped views
      ``lower-sycl-accessors`` produces) use their index directly;
    * higher-rank static-shape accesses linearize by Horner's rule with
      ``llvm.mul``/``llvm.add``, matching ``MemRefStorage``'s layout.

    The bridge, extent constants, Horner steps and addresses are pure and
    built once per function (see :func:`_address_builder`), so an
    access inside a loop reuses what its operands allow to be computed
    outside it.  Accesses it cannot prove linearizable keep their
    ``memref`` form; a load whose result is unused is erased rather than
    addressed.
    Private static-shape allocations whose every remaining use is such
    a pointer bridge are then promoted to ``llvm.alloca``; ``local``
    (work-group shared) allocations are never promoted because their
    storage identity is the work-group tile keyed by the allocating
    operation.
    """

    NAME = "convert-memref-to-llvm"
    DESCRIPTION = "lower memref accesses to llvm pointer arithmetic"
    STATISTICS = (
        ("accesses", "memref loads/stores lowered to getelementptr"),
        ("allocations", "private allocations promoted to llvm.alloca"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        # A local, never pass state: pass instances are pooled and shared
        # across functions under jobs=N.
        ingredient = _address_builder(function)
        accesses = 0
        for op in list(function.walk(include_self=False)):
            if isinstance(op, (memref.LoadOp, memref.StoreOp)):
                accesses += self._convert_access(op, ingredient)
        allocations = 0
        for op in list(function.walk(include_self=False)):
            if isinstance(op, (memref.AllocaOp, memref.AllocOp)):
                allocations += self._promote_allocation(op)
        if accesses:
            report.add_statistic(self.NAME, "accesses", accesses)
        if allocations:
            report.add_statistic(self.NAME, "allocations", allocations)

    # ------------------------------------------------------------------
    def _linear_index(self, op: Operation, memref_type: MemRefType,
                      ingredient):
        """The row-major linear offset of ``op``'s indices, or None."""
        indices = list(op.indices)
        if len(indices) == 1:
            return indices[0]
        if not indices:
            return ingredient(op, ("constant", 0),
                              llvm_d.LLVMConstantOp.build, 0, IndexType())
        if (not memref_type.has_static_shape()
                or len(indices) != len(memref_type.shape)):
            return None
        linear = indices[0]
        for dim, index in zip(memref_type.shape[1:], indices[1:]):
            extent = ingredient(op, ("constant", dim),
                                llvm_d.LLVMConstantOp.build, dim, IndexType())
            scaled = ingredient(op, ("mul", linear, extent),
                                llvm_d.LLVMMulOp.build, linear, extent)
            linear = ingredient(op, ("add", scaled, index),
                                llvm_d.LLVMAddOp.build, scaled, index)
        return linear

    def _convert_access(self, op: Operation, ingredient) -> int:
        if isinstance(op, memref.LoadOp) and not op.results[0].has_uses():
            op.erase()  # a dead read: nothing to address
            return 0
        memref_value = op.memref
        memref_type = memref_value.type
        if not isinstance(memref_type, MemRefType):
            return 0
        element = memref_type.element_type
        if not is_scalar(element):
            return 0
        linear = self._linear_index(op, memref_type, ingredient)
        if linear is None:
            return 0
        bridge = ingredient(op, ("bridge", memref_value),
                            UnrealizedConversionCastOp.build,
                            memref_value, PointerType(element))
        address = ingredient(op, ("gep", bridge, linear),
                             llvm_d.LLVMGEPOp.build, bridge, [linear])
        block = op.parent
        if isinstance(op, memref.LoadOp):
            new = llvm_d.LLVMLoadOp.build(address, element)
            block.insert_before(op, new)
            op.replace_all_uses_with(list(new.results))
        else:
            block.insert_before(
                op, llvm_d.LLVMStoreOp.build(op.value, address))
        op.erase()
        return 1

    def _promote_allocation(self, op: Operation) -> int:
        memref_type = op.results[0].type
        if not isinstance(memref_type, MemRefType):
            return 0
        if (memref_type.memory_space == "local"
                or not memref_type.has_static_shape()
                or not is_scalar(memref_type.element_type)):
            return 0
        bridges = [use.owner for use in op.results[0].uses]
        if not bridges or not all(
                isinstance(user, UnrealizedConversionCastOp)
                and isinstance(user.results[0].type, PointerType)
                for user in bridges):
            return 0
        block = op.parent
        size = llvm_d.LLVMConstantOp.build(
            memref_type.num_elements(), IndexType())
        block.insert_before(op, size)
        alloca = llvm_d.LLVMAllocaOp.build(
            size.results[0], element_type=memref_type.element_type)
        block.insert_before(op, alloca)
        for bridge in bridges:
            bridge.results[0].replace_all_uses_with(alloca.results[0])
            bridge.erase()
        op.erase()
        return 1


# ---------------------------------------------------------------------------
# convert-func-to-llvm
# ---------------------------------------------------------------------------

@register_pass
class ConvertFuncToLLVM(ModulePass):
    """Rewrite ``func``-dialect functions into ``llvm.func``.

    The body CFG moves wholesale (blocks keep their identity, so
    entry-block arguments — the ABI surface the execution engine binds
    buffers to — are unchanged) and every attribute is carried over:
    ``sym_name``, ``function_type``, visibility, and the ``sycl.*``
    kernel metadata the launch path keys on.  ``func.return`` and
    ``func.call`` inside moved bodies become ``llvm.return`` /
    ``llvm.call`` with the same symbol linkage.
    """

    NAME = "convert-func-to-llvm"
    DESCRIPTION = "convert func functions, calls and returns to llvm"
    STATISTICS = (
        ("functions", "func.func symbols rewritten to llvm.func"),
    )

    def run_on_module(self, module, report: CompileReport) -> None:
        functions = 0
        for op in list(module.body.operations):
            if not isinstance(op, FuncOp):
                continue
            self._convert_function(op, module)
            functions += 1
        if functions:
            report.add_statistic(self.NAME, "functions", functions)

    def _convert_function(self, op: FuncOp, module) -> None:
        new = llvm_d.LLVMFuncOp(
            operands=(), result_types=(),
            attributes=dict(op.attributes), regions=1)
        for block in list(op.regions[0].blocks):
            _move_block(block, new.regions[0])
        module.body.insert_before(op, new)
        op.erase()
        for body_op in list(new.walk(include_self=False)):
            if isinstance(body_op, ReturnOp):
                replacement = llvm_d.LLVMReturnOp.build(
                    list(body_op.operands))
                body_op.parent.insert_before(body_op, replacement)
                body_op.erase()
            elif isinstance(body_op, CallOp):
                callee = body_op.callee_name()
                if callee is None:
                    continue
                replacement = llvm_d.LLVMCallOp.build(
                    callee, list(body_op.operands),
                    [result.type for result in body_op.results])
                body_op.parent.insert_before(body_op, replacement)
                body_op.replace_all_uses_with(list(replacement.results))
                body_op.erase()
