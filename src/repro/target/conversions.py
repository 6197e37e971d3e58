"""Conversion passes: structured IR down to an LLVM-dialect CFG.

The ``lower-to-llvm`` pipeline (registered in
:mod:`repro.transforms.pipelines`) composes the passes defined here:

``lower-affine``
    ``affine.for`` / ``affine.load`` / ``affine.store`` /
    ``affine.apply`` / ``affine.min`` to their ``scf`` / ``memref`` /
    ``arith`` equivalents, reusing equal entry-block constants.
``convert-memref-to-llvm``
    ``memref.load`` / ``memref.store`` into
    ``llvm.getelementptr`` + ``llvm.load`` / ``llvm.store`` through a
    ``builtin.unrealized_conversion_cast`` pointer bridge, and private
    static allocations into ``llvm.alloca``.  It runs while the control
    flow is still structured, so each address ingredient is built once,
    where its operands are defined, and an address is one
    ``getelementptr`` per loop level of its terms.
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
    IntegerAttr,
    MemRefType,
    OpResult,
    Operation,
    PointerType,
    Region,
    StringAttr,
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


#: Ops whose regions repeat: a term defined outside one is loop-invariant
#: inside it.  An ``scf.if`` region runs at most once and is no level.
_LOOPS = (scf.ForOp, scf.WhileOp, affine_d.AffineForOp)
_ADDS = (arith.AddIOp, llvm_d.LLVMAddOp)
_CONSTANTS = (arith.ConstantOp, llvm_d.LLVMConstantOp)


def _entry_constants(function: FuncOp):
    """``(constant, reused)`` for a pass that needs ``index`` constants in
    ``function``, so that it reuses an equal constant of the entry block
    instead of building another: each one executes once per work-item.

    ``constant(value, user, build)`` is the first ``index`` constant of
    the entry block equal to ``value`` (``arith`` or ``llvm`` alike),
    moved up to the entry-block op that holds ``user`` if it is below it
    (always legal for an op without operands), and appended to
    ``reused``.
    Without one it is ``build(value, index)`` inserted right before
    ``user``.  Closures for the reason :func:`_address_builder` gives.
    """
    entry = None
    # ``index`` value -> op, filled on first use.  Keyed by the int, not
    # the attribute: hashing a dataclass is a profiled call.
    table = {}
    reused = []

    def constant(value, user, build):
        nonlocal entry
        if entry is None:
            entry = function.regions[0].blocks[0]
            for op in entry.operations:
                if op.__class__ in _CONSTANTS:
                    attr = op.attributes.get("value")
                    if attr.__class__ is IntegerAttr \
                            and attr.type.__class__ is IndexType:
                        table.setdefault(attr.value, op)
        op = table.get(value)
        if op is not None:
            holder = user
            while holder is not None and holder.parent is not entry:
                holder = holder.parent_op()
            if holder is not None and holder is not op \
                    and not op.is_before_in_block(holder):
                op.move_before(holder)
            reused.append(op)
            return op.results[0]
        op = build(value, IndexType())
        user.parent.insert_before(user, op)
        if user.parent is entry:
            table[value] = op
        return op.results[0]

    return constant, reused


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
    loop — so the loop can become ``scf.for``.  A step or coefficient
    constant equal to one already in the entry block is that one.  The
    affine body *block* is moved, not cloned, preserving block-argument
    identities and any nested regions untouched.
    """

    NAME = "lower-affine"
    DESCRIPTION = "lower affine operations to scf/memref/arith"
    STATISTICS = (
        ("lowered", "affine operations expanded to scf/memref/arith"),
        ("constants_reused",
         "equal entry-block constants reused instead of built"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        constant, reused = _entry_constants(function)
        lowered = 0
        # One pre-order snapshot: a lowered loop's body ops move into the
        # new loop as they are, so they come in the order a fresh walk
        # would find them, and lowering erases no affine op but its own.
        for op in list(function.walk(include_self=False)):
            if isinstance(op, (affine_d.AffineForOp,
                               affine_d.AffineLoadOp,
                               affine_d.AffineStoreOp,
                               affine_d.AffineApplyOp,
                               affine_d.AffineMinOp)):
                self._lower(op, constant)
                lowered += 1
        if lowered:
            report.add_statistic(self.NAME, "lowered", lowered)
        if reused:
            report.add_statistic(self.NAME, "constants_reused", len(reused))

    # ------------------------------------------------------------------
    def _lower(self, op: Operation, constant) -> None:
        if isinstance(op, affine_d.AffineForOp):
            self._lower_for(op, constant)
        elif isinstance(op, affine_d.AffineLoadOp):
            op.retype(memref.LoadOp, attributes={})
        elif isinstance(op, affine_d.AffineStoreOp):
            op.retype(memref.StoreOp, attributes={})
        elif isinstance(op, affine_d.AffineApplyOp):
            self._lower_apply(op, constant)
        elif isinstance(op, affine_d.AffineMinOp):
            self._lower_min(op)

    def _lower_for(self, op: affine_d.AffineForOp, constant) -> None:
        block = op.parent
        outermost = op
        ancestor = op.parent_op()
        while ancestor is not None:
            if isinstance(ancestor, (affine_d.AffineForOp, scf.ForOp,
                                     scf.WhileOp)):
                outermost = ancestor
            ancestor = ancestor.parent_op()
        step = constant(op.step, outermost, arith.ConstantOp.build)
        loop = scf.ForOp.build(op.lower_bound, op.upper_bound,
                               step, list(op.init_args))
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

    def _lower_apply(self, op: affine_d.AffineApplyOp, constant) -> None:
        block = op.parent
        coefficients = op.coefficients
        if len(coefficients) != len(op.operands):
            return  # malformed hand-written IR; leave it alone
        offset = op.get_int_attr("constant", 0)
        total: Optional = None
        for coeff, operand in zip(coefficients, op.operands):
            if coeff == 0:
                continue
            if coeff == 1:
                term = operand
            else:
                mul = arith.MulIOp.build(
                    operand, constant(coeff, op, arith.ConstantOp.build))
                block.insert_before(op, mul)
                term = mul.results[0]
            if total is None:
                total = term
            else:
                add = arith.AddIOp.build(total, term)
                block.insert_before(op, add)
                total = add.results[0]
        if offset != 0 or total is None:
            c = constant(offset, op, arith.ConstantOp.build)
            if total is None:
                total = c
            else:
                add = arith.AddIOp.build(total, c)
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

#: The ``scf`` operations :class:`ConvertSCFToCF` expands.
_STRUCTURED = (scf.IfOp, scf.ForOp, scf.WhileOp)


@register_pass
class ConvertSCFToCF(FunctionPass):
    """Expand structured ``scf`` control flow into a ``cf`` CFG.

    Only operations whose parent block lives directly in the function
    region are expanded: ``scf`` nested inside a ``SINGLE_BLOCK``
    structured region (an ``affine.for`` body) stays structured, so the
    pass is safe standalone — run ``lower-affine`` first for a full
    lowering.  Expansion is
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
        blocks = region.blocks
        expanded = index = 0
        # Blocks before ``index`` hold no ``scf``: an expansion only
        # appends blocks (the moved regions, the continuation), so the
        # scan resumes at the expanded op's block, not the first one.
        while index < len(blocks):
            for op in blocks[index].operations:
                if isinstance(op, _STRUCTURED):
                    self._expand(op, region)
                    expanded += 1
                    break
            else:
                index += 1
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
    rewrite is a class change in place (:meth:`Operation.retype`) with
    identical operands, results and attributes.  Unmapped ``arith``
    operations are left in place.
    """

    NAME = "convert-arith-to-llvm"
    DESCRIPTION = "convert arith operations to their llvm equivalents"
    STATISTICS = (
        ("converted", "arith operations rewritten to llvm equivalents"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        converted = 0
        targets = llvm_d.ARITH_TO_LLVM
        for op in list(function.walk(include_self=False)):
            target = targets.get(op.OPERATION_NAME)
            if target is not None:
                op.retype(target)
                converted += 1
        if converted:
            report.add_statistic(self.NAME, "converted", converted)


# ---------------------------------------------------------------------------
# convert-memref-to-llvm
# ---------------------------------------------------------------------------

def _address_builder(function: FuncOp, entry_constant):
    """``(ingredient, constant, address)`` for the accesses of
    ``function``; each pure op that addresses memory built once.

    ``ingredient(access, key, build, *args)`` is the result of
    ``build(*args)`` for ``key``, needed at ``access``.  An ingredient is
    keyed by its kind and operands.  A new one goes right after the
    innermost definition among its operands — one without operands at the
    top of the entry block — so it dominates every access those operands
    reach and serves all of them.  In structured form the innermost
    definition is found by walking up from the access through the
    enclosing blocks, with no dominance query.  When an operand is
    defined in a block that does not enclose the access (CFG input), the
    op goes before the access and is not reused.

    ``constant(value)`` is the ``index`` constant ``value`` at the top of
    the entry block, from ``entry_constant`` (see
    :func:`_entry_constants`).

    ``address(access, bridge, terms)`` is the pointer to the element at
    the sum of ``terms``, whether it was split, and the index adds it
    looked through: one ``getelementptr`` per loop level of the terms,
    outermost first, so the part of the offset that a loop does not
    change is added outside it.

    Closures rather than a class: a class definition costs calls at
    import, and every tool that loads the pass registry imports this
    module, lowering or not.
    """
    entry = function.regions[0].blocks[0]
    built = {}
    # Ops placed at a definition; a later op for the same definition goes
    # after them, so hoisted ops keep their creation order.
    placed = set()
    # Access block -> {enclosing block: (depth, loops between)}.  Blocks
    # do not move while the pass runs, only ops are added.
    ancestries = {}

    def ancestry(block):
        found = ancestries[block] = {}
        loops = 0
        while True:
            found[block] = (len(found), loops)
            owner = block.parent.parent
            if owner is function:
                break
            if isinstance(owner, _LOOPS):
                loops += 1
            block = owner.parent
        # The entry block dominates every block of a CFG body.
        found.setdefault(entry, (len(found), loops))
        return found

    def innermost_definition(access, operands):
        """An op, or a block for its arguments; None if some operand is
        not visible structurally."""
        if not operands:
            return entry
        block = access.parent
        depth = ancestries[block] if block in ancestries else ancestry(block)
        best, best_depth = None, 0
        for value in operands:
            block = value.owner_block()
            if block not in depth:
                return None
            level = depth[block][0]
            op = value.defining_op()
            if best is None or level < best_depth or (
                    level == best_depth and op is not None and (
                        isinstance(best, Block)
                        or best.is_before_in_block(op))):
                best, best_depth = (block if op is None else op), level
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

    def constant(value):
        key = ("constant", value)
        found = built.get(key)
        if found is None:
            top = entry.first_op
            while top in placed:
                top = top.next_op()
            found = built[key] = entry_constant(
                value, top, llvm_d.LLVMConstantOp.build)
            placed.add(found.op)
        return found

    def address(access, bridge, terms):
        first = terms[0]
        if len(terms) == 1 and (first.__class__ is not OpResult
                                or first.op.__class__ not in _ADDS):
            return ingredient(access, ("gep", bridge, first),
                              llvm_d.LLVMGEPOp.build, bridge, terms), \
                False, ()
        block = access.parent
        depth = ancestries[block] if block in ancestries else ancestry(block)
        through = []
        levels = {}
        for term in terms:
            parts = _additive_terms(term, depth, through)
            if parts is None:  # CFG input: one GEP, as built per access
                levels = {0: terms}
                through = []
                break
            for value, loops in parts:
                levels.setdefault(loops, []).append(value)
        pointer = bridge
        for loops in sorted(levels, reverse=True):
            offset, *rest = levels[loops]
            for value in rest:
                offset = ingredient(access, ("add", offset, value),
                                    llvm_d.LLVMAddOp.build, offset, value)
            pointer = ingredient(access, ("gep", pointer, offset),
                                 llvm_d.LLVMGEPOp.build, pointer, [offset])
        return pointer, len(levels) > 1, through

    return ingredient, constant, address


def _additive_terms(value, depth, through):
    """``value`` as ``[(term, loops between its definition and the
    access)]``, or None when some term is not in ``depth`` (the access's
    :func:`_address_builder` ancestry).

    An ``arith.addi`` / ``llvm.add`` is looked through (and appended to
    ``through``) when its terms sit at different loop levels than the add
    itself; otherwise it stays one term, so an access whose terms share
    a level keeps its index as it is.
    """
    # Attributes rather than defining_op()/owner_block(): this runs for
    # every term of every access.
    if value.__class__ is OpResult:
        op = value.op
        block = op.parent
    else:
        op, block = None, value.block
    if block not in depth:
        return None
    loops = depth[block][1]
    if op.__class__ not in _ADDS:
        return [(value, loops)]
    parts = []
    for operand in op.operands:
        inner = _additive_terms(operand, depth, through)
        if inner is None:
            return None
        parts += inner
    for _, level in parts:
        if level != loops:
            through.append(op)
            return parts
    return [(value, loops)]


@register_pass
class ConvertMemRefToLLVM(FunctionPass):
    """Lower memref accesses to ``llvm.getelementptr`` + load/store.

    A converted access bridges the memref SSA value into ``!llvm.ptr``
    with a ``builtin.unrealized_conversion_cast`` (the runtime value —
    ``MemRefStorage``/``MemRefView``/accessor binding — passes through
    unchanged) and computes a row-major linear offset:

    * rank-1 accesses (including the dynamic-shaped views
      ``lower-sycl-accessors`` produces) use their index directly;
    * higher-rank static-shape accesses linearize by Horner's rule with
      ``llvm.mul``/``llvm.add``, matching ``MemRefStorage``'s layout.

    The offset's additive terms (the ``addi`` chain of the index, the
    last Horner step's two addends) are grouped by how many loops lie
    between their definition and the access, and the address is one
    ``getelementptr`` per group, outermost first: what a loop does not
    change is added outside it, as LLVM's reassociation and LICM would
    for either compiler.  Terms all at one level give one
    ``getelementptr``, and index adds left dead are erased.

    The bridge, extent constants, Horner steps, sums and addresses are
    pure and built once per function (see :func:`_address_builder`), so
    an access inside a loop reuses what its operands allow to be
    computed outside it.  An extent constant reuses an equal constant of
    the entry block.  Accesses it cannot prove linearizable keep their
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
        ("split", "addresses built as one getelementptr per loop level"),
        ("constants_reused",
         "equal entry-block constants reused instead of built"),
        ("allocations", "private allocations promoted to llvm.alloca"),
    )

    def run_on_function(self, function: FuncOp,
                        report: CompileReport) -> None:
        # Locals, never pass state: one pass instance runs on every
        # function, and pooled managers reuse it across requests.
        entry_constant, reused = _entry_constants(function)
        builder = _address_builder(function, entry_constant)
        accesses = split = 0
        for op in list(function.walk(include_self=False)):
            if isinstance(op, (memref.LoadOp, memref.StoreOp)):
                converted = self._convert_access(op, *builder)
                if converted is not None:
                    accesses += 1
                    split += converted
        allocations = 0
        for op in list(function.walk(include_self=False)):
            if isinstance(op, (memref.AllocaOp, memref.AllocOp)):
                allocations += self._promote_allocation(op)
        counts = {"accesses": accesses, "split": split,
                  "constants_reused": len(reused),
                  "allocations": allocations}
        for name, _ in self.STATISTICS:
            if counts[name]:
                report.add_statistic(self.NAME, name, counts[name])

    # ------------------------------------------------------------------
    def _index_terms(self, op: Operation, memref_type: MemRefType,
                     ingredient, constant):
        """Values whose sum is the row-major linear offset of ``op``'s
        indices, or None: the index of a rank-1 access, and the last
        Horner step's two addends of a static-shape one."""
        indices = list(op.indices)
        if len(indices) == 1:
            return indices
        if not indices:
            return [constant(0)]
        if (not memref_type.has_static_shape()
                or len(indices) != len(memref_type.shape)):
            return None
        linear = indices[0]
        for dim, index in zip(memref_type.shape[1:-1], indices[1:-1]):
            extent = constant(dim)
            scaled = ingredient(op, ("mul", linear, extent),
                                llvm_d.LLVMMulOp.build, linear, extent)
            linear = ingredient(op, ("add", scaled, index),
                                llvm_d.LLVMAddOp.build, scaled, index)
        extent = constant(memref_type.shape[-1])
        return [ingredient(op, ("mul", linear, extent),
                           llvm_d.LLVMMulOp.build, linear, extent),
                indices[-1]]

    def _convert_access(self, op: Operation, ingredient, constant,
                        address) -> Optional[bool]:
        """Whether the converted access was split by loop level; None
        when it was not converted."""
        if isinstance(op, memref.LoadOp) and not op.results[0].has_uses():
            op.erase()  # a dead read: nothing to address
            return None
        memref_value = op.memref
        memref_type = memref_value.type
        if not isinstance(memref_type, MemRefType):
            return None
        element = memref_type.element_type
        if not is_scalar(element):
            return None
        terms = self._index_terms(op, memref_type, ingredient, constant)
        if terms is None:
            return None
        bridge = ingredient(op, ("bridge", memref_value),
                            UnrealizedConversionCastOp.build,
                            memref_value, PointerType(element))
        pointer, split, through = address(op, bridge, terms)
        if isinstance(op, memref.LoadOp):
            op.retype(llvm_d.LLVMLoadOp, (pointer,), {})
        else:
            op.retype(llvm_d.LLVMStoreOp, (op.value, pointer), {})
        # The index adds looked through, outermost first, are dead unless
        # something else reads them.
        for add in reversed(through):
            if add.parent is not None and not add.results[0].has_uses():
                add.erase()
        return split

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
                body_op.retype(llvm_d.LLVMReturnOp, attributes={})
            elif isinstance(body_op, CallOp):
                callee = body_op.callee_name()
                if callee is not None:
                    body_op.retype(llvm_d.LLVMCallOp, attributes={
                        "callee": StringAttr(callee)})
