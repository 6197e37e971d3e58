"""Loop Internalization (paper, Section VI-C, Listings 6-7).

SYCL global-memory accesses inside a counted loop that exhibit temporal
reuse are prefetched into work-group local memory:

* the loop is tiled by the work-group size ``M``;
* an ``M x M`` (or ``M``) local-memory tile is allocated per candidate
  access;
* in the tiled outer loop every work-item prefetches one element of each
  tile, followed by a ``group_barrier``;
* the tiled inner loop reads from the local tiles instead of global memory,
  followed by a second ``group_barrier``.

Candidates are identified with the Memory Access Analysis (Section V-D);
the Uniformity Analysis (Section V-C) rejects loops inside divergent
regions, where the injected barriers would deadlock; stores are not
considered candidates (an explicitly stated limitation of the paper's
implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import (
    IntegerAttr,
    MemRefType,
    Operation,
    Value,
    i32,
    i64,
    index,
)
from ..dialects import affine as affine_dialect
from ..dialects import arith
from ..dialects import memref as memref_dialect
from ..dialects.func import FuncOp
from ..dialects.sycl import (
    NDItemType,
    SYCLAccessorSubscriptOp,
    SYCLGroupBarrierOp,
    SYCLNDItemGetGlobalIDOp,
    SYCLNDItemGetGroupIDOp,
    SYCLNDItemGetGroupOp,
    SYCLNDItemGetLocalIDOp,
    accessor_type_of,
)
from ..analysis.memory_access import BasisKind, MemoryAccess, MemoryAccessAnalysis
from ..analysis.uniformity import UniformityAnalysis
from .pass_manager import CompileReport, FunctionPass, register_pass


@dataclass
class _RowPlan:
    """How one dimension of a candidate access maps to the tile."""

    kind: str              # "thread" or "loop"
    thread_dim: int = -1   # which work-item dimension (for kind == "thread")


@dataclass
class InternalizationCandidate:
    """One global-memory load to be prefetched into local memory."""

    load: Operation
    subscript: SYCLAccessorSubscriptOp
    access: MemoryAccess
    rows: List[_RowPlan]


def work_group_size_of(function: FuncOp) -> Optional[Tuple[int, ...]]:
    """Work-group size propagated from the host (``sycl.work_group_size``)."""
    attr = function.attributes.get("sycl.work_group_size")
    if attr is None:
        return None
    try:
        return tuple(int(a.value) for a in attr)
    except (TypeError, AttributeError):
        return None


@register_pass
class LoopInternalization(FunctionPass):
    """Prefetches reused global-memory accesses into SYCL local memory."""

    NAME = "loop-internalization"

    STATISTICS = (
        ("loops_internalized", "loops tiled through SYCL local memory"),
        ("references_prefetched", "global-memory references prefetched"),
        ("divergent_loops_skipped", "loops skipped due to divergence"),
    )

    def __init__(self, uniformity: Optional[UniformityAnalysis] = None,
                 options=None):
        super().__init__(options=options)
        self._uniformity = uniformity

    # ------------------------------------------------------------------
    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        if not function.is_kernel():
            return
        wg_size = work_group_size_of(function)
        if not wg_size:
            return
        nd_item = self._nd_item_argument(function)
        if nd_item is None:
            return

        uniformity = self._uniformity or \
            self.get_analysis(UniformityAnalysis, function)
        loops = [op for op in function.walk()
                 if isinstance(op, affine_dialect.AffineForOp)]
        for loop in loops:
            if loop.parent is None:
                continue
            # Only innermost loops without nested control flow.
            if any(nested.regions for nested
                   in loop.body.ops_without_terminator()):
                continue
            if uniformity.is_in_divergent_region(loop):
                report.remark(
                    f"{self.NAME}: loop in divergent region not internalized "
                    f"in {function.sym_name}")
                report.add_statistic(self.NAME, "divergent_loops_skipped")
                continue
            candidates, tile = self._find_candidates(function, loop, wg_size)
            if not candidates or tile is None:
                continue
            self._transform(function, loop, candidates, nd_item, tile, wg_size)
            report.add_statistic(self.NAME, "loops_internalized")
            report.add_statistic(self.NAME, "references_prefetched",
                                 len(candidates))
            report.remark(
                f"{self.NAME}: prefetched {len(candidates)} array reference(s) "
                f"to local memory in {function.sym_name}")

    # ------------------------------------------------------------------
    # Candidate discovery
    # ------------------------------------------------------------------
    @staticmethod
    def _nd_item_argument(function: FuncOp) -> Optional[Value]:
        for argument in function.arguments:
            type_ = argument.type
            element = getattr(type_, "element_type", type_)
            if isinstance(element, NDItemType):
                return argument
        return None

    def _find_candidates(self, function: FuncOp, loop: affine_dialect.AffineForOp,
                         wg_size: Tuple[int, ...]):
        trip_count = loop.constant_trip_count()
        bounds = loop.constant_bounds()
        if trip_count is None or bounds is None or bounds[0] != 0 or \
                loop.step != 1 or loop.init_args:
            return [], None
        tile = min(wg_size)
        if any(extent != tile for extent in wg_size):
            # Require square work-groups so a single tile size fits all dims.
            return [], None
        if trip_count % tile != 0 or trip_count < tile or tile < 2:
            return [], None

        analysis = self.get_analysis(MemoryAccessAnalysis, loop)
        iv = loop.induction_variable()
        candidates: List[InternalizationCandidate] = []
        for op in loop.body.ops_without_terminator():
            if not isinstance(op, (affine_dialect.AffineLoadOp,
                                   memref_dialect.LoadOp)):
                continue
            subscript = op.memref.defining_op()
            if not isinstance(subscript, SYCLAccessorSubscriptOp):
                continue
            accessor_type = accessor_type_of(subscript.accessor)
            if accessor_type is None or accessor_type.is_local:
                continue
            access = analysis.access_for(op)
            if access is None or not access.has_temporal_reuse():
                continue
            rows = self._plan_rows(access, iv)
            if rows is None:
                continue
            candidates.append(InternalizationCandidate(op, subscript, access, rows))
        return candidates, tile

    @staticmethod
    def _plan_rows(access: MemoryAccess, loop_iv: Value) -> Optional[List[_RowPlan]]:
        """Classify every access dimension as thread-mapped or loop-mapped.

        A candidate must address each dimension either with exactly one
        work-item global id (unit coefficient, zero offset) or with exactly
        the loop induction variable (unit coefficient, zero offset), with
        exactly one loop-mapped dimension.
        """
        rows: List[_RowPlan] = []
        loop_rows = 0
        for row, offset in zip(access.matrix, access.offsets):
            if offset != 0:
                return None
            nonzero = [(col, coeff) for col, coeff in enumerate(row) if coeff != 0]
            if len(nonzero) != 1:
                return None
            col, coeff = nonzero[0]
            if coeff != 1:
                return None
            basis = access.basis[col]
            if basis.kind is BasisKind.LOOP:
                if basis.value is not loop_iv:
                    return None
                rows.append(_RowPlan("loop"))
                loop_rows += 1
            elif basis.kind is BasisKind.WORK_ITEM:
                dim = LoopInternalization._work_item_dimension(basis.value)
                if dim is None:
                    return None
                rows.append(_RowPlan("thread", dim))
            else:
                return None
        if loop_rows != 1:
            return None
        thread_dims = [r.thread_dim for r in rows if r.kind == "thread"]
        if len(set(thread_dims)) != len(thread_dims):
            return None
        if len(rows) > 2:
            return None
        return rows

    @staticmethod
    def _work_item_dimension(value: Value) -> Optional[int]:
        defining = value.defining_op()
        if defining is None or defining.dimension is None:
            return None
        dim = arith.constant_value_of(defining.dimension)
        return int(dim) if dim is not None else None

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def _transform(self, function: FuncOp, loop: affine_dialect.AffineForOp,
                   candidates: List[InternalizationCandidate], nd_item: Value,
                   tile: int, wg_size: Tuple[int, ...]) -> None:
        parent_block = loop.parent
        bounds = loop.constant_bounds()
        assert parent_block is not None and bounds is not None
        upper = bounds[1]

        def insert(op: Operation) -> Operation:
            parent_block.insert_before(loop, op)
            return op

        # Work-item coordinates used by the prefetch and the tiled uses.
        # A row addressed by its own work-item dimension prefetches at
        # group_id(d) * tile + local_id(d), which is get_global_id(d) under
        # the work-group size this pass requires — one query CSE merges
        # with the kernel's own.  Transposed rows keep the explicit form.
        local_ids: Dict[int, Value] = {}
        group_ids: Dict[int, Value] = {}
        global_ids: Dict[int, Value] = {}
        thread_rows = [(row_index, row.thread_dim)
                       for c in candidates
                       for row_index, row in enumerate(c.rows)
                       if row.kind == "thread"]
        own_dims = {dim for row_index, dim in thread_rows if dim == row_index}
        transposed_dims = {dim for row_index, dim in thread_rows
                           if dim != row_index}
        needed_dims = sorted(
            {dim for _, dim in thread_rows} |
            {dim for c in candidates for dim in range(len(c.rows))})
        for dim in needed_dims:
            dim_const = insert(arith.ConstantOp.build(dim, i32())).result
            local_ids[dim] = insert(
                SYCLNDItemGetLocalIDOp.build(nd_item, dim_const)).result
            if dim in own_dims:
                global_ids[dim] = insert(
                    SYCLNDItemGetGlobalIDOp.build(nd_item, dim_const)).result
            if dim in transposed_dims:
                group_ids[dim] = insert(
                    SYCLNDItemGetGroupIDOp.build(nd_item, dim_const)).result

        group = insert(SYCLNDItemGetGroupOp.build(nd_item, len(wg_size)))
        tile_const = insert(arith.ConstantOp.build(tile, index()))
        zero = insert(arith.ConstantOp.build(0, index()))
        upper_const = insert(arith.ConstantOp.build(upper, index()))

        # Local-memory tiles, one per candidate reference (Listing 7, l. 2-3).
        tiles: List[Value] = []
        for candidate in candidates:
            elem = candidate.access.memref.type.element_type
            shape = tuple([tile] * len(candidate.rows))
            tile_alloc = insert(memref_dialect.AllocOp.build(
                MemRefType(shape, elem, "local")))
            tile_alloc.set_attr("sycl.local_tile", IntegerAttr(tile, i64()))
            tiles.append(tile_alloc.result)

        # Outer tiled loop: for t = 0 .. N step M (Listing 7, l. 13).
        outer = affine_dialect.AffineForOp.build(zero.result, upper_const.result,
                                                 step=tile)
        parent_block.insert_before(loop, outer)
        outer_body = outer.body
        t_value = outer.induction_variable()

        def append_outer(op: Operation) -> Operation:
            outer_body.append(op)
            return op

        # Prefetch one element per work-item per tile (Listing 7, l. 14-15).
        for candidate, tile_memref in zip(candidates, tiles):
            global_indices: List[Value] = []
            for row_index, row in enumerate(candidate.rows):
                if row.kind == "thread" and row.thread_dim == row_index:
                    global_indices.append(global_ids[row_index])
                    continue
                if row.kind == "loop":
                    base = t_value
                else:
                    base = append_outer(arith.MulIOp.build(
                        group_ids[row.thread_dim], tile_const.result)).result
                global_indices.append(append_outer(
                    arith.AddIOp.build(base, local_ids[row_index])).result)
            prefetch_load = append_outer(self._build_accessor_load(
                candidate, global_indices, append_outer))
            tile_indices = [local_ids[row_index]
                            for row_index in range(len(candidate.rows))]
            append_outer(memref_dialect.StoreOp.build(
                prefetch_load.result, tile_memref, tile_indices))

        append_outer(SYCLGroupBarrierOp.build(group.result))

        # Inner tiled loop over the local tiles (Listing 7, l. 17-18).
        inner = affine_dialect.AffineForOp.build(zero.result, tile_const.result,
                                                 step=1)
        outer_body.append(inner)
        inner_body = inner.body
        k_prime = inner.induction_variable()

        # The original induction variable becomes t + k'.
        global_k = arith.AddIOp.build(t_value, k_prime)
        inner_body.append(global_k)

        mapping: Dict[Value, Value] = {loop.induction_variable(): global_k.result}
        candidate_loads = {id(c.load): (c, tile_memref)
                           for c, tile_memref in zip(candidates, tiles)}
        old_terminator = loop.body.terminator
        for op in loop.body.operations:
            if op is old_terminator:
                continue
            if id(op) in candidate_loads:
                candidate, tile_memref = candidate_loads[id(op)]
                tile_indices = []
                for row in candidate.rows:
                    if row.kind == "loop":
                        tile_indices.append(k_prime)
                    else:
                        tile_indices.append(local_ids[row.thread_dim])
                replacement = memref_dialect.LoadOp.build(tile_memref, tile_indices)
                inner_body.append(replacement)
                mapping[op.results[0]] = replacement.result
                continue
            cloned = op.clone(mapping)
            inner_body.append(cloned)
        inner_body.append(affine_dialect.AffineYieldOp.build())

        outer_body.append(SYCLGroupBarrierOp.build(group.result))
        outer_body.append(affine_dialect.AffineYieldOp.build())

        # The original loop is no longer referenced.
        for result in loop.results:
            if result.has_uses():
                return  # loops with results are rejected earlier; be safe
        loop.erase()

    def _build_accessor_load(self, candidate: InternalizationCandidate,
                             indices: Sequence[Value], append) -> Operation:
        """Build ``sycl.constructor`` + ``subscript`` + load for the prefetch."""
        from ..dialects.sycl import IDType, SYCLConstructorOp

        rank = len(indices)
        id_alloca = append(memref_dialect.AllocaOp.build(
            MemRefType((1,), IDType(rank))))
        append(SYCLConstructorOp.build("id", id_alloca.result, list(indices)))
        subscript = append(SYCLAccessorSubscriptOp.build(
            candidate.subscript.accessor, id_alloca.result))
        zero = append(arith.ConstantOp.build(0, index()))
        load = affine_dialect.AffineLoadOp.build(subscript.result, [zero.result])
        return load
