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
implementation).  Each tile is stored with its loop-mapped row last, so
the inner loop reads every tile unit-stride.

Once the candidates read local memory, a load/store pair of one location
(``C[i, j]`` of a GEMM, see :func:`find_reductions`) can stay in a
register for the whole loop: the pass loads it before the tile loop,
carries it through both tiled loops as an ``iter_arg`` and stores it
after them.  That is legal although the pair may alias a candidate and
crosses the barriers, by the rule Detect Reduction applies untiled
(:class:`~repro.transforms.detect_reduction.SharedReads`): a candidate
is a read other work-items of the group share, and the barriers are the
pass's own.

The paper prefetches *when that pays*.  Before it tiles a loop the pass
estimates, per work-item, the ops executed and the bytes moved with and
without the tile (:meth:`LoopInternalization._estimate`), and tiles only
when the tile lowers one of the two; otherwise it declines with a remark
naming both estimates.  With ``c`` candidates, ``N`` trips and tile
``T``, both loops read the candidates ``c N`` times and keep the same
pairs in a register; the tile adds a global load and a local store per
candidate and tile, ``2 c N / T``, so it never moves fewer bytes (local
bytes count like global ones) and pays only when the ops it saves —
the address arithmetic of the candidates — outweigh the ops each tile
adds.
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
    SYCLConstructorOp,
    SYCLGroupBarrierOp,
    SYCLNDItemGetGlobalIDOp,
    SYCLNDItemGetGroupIDOp,
    SYCLNDItemGetGroupOp,
    SYCLNDItemGetLocalIDOp,
    accessor_type_of,
    work_group_size_of,
)
from ..analysis.memory_access import BasisKind, MemoryAccess, MemoryAccessAnalysis
from ..analysis.sycl_alias import SYCLAliasAnalysis
from ..analysis.uniformity import UniformityAnalysis
from .detect_reduction import (ReductionCandidate, SharedReads,
                               find_reductions)
from .lower_sycl import linearization_ops, subscript_components
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

    def tile_order(self) -> List[int]:
        """The rows in the order the tile stores them: the loop-mapped
        row last, so the tiled loop reads the tile unit-stride."""
        return sorted(range(len(self.rows)),
                      key=lambda row: self.rows[row].kind == "loop")


@dataclass(frozen=True)
class LoopCost:
    """What one work-item executes in a loop: ops and bytes moved, and
    the load/store pairs (:func:`find_reductions`) a tiling keeps in a
    register across the whole loop."""

    ops: int
    bytes: int
    pairs: Tuple[ReductionCandidate, ...] = ()


@dataclass(frozen=True)
class _WorkItemRows:
    """The work-item dimensions a tiling queries: every tile row's local
    id, the global id of a row addressed by its own dimension, and the
    group id of a transposed one."""

    needed: Tuple[int, ...]
    own: frozenset
    transposed: frozenset

    @classmethod
    def of(cls, candidates: Sequence["InternalizationCandidate"]):
        thread_rows = [(row_index, row.thread_dim)
                       for c in candidates
                       for row_index, row in enumerate(c.rows)
                       if row.kind == "thread"]
        needed = {dim for _, dim in thread_rows} | \
            {dim for c in candidates for dim in range(len(c.rows))}
        return cls(tuple(sorted(needed)),
                   frozenset(d for row, d in thread_rows if d == row),
                   frozenset(d for row, d in thread_rows if d != row))


def _element_bytes(memref: Value) -> int:
    element = memref.type.element_type
    return max(1, getattr(element, "width", 64) // 8)


_ACCESSES = (affine_dialect.AffineLoadOp, memref_dialect.LoadOp,
             affine_dialect.AffineStoreOp, memref_dialect.StoreOp)


#: Free once the pipeline is done: constants are hoisted, and the id
#: objects fold into the addresses their subscripts lower to.
_FREE = (arith.ConstantOp, memref_dialect.AllocaOp, SYCLConstructorOp)


def _trip_costs(body: Sequence[Operation], iv: Value):
    """``(op, ops, bytes, reads_iv)`` per op of ``body``: what the op
    costs on one trip as the rest of the pipeline leaves it, and whether
    it computes with ``iv``.

    Ops that do not vary with ``iv`` are hoisted by SYCL-LICM and run
    once either way, so they cost nothing here; allocas, constructors
    and constants are free; a subscript costs the linearization ops
    ``lower-sycl-accessors`` gives it that vary; every access counts.
    """
    varying = {iv}
    costs = []
    for op in body:
        if isinstance(op, _FREE):
            continue  # nothing they define varies
        subscript = isinstance(op, SYCLAccessorSubscriptOp)
        operands = (subscript_components(op) or op.operands) if subscript \
            else op.operands
        access = isinstance(op, _ACCESSES)
        varies = access or any(v in varying for v in operands)
        if varies:
            varying.update(op.results)
        if access:
            costs.append((op, 1, _element_bytes(op.memref), iv in operands))
        elif subscript:
            costs.append((op, linearization_ops(
                [v in varying for v in operands]), 0, iv in operands))
        else:
            costs.append((op, int(varies), 0, iv in operands))
    return costs


def _under_branch(op: Operation) -> bool:
    """Whether an ``scf.if`` encloses ``op``."""
    ancestor = op.parent_op()
    while ancestor is not None:
        if ancestor.name == "scf.if":
            return True
        ancestor = ancestor.parent_op()
    return False


def _accessed(memref: Value) -> str:
    """What ``memref`` addresses, by name: the accessor of a subscript."""
    subscript = memref.defining_op()
    if isinstance(subscript, SYCLAccessorSubscriptOp):
        memref = subscript.accessor
    return memref.name_hint or "a location"


@register_pass
class LoopInternalization(FunctionPass):
    """Prefetches reused global-memory accesses into SYCL local memory."""

    NAME = "loop-internalization"

    STATISTICS = (
        ("loops_internalized", "loops tiled through SYCL local memory"),
        ("references_prefetched", "global-memory references prefetched"),
        ("reductions_kept", "load/store pairs kept in a register across "
                            "the tile loop"),
        ("divergent_loops_skipped", "loops skipped due to divergence"),
    )

    #: Decides which load/store pairs stay in a register.
    _ALIAS = SYCLAliasAnalysis()

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

        shared = SharedReads.of_kernel(function, self.get_analysis)
        loops = [op for op in function.walk()
                 if isinstance(op, affine_dialect.AffineForOp)]
        for loop in loops:
            if loop.parent is None:
                continue
            # Only innermost loops without nested control flow.
            if any(nested.regions for nested
                   in loop.body.ops_without_terminator()):
                continue
            # Only a branch can diverge: the analysis is built for the
            # kernels that have one above a candidate loop.
            if _under_branch(loop) and self.get_analysis(
                    UniformityAnalysis, function).is_in_divergent_region(loop):
                report.remark(
                    f"{self.NAME}: loop in divergent region not internalized "
                    f"in {function.sym_name}")
                report.add_statistic(self.NAME, "divergent_loops_skipped")
                continue
            candidates, tile = self._find_candidates(function, loop, wg_size,
                                                     report)
            if not candidates or tile is None:
                continue
            tiled, untiled = self._estimate(loop, candidates, tile, shared)
            estimates = (f"ops with/without {tiled.ops}/{untiled.ops}, "
                         f"bytes with/without {tiled.bytes}/{untiled.bytes} "
                         f"per work-item")
            if tiled.ops >= untiled.ops and tiled.bytes >= untiled.bytes:
                report.remark(
                    f"{self.NAME}: a tile of {tile} lowers neither ops nor "
                    f"bytes in {function.sym_name}: {estimates}")
                continue
            kept = "".join(f", kept {_accessed(pair.memref)} in a register"
                           for pair in tiled.pairs)
            self._transform(loop, candidates, tiled.pairs, nd_item, tile,
                            wg_size)
            report.add_statistic(self.NAME, "loops_internalized")
            report.add_statistic(self.NAME, "references_prefetched",
                                 len(candidates))
            report.add_statistic(self.NAME, "reductions_kept",
                                 len(tiled.pairs))
            report.remark(
                f"{self.NAME}: prefetched {len(candidates)} array reference(s) "
                f"to local memory{kept} in {function.sym_name}: {estimates}")

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
                         wg_size: Tuple[int, ...], report: CompileReport):
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
            candidate = InternalizationCandidate(op, subscript, access, rows)
            highest = max(_WorkItemRows.of([candidate]).needed)
            if highest >= len(wg_size):
                # Its tile would query a work-item dimension the
                # ND-range does not have.
                report.remark(
                    f"{self.NAME}: a tile of {_accessed(op.memref)} needs "
                    f"work-item dimension {highest}, which a work-group of "
                    f"rank {len(wg_size)} lacks, in {function.sym_name}")
                continue
            candidates.append(candidate)
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
    # Cost estimate
    # ------------------------------------------------------------------
    def _estimate(self, loop: affine_dialect.AffineForOp,
                  candidates: List[InternalizationCandidate],
                  tile: int, shared: Optional[SharedReads]
                  ) -> Tuple[LoopCost, LoopCost]:
        """Per-work-item ``(with, without)`` the tile, for the whole loop.

        Without the tile every trip runs the body.  With it every trip of
        the inner loop runs the cloned body, a local load in place of
        each candidate, and every tile runs what :meth:`_transform` emits
        into the outer loop: per candidate a global load and a local
        store plus the address ops that vary with the tile, two barriers,
        the inner loop and its yield.  The work-item queries and tiles it
        emits around the loop run once.  Either way a reduction pair (see
        :func:`find_reductions`) costs a load before and a store after
        the loop instead of both on every trip: the pass keeps the pairs
        Detect Reduction would keep untiled.  The tiled cost carries them.
        """
        trips = loop.constant_trip_count()
        tiles = trips // tile
        costs = _trip_costs(loop.body.ops_without_terminator(),
                            loop.induction_variable())

        def trip(skip: set) -> Tuple[int, int, bool]:
            # The yield, then every op the trip still runs.
            left = [c for c in costs if c[0] not in skip]
            return (1 + sum(c[1] for c in left), sum(c[2] for c in left),
                    any(c[3] for c in left))

        def fixed(value: Value) -> bool:
            # Defined outside, or a subscript SYCL-LICM hoists out of it.
            if loop.is_defined_outside(value):
                return True
            subscript = value.defining_op()
            if not isinstance(subscript, SYCLAccessorSubscriptOp):
                return False
            components = subscript_components(subscript)
            return components is not None and all(
                loop.is_defined_outside(v)
                for v in [subscript.accessor] + components)

        pairs = find_reductions(loop, self._ALIAS, fixed, shared)
        # Out of the loop, each pair is one load and one store.
        reduced = {op for p in pairs for op in (p.load, p.store)}
        reduced_bytes = sum(2 * _element_bytes(p.memref) for p in pairs)
        ops, moved, _ = trip(reduced)
        without = LoopCost(1 + trips * ops + len(reduced),
                           trips * moved + reduced_bytes)

        ops, moved, reads_iv = trip(reduced | {
            op for c in candidates for op in (c.load, c.subscript)})
        # A local load per candidate, and ``t + k'`` if the body uses it.
        inner_ops = ops + len(candidates) + reads_iv
        inner_bytes = moved + sum(_element_bytes(c.access.memref)
                                  for c in candidates)
        tile_ops, tile_bytes = 4, 0
        for candidate in candidates:
            # The global load, the local store, ``t + local_id`` of the
            # loop row and the address ops it feeds.
            is_loop = [row.kind == "loop" for row in candidate.rows]
            tile_ops += 2 + sum(is_loop) + linearization_ops(is_loop)
            tile_bytes += 2 * _element_bytes(candidate.access.memref)
        # Around the loop: the outer loop, the group, the tiles, the
        # work-item queries and the pairs.
        rows = _WorkItemRows.of(candidates)
        once = (2 + len(candidates) + len(rows.needed) + len(rows.own)
                + len(rows.transposed) + len(reduced))
        tiled = LoopCost(once + tiles * tile_ops + trips * inner_ops,
                         reduced_bytes + tiles * tile_bytes
                         + trips * inner_bytes, tuple(pairs))
        return tiled, without

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def _transform(self, loop: affine_dialect.AffineForOp,
                   candidates: List[InternalizationCandidate],
                   pairs: Sequence[ReductionCandidate], nd_item: Value,
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
        rows = _WorkItemRows.of(candidates)
        for dim in rows.needed:
            dim_const = insert(arith.ConstantOp.build(dim, i32())).result
            local_ids[dim] = insert(
                SYCLNDItemGetLocalIDOp.build(nd_item, dim_const)).result
            if dim in rows.own:
                global_ids[dim] = insert(
                    SYCLNDItemGetGlobalIDOp.build(nd_item, dim_const)).result
            if dim in rows.transposed:
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

        # Each pair's address and value before the tile loop: the value
        # is carried through both tiled loops and stored after them.
        addresses = [self._address_before(loop, pair.memref, insert)
                     for pair in pairs]
        initial = [insert(pair.load.clone({pair.memref: address})).result
                   for pair, address in zip(pairs, addresses)]

        # Outer tiled loop: for t = 0 .. N step M (Listing 7, l. 13).
        outer = affine_dialect.AffineForOp.build(
            zero.result, upper_const.result, step=tile, iter_args=initial)
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
            subscript = self._subscript(candidate.subscript.accessor,
                                        global_indices, append_outer)
            prefetch_load = append_outer(affine_dialect.AffineLoadOp.build(
                subscript, [append_outer(
                    arith.ConstantOp.build(0, index())).result]))
            append_outer(memref_dialect.StoreOp.build(
                prefetch_load.result, tile_memref,
                [local_ids[row] for row in candidate.tile_order()]))

        append_outer(SYCLGroupBarrierOp.build(group.result))

        # Inner tiled loop over the local tiles (Listing 7, l. 17-18).
        inner = affine_dialect.AffineForOp.build(
            zero.result, tile_const.result, step=1,
            iter_args=outer_body.arguments[1:])
        outer_body.append(inner)
        inner_body = inner.body
        k_prime = inner.induction_variable()

        # The original induction variable becomes t + k'.
        global_k = arith.AddIOp.build(t_value, k_prime)
        inner_body.append(global_k)

        mapping: Dict[Value, Value] = {loop.induction_variable(): global_k.result}
        for pair, carried in zip(pairs, inner_body.arguments[1:]):
            mapping[pair.load.result] = carried
        candidate_loads = {id(c.load): (c, tile_memref)
                           for c, tile_memref in zip(candidates, tiles)}
        skipped = {id(op) for pair in pairs for op in (pair.load, pair.store)}
        old_terminator = loop.body.terminator
        for op in loop.body.operations:
            if op is old_terminator or id(op) in skipped:
                continue
            if id(op) in candidate_loads:
                candidate, tile_memref = candidate_loads[id(op)]
                tile_indices = [
                    k_prime if candidate.rows[row].kind == "loop"
                    else local_ids[candidate.rows[row].thread_dim]
                    for row in candidate.tile_order()]
                replacement = memref_dialect.LoadOp.build(tile_memref, tile_indices)
                inner_body.append(replacement)
                mapping[op.results[0]] = replacement.result
                continue
            cloned = op.clone(mapping)
            inner_body.append(cloned)
        inner_body.append(affine_dialect.AffineYieldOp.build(
            [mapping.get(pair.store.value, pair.store.value)
             for pair in pairs]))

        outer_body.append(SYCLGroupBarrierOp.build(group.result))
        outer_body.append(affine_dialect.AffineYieldOp.build(inner.results))

        # The pairs' final values go to memory once, after the loop.
        for pair, address, result in zip(pairs, addresses, outer.results):
            parent_block.insert_before(loop, type(pair.store).build(
                result, address, list(pair.indices)))

        # The original loop is no longer referenced (loops with results
        # are no candidates).
        loop.erase()

    @staticmethod
    def _address_before(loop: affine_dialect.AffineForOp, memref: Value,
                        insert) -> Value:
        """``memref`` where it is defined before ``loop``: a subscript in
        the loop is rebuilt from its components, all defined outside."""
        if loop.is_defined_outside(memref):
            return memref
        subscript = memref.defining_op()
        return LoopInternalization._subscript(
            subscript.accessor, subscript_components(subscript), insert)

    @staticmethod
    def _subscript(accessor: Value, indices: Sequence[Value],
                   append) -> Value:
        """An id of ``indices`` (``sycl.constructor``) and ``accessor``
        subscripted with it."""
        from ..dialects.sycl import IDType

        id_alloca = append(memref_dialect.AllocaOp.build(
            MemRefType((1,), IDType(len(indices)))))
        append(SYCLConstructorOp.build("id", id_alloca.result, list(indices)))
        return append(SYCLAccessorSubscriptOp.build(
            accessor, id_alloca.result)).result
