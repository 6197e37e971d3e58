"""Host-device optimizations (paper, Section VII-B).

Working on the combined host+device module produced by the compilation flow
(Fig. 1), this pass analyses the raised host code around every
``sycl.host.schedule_kernel`` and propagates information into the device
kernel:

* **Constant ND-range propagation** — when the global/local ranges are
  built from compile-time constants, device-side queries
  (``get_global_range``, ``get_local_range``, ``get_group_range``,
  ``item.get_range``) are replaced by constants, and the work-group size is
  recorded on the kernel (``sycl.work_group_size``) for Loop
  Internalization.
* **Accessor member propagation** — for non-ranged accessors the access
  range equals the buffer range and the offset is zero; corresponding
  device queries are folded, constant ranges are propagated, and accessors
  built on distinct buffers are recorded as non-aliasing
  (``sycl.noalias_args``), refining the SYCL alias analysis.
* **Scalar constant propagation** — captured scalar arguments passed as
  host constants are materialized as constants in the kernel.
* **SYCL dead argument elimination** — kernel arguments that end up unused
  are recorded (``sycl.dead_args`` on the kernel, ``dead_args`` on the
  schedule op) so the runtime does not pass them, making kernel launches
  cheaper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import (
    ArrayAttr,
    Builder,
    InsertionPoint,
    IntegerAttr,
    Operation,
    Value,
    i64,
)
from ..dialects import arith
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..dialects.llvm import LLVMConstantOp
from ..dialects.sycl import (
    SYCLHostConstructorOp,
    SYCLHostScheduleKernelOp,
)
from .pass_manager import CompileReport, ModulePass, PassOptions, register_pass


@dataclass
class AccessorInfo:
    """Host-side facts about one accessor kernel argument."""

    constructor: SYCLHostConstructorOp
    buffer: Optional[Value] = None
    ranged: bool = False
    access_range: Optional[Tuple[int, ...]] = None
    constant_data: bool = False


@dataclass
class KernelLaunchInfo:
    """Host-side facts about one kernel launch."""

    schedule: SYCLHostScheduleKernelOp
    kernel: FuncOp
    global_size: Optional[Tuple[int, ...]] = None
    local_size: Optional[Tuple[int, ...]] = None
    accessor_args: Dict[int, AccessorInfo] = field(default_factory=dict)
    scalar_constants: Dict[int, object] = field(default_factory=dict)


def host_constructor_of(value: Value) -> Optional[SYCLHostConstructorOp]:
    """Find the ``sycl.host.constructor`` writing into ``value``."""
    for use in value.uses:
        op = use.owner
        if isinstance(op, SYCLHostConstructorOp) and op.destination is value:
            return op
    return None


def _constant_operands(op: Operation) -> Optional[Tuple[int, ...]]:
    values = []
    for operand in op.operands[1:]:
        const = arith.constant_value_of(operand)
        if const is None and isinstance(operand.defining_op(), LLVMConstantOp):
            const = operand.defining_op().value
        if const is None:
            return None
        values.append(int(const))
    return tuple(values)


def _range_constant(value: Optional[Value]) -> Optional[Tuple[int, ...]]:
    if value is None:
        return None
    constructor = host_constructor_of(value)
    if constructor is None or constructor.constructed_type not in ("range", "id"):
        return None
    return _constant_operands(constructor)


@register_pass
class HostDeviceOptimizationPass(ModulePass):
    """Joint host/device constant propagation and accessor analysis."""

    NAME = "host-device-propagation"

    STATISTICS = (
        ("range_queries_folded", "device range queries folded to constants"),
        ("accessor_members_folded", "accessor member queries folded"),
        ("scalar_constants_propagated", "host scalar constants propagated"),
        ("constant_buffers_propagated", "constant buffer contents propagated"),
        ("noalias_accessors", "accessors proven disjoint on the host"),
        ("dead_arguments", "kernel arguments marked dead"),
    )

    @dataclass
    class Options(PassOptions):
        propagate_nd_range: bool = True
        propagate_accessor_members: bool = True
        propagate_scalars: bool = True
        mark_dead_arguments: bool = True

    #: Device-side query operations replaced by the propagated local range.
    _LOCAL_RANGE_QUERIES = ("sycl.nd_item.get_local_range",
                            "sycl.group.get_local_range")
    _GLOBAL_RANGE_QUERIES = ("sycl.nd_item.get_global_range",
                             "sycl.item.get_range")
    _GROUP_RANGE_QUERIES = ("sycl.nd_item.get_group_range",
                            "sycl.group.get_group_range")

    def __init__(self, propagate_nd_range: Optional[bool] = None,
                 propagate_accessor_members: Optional[bool] = None,
                 propagate_scalars: Optional[bool] = None,
                 mark_dead_arguments: Optional[bool] = None,
                 options: Optional["HostDeviceOptimizationPass.Options"] = None):
        options = options if options is not None else self.Options()
        overrides = {
            "propagate_nd_range": propagate_nd_range,
            "propagate_accessor_members": propagate_accessor_members,
            "propagate_scalars": propagate_scalars,
            "mark_dead_arguments": mark_dead_arguments,
        }
        set_overrides = {k: v for k, v in overrides.items() if v is not None}
        if set_overrides:
            options = dataclasses.replace(options, **set_overrides)
        super().__init__(options=options)
        self.propagate_nd_range = options.propagate_nd_range
        self.propagate_accessor_members = options.propagate_accessor_members
        self.propagate_scalars = options.propagate_scalars
        self.mark_dead_arguments = options.mark_dead_arguments

    # ------------------------------------------------------------------
    def run_on_module(self, module: Operation, report: CompileReport) -> None:
        if not isinstance(module, ModuleOp):
            return
        launches = self._collect_launches(module)
        for launch in launches:
            self._analyze_launch(launch)
            if self.propagate_nd_range:
                self._propagate_nd_range(launch, report)
            if self.propagate_accessor_members:
                self._propagate_accessor_members(launch, report)
            if self.propagate_scalars:
                self._propagate_scalars(launch, report)
            if self.mark_dead_arguments:
                self._mark_dead_arguments(launch, report)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect_launches(self, module: ModuleOp) -> List[KernelLaunchInfo]:
        """The kernel launches of the host functions (a launch cannot
        sit in a kernel, so kernels are not searched)."""
        launches: List[KernelLaunchInfo] = []
        for function in module.symbol_ops():
            if isinstance(function, ModuleOp) or \
                    isinstance(function, FuncOp) and function.is_kernel():
                continue
            for op in function.walk():
                if not isinstance(op, SYCLHostScheduleKernelOp):
                    continue
                kernel = module.lookup_symbol(op.kernel_name)
                if isinstance(kernel, FuncOp):
                    launches.append(KernelLaunchInfo(op, kernel))
        return launches

    def _analyze_launch(self, launch: KernelLaunchInfo) -> None:
        schedule = launch.schedule
        range_value = schedule.global_range
        if range_value is not None:
            constructor = host_constructor_of(range_value)
            if constructor is not None and \
                    constructor.constructed_type == "nd_range":
                args = list(constructor.arguments)
                launch.global_size = _range_constant(args[0]) if args else None
                launch.local_size = _range_constant(args[1]) if len(args) > 1 else None
            else:
                launch.global_size = _range_constant(range_value)
        if schedule.local_range is not None:
            launch.local_size = _range_constant(schedule.local_range)

        for position, argument in enumerate(schedule.kernel_arguments):
            constructor = host_constructor_of(argument)
            if constructor is not None and constructor.constructed_type in (
                    "accessor", "local_accessor"):
                info = AccessorInfo(constructor)
                ctor_args = list(constructor.arguments)
                info.buffer = ctor_args[0] if ctor_args else None
                info.ranged = bool(constructor.get_int_attr("ranged", 0))
                range_arg = None
                for candidate in ctor_args[1:]:
                    maybe_range = host_constructor_of(candidate)
                    if maybe_range is not None and \
                            maybe_range.constructed_type == "range":
                        range_arg = candidate
                        break
                info.access_range = _range_constant(range_arg)
                info.constant_data = "constant_init" in constructor.attributes
                launch.accessor_args[position] = info
                continue
            const = arith.constant_value_of(argument)
            if const is None and isinstance(argument.defining_op(), LLVMConstantOp):
                const = argument.defining_op().value
            if const is not None:
                launch.scalar_constants[position] = const

    # ------------------------------------------------------------------
    # Device-side rewrites
    # ------------------------------------------------------------------
    @staticmethod
    def _device_argument(launch: KernelLaunchInfo, position: int) -> Optional[Value]:
        """Kernel argument matching host argument ``position``.

        Device kernels receive the item/nd_item as their first argument,
        followed by the captured arguments in host order.
        """
        index = position + 1
        if index < len(launch.kernel.arguments):
            return launch.kernel.arguments[index]
        return None

    def _replace_query_with_constant(self, kernel: FuncOp, op_names: Sequence[str],
                                     sizes: Tuple[int, ...],
                                     report: CompileReport) -> int:
        replaced = 0
        for op in list(kernel.walk()):
            if op.parent is None or op.OPERATION_NAME not in op_names:
                continue
            dim_value = op.dimension
            if dim_value is None:
                continue
            dim = arith.constant_value_of(dim_value)
            if dim is None or int(dim) >= len(sizes):
                continue
            constant = arith.ConstantOp.build(sizes[int(dim)],
                                              op.results[0].type)
            op.parent.insert_before(op, constant)
            op.replace_all_uses_with([constant.result])
            op.erase()
            replaced += 1
        if replaced:
            report.add_statistic(self.NAME, "range_queries_folded", replaced)
        return replaced

    def _propagate_nd_range(self, launch: KernelLaunchInfo,
                            report: CompileReport) -> None:
        kernel = launch.kernel
        if launch.global_size:
            kernel.set_attr("sycl.global_size", ArrayAttr(tuple(
                IntegerAttr(v, i64()) for v in launch.global_size)))
            self._replace_query_with_constant(
                kernel, self._GLOBAL_RANGE_QUERIES, launch.global_size, report)
        if launch.local_size:
            kernel.set_attr("sycl.work_group_size", ArrayAttr(tuple(
                IntegerAttr(v, i64()) for v in launch.local_size)))
            self._replace_query_with_constant(
                kernel, self._LOCAL_RANGE_QUERIES, launch.local_size, report)
        if launch.global_size and launch.local_size and \
                len(launch.global_size) == len(launch.local_size):
            group_range = tuple(g // l for g, l in
                                zip(launch.global_size, launch.local_size))
            self._replace_query_with_constant(
                kernel, self._GROUP_RANGE_QUERIES, group_range, report)

    def _propagate_accessor_members(self, launch: KernelLaunchInfo,
                                    report: CompileReport) -> None:
        kernel = launch.kernel
        # Accessors on distinct buffers never overlap.
        buffer_map: Dict[int, List[int]] = {}
        for position, info in launch.accessor_args.items():
            if info.buffer is None:
                continue
            buffer_map.setdefault(id(info.buffer), []).append(position)
        noalias_positions = [positions[0] for positions in buffer_map.values()
                             if len(positions) == 1]
        if noalias_positions:
            indices = sorted(position + 1 for position in noalias_positions)
            kernel.set_attr("sycl.noalias_args", ArrayAttr(tuple(
                IntegerAttr(i, i64()) for i in indices)))
            report.add_statistic(self.NAME, "noalias_accessors",
                                 len(noalias_positions))

        constant_args: List[int] = []
        for position, info in launch.accessor_args.items():
            device_arg = self._device_argument(launch, position)
            if device_arg is None:
                continue
            if info.constant_data:
                constant_args.append(position + 1)
            if info.ranged:
                continue
            # Non-ranged accessor: offset is zero, access range == mem range.
            folded = 0
            for op in list(kernel.walk()):
                if op.parent is None:
                    continue
                if op.OPERATION_NAME == "sycl.accessor.get_offset" and \
                        op.source is device_arg:
                    zero = arith.ConstantOp.build(0, op.results[0].type)
                    op.parent.insert_before(op, zero)
                    op.replace_all_uses_with([zero.result])
                    op.erase()
                    folded += 1
                elif op.OPERATION_NAME in ("sycl.accessor.get_range",
                                           "sycl.accessor.get_mem_range") and \
                        op.source is device_arg and info.access_range:
                    dim = arith.constant_value_of(op.dimension) \
                        if op.dimension is not None else None
                    if dim is None or int(dim) >= len(info.access_range):
                        continue
                    constant = arith.ConstantOp.build(
                        info.access_range[int(dim)], op.results[0].type)
                    op.parent.insert_before(op, constant)
                    op.replace_all_uses_with([constant.result])
                    op.erase()
                    folded += 1
            if folded:
                report.add_statistic(self.NAME, "accessor_members_folded", folded)
        if constant_args:
            kernel.set_attr("sycl.constant_args", ArrayAttr(tuple(
                IntegerAttr(i, i64()) for i in sorted(constant_args))))
            report.add_statistic(self.NAME, "constant_buffers_propagated",
                                 len(constant_args))

    def _propagate_scalars(self, launch: KernelLaunchInfo,
                           report: CompileReport) -> None:
        kernel = launch.kernel
        propagated = 0
        for position, value in launch.scalar_constants.items():
            device_arg = self._device_argument(launch, position)
            if device_arg is None or not device_arg.has_uses():
                continue
            builder = Builder(InsertionPoint(kernel.body, 0))
            constant = builder.insert(
                arith.ConstantOp.build(value, device_arg.type))
            device_arg.replace_all_uses_with(constant.result)
            propagated += 1
        if propagated:
            report.add_statistic(self.NAME, "scalar_constants_propagated",
                                 propagated)

    def _mark_dead_arguments(self, launch: KernelLaunchInfo,
                             report: CompileReport) -> None:
        kernel = launch.kernel
        dead: List[int] = []
        for index, argument in enumerate(kernel.arguments):
            if index == 0:
                continue  # the item/nd_item argument is provided by the runtime
            if not argument.has_uses():
                dead.append(index)
        if not dead:
            return
        kernel.set_attr("sycl.dead_args", ArrayAttr(tuple(
            IntegerAttr(i, i64()) for i in dead)))
        launch.schedule.set_attr("dead_args", ArrayAttr(tuple(
            IntegerAttr(i - 1, i64()) for i in dead)))
        report.add_statistic(self.NAME, "dead_arguments", len(dead))
        report.remark(
            f"{self.NAME}: {len(dead)} dead kernel argument(s) in "
            f"{kernel.sym_name}")
