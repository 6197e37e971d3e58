"""Host raising (paper, Section VII-A).

The host side of the program reaches the compiler as LLVM-dialect IR
obtained from LLVM IR (Fig. 1).  That representation is too low-level for
analysis — every SYCL runtime interaction is an opaque call into mangled
C++ runtime entry points.  This pass pattern-matches the DPC++ runtime call
sequences and *raises* them to SYCL dialect host operations:

* constructor calls for ``range``/``id``/``nd_range``/``buffer``/
  ``accessor``/``local_accessor`` become ``sycl.host.constructor``;
* ``handler::parallel_for`` calls become ``sycl.host.schedule_kernel`` with
  a symbol reference into the device kernels module.

As the paper notes, this matching is inherently coupled to the runtime's
symbol names: if the runtime changes, the patterns must be updated.  The
recognized name patterns live in :data:`RUNTIME_PATTERNS` to keep that
coupling in one place.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..ir import Operation, StringAttr, SymbolRefAttr
from ..dialects.llvm import LLVMCallOp, LLVMFuncOp
from ..dialects.sycl import SYCLHostConstructorOp, SYCLHostScheduleKernelOp
from .pass_manager import CompileReport, ModulePass, register_pass

#: Name of the nested module holding device kernels in a combined module.
DEVICE_MODULE_NAME = "kernels"

#: Regular expressions recognizing DPC++ runtime entry points.  The mangled
#: names encode the SYCL class and the constructor/method being invoked.
RUNTIME_PATTERNS: List[Tuple[str, str]] = [
    (r"sycl.*nd_range.*C[12]", "nd_range"),
    (r"sycl.*local_accessor.*C[12]", "local_accessor"),
    (r"sycl.*accessor.*C[12]", "accessor"),
    (r"sycl.*buffer.*C[12]", "buffer"),
    (r"sycl.*range.*C[12]", "range"),
    (r"sycl.*\bid.*C[12]", "id"),
    (r"sycl.*queue.*C[12]", "queue"),
]

#: Pattern extracting the kernel name from a ``parallel_for`` instantiation.
PARALLEL_FOR_PATTERN = re.compile(r"parallel_forI(?P<kernel>[A-Za-z0-9_]+)E")

#: Pattern recognizing ``handler::parallel_for`` calls.
PARALLEL_FOR_CALL = re.compile(r"sycl.*handler.*parallel_for")


def classify_runtime_call(callee: str) -> Optional[str]:
    """Return the SYCL object kind constructed by ``callee``, if any."""
    for pattern, kind in RUNTIME_PATTERNS:
        if re.search(pattern, callee):
            return kind
    return None


def extract_kernel_name(callee: str) -> Optional[str]:
    match = PARALLEL_FOR_PATTERN.search(callee)
    return match.group("kernel") if match else None


@register_pass
class HostRaisingPass(ModulePass):
    """Raises DPC++ runtime call patterns to SYCL host operations."""

    NAME = "host-raising"

    STATISTICS = tuple(
        [("kernels_raised", "parallel_for launches raised to sycl.launch")] +
        [(f"{kind}_constructors_raised",
          f"{kind} constructor calls raised to sycl.constructor")
         for _, kind in RUNTIME_PATTERNS])

    def run_on_module(self, module: Operation, report: CompileReport) -> None:
        for function in module.symbol_ops():
            if isinstance(function, LLVMFuncOp) and not function.is_declaration:
                self._raise_function(function, report)

    # ------------------------------------------------------------------
    def _raise_function(self, function: LLVMFuncOp,
                        report: CompileReport) -> None:
        for op in list(function.walk(include_self=False)):
            if not isinstance(op, LLVMCallOp) or op.parent is None:
                continue
            callee = op.callee_name() or ""
            if PARALLEL_FOR_CALL.search(callee):
                if self._raise_parallel_for(op, callee):
                    report.add_statistic(self.NAME, "kernels_raised")
                else:
                    report.remark(
                        f"{self.NAME}: failed to raise parallel_for call "
                        f"{callee!r}")
                continue
            kind = classify_runtime_call(callee)
            if kind is None:
                continue
            self._raise_constructor(op, kind)
            report.add_statistic(self.NAME, f"{kind}_constructors_raised")

    # ------------------------------------------------------------------
    def _raise_constructor(self, call: LLVMCallOp, kind: str) -> None:
        # The call's operands are the constructor's (destination first),
        # so the call becomes one in place.  Preserve attributes the host
        # frontend attached to the call (e.g. access mode, dimensionality,
        # constant initializer provenance).
        attributes = {"type": StringAttr(kind)}
        for name, attr in call.attributes.items():
            attributes["runtime_callee" if name == "callee" else name] = attr
        call.retype(SYCLHostConstructorOp, attributes=attributes)

    def _raise_parallel_for(self, call: LLVMCallOp, callee: str) -> bool:
        kernel_name = extract_kernel_name(callee) or \
            call.get_str_attr("kernel_name")
        if kernel_name is None:
            return False
        operands = list(call.operands)
        if not operands:
            return False
        handler = operands[0]
        num_range_operands = call.get_int_attr("num_range_operands", 1)
        range_operands = operands[1:1 + num_range_operands]
        kernel_args = operands[1 + num_range_operands:]
        global_range = range_operands[0] if range_operands else None
        local_range = range_operands[1] if len(range_operands) > 1 else None
        raised = SYCLHostScheduleKernelOp.build(
            handler,
            SymbolRefAttr(DEVICE_MODULE_NAME, (kernel_name,)),
            kernel_args,
            global_range=global_range,
            local_range=local_range,
        )
        for name, attr in call.attributes.items():
            if name in ("callee",):
                raised.set_attr("runtime_callee", attr)
            elif name not in raised.attributes:
                raised.set_attr(name, attr)
        call.parent.insert_before(call, raised)
        call.replace_all_uses_with(list(raised.results))
        call.erase()
        return True
