"""Call graph construction.

The uniformity analysis (paper, Section V-C) works inter-procedurally by
propagating argument uniformity along call edges, and the host-device
optimizations follow ``sycl.host.schedule_kernel`` edges from host code into
device kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import CallOpInterface, Operation
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..dialects.llvm import LLVMFuncOp
from ..dialects.sycl import SYCLHostScheduleKernelOp


@dataclass
class CallSite:
    """One call edge: ``call_op`` inside ``caller`` targeting ``callee``."""

    caller: Operation
    call_op: Operation
    callee: Operation


@dataclass
class CallGraphNode:
    function: Operation
    call_sites: List[CallSite] = field(default_factory=list)
    callers: List[CallSite] = field(default_factory=list)


class CallGraph:
    """Call graph of a (possibly combined host+device) module."""

    def __init__(self, module: ModuleOp):
        self.module = module
        self.nodes: Dict[str, CallGraphNode] = {}
        self._functions_by_name: Dict[str, Operation] = {}
        self._build()

    # ------------------------------------------------------------------
    def _collect_functions(self, module: ModuleOp) -> None:
        for op in module.body.operations:
            if isinstance(op, (FuncOp, LLVMFuncOp)):
                name = op.get_str_attr("sym_name", "")
                self._functions_by_name[name] = op
                self.nodes.setdefault(name, CallGraphNode(op))
            elif isinstance(op, ModuleOp):
                self._collect_functions(op)

    def _build(self) -> None:
        self._collect_functions(self.module)
        for name, node in self.nodes.items():
            function = node.function
            for op in function.walk(include_self=False):
                callee_name: Optional[str] = None
                if isinstance(op, CallOpInterface):
                    callee_name = op.callee_name()
                elif isinstance(op, SYCLHostScheduleKernelOp):
                    callee_name = op.kernel_name
                if callee_name is None:
                    continue
                callee = self._functions_by_name.get(callee_name)
                if callee is None:
                    continue
                site = CallSite(function, op, callee)
                node.call_sites.append(site)
                self.nodes[callee_name].callers.append(site)

    def node(self, function: Operation) -> Optional[CallGraphNode]:
        return self.nodes.get(function.get_str_attr("sym_name", ""))

    def callers_of(self, function: Operation) -> List[CallSite]:
        node = self.node(function)
        return list(node.callers) if node else []

    def has_external_callers(self, function: Operation) -> bool:
        """Kernel entry points / public functions may be called externally."""
        visibility = function.get_str_attr("sym_visibility", "public")
        return visibility != "private"
