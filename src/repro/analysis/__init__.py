"""Compiler analyses (paper, Section V).

Every name is resolved on first use (PEP 562, as in ``repro.interp``
and ``repro.transforms``): ``repro.analysis.manager`` — all the pass
manager needs — imports without the lint rules or any analysis.
"""

from .. import _lazy_exports

#: Lazily resolved attributes -> defining submodule.
_LAZY = {
    "AliasAnalysis": "alias", "AliasResult": "alias",
    "underlying_object": "alias",
    "CallGraph": "callgraph", "CallGraphNode": "callgraph",
    "CallSite": "callgraph",
    "NonConvergenceWarning": "dataflow",
    "StructuredDataFlowAnalysis": "dataflow",
    "LINT_RULES": "lint", "LintContext": "lint",
    "describe_lint_rules": "lint", "register_lint_rule": "lint",
    "run_lint": "lint",
    "ALL_ANALYSES": "manager", "AnalysisManager": "manager",
    "analysis_scope": "manager", "current_analysis_manager": "manager",
    "get_analysis": "manager",
    "BasisKind": "memory_access", "BasisVariable": "memory_access",
    "MemoryAccess": "memory_access", "MemoryAccessAnalysis": "memory_access",
    "NonAffineAccessError": "memory_access",
    "SlotForwarding": "private_slots",
    "forward_private_slots": "private_slots",
    "ReachingDefinitionAnalysis": "reaching_definitions",
    "ReachingDefs": "reaching_definitions",
    "SYCLAliasAnalysis": "sycl_alias",
    "sycl_values_definitely_distinct": "sycl_alias",
    "Uniformity": "uniformity", "UniformityAnalysis": "uniformity",
}

__getattr__ = _lazy_exports(__name__, _LAZY)
__all__ = list(_LAZY)
