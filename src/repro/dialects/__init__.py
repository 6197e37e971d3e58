"""Dialect definitions used by the SYCL-MLIR reproduction.

Importing this module registers every dialect's operations and fills the
**dialect type parser registry** :mod:`repro.ir.parser` resolves
``!``-prefixed types through (``!sycl_id_2``, ``!llvm.ptr<i32>``, ...);
the registry's functions are re-exported here.  Each dialect registers a
parser callable ``(text, parse_type) -> Optional[Type]`` where ``text`` is
the full raw spelling after ``!`` (identifier characters plus balanced
``<...>`` groups, e.g. ``"sycl_buffer_1_memref<4xf32>"`` or
``"llvm.ptr<i32>"``) and ``parse_type`` parses a nested type from a
string.  Returning None lets the IR parser report a helpful error.  A
parser must be a pure function of its spelling: the IR parser interns
results by spelling (see :func:`repro.ir.parser.register_type_parser`).
"""

from ..ir.parser import (
    TypeParser,
    lookup_type_parser,
    register_type_parser,
    registered_type_parsers,
)
from . import affine, arith, builtin, cf, func, llvm, math, memref, scf, sycl
from .builtin import ModuleOp
from .func import FuncOp

register_type_parser("sycl", sycl.parse_sycl_type)
register_type_parser("llvm", llvm.parse_llvm_type)

__all__ = [
    "affine", "arith", "builtin", "cf", "func", "llvm", "math", "memref",
    "scf", "sycl", "ModuleOp", "FuncOp",
    "TypeParser", "register_type_parser", "lookup_type_parser",
    "registered_type_parsers",
]
