"""Mini-MLIR core IR infrastructure.

This package provides the generic compiler infrastructure the SYCL-MLIR
reproduction is built on: types, attributes, SSA values, operations with
nested regions, builders, a printer, a verifier and dominance utilities.
"""

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseElementsAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    int_array_attr,
    int_array_values,
)
from .builder import Builder, InsertionPoint
from .diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    Severity,
)
from .dominance import DominanceInfo
from .fingerprint import fingerprint, function_fingerprint, module_fingerprint
from .location import (
    UNKNOWN,
    Location,
    location_of,
    user_code_location,
)
from .interfaces import (
    BranchOpInterface,
    CallOpInterface,
    EffectKind,
    InterpretableOpInterface,
    LoopLikeInterface,
    MemoryEffect,
    MemoryEffectsInterface,
    get_memory_effects,
    is_side_effect_free,
)
from .operations import (
    Block,
    IRError,
    Operation,
    Region,
    lookup_op_class,
    register_op,
    registered_operations,
)
from .parser import (
    ParseError,
    Parser,
    parse_attribute,
    parse_module,
    parse_op,
    parse_type,
)
from .printer import Printer, print_op
from .traits import Trait, has_trait
from .types import (
    DYNAMIC,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    PointerType,
    StructType,
    Type,
    VectorType,
    f32,
    f64,
    function_type,
    i1,
    i32,
    i64,
    index,
    is_float,
    is_integer,
    is_scalar,
    memref,
)
from .values import BlockArgument, OpResult, Use, Value
from .verifier import (
    VerificationError,
    verify,
    verify_with_diagnostics,
)

__all__ = [
    "ArrayAttr", "Attribute", "BoolAttr", "DenseElementsAttr", "DictAttr",
    "FloatAttr", "IntegerAttr", "StringAttr", "SymbolRefAttr", "TypeAttr",
    "UnitAttr", "int_array_attr", "int_array_values",
    "Builder", "InsertionPoint",
    "Diagnostic", "DiagnosticEngine", "Severity",
    "DominanceInfo",
    "Location", "UNKNOWN", "location_of",
    "user_code_location",
    "fingerprint", "function_fingerprint", "module_fingerprint",
    "BranchOpInterface", "CallOpInterface", "EffectKind",
    "InterpretableOpInterface", "LoopLikeInterface",
    "MemoryEffect", "MemoryEffectsInterface", "get_memory_effects",
    "is_side_effect_free",
    "Block", "IRError", "Operation", "Region", "lookup_op_class",
    "register_op", "registered_operations",
    "ParseError", "Parser", "parse_attribute", "parse_module", "parse_op",
    "parse_type",
    "Printer", "print_op",
    "Trait", "has_trait",
    "DYNAMIC", "FloatType", "FunctionType", "IndexType", "IntegerType",
    "MemRefType", "NoneType", "PointerType", "StructType", "Type",
    "VectorType", "f32", "f64", "function_type", "i1", "i32", "i64",
    "index", "is_float", "is_integer", "is_scalar", "memref",
    "BlockArgument", "OpResult", "Use", "Value",
    "VerificationError", "verify",
    "verify_with_diagnostics",
]
