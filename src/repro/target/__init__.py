"""Lowering / target subsystem.

Home of everything that takes the project's structured IR *down and
out*: the conversion passes behind the ``lower-to-llvm`` pipeline
(:mod:`repro.target.conversions`) and :func:`emit_mlir`, the module as
upstream-MLIR generic text (what :class:`repro.ir.Printer` prints).

Importing this package registers the conversion passes with the pass
registry; :mod:`repro.transforms.pipelines` does so when it registers
the ``lower-to-llvm`` named pipeline.
"""

from ..ir.printer import Printer
from . import conversions
from .conversions import (
    ConvertArithToLLVM,
    ConvertFuncToLLVM,
    ConvertMemRefToLLVM,
    ConvertSCFToCF,
    LowerAffine,
)

__all__ = [
    "ConvertArithToLLVM",
    "ConvertFuncToLLVM",
    "ConvertMemRefToLLVM",
    "ConvertSCFToCF",
    "LowerAffine",
    "conversions",
    "emit_mlir",
]


def emit_mlir(module, print_locations: bool = False) -> str:
    """``module`` as upstream-MLIR generic text, without a final newline."""
    return Printer(print_locations=print_locations).print_op_to_string(module)
