"""MLIR-compatible textual export (``repro-opt --emit=mlir``).

The stock printer (:mod:`repro.ir.printer`) uses a "classic" generic
order in which the attribute dictionary follows the operand list and the
successor/region lists trail the type signature::

    "scf.if"(%cond) {attrs} : (i1) -> () ({...}, {...})

Upstream MLIR's generic form orders the pieces differently: successors
and regions come directly after the operand list and the attribute
dictionary sits *between* the regions and the signature::

    "scf.if"(%cond) ({...}, {...}) {attrs} : (i1) -> ()

:class:`MLIRPrinter` emits the upstream order so the text can be fed to
``mlir-opt -allow-unregistered-dialect``; :mod:`repro.ir.parser` accepts
both orders, so ``parse_module(emit_mlir(m))`` round-trips through our
own stack too.  Locations, when requested, are restricted by
construction to the plain ``loc("file":line:col)`` / ``loc(unknown)``
forms — the :class:`repro.ir.location.Location` model has no extended
(fused/callsite/named) variants, so exported text never embeds extended
location syntax.
"""

from __future__ import annotations

from ..ir.operations import Operation
from ..ir.printer import Printer

__all__ = ["MLIRPrinter", "emit_mlir"]


class MLIRPrinter(Printer):
    """Prints operation trees in upstream-MLIR generic order.

    Value/block naming, attribute formatting, and region layout are
    inherited from :class:`repro.ir.printer.Printer`; only the order of
    the clauses on each operation line changes.
    """

    UPSTREAM_ORDER = True


def emit_mlir(module: Operation, print_locations: bool = False) -> str:
    """Render ``module`` as upstream-MLIR generic-form text.

    The output is deterministic and byte-stable under a parse/re-emit
    round trip: ``emit_mlir(parse_module(emit_mlir(m))) == emit_mlir(m)``.
    """
    printer = MLIRPrinter(print_locations=print_locations)
    return printer.print_op_to_string(module)
