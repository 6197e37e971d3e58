"""Textual printer for the IR.

Produces MLIR-flavoured generic syntax such as::

    %0 = "arith.addi"(%arg0, %c1) : (i64, i64) -> i64

The printer is deterministic and round-trips through
:mod:`repro.ir.parser`: ``parse_module(print(m))`` rebuilds the module and
re-prints to the identical text, which makes the printed form a verified
serialization layer rather than a debug aid only.
"""

from __future__ import annotations

from io import StringIO
from typing import Dict, Set

from .operations import Block, Operation, Region
from .values import BlockArgument, Value


class Printer:
    """Prints operation trees.

    ``print_locations`` (mlir-opt's ``-mlir-print-debuginfo`` analogue)
    appends each operation's ``loc(...)`` trailer.  It defaults to off so
    the canonical textual form — and everything keyed on it: the
    round-trip guarantee, fingerprints, the compile cache — is unaffected
    by where the IR happened to come from.
    """

    def __init__(self, indent_width: int = 2, print_locations: bool = False):
        self.indent_width = indent_width
        self.print_locations = print_locations
        self._names: Dict[int, str] = {}
        self._used: Set[str] = set()
        self._next_id = 0
        #: ``id(block)`` -> label, filled a whole region at a time.
        self._block_labels: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def value_name(self, value: Value) -> str:
        key = id(value)
        if key not in self._names:
            if value.name_hint:
                name = self._uniqued(f"%{value.name_hint}")
            elif isinstance(value, BlockArgument):
                name = self._uniqued(f"%arg{value.arg_index}")
            else:
                name = self._next_anonymous()
            self._names[key] = name
            self._used.add(name)
        return self._names[key]

    def _uniqued(self, base: str) -> str:
        # Collision suffixes draw on a per-base counter, not the shared
        # anonymous id — a colliding hint must not shift the contiguous
        # %0, %1, ... numbering of anonymous values, or printing would
        # not be stable under a parse/print round trip.
        name = base
        suffix = 0
        while name in self._used:
            name = f"{base}_{suffix}"
            suffix += 1
        return name

    def _next_anonymous(self) -> str:
        while True:
            name = f"%{self._next_id}"
            self._next_id += 1
            if name not in self._used:
                return name

    # ------------------------------------------------------------------
    def print_module(self, module: Operation) -> str:
        return self.print_op_to_string(module)

    def print_op_to_string(self, op: Operation) -> str:
        out = StringIO()
        self._block_labels.clear()  # the IR may have changed since
        self._print_op(op, out, 0)
        return out.getvalue().rstrip("\n")

    # ------------------------------------------------------------------
    def _block_label(self, block: Block) -> str:
        """Label of a block: its index within its parent region."""
        label = self._block_labels.get(id(block))
        if label is None and block.parent is not None:
            # Index the whole region on its first successor, so labelling
            # every branch of a CFG stays linear in the number of blocks.
            for index, candidate in enumerate(block.parent.blocks):
                self._block_labels[id(candidate)] = f"^bb{index}"
            label = self._block_labels.get(id(block))
        return label or "^bb?"

    def _print_op(self, op: Operation, out: StringIO, indent: int) -> None:
        pad = " " * (indent * self.indent_width)
        results = ", ".join(self.value_name(res) for res in op.results)
        prefix = f"{results} = " if results else ""
        operands = ", ".join(self.value_name(v) for v in op.operands)
        attrs = ""
        if op.attributes:
            inner = ", ".join(
                f"{key} = {value}" for key, value in sorted(op.attributes.items()))
            attrs = f" {{{inner}}}"
        in_types = ", ".join(str(v.type) for v in op.operands)
        out_types = ", ".join(str(res.type) for res in op.results)
        signature = f" : ({in_types}) -> ({out_types})"
        out.write(f"{pad}{prefix}\"{op.name}\"({operands}){attrs}{signature}")
        if op.successors:
            names = ", ".join(self._block_label(s) for s in op.successors)
            out.write(f" [{names}]")
        if op.regions:
            out.write(" (")
            for region in op.regions:
                out.write("{\n")
                self._print_region(region, out, indent + 1)
                out.write(f"{pad}}}")
            out.write(")")
        if self.print_locations:
            from .location import location_of

            out.write(f" {location_of(op)}")
        out.write("\n")

    def _print_region(self, region: Region, out: StringIO, indent: int) -> None:
        for block_idx, block in enumerate(region.blocks):
            if block.arguments or len(region.blocks) > 1:
                pad = " " * ((indent - 1) * self.indent_width + 1)
                args = ", ".join(
                    f"{self.value_name(a)}: {a.type}" for a in block.arguments)
                out.write(f"{pad}^bb{block_idx}({args}):\n")
            for op in block.operations:
                self._print_op(op, out, indent)


def print_op(op: Operation) -> str:
    """Convenience wrapper printing a single operation tree."""
    return Printer().print_op_to_string(op)
