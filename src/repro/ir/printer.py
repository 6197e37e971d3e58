"""Textual printer for the IR.

Produces upstream MLIR's generic syntax, the one printed form: successors
and regions follow the operand list, and the attribute dictionary and the
signature close the operation::

    %0 = "arith.addi"(%arg0, %c1) : (i64, i64) -> i64
    "scf.if"(%cond) ({...}, {...}) {attrs} : (i1) -> ()

so the text can be fed to ``mlir-opt -allow-unregistered-dialect``.  The
printer is deterministic and round-trips through :mod:`repro.ir.parser`:
``parse_module(print(m))`` rebuilds the module and re-prints to the
identical text, which makes the printed form a verified serialization
layer rather than a debug aid only.  (The parser also reads the older
"classic" order, attributes and signature before the regions and
successors after them, as input only.)
"""

from __future__ import annotations

from io import StringIO
from typing import Dict

from .operations import Block, Operation, Region
from .types import spelling
from .values import BlockArgument, Value


class Printer:
    """Prints operation trees.

    ``print_locations`` (mlir-opt's ``-mlir-print-debuginfo`` analogue)
    appends each operation's ``loc(...)`` trailer, only ever in the plain
    ``loc("file":line:col)`` / ``loc(unknown)`` forms.  It defaults to off
    so the canonical textual form — and everything keyed on it: the
    round-trip guarantee, fingerprints, the compile cache — is unaffected
    by where the IR happened to come from.

    Each operation line is built in one pass over its results, operands
    and attributes: a value's name comes from a dict keyed by the value,
    and a type's or attribute's spelling is worked out once per object
    (:func:`repro.ir.types.spelling`), not once per operand or result.
    """

    def __init__(self, indent_width: int = 2, print_locations: bool = False):
        self.indent_width = indent_width
        self.print_locations = print_locations
        #: value -> its printed name.
        self._names: Dict[Value, str] = {}
        #: Every name handed out (the dict is used as an ordered set).
        self._used: Dict[str, None] = {}
        self._next_id = 0
        #: ``id(block)`` -> label, filled a whole region at a time.
        self._block_labels: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def value_name(self, value: Value) -> str:
        names = self._names
        if value in names:
            return names[value]
        used = self._used
        if value._name_hint:
            name = self._uniqued(f"%{value._name_hint}")
        elif type(value) is BlockArgument:
            name = self._uniqued(f"%arg{value.arg_index}")
        else:
            while True:
                name = f"%{self._next_id}"
                self._next_id += 1
                if name not in used:
                    break
        names[value] = name
        used[name] = None
        return name

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
        names = self._names
        result_names = result_types = ""
        for result in op.results:
            name = names[result] if result in names \
                else self.value_name(result)
            type_ = result.type
            if result_names:
                result_names += ", "
                result_types += ", "
            result_names += name
            result_types += type_._spelling or spelling(type_)
        operand_names = operand_types = ""
        for value in op._operands:
            name = names[value] if value in names else self.value_name(value)
            type_ = value.type
            if operand_names:
                operand_names += ", "
                operand_types += ", "
            operand_names += name
            operand_types += type_._spelling or spelling(type_)
        pad = " " * (indent * self.indent_width)
        line = f'{pad}{result_names} = "' if result_names else f'{pad}"'
        line += f"{op.OPERATION_NAME}\"({operand_names})"
        if op.successors:
            line += "[" + ", ".join(
                self._block_label(s) for s in op.successors) + "]"
        if op.regions:
            out.write(line + " (")
            for region in op.regions:
                out.write("{\n")
                self._print_region(region, out, indent + 1)
                out.write(pad + "}")
            line = ")"
        attributes = op.attributes
        if attributes:
            separator = " {"
            for key in sorted(attributes):
                attr = attributes[key]
                line += f"{separator}{key} = "
                line += attr._spelling or spelling(attr)
                separator = ", "
            line += "}"
        line += f" : ({operand_types}) -> ({result_types})"
        if self.print_locations:
            from .location import location_of

            line += f" {location_of(op)}"
        out.write(line + "\n")

    def _print_region(self, region: Region, out: StringIO, indent: int) -> None:
        several = len(region.blocks) > 1
        for block_idx, block in enumerate(region.blocks):
            if block.arguments or several:
                pad = " " * ((indent - 1) * self.indent_width + 1)
                args = ", ".join(
                    f"{self.value_name(a)}: {spelling(a.type)}"
                    for a in block.arguments)
                out.write(f"{pad}^bb{block_idx}({args}):\n")
            op = block.first_op
            while op is not None:
                self._print_op(op, out, indent)
                op = op._next


def print_op(op: Operation) -> str:
    """Convenience wrapper printing a single operation tree."""
    return Printer().print_op_to_string(op)
