"""Structural IR fingerprints.

A *fingerprint* is a stable hash over everything that defines an
operation structurally — the operation name, the operand/result wiring
(via a local value numbering), result and block-argument types,
attributes, successors and the nested region tree.  Two operations have
equal fingerprints iff they are structurally identical; SSA *name hints*
(``%x`` vs ``%0``) and object identities do not participate, so the
fingerprint is stable across parses, clones and process restarts.

It answers name-insensitive equivalence queries (the compile cache keys
on the printed form instead, see :func:`module_fingerprint`);
``ignore_attrs`` widens the classes — e.g. a function modulo its
``sym_name`` recognizes bodies duplicated under different names.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .operations import Block, Operation

#: Digest size in bytes; 16 (128 bits) makes collisions implausible while
#: keeping keys short enough to embed in reports and logs.
_DIGEST_SIZE = 16

_SEP = b"\x00"


class _Encoder:
    """Feeds a canonical byte encoding of the IR into a hash.

    Values and successor blocks are *numbered on first mention*, which
    handles forward references (graph regions) and makes the encoding
    independent of Python object identity.
    """

    def __init__(self, ignore_attrs: FrozenSet[str],
                 include_name_hints: bool = False):
        self._hash = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        self._value_numbers: Dict[int, int] = {}
        self._block_numbers: Dict[int, int] = {}
        self._ignore_attrs = ignore_attrs
        self._include_name_hints = include_name_hints

    # -- primitives ---------------------------------------------------------
    def _emit(self, *parts: bytes) -> None:
        update = self._hash.update
        for part in parts:
            update(part)
            update(_SEP)

    def _emit_str(self, text: str) -> None:
        self._emit(text.encode("utf-8"))

    def _number(self, table: Dict[int, int], key: int) -> int:
        number = table.get(key)
        if number is None:
            number = len(table)
            table[key] = number
        return number

    # -- structure ----------------------------------------------------------
    def encode_op(self, op: "Operation") -> None:
        self._emit(b"op")
        self._emit_str(op.name)
        self._emit_str(str(len(op._operands)))
        for operand in op._operands:
            self._emit_str(str(self._number(self._value_numbers, id(operand))))
        for result in op.results:
            # Emit the definition's number, not just its type: with
            # use-before-def (graph regions), a use may have numbered the
            # value already, and two defs whose uses were swapped must not
            # encode identically.
            self._emit_str(str(self._number(self._value_numbers,
                                            id(result))))
            self._emit_str(str(result.type))
            if self._include_name_hints:
                self._emit_str(result.name_hint or "")
        for name in sorted(op.attributes):
            if name in self._ignore_attrs:
                continue
            attr = op.attributes[name]
            self._emit_str(name)
            self._emit_str(type(attr).__name__)
            self._emit_str(str(attr))
        for successor in op.successors:
            self._emit_str(str(self._number(self._block_numbers,
                                            id(successor))))
        for region in op.regions:
            self._emit(b"region")
            for block in region.blocks:
                self.encode_block(block)
        self._emit(b"end")

    def encode_block(self, block: "Block") -> None:
        self._emit(b"block")
        self._emit_str(str(self._number(self._block_numbers, id(block))))
        for argument in block.arguments:
            self._emit_str(str(self._number(self._value_numbers,
                                            id(argument))))
            self._emit_str(str(argument.type))
            if self._include_name_hints:
                self._emit_str(argument.name_hint or "")
        current = block.first_op
        while current is not None:
            self.encode_op(current)
            current = current.next_op()

    def digest(self) -> str:
        return self._hash.hexdigest()


def fingerprint(op: "Operation",
                ignore_attrs: Iterable[str] = (),
                include_name_hints: bool = False) -> str:
    """Hex digest of ``op``'s structure (operation, regions and all).

    ``ignore_attrs`` names attributes excluded from the hash at *every*
    operation in the tree — e.g. ``ignore_attrs=("sym_name",)`` hashes a
    function modulo its symbol name.  ``include_name_hints`` additionally
    hashes the SSA name hints, distinguishing textually different
    spellings of structurally identical IR.

    Not memoized: the compiler validates cached facts on version stamps
    (:func:`repro.ir.operations.version_stamp`), not on fingerprints.
    """
    encoder = _Encoder(frozenset(ignore_attrs),
                       include_name_hints=include_name_hints)
    encoder.encode_op(op)
    return encoder.digest()


def module_fingerprint(module: "Operation") -> str:
    """Structural fingerprint of a module (name hints excluded).

    Note this is deliberately *not* the compile-cache key:
    :meth:`repro.transforms.compile_cache.CompileCache.key_for` hashes
    the printed form instead, because a cache hit splices a printable
    result back in — two inputs that print differently (even just in SSA
    name spellings) must never share a cache key, while structural
    equivalence is exactly what this function ignores names for.
    """
    return fingerprint(module)


def function_fingerprint(function: "Operation",
                         ignore_name: bool = True) -> str:
    """Fingerprint of a function, by default modulo its ``sym_name``.

    Ignoring the symbol name lets a per-function cache recognize bodies
    duplicated under different names (common in generated kernels).
    """
    ignore = ("sym_name",) if ignore_name else ()
    return fingerprint(function, ignore_attrs=ignore)
