"""Source locations attached to operations (MLIR's ``Location`` analogue).

Every operation can carry a :class:`Location` telling where it came from:
a file/line/column triple threaded from the textual parser, a Python
call-site captured by the kernel builder, or the :data:`UNKNOWN` sentinel
for programmatically built IR with no provenance.

Locations print as MLIR's trailing ``loc("file":line:col)`` form.  The
printer only emits them when asked (``Printer(print_locations=True)``, the
``-mlir-print-debuginfo`` analogue) so the default textual form — and with
it the round-trip guarantee and every fingerprint-keyed cache — stays
byte-stable.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Tuple


class Location:
    """An immutable file:line:column source position.

    ``line``/``column`` are 1-based; ``0`` means "unknown" for either.
    Compare and hash by value so analyses can key on locations.
    """

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str = "", line: int = 0, column: int = 0):
        object.__setattr__(self, "filename", filename)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Location is immutable")

    @property
    def is_known(self) -> bool:
        return bool(self.filename) or self.line > 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Location) and \
            (self.filename, self.line, self.column) == \
            (other.filename, other.line, other.column)

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))

    def __str__(self) -> str:
        if not self.is_known:
            return "loc(unknown)"
        return f'loc("{self.filename}":{self.line}:{self.column})'

    def __repr__(self) -> str:
        return f"<Location {self}>"

    def describe(self) -> str:
        """Human-readable ``file:line:col`` prefix for diagnostics."""
        if not self.is_known:
            return "<unknown>"
        return f"{self.filename}:{self.line}:{self.column}"


#: Shared sentinel for operations with no recorded provenance.
UNKNOWN = Location()

_NEWLINE_RE = re.compile(r"\n")


class LineTable:
    """Where every line of one named input starts.

    The textual parser builds one per input and gives it, with a
    character offset, to each operation it creates; the operation's
    :class:`Location` is worked out from the two when somebody asks
    (diagnostics, ``--print-locations``), not allocated per operation.
    The table does not keep the text.
    """

    __slots__ = ("filename", "starts")

    def __init__(self, filename: str, text: str):
        self.filename = filename
        #: Offset of the first character of every line.
        self.starts = [0]
        self.starts.extend(m.end() for m in _NEWLINE_RE.finditer(text))

    def line_column(self, pos: int) -> Tuple[int, int]:
        """1-based line and column of character ``pos``."""
        line = bisect_right(self.starts, pos)
        return line, pos - self.starts[line - 1] + 1

    def location(self, pos: int) -> Location:
        return Location(self.filename, *self.line_column(pos))


def location_of(op) -> Location:
    """The location attached to ``op``, or :data:`UNKNOWN`."""
    loc = getattr(op, "location", None)
    return loc if isinstance(loc, Location) else UNKNOWN


def user_code_location() -> Location:
    """Location of the nearest enclosing call-site *outside* ``repro``.

    Builder helpers nest to varying depths (``kb.global_id`` inserts
    through ``_dim_constant``, expression sugar through ``Expr``), so a
    fixed frame depth would blame library code; walking to the first
    frame outside the package blames the user's kernel line instead.
    """
    import os
    import sys

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    frame = sys._getframe(1)
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if not filename.startswith(package_dir + os.sep):
            return Location(frame.f_code.co_filename, frame.f_lineno, 1)
        frame = frame.f_back
    return UNKNOWN
