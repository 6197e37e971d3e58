"""Source-located diagnostics (MLIR's ``DiagnosticEngine`` analogue).

Verifier checks, lint rules and analyses report findings as
:class:`Diagnostic` objects — a severity, a message, the
:class:`~repro.ir.location.Location` of the offending operation and any
number of attached notes — instead of bare strings.  A
:class:`DiagnosticEngine` collects emitted diagnostics into a list
(``engine.capture()`` scopes one).

``repro-opt --verify-diagnostics`` builds on this: expected diagnostics
are written as ``// expected-error {{...}}`` comments in the input and
matched against what the engine actually captured (see
:mod:`repro.tools.repro_opt`).
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from typing import Iterator, List, Optional

from .location import Location


class Severity(Enum):
    """Diagnostic severities, ordered from informational to fatal."""

    REMARK = "remark"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


class Diagnostic:
    """One emitted finding: severity, message, location and notes."""

    __slots__ = ("severity", "message", "location", "notes")

    def __init__(self, severity: Severity, message: str,
                 location: Optional[Location] = None,
                 notes: Optional[List["Diagnostic"]] = None):
        self.severity = severity
        self.message = message
        self.location = location if location is not None else Location()
        self.notes: List[Diagnostic] = list(notes or [])

    def attach_note(self, message: str,
                    location: Optional[Location] = None) -> "Diagnostic":
        """Attach a note to this diagnostic; returns self for chaining."""
        self.notes.append(Diagnostic(Severity.REMARK, message, location))
        return self

    def to_payload(self) -> dict:
        """A picklable/JSON-able dict form for crossing process
        boundaries (the process-parallel executor ships worker failures
        as payloads, not exception objects — worker-side exception types
        may not unpickle in the parent)."""
        return {
            "severity": self.severity.value,
            "message": self.message,
            "location": [self.location.filename, self.location.line,
                         self.location.column],
            "notes": [note.to_payload() for note in self.notes],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Diagnostic":
        """Rebuild a diagnostic from :meth:`to_payload` output."""
        filename, line, column = payload.get("location") or ("", 0, 0)
        return cls(Severity(payload["severity"]), payload["message"],
                   Location(filename, line, column),
                   [cls.from_payload(note)
                    for note in payload.get("notes", ())])

    def render(self) -> str:
        """``file:line:col: severity: message`` plus indented notes."""
        lines = [f"{self.location.describe()}: {self.severity}: "
                 f"{self.message}"]
        for note in self.notes:
            lines.append(f"{note.location.describe()}: note: {note.message}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<Diagnostic {self.severity}: {self.message!r}>"


class DiagnosticEngine:
    """Collects emitted diagnostics and keeps severity counts.

    Diagnostics land in ``captured``; ``capture()`` temporarily swaps in
    a fresh list sink — the mode every test and the
    ``--verify-diagnostics`` driver use.
    """

    def __init__(self):
        self.captured: List[Diagnostic] = []
        self.counts = {severity: 0 for severity in Severity}

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.counts[diagnostic.severity] += 1
        self.captured.append(diagnostic)
        return diagnostic

    @contextmanager
    def capture(self) -> Iterator[List[Diagnostic]]:
        """Capture emitted diagnostics into the yielded list."""
        sink: List[Diagnostic] = []
        outer = self.captured
        self.captured = sink
        try:
            yield sink
        finally:
            self.captured = outer

    @property
    def error_count(self) -> int:
        return self.counts[Severity.ERROR]
