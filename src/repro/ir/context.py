"""Compilation context and dialect registry.

A :class:`Context` tracks which dialects are loaded.  Dialects are mostly a
namespacing and documentation concept in this reproduction — the operation
classes self-register globally — but the context is still useful to verify
that a module only uses loaded dialects and to look up dialect objects (for
example the SYCL dialect's alias-analysis hooks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type as PyType

from .operations import Operation, lookup_op_class, registered_operations


class Dialect:
    """Base class for dialect descriptors."""

    #: Dialect namespace, e.g. ``"arith"`` or ``"sycl"``.
    NAME: str = ""

    def operations(self) -> Dict[str, PyType[Operation]]:
        """Return the operations registered under this dialect namespace."""
        prefix = self.NAME + "."
        return {
            name: cls
            for name, cls in registered_operations().items()
            if name.startswith(prefix)
        }

    def __repr__(self) -> str:
        return f"<Dialect {self.NAME}>"


class Context:
    """Holds the set of loaded dialects for one compilation."""

    def __init__(self, dialects: Optional[Iterable[Dialect]] = None):
        self._dialects: Dict[str, Dialect] = {}
        for dialect in dialects or ():
            self.load_dialect(dialect)

    def load_dialect(self, dialect: Dialect) -> Dialect:
        existing = self._dialects.get(dialect.NAME)
        if existing is not None:
            return existing
        self._dialects[dialect.NAME] = dialect
        return dialect

    def get_dialect(self, name: str) -> Optional[Dialect]:
        return self._dialects.get(name)

    @property
    def loaded_dialects(self) -> List[str]:
        return sorted(self._dialects)

    def is_loaded(self, dialect_name: str) -> bool:
        return dialect_name in self._dialects

    def verify_dialects(self, module: Operation) -> List[str]:
        """Report operations belonging to dialects that are not loaded."""
        problems: List[str] = []
        for op in module.walk():
            if op.dialect and not self.is_loaded(op.dialect):
                problems.append(
                    f"operation {op.name!r} uses unloaded dialect {op.dialect!r}")
        return problems

    def lookup_operation(self, name: str) -> Optional[PyType[Operation]]:
        return lookup_op_class(name)


def default_context() -> Context:
    """Create a context with every dialect of this project loaded."""
    from ..dialects import all_dialects

    return Context(all_dialects())
