"""Reaching definition analysis (paper, Section V-B).

For every program point and memory value the analysis provides two sets of
defining operations:

* **modifiers (MODS)** — operations that definitely wrote the value (their
  write target must-alias the queried value);
* **potential modifiers (PMODS)** — operations whose write target may alias
  the queried value.

The example from Listing 1 of the paper (two stores under an ``scf.if`` to
potentially-aliasing memrefs) yields ``{MODS: a, PMODS: b}`` for the load,
which is exactly what the unit tests for this module check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from ..ir import EffectKind, Operation, Value, get_memory_effects
from .alias import AliasAnalysis, underlying_object
from .dataflow import StructuredDataFlowAnalysis


@dataclass
class ReachingDefs:
    """Result of a reaching-definition query."""

    mods: FrozenSet[Operation] = frozenset()
    pmods: FrozenSet[Operation] = frozenset()

    @property
    def all_definitions(self) -> FrozenSet[Operation]:
        return self.mods | self.pmods


class _DefinitionState:
    """Per-object sets of reaching writes plus "unknown" writes."""

    def __init__(self):
        #: underlying object id -> (object value, set of must-writes)
        self.definitions: Dict[int, tuple] = {}
        #: operations with unknown side effects (calls, barriers, ...)
        self.unknown_writers: Set[Operation] = set()

    def copy(self) -> "_DefinitionState":
        new = _DefinitionState()
        new.definitions = {
            key: (obj, set(ops)) for key, (obj, ops) in self.definitions.items()
        }
        new.unknown_writers = set(self.unknown_writers)
        return new

    def join(self, other: "_DefinitionState") -> bool:
        changed = False
        for key, (obj, ops) in other.definitions.items():
            if key not in self.definitions:
                self.definitions[key] = (obj, set(ops))
                changed = True
            else:
                existing = self.definitions[key][1]
                before = len(existing)
                existing |= ops
                changed |= len(existing) != before
        before_unknown = len(self.unknown_writers)
        self.unknown_writers |= other.unknown_writers
        changed |= len(self.unknown_writers) != before_unknown
        return changed

    def record_write(self, obj: Value, op: Operation) -> None:
        key = id(obj)
        # A new definite write replaces previous reaching writes to the same
        # object along this path.
        self.definitions[key] = (obj, {op})

    def record_unknown_write(self, op: Operation) -> None:
        self.unknown_writers.add(op)


class ReachingDefinitionAnalysis(StructuredDataFlowAnalysis[_DefinitionState]):
    """Flow-sensitive reaching-definition analysis over a function."""

    def __init__(self, function: Operation,
                 alias_analysis: Optional[AliasAnalysis] = None):
        super().__init__()
        self.function = function
        self.alias_analysis = alias_analysis or AliasAnalysis()
        self.run(function)

    # -- framework hooks ----------------------------------------------------
    def initial_state(self, function: Operation) -> _DefinitionState:
        return _DefinitionState()

    def transfer(self, op: Operation, state: _DefinitionState) -> None:
        effects = get_memory_effects(op)
        if effects is None:
            # Unknown effects: the operation may write anything.
            state.record_unknown_write(op)
            return
        for effect in effects:
            if effect.kind != EffectKind.WRITE:
                continue
            if effect.value is None:
                state.record_unknown_write(op)
            else:
                state.record_write(underlying_object(effect.value), op)

    # -- queries --------------------------------------------------------------
    def reaching_definitions(self, at: Operation, value: Value) -> ReachingDefs:
        """MODS / PMODS reaching ``at`` for the memory behind ``value``."""
        state = self.state_before(at)
        if state is None:
            return ReachingDefs()
        target = underlying_object(value)
        mods: Set[Operation] = set()
        pmods: Set[Operation] = set(state.unknown_writers)
        for _, (obj, ops) in state.definitions.items():
            result = self.alias_analysis.alias(obj, target)
            if result.is_no():
                continue
            if result.is_must():
                mods |= ops
            else:
                pmods |= ops
        return ReachingDefs(frozenset(mods), frozenset(pmods))
