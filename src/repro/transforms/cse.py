"""Common subexpression elimination for side-effect free operations."""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Tuple

from ..ir import Block, Operation, Trait, is_side_effect_free
from ..ir.interfaces import EFFECT_FREE_TRAITS
from ..ir.attributes import ArrayAttr, DenseElementsAttr, DictAttr, FloatAttr
from ..dialects.func import FuncOp
from .pass_manager import CompileReport, FunctionPass, register_pass

#: Attributes whose dataclass equality is coarser than their printed form
#: (floats: -0.0 == 0.0 under IEEE/Python equality) or that can contain
#: such floats; these are interned by their printed string instead of by
#: value equality so CSE never merges semantically distinct constants.
_STR_KEYED_ATTRS = (FloatAttr, ArrayAttr, DenseElementsAttr, DictAttr)

_TERMINATOR = Trait.TERMINATOR.bit


class _KeyCache:
    """Interning cache for the structural-key components.

    Types and attributes are immutable value objects, so two equal
    instances can share one small integer id; keys built from those ids
    hash faster than tuples of formatted strings.  ``hits`` feeds the
    ``cse.key_cache_hits`` statistic so benchmarks can attribute wins.
    A fresh cache is created per ``run_on_function``, which bounds
    retention and keeps the statistic deterministic for a given module
    (a process-global cache would pin every type/attribute ever seen and
    pre-warm hits across unrelated compiles).
    """

    __slots__ = ("type_ids", "attr_ids", "seen", "held", "hits")

    def __init__(self):
        self.type_ids: Dict[object, int] = {}
        self.attr_ids: Dict[object, int] = {}
        #: ``id(value) -> interned id``: most equal types and attributes
        #: are one shared instance, and asking by identity skips the
        #: dataclass ``__hash__`` (and that of every type nested in the
        #: value).  ``held`` keeps each value, so its id is not reused.
        self.seen: Dict[int, object] = {}
        self.held: List[object] = []
        self.hits = 0

    def _intern(self, table: Dict[object, int], value,
                by_text: bool = False) -> object:
        seen = self.seen.get(id(value))
        if seen is not None:
            self.hits += 1
            return seen
        key = (value.__class__, str(value)) if by_text else value
        try:
            interned = table.get(key)
            if interned is not None:
                self.hits += 1
            else:
                table[key] = interned = len(table)
        except TypeError:  # unhashable (exotic) value: fall back to str
            return str(key)
        self.seen[id(value)] = interned
        self.held.append(value)
        return interned

    def type_id(self, type_) -> object:
        return self._intern(self.type_ids, type_)

    def attr_id(self, attr) -> object:
        # The printed form distinguishes -0.0 from 0.0 (the old
        # str()-based key's behaviour, which value equality loses).
        return self._intern(self.attr_ids, attr,
                            isinstance(attr, _STR_KEYED_ATTRS))


_TYPE = attrgetter("type")


def _operation_key(op: Operation, cache: _KeyCache) -> Tuple:
    """Structural identity of a side-effect free operation.

    Semantics-bearing state (e.g. affine.apply coefficients, GEP static
    offsets) lives in ``op.attributes`` and is covered by the attribute
    component.  Equal types/attributes compare equal as value objects, so
    interned ids (see :class:`_KeyCache`) preserve key equality.  The
    ids are looked up by identity inside ``map``, which makes no
    Python-level call; only a value seen for the first time goes
    through :meth:`_KeyCache._intern`.
    """
    seen = cache.seen.get
    types = tuple(map(seen, map(id, map(_TYPE, op.results))))
    if None in types:
        types = tuple([cache.type_id(result.type) for result in op.results])
    else:
        cache.hits += len(types)
    attrs = op.attributes
    if attrs:
        ids = tuple(map(seen, map(id, attrs.values())))
        if None in ids:
            ids = tuple([cache.attr_id(attr) for attr in attrs.values()])
        else:
            cache.hits += len(ids)
        attr_key = tuple(zip(attrs, ids))
        if attr_key[1:]:
            attr_key = tuple(sorted(attr_key))
    else:
        attr_key = ()
    return (op.OPERATION_NAME, tuple(map(id, op._operands)), attr_key, types)


@register_pass
class CSEPass(FunctionPass):
    """Eliminates duplicate pure operations within each block scope.

    Operations are deduplicated per block, with the available-expression map
    inherited by nested regions (a duplicate inside a loop can reuse a value
    computed before the loop, but not vice versa).
    """

    NAME = "cse"

    STATISTICS = (
        ("ops_eliminated", "duplicate pure operations replaced and erased"),
        ("key_cache_hits", "structural-key intern cache hits"),
    )

    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        cache = _KeyCache()
        for region in function.regions:
            for block in region.blocks:
                self._process_block(block, {}, report, cache)
        if cache.hits:
            report.add_statistic(self.NAME, "key_cache_hits", cache.hits)

    def _process_block(self, block: Block, available: Dict[Tuple, Operation],
                       report: CompileReport, cache: _KeyCache) -> None:
        scope: Dict[Tuple, Operation] = dict(available)
        for op in block.operations:
            if op.parent is None:
                continue
            if op.regions:
                for region in op.regions:
                    for nested in region.blocks:
                        self._process_block(nested, scope, report, cache)
                continue
            if not op.results or op._trait_mask_ & _TERMINATOR:
                continue
            if not (is_side_effect_free(op) if op._HAS_EFFECTS
                    else op._trait_mask_ & EFFECT_FREE_TRAITS):
                continue
            key = _operation_key(op, cache)
            existing = scope.get(key)
            if existing is not None and existing is not op:
                op.replace_all_uses_with(list(existing.results))
                op.erase()
                report.add_statistic(self.NAME, "ops_eliminated")
            else:
                scope[key] = op
