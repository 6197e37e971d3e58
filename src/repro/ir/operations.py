"""Core IR structures: operations, blocks and regions.

The design mirrors MLIR: an :class:`Operation` has operands, results,
attributes and nested :class:`Region`\\ s; a region holds :class:`Block`\\ s;
a block holds a list of operations.  Nesting is what lets a single module
hold host and device code side by side (paper, Section III).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type as PyType

from .attributes import Attribute, IntegerAttr, BoolAttr, StringAttr
from .interfaces import MemoryEffectsInterface
from .location import LineTable
from .traits import Trait
from .types import Type
from .values import BlockArgument, OpResult, Value


class IRError(Exception):
    """Raised for malformed IR manipulations."""


#: The last version stamp handed out.  Every edit — (un)linking an op,
#: rewiring an operand, writing attributes, block arguments, region
#: lists or a name hint — draws the next one and writes it to each
#: isolated-from-above op around the edit, so a function's or module's
#: stamp moves exactly when something inside it changes.  A module is
#: edited by one thread at a time: ``repro-served`` request threads each
#: compile a module of their own and share only this counter.
_LAST_STAMP = 0


def _touch(op: Optional["Operation"]) -> None:
    """Give ``op`` and each op around it that is isolated from above a
    fresh version stamp (runs on every edit: no calls inside)."""
    global _LAST_STAMP
    _LAST_STAMP += 1
    stamp = _LAST_STAMP
    while op is not None:
        if op._ISOLATED:
            op._stamp = stamp
        block = op.parent
        if block is None:
            return
        region = block.parent
        if region is None:
            return
        op = region.parent


def version_stamp(op: Optional["Operation"]) -> Optional[int]:
    """The stamp of the nearest isolated-from-above op around ``op`` (or
    ``op`` itself), or ``None`` when none encloses it."""
    while op is not None and not op._ISOLATED:
        region = op.parent.parent if op.parent is not None else None
        op = region.parent if region is not None else None
    return op._stamp if op is not None else None


#: anchor op -> (the version stamp its facts were derived at, facts).
_MEMOS: "weakref.WeakKeyDictionary[Operation, Tuple[int, Dict]]" = \
    weakref.WeakKeyDictionary()


def op_memo(op: Optional["Operation"]) -> Dict:
    """The facts memoized on ``op``, a dict each user keys its own way,
    emptied when :func:`version_stamp` of ``op`` moves and dropped with
    ``op``.  A fact that reads beyond ``op``'s function (a symbol lookup)
    belongs on the module.  An op no stamp vouches for gets a fresh
    dict nothing remembers."""
    stamp = version_stamp(op)
    if stamp is None:
        return {}
    entry = _MEMOS.get(op)
    if entry is None or entry[0] != stamp:
        entry = _MEMOS[op] = (stamp, {})
    return entry[1]


#: The one empty container every operation without operands, results,
#: regions or successors shares.  Most operations have none of the last
#: two, and a container per field per operation is what the cyclic
#: collector spends its time walking (docs/performance.md, "The IR object
#: budget and the collector"); a field becomes a container of its own
#: when it gets its first element.
_EMPTY: Tuple = ()


class _OpClass(type):
    """The metaclass of :class:`Operation`: a class that declares no
    ``__slots__`` gets empty ones, so no operation carries an instance
    ``__dict__`` (the interface mixins declare empty slots too)."""

    def __new__(mcs, name, bases, namespace, **kwargs):
        namespace.setdefault("__slots__", ())
        return super().__new__(mcs, name, bases, namespace, **kwargs)


class Operation(metaclass=_OpClass):
    """A generic operation.

    Concrete operations subclass this and set ``OPERATION_NAME`` plus
    ``TRAITS``.  Operations are created either through subclass ``build``
    class methods or through :class:`repro.ir.builder.Builder`.
    """

    OPERATION_NAME: str = "builtin.unregistered"
    TRAITS: frozenset = frozenset()
    #: Facts fixed per class, set once by ``__init_subclass__`` so hot
    #: loops read an attribute instead of asking: the OR of the
    #: ``Trait.bit``\ s of ``TRAITS`` (what :func:`has_trait` reads);
    #: ``Trait.ISOLATED_FROM_ABOVE`` (read on every edit); whether the
    #: class declares its effects (:class:`MemoryEffectsInterface`); and
    #: whether it overrides :meth:`verify_op`.  ``TRAITS`` is therefore
    #: never assigned after class creation.
    _trait_mask_: int = 0
    _ISOLATED: bool = False
    _HAS_EFFECTS: bool = False
    _HAS_VERIFIER: bool = False
    #: Whether :meth:`retype` may turn an op of this class into another
    #: class or back: no slots of its own and not isolated from above.
    _PLAIN: bool = True
    #: The number of results every op of the class has, where the class
    #: declares it (``None``: it varies, or is not declared); what
    #: :meth:`retype` checks an op's results against.
    RESULTS: Optional[int] = None

    #: The IR fields live in slots, and nothing else does.
    __slots__ = ("_operands", "results", "attributes", "regions",
                 "successors", "parent", "_prev", "_next", "_order",
                 "_location", "_offset", "_stamp", "__weakref__")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        mask = 0
        for trait in cls.TRAITS:
            mask |= trait.bit
        cls._trait_mask_ = mask
        cls._ISOLATED = bool(mask & Trait.ISOLATED_FROM_ABOVE.bit)
        cls._HAS_EFFECTS = issubclass(cls, MemoryEffectsInterface)
        cls._HAS_VERIFIER = cls.verify_op is not Operation.verify_op
        cls._PLAIN = (cls.__basicsize__ == Operation.__basicsize__
                      and not cls._ISOLATED)

    def __init__(self,
                 operands: Sequence[Value] = (),
                 result_types: Sequence[Type] = (),
                 attributes: Optional[Dict[str, Attribute]] = None,
                 regions: int = 0,
                 successors: Sequence["Block"] = ()):
        self._operands: Sequence[Value] = \
            list(operands) if operands else _EMPTY
        # Results and uses are made inline, without a call per result or
        # operand: the parser and every clone come through here.
        results: Tuple[OpResult, ...] = _EMPTY
        index = 0
        for type_ in result_types:
            result = OpResult()
            result.type = type_
            result._name_hint = None
            result._uses = {}
            result.op = self
            result.result_index = index
            results += (result,)
            index += 1
        self.results = results
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        self.regions: Sequence[Region] = \
            [Region(self) for _ in range(regions)] if regions else _EMPTY
        self.successors: Sequence[Block] = \
            list(successors) if successors else _EMPTY
        self.parent: Optional[Block] = None
        # Intrusive doubly-linked list through the parent block; maintained
        # by Block so detach/insert/move/erase are O(1).
        self._prev: Optional[Operation] = None
        self._next: Optional[Operation] = None
        #: Position key within the parent block (gaps between neighbours are
        #: kept so insertions rarely force a renumbering); only meaningful
        #: while attached.
        self._order: int = 0
        #: Source provenance behind :attr:`location`: an assigned
        #: :class:`repro.ir.location.Location` (kernel builder, explicit
        #: ``loc(...)``), or — parsed operations — the :class:`LineTable`
        #: of the input and a character offset into it, resolved when
        #: asked for.
        self._location = None
        self._offset = 0
        #: See :func:`version_stamp` (written on isolated ops only).
        self._stamp = 0
        index = 0
        for value in self._operands:
            try:
                value._uses[(self, index)] = None
            except AttributeError:
                raise IRError(f"operand of {self.OPERATION_NAME} must be a "
                              f"Value, got {value!r}") from None
            index += 1

    # ------------------------------------------------------------------
    # Identity / naming
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.OPERATION_NAME

    @property
    def location(self):
        """Where this operation came from (a
        :class:`repro.ir.location.Location`), or ``None`` when unknown."""
        location = self._location
        if type(location) is LineTable:
            return location.location(self._offset)
        return location

    @location.setter
    def location(self, location) -> None:
        self._location = location

    # ------------------------------------------------------------------
    # Operands
    # ------------------------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def set_operand(self, index: int, value: Value) -> None:
        _touch(self)
        self._operands[index]._uses.pop((self, index), None)
        self._operands[index] = value
        value._uses[(self, index)] = None

    def drop_all_uses_of_operands(self) -> None:
        _touch(self)
        index = 0
        for operand in self._operands:
            operand._uses.pop((self, index), None)
            index += 1
        self._operands = _EMPTY

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(
                f"{self.OPERATION_NAME} has {len(self.results)} results; "
                "'result' expects exactly one")
        return self.results[0]

    def replace_all_uses_with(self, new_values: Sequence[Value]) -> None:
        if len(new_values) != len(self.results):
            raise IRError("replacement value count mismatch")
        for old, new in zip(self.results, new_values):
            old.replace_all_uses_with(new)

    def has_uses(self) -> bool:
        return any(res.has_uses() for res in self.results)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def get_attr(self, name: str, default=None):
        return self.attributes.get(name, default)

    def set_attr(self, name: str, attr: Attribute) -> None:
        _touch(self)
        self.attributes[name] = attr

    def get_int_attr(self, name: str, default: Optional[int] = None) -> Optional[int]:
        attr = self.attributes.get(name)
        if isinstance(attr, IntegerAttr):
            return attr.value
        if isinstance(attr, BoolAttr):
            return int(attr.value)
        return default

    def get_str_attr(self, name: str, default: Optional[str] = None) -> Optional[str]:
        attr = self.attributes.get(name)
        if isinstance(attr, StringAttr):
            return attr.value
        return default

    # ------------------------------------------------------------------
    # Structure navigation
    # ------------------------------------------------------------------
    def parent_op(self) -> Optional["Operation"]:
        if self.parent is None:
            return None
        region = self.parent.parent
        return region.parent if region is not None else None

    def is_ancestor_of(self, other: "Operation") -> bool:
        ancestor = other
        while ancestor is not None:
            if ancestor is self:
                return True
            ancestor = ancestor.parent_op()
        return False

    def add_region(self, region: Optional["Region"] = None) -> "Region":
        """Append ``region`` (default: a new empty one) to this operation."""
        _touch(self)
        if region is None:
            region = Region()
        region.parent = self
        if self.regions:
            self.regions.append(region)
        else:
            self.regions = [region]
        return region

    def all_blocks(self) -> Iterator["Block"]:
        for region in self.regions:
            yield from region.blocks

    def walk(self, include_self: bool = True) -> Iterator["Operation"]:
        """Pre-order traversal of this operation and all nested operations.

        Each block is snapshotted when its parent operation is expanded,
        so erasing the operation just yielded — or any operation nested
        inside it — is safe while iterating.  Iterative (explicit stack)
        rather than recursive: walks seed every worklist in the compiler,
        and nested generator resumption dominated their cost.  The
        snapshot is the block's cached reversed tuple of its operations
        (:meth:`Block._reversed_ops`), so an unedited block costs one
        ``extend``.
        """
        stack: List[Operation] = [self]
        while stack:
            op = stack.pop()
            if include_self:
                yield op
            include_self = True
            if op.regions:
                for region in reversed(op.regions):
                    for block in reversed(region.blocks):
                        ops = block._reversed
                        if ops is None:
                            ops = block._reversed_ops()
                        stack.extend(ops)

    def walk_type(self, op_class) -> Iterator["Operation"]:
        for op in self.walk():
            if isinstance(op, op_class):
                yield op

    def block_index(self) -> int:
        """Position of this operation in its block.

        Amortized O(1): the parent block keeps a lazily rebuilt index map
        that structural mutations invalidate, so bursts of queries between
        mutations pay one O(n) rebuild.
        """
        if self.parent is None:
            raise IRError("operation has no parent block")
        return self.parent._index_of(self)

    def is_before_in_block(self, other: "Operation") -> bool:
        if self.parent is not other.parent or self.parent is None:
            raise IRError("operations are not in the same block")
        return self._order < other._order

    def next_op(self) -> Optional["Operation"]:
        return self._next if self.parent is not None else None

    def prev_op(self) -> Optional["Operation"]:
        return self._prev if self.parent is not None else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def detach(self) -> "Operation":
        """Remove this operation from its parent block without erasing it.

        O(1): unlinks from the intrusive operation list.
        """
        if self.parent is not None:
            self.parent._unlink(self)
        return self

    def erase(self) -> None:
        """Erase this operation (and its regions) from the IR.

        The operation must not have remaining uses of its results.  The
        use checks and edits are inline: every pass erases through here.
        """
        for result in self.results:
            if result._uses:
                raise IRError(f"cannot erase {self.OPERATION_NAME}: "
                              "results still have uses")
        for region in self.regions:
            for block in list(region.blocks):
                block.erase_all_ops()
        index = 0
        for operand in self._operands:
            try:
                del operand._uses[(self, index)]
            except KeyError:
                pass
            index += 1
        self._operands = _EMPTY
        if self.parent is not None:
            self.parent._unlink(self)

    def retype(self, cls: PyType["Operation"],
               operands: Optional[Sequence[Value]] = None,
               attributes: Optional[Dict[str, Attribute]] = None
               ) -> "Operation":
        """Turn this op into a ``cls`` in place (MLIR's ``modifyOpInPlace``
        for a 1:1 conversion; docs/pass_infrastructure.md).

        It keeps its identity, place, results (types, uses, name hints),
        regions and location; ``operands`` and ``attributes`` (a dict it
        takes over), when given, replace the old ones.  Raises
        :class:`IRError` unless both classes are ``_PLAIN`` and ``cls``
        allows this op's number of results (``RESULTS``).
        """
        expected = cls.RESULTS
        if not (self._PLAIN and cls._PLAIN) or (
                expected is not None and expected != len(self.results)):
            raise IRError(f"cannot retype {self.OPERATION_NAME} to "
                          f"{cls.OPERATION_NAME} in place")
        if operands is None:
            _touch(self)
        else:
            self.drop_all_uses_of_operands()
            if operands:
                self._operands = operands = list(operands)
                for index, value in enumerate(operands):
                    value._uses[(self, index)] = None
        if attributes is not None:
            self.attributes = attributes
        self.__class__ = cls
        return self

    def move_before(self, other: "Operation") -> None:
        if other is self:
            return
        self.detach()
        block = other.parent
        if block is None:
            raise IRError("target operation has no parent block")
        block.insert_before(other, self)

    def move_after(self, other: "Operation") -> None:
        if other is self:
            return
        self.detach()
        block = other.parent
        if block is None:
            raise IRError("target operation has no parent block")
        block.insert_after(other, self)

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def clone(self, mapping: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-clone this operation.

        ``mapping`` maps values in the original IR to values to be used by
        the clone; it is extended with result/argument mappings so that
        cloned regions refer to cloned values.
        """
        if mapping is None:
            mapping = {}
        new_operands = [mapping.get(operand, operand) for operand in self._operands]
        clone = self.__class__.__new__(self.__class__)
        Operation.__init__(
            clone,
            operands=new_operands,
            result_types=[res.type for res in self.results],
            attributes=self.attributes,
            regions=0,
            successors=self.successors,
        )
        clone._location = self._location
        clone._offset = self._offset
        if type(self) is UnregisteredOp:
            clone.OPERATION_NAME = self.OPERATION_NAME
        for old_res, new_res in zip(self.results, clone.results):
            new_res._name_hint = old_res._name_hint
            mapping[old_res] = new_res
        for region in self.regions:
            clone.add_region(region.clone_into(clone, mapping))
        return clone

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def verify_op(self) -> None:
        """Hook for per-operation structural checks (overridden by ops)."""

    def fold(self):
        """Hook for constant folding.

        Returns either ``None`` (cannot fold), a list of :class:`Attribute`
        (constant results), or a list of :class:`Value` (existing values to
        use instead of the results).
        """
        return None

    def __str__(self) -> str:
        from .printer import Printer

        return Printer().print_op_to_string(self)

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.OPERATION_NAME}>"


class UnregisteredOp(Operation):
    """An operation of no registered class (what the parser builds under
    ``allow_unregistered``): the one kind whose name is per instance."""

    __slots__ = ("OPERATION_NAME",)

    def __init__(self, name: str, *args, **kwargs):
        self.OPERATION_NAME = name
        super().__init__(*args, **kwargs)


#: Gap left between the order keys of neighbouring operations.  Inserting
#: between two operations bisects the gap; only when a gap is exhausted
#: (~log2(stride) consecutive inserts at the same point) is the whole block
#: renumbered, keeping order maintenance amortized O(1).
_ORDER_STRIDE = 1 << 16


class Block:
    """A sequential list of operations ending (usually) in a terminator.

    Operations are stored as an intrusive doubly-linked list threaded
    through ``Operation._prev``/``Operation._next``: ``append``,
    ``insert_before``/``insert_after`` and ``Operation.detach``/``erase``/
    ``move_before``/``move_after`` are all O(1).  ``block.operations``
    remains available as a materialized list view for read-only traversal.
    """

    __slots__ = ("arguments", "parent", "_first", "_last", "_num_ops",
                 "_index_cache", "_reversed")

    def __init__(self, arg_types: Sequence[Type] = (),
                 arg_names: Optional[Sequence[str]] = None):
        self.arguments: List[BlockArgument] = []
        self.parent: Optional[Region] = None
        self._first: Optional[Operation] = None
        self._last: Optional[Operation] = None
        self._num_ops: int = 0
        #: Lazily rebuilt ``id(op) -> position`` map for ``block_index``,
        #: and the operations as a reversed tuple (what ``walk`` pushes);
        #: every structural edit drops both.
        self._index_cache: Optional[Dict[int, int]] = None
        self._reversed: Optional[Tuple[Operation, ...]] = None
        for i, type_ in enumerate(arg_types):
            name = arg_names[i] if arg_names else None
            self.arguments.append(BlockArgument(self, i, type_, name))

    # -- arguments ----------------------------------------------------------
    def add_argument(self, type_: Type, name_hint: Optional[str] = None) -> BlockArgument:
        _touch(self.parent.parent if self.parent is not None else None)
        arg = BlockArgument(self, len(self.arguments), type_, name_hint)
        self.arguments.append(arg)
        return arg

    # -- operations ----------------------------------------------------------
    @property
    def operations(self) -> List[Operation]:
        """Materialized list view of the operations (a fresh O(n) snapshot).

        Mutating the returned list does not affect the block; use
        ``append``/``insert_before``/``insert_after`` and
        ``Operation.detach``/``erase`` instead.
        """
        result: List[Operation] = []
        op = self._first
        while op is not None:
            result.append(op)
            op = op._next
        return result

    @property
    def first_op(self) -> Optional[Operation]:
        return self._first

    @property
    def last_op(self) -> Optional[Operation]:
        return self._last

    def append(self, op: Operation) -> Operation:
        _touch(self.parent.parent if self.parent is not None else None)
        op.detach()
        op.parent = self
        op._prev = self._last
        op._next = None
        op._order = (self._last._order + _ORDER_STRIDE
                     if self._last is not None else 0)
        if self._last is not None:
            self._last._next = op
        else:
            self._first = op
        self._last = op
        self._num_ops += 1
        self._index_cache = None
        self._reversed = None
        return op

    def _adopt(self, op: Operation) -> None:
        """Append ``op``, which is in no block, to a block of a tree no
        one holds yet (the parser's, a clone's): the list is linked as
        :meth:`append` links it, but no version stamp moves, since
        nothing can have been derived from the tree."""
        last = self._last
        op.parent = self
        op._prev = last
        if last is not None:
            op._order = last._order + _ORDER_STRIDE
            last._next = op
        else:
            self._first = op
        self._last = op
        self._num_ops += 1
        self._index_cache = None
        self._reversed = None

    def insert(self, index: int, op: Operation) -> Operation:
        """Insert ``op`` at ``index`` (O(index); prefer the anchored forms).

        Follows ``list.insert`` semantics: out-of-range indices clamp to
        the ends and negative indices count from the back.
        """
        if index < 0:
            index = max(0, self._num_ops + index)
        if index >= self._num_ops:
            return self.append(op)
        anchor = self._first
        for _ in range(index):
            anchor = anchor._next
        return self.insert_before(anchor, op)

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        if anchor.parent is not self:
            raise IRError("insertion anchor is not in this block")
        if op is anchor:
            return op  # inserting before itself is a no-op
        _touch(self.parent.parent if self.parent is not None else None)
        op.detach()
        op.parent = self
        prev = anchor._prev
        op._prev = prev
        op._next = anchor
        anchor._prev = op
        if prev is not None:
            prev._next = op
        else:
            self._first = op
        self._num_ops += 1
        self._index_cache = None
        self._reversed = None
        self._assign_order_between(op, prev, anchor)
        return op

    def insert_after(self, anchor: Operation, op: Operation) -> Operation:
        if anchor.parent is not self:
            raise IRError("insertion anchor is not in this block")
        if anchor._next is None:
            return self.append(op)
        return self.insert_before(anchor._next, op)

    def _unlink(self, op: Operation) -> None:
        """Remove ``op`` from the intrusive list (O(1))."""
        _touch(self.parent.parent if self.parent is not None else None)
        prev, nxt = op._prev, op._next
        if prev is not None:
            prev._next = nxt
        else:
            self._first = nxt
        if nxt is not None:
            nxt._prev = prev
        else:
            self._last = prev
        op._prev = None
        op._next = None
        op.parent = None
        self._num_ops -= 1
        self._index_cache = None
        self._reversed = None

    def _assign_order_between(self, op: Operation,
                              prev: Optional[Operation],
                              nxt: Operation) -> None:
        lo = prev._order if prev is not None else nxt._order - 2 * _ORDER_STRIDE
        hi = nxt._order
        if hi - lo > 1:
            op._order = (lo + hi) // 2
            return
        # Gap exhausted: renumber the whole block with fresh stride spacing.
        current = self._first
        order = 0
        while current is not None:
            current._order = order
            order += _ORDER_STRIDE
            current = current._next

    def _index_of(self, op: Operation) -> int:
        cache = self._index_cache
        if cache is None:
            cache = {}
            current = self._first
            position = 0
            while current is not None:
                cache[id(current)] = position
                position += 1
                current = current._next
            self._index_cache = cache
        try:
            return cache[id(op)]
        except KeyError:
            raise IRError("operation is not in this block") from None

    def _reversed_ops(self) -> Tuple[Operation, ...]:
        ops = self.operations
        ops.reverse()
        self._reversed = snapshot = tuple(ops)
        return snapshot

    def erase_all_ops(self) -> None:
        """Erase all operations, dropping uses (used when erasing regions)."""
        _touch(self.parent.parent if self.parent is not None else None)
        for op in reversed(self.operations):
            for res in op.results:
                res.drop_all_uses()
            for region in op.regions:
                for block in region.blocks:
                    block.erase_all_ops()
            op.drop_all_uses_of_operands()
            op.parent = None
            op._prev = None
            op._next = None
        self._first = None
        self._last = None
        self._num_ops = 0
        self._index_cache = None
        self._reversed = None

    @property
    def terminator(self) -> Optional[Operation]:
        last = self._last
        if last is not None and last._trait_mask_ & Trait.TERMINATOR.bit:
            return last
        return None

    def ops_without_terminator(self) -> List[Operation]:
        ops = self.operations
        if self.terminator is not None:
            ops.pop()
        return ops

    # -- navigation -----------------------------------------------------------
    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def __iter__(self) -> Iterator[Operation]:
        """Iterate over a snapshot, so erasing the current op is safe."""
        return iter(self.operations)

    def __len__(self) -> int:
        return self._num_ops

    def __repr__(self) -> str:
        return f"<Block with {self._num_ops} ops>"


class Region:
    """A list of blocks nested inside an operation."""

    __slots__ = ("parent", "blocks")

    def __init__(self, parent: Optional[Operation] = None):
        self.parent = parent
        self.blocks: List[Block] = []

    def add_block(self, block: Optional[Block] = None) -> Block:
        _touch(self.parent)
        if block is None:
            block = Block()
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def front(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    @property
    def empty(self) -> bool:
        return not self.blocks

    def clone_into(self, parent: Operation, mapping: Dict[Value, Value]) -> "Region":
        new_region = Region(parent)
        # First create all blocks/arguments so branch successors can map.
        block_map: Dict[Block, Block] = {}
        for block in self.blocks:
            new_block = Block()
            for arg in block.arguments:
                new_arg = new_block.add_argument(arg.type, arg.name_hint)
                mapping[arg] = new_arg
            new_region.add_block(new_block)
            block_map[block] = new_block
        for block in self.blocks:
            new_block = block_map[block]
            for op in block.operations:
                cloned = op.clone(mapping)
                if cloned.successors:
                    cloned.successors = [block_map.get(s, s)
                                         for s in cloned.successors]
                new_block._adopt(cloned)
        return new_region

    def __repr__(self) -> str:
        return f"<Region with {len(self.blocks)} blocks>"


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

_OPERATION_REGISTRY: Dict[str, PyType[Operation]] = {}


def register_op(cls: PyType[Operation]) -> PyType[Operation]:
    """Class decorator registering an operation by its ``OPERATION_NAME``."""
    name = cls.OPERATION_NAME
    if name in _OPERATION_REGISTRY and _OPERATION_REGISTRY[name] is not cls:
        raise IRError(f"operation {name!r} registered twice")
    _OPERATION_REGISTRY[name] = cls
    return cls


def lookup_op_class(name: str) -> Optional[PyType[Operation]]:
    return _OPERATION_REGISTRY.get(name)


def registered_operations() -> Dict[str, PyType[Operation]]:
    return dict(_OPERATION_REGISTRY)
