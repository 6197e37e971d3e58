"""Textual IR parser for the MLIR-generic syntax emitted by the printer.

Accepts the generic operation form::

    %0 = "arith.addi"(%a, %b) {attrs} : (i64, i64) -> (i64)

including nested regions, blocks with arguments, successor lists and the
full type grammar (``i32``, ``f32``, ``index``, ``memref<...>``, function
types and ``!``-prefixed dialect types resolved through the dialect type
parser registry, :func:`register_type_parser`).

Together with :mod:`repro.ir.printer` this gives a verified serialization
layer: for any module ``m`` built programmatically,
``print(parse(print(m)))`` reproduces ``print(m)`` exactly.  The parser is
whitespace-insensitive and supports ``//`` line comments so textual test
cases can be annotated.

Operation classes are resolved through the operation registry (what
:func:`repro.ir.operations.lookup_op_class` reads); parsing an op name
that is not registered is an error unless ``allow_unregistered`` is set.

Parsing is linear in the size of the input: whitespace, the
``%r, ... = "op.name"(%a, ...)`` head of an operation and quoted strings
are each consumed by one compiled regular expression, source positions
come from a line-start table built once per input, and type, attribute
and attribute-dictionary spellings are interned process-wide, so a
typical operation is one match for its head and one for its attribute
dictionary and signature (see "Parser cost model and interning contract"
in ``docs/textual_ir.md``).  Regions nest at most
:data:`MAX_NESTING_DEPTH` deep.
"""

from __future__ import annotations

import difflib
import hashlib
import importlib
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseElementsAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from .location import UNKNOWN, LineTable, Location
from .operations import (
    _OPERATION_REGISTRY,
    Block,
    Operation,
    Region,
    UnregisteredOp,
    op_memo,
    registered_operations,
)
from .types import (
    DYNAMIC,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    Type,
    VectorType,
    is_float,
)
from .values import Value


class ParseError(Exception):
    """Raised on malformed textual IR, with 1-based line/column info."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        if line is not None:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Dialect type parsers and interned type spellings
# ---------------------------------------------------------------------------

#: ``(text, parse_type) -> Optional[Type]`` — returns None when the
#: dialect does not recognize the type, letting the parser report an error.
TypeParser = Callable[[str, Callable[[str], Type]], Optional[Type]]

_TYPE_PARSERS: Dict[str, TypeParser] = {}

#: Type spelling -> parsed type, shared by every parse in the process.
#: Types are frozen dataclasses, so one instance can stand for every
#: occurrence of its spelling.  Only spellings that parsed successfully
#: are entered.  Plain dict get/set under the GIL: a race re-parses a
#: spelling, it cannot corrupt the table.
_INTERNED_TYPES: Dict[str, Type] = {}

#: Attribute spelling -> parsed attribute, on the same terms: typed
#: numbers (``0 : index``) and the ``true``/``false``/``unit`` keywords,
#: frozen dataclasses too.  One instance per spelling instead of one per
#: occurrence is a third of an object per operation that the cyclic
#: collector never has to walk.
_INTERNED_ATTRS: Dict[str, Attribute] = {}

#: Flat attribute-dictionary spelling (``{value = 0 : index}``: no
#: nested ``{ }``, no comment and no string) -> the attributes it parses
#: to.  The values are frozen attributes; the dict itself is never
#: handed out, since every operation copies the dictionary it is built
#: with.  A string value is where a name of one program lives (a symbol,
#: a kernel name, a tag), so a dictionary holding one seldom repeats
#: except in a re-parse of the same text, and a server compiling new
#: programs would fill the table with entries nothing hits again.  A
#: dictionary can hold ``!``-types, so registering a type hook forgets
#: these too.
_INTERNED_DICTS: Dict[str, Dict[str, Attribute]] = {}

#: Bounds on each of the three tables (entries, and characters of one
#: spelling) so a long-lived process cannot grow on adversarial
#: spellings.  The real vocabulary is a few hundred short spellings, so
#: dropping everything at the limit costs one re-parse of each.
_MAX_INTERNED_TYPES = 4096
_MAX_INTERNED_SPELLING = 512

#: How deep regions may nest.  Parsing, verifying, printing and the
#: pipelines recurse once or more per level, so a deeper module would
#: end in a ``RecursionError`` somewhere; the parser rejects it up front
#: at the operation that opens the region one level too deep.
MAX_NESTING_DEPTH = 200


def register_type_parser(dialect_name: str, parser: TypeParser) -> None:
    """Register ``parser`` for ``!``-types of dialect ``dialect_name``.

    ``parser(text, parse_type)`` gets the raw spelling after ``!`` and a
    callable parsing a nested type from a string, and returns the type or
    None when it does not recognize the spelling.  It must be a **pure
    function of its spelling**: results are interned by spelling and
    shared between parses, so a hook that answers from mutable state
    would be shadowed by its own earlier answers.  Registering a hook
    (again) forgets every interned type and attribute-dictionary
    spelling.
    """
    _TYPE_PARSERS[dialect_name] = parser
    _INTERNED_TYPES.clear()
    _INTERNED_DICTS.clear()


def lookup_type_parser(dialect_name: str) -> Optional[TypeParser]:
    parser = _TYPE_PARSERS.get(dialect_name)
    if parser is None:
        # The shipped dialects register their hooks when the package is
        # imported; make sure that has happened before giving up.
        importlib.import_module("repro.dialects")
        parser = _TYPE_PARSERS.get(dialect_name)
    return parser


def registered_type_parsers() -> Dict[str, TypeParser]:
    return dict(_TYPE_PARSERS)


def _intern(table: Dict[str, object], spelling: str, parsed: object) -> None:
    if len(spelling) > _MAX_INTERNED_SPELLING:
        return
    if len(table) >= _MAX_INTERNED_TYPES:
        table.clear()
    table[spelling] = parsed


# ---------------------------------------------------------------------------
# Scanning patterns
#
# Every pattern is deterministic — at each character at most one branch
# can continue — so a failed match backtracks in linear time: blank runs
# and comments are never nested quantifiers of each other, a comment must
# run to its newline, and strings use the unrolled normal*(escape normal*)*
# form.
# ---------------------------------------------------------------------------

_BLANK = r"[ \t\r\n]*"
#: Whitespace and ``//`` line comments.
_WS = _BLANK + r"(?://[^\n]*(?:\n" + _BLANK + r"|\Z))*"
_WS_RE = re.compile(_WS)

_ID_CHARS = r"A-Za-z0-9_$."
_IDENT = rf"[A-Za-z_$][{_ID_CHARS}]*"
_NUMBER = r"-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|inf|nan)"
_VALUE_LIST = rf"%[{_ID_CHARS}]+(?:{_WS},{_WS}%[{_ID_CHARS}]+)*"
_STRING = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_STRING_RE = re.compile(_STRING, re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_STRING_ESCAPES = {"n": "\n", "t": "\t"}

#: ``%r, ... = "op.name"(%a, ...)`` and the whitespace after it: result
#: list, raw (still escaped) name, operand list.
_OP_HEAD_RE = re.compile(
    rf"(?:({_VALUE_LIST}){_WS}={_WS})?{_STRING}{_WS}"
    rf"\({_WS}({_VALUE_LIST})?{_WS}\){_WS}", re.DOTALL)
#: The values of a matched list; a ``%name`` inside a comment is not one.
_VALUE_OR_COMMENT_RE = re.compile(rf"//[^\n]*|%([{_ID_CHARS}]+)")
#: Characters whitespace or a comment can start with.
_WS_START = frozenset(" \t\r\n/")

#: Spellings the intern table is keyed on.  Each alternative delimits
#: itself (closing bracket, or a lookahead past the last identifier
#: character), so equal spellings always parse alike.  Nested ``( )`` or
#: ``< >`` and embedded comments do not match and are parsed piecewise.
_FUNCTION_TYPE = rf"\([^()/]*\){_BLANK}->{_BLANK}\([^()/]*\)"
_TYPE_SPELLING_RE = re.compile(
    rf"{_FUNCTION_TYPE}"
    r"|(?:memref|vector)<[^<>/]*>"
    rf"|![A-Za-z$](?:[{_ID_CHARS}!]|<[^<>/]*>)*(?![{_ID_CHARS}!<])"
    rf"|{_IDENT}")
_SIGNATURE_RE = re.compile(rf"{_WS}:{_WS}({_FUNCTION_TYPE})")
#: A flat attribute dictionary without strings: no ``{ }``, no ``"`` and
#: no ``/``, so it ends at its first ``}`` and holds no comment.
_ATTR_DICT = r'\{[^{}"/]*\}'
_ATTR_DICT_RE = re.compile(_ATTR_DICT)
#: What follows an operation's operand list (or its upstream-order
#: regions): an optional flat dictionary, the signature and the
#: whitespace after it.  Both spellings are keys of the intern tables.
_OP_TAIL_RE = re.compile(
    rf"(?:({_ATTR_DICT}){_WS})?:{_WS}({_FUNCTION_TYPE}){_WS}")
#: Attribute spellings the intern table is keyed on, delimited likewise:
#: a keyword, or a number typed by a bare identifier (``0 : index``).
_ATTR_SPELLING_RE = re.compile(
    rf"true|false|unit|{_NUMBER}{_BLANK}:{_BLANK}{_IDENT}(?![{_ID_CHARS}])")

_DIALECT_NAME_RE = re.compile(r"[A-Za-z$][A-Za-z0-9$]*")
_DIALECT_RUN_RE = re.compile(rf"[{_ID_CHARS}!]*")
_ANGLE_RE = re.compile(r"[<>]")
_ATTR_KEYWORD_RE = re.compile(r"true|false|unit|dense")
_INTEGER_TYPE_RE = re.compile(r"i(\d+)$")
_FLOAT_TYPE_RE = re.compile(r"f(\d+)$")


def _token_pattern(body: str) -> "re.Pattern[str]":
    """A pattern for :meth:`Parser._token`: leading whitespace, then
    ``body``, whose one group is the token's value."""
    return re.compile(_WS + body)


_IDENT_RE = _token_pattern(rf"({_IDENT})")
_VALUE_ID_RE = _token_pattern(rf"%([{_ID_CHARS}]+)")
_NUMBER_RE = _token_pattern(rf"({_NUMBER})")
_SUCCESSOR_RE = _token_pattern(r"\^bb(\d+)")
_DIM_RE = _token_pattern(r"(\?|\d+)x")


#: What an operation without attributes is built from (it copies it).
_NO_ATTRIBUTES: Dict[str, Attribute] = {}


def _signature_end(tail: Optional["re.Match[str]"], pos: int) -> int:
    """Where the signature of the operation being parsed ends: in its
    tail match, or at ``pos`` when it was parsed piece by piece (looked
    up only to locate an error)."""
    return pos if tail is None else tail.end(2)


def _attach_regions(op: Operation, regions: List[Region]) -> None:
    """Give ``op`` the parsed ``regions`` (no stamp moves: nothing holds
    the tree yet).  An empty list leaves the shared empty container."""
    if regions:
        for region in regions:
            region.parent = op
        op.regions = regions


def _keepable_hint(name: str) -> Optional[str]:
    """The parsed SSA name as a ``name_hint``, or ``None`` for ``%0``-style
    purely numeric names.  MLIR never preserves numeric SSA names — the
    printer renumbers anonymous values contiguously — and baking a parsed
    ``%7`` in as a permanent hint would freeze stale numbering across a
    parse/optimize/print round trip (optimizations that erase values
    would leave gaps serial compilation does not produce)."""
    return None if name.isdigit() else name


class _Scope:
    """One SSA name scope; ``isolated`` scopes stop outward name lookup."""

    def __init__(self, isolated: bool):
        self.isolated = isolated
        self.values: Dict[str, Value] = {}
        #: Forward references (uses before the definition, MLIR-style):
        #: ``name -> (placeholder value, position of the first use)``.
        #: Resolved when the scope later defines the name; still-unresolved
        #: entries are reported when the scope closes.  Dominance of
        #: resolved uses is deliberately NOT the parser's job — the
        #: verifier and ``repro-lint`` diagnose it on the parsed IR.
        self.forward: Dict[str, Tuple[Value, int]] = {}


class Parser:
    """Recursive-descent parser over the printed generic syntax."""

    def __init__(self, text: str, allow_unregistered: bool = False,
                 filename: str = "<input>", first_line: int = 1):
        self.text = text
        self.pos = 0
        self.allow_unregistered = allow_unregistered
        self.filename = filename
        #: The line of ``filename`` that ``text`` starts on.
        self.first_line = first_line
        self._scopes: List[_Scope] = [_Scope(isolated=True)]
        #: Where the lines of ``text`` start, built on the first position
        #: lookup; shared with every operation parsed at a position.
        self._line_starts: Optional[LineTable] = None
        #: Regions open around the cursor (see MAX_NESTING_DEPTH).
        self._depth = 0

    # ------------------------------------------------------------------
    # Low-level scanning
    # ------------------------------------------------------------------
    def _skip_ws(self) -> int:
        """Move past whitespace and comments; the new position."""
        self.pos = pos = _WS_RE.match(self.text, self.pos).end()
        return pos

    def _at_end(self) -> bool:
        return self._skip_ws() >= len(self.text)

    def _peek(self, literal: str) -> bool:
        return self.text.startswith(literal, self._skip_ws())

    def _consume(self, literal: str) -> bool:
        if self._peek(literal):
            self.pos += len(literal)
            return True
        return False

    def _expect(self, literal: str, context: str = "") -> None:
        if not self._consume(literal):
            where = f" {context}" if context else ""
            self.error(f"expected {literal!r}{where}, "
                       f"found {self._found()!r}")

    def _found(self) -> str:
        """What a diagnostic quotes as the offending input."""
        return self.text[self.pos:self.pos + 12] or "<end of input>"

    def _token(self, pattern: "re.Pattern[str]") -> Optional[str]:
        """Match a :func:`_token_pattern`; its value, or None with the
        cursor left on the offending token."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            self._skip_ws()
            return None
        self.pos = m.end()
        return m.group(1)

    def _line_table(self) -> LineTable:
        table = self._line_starts
        if table is None:
            table = self._line_starts = LineTable(
                self.filename, self.text, self.first_line)
        return table

    def error(self, message: str, pos: Optional[int] = None) -> None:
        """Raise a :class:`ParseError` at ``pos`` (default: the cursor)."""
        raise ParseError(message, *self._line_table().line_column(
            self.pos if pos is None else pos))

    # ------------------------------------------------------------------
    # SSA value scoping
    # ------------------------------------------------------------------
    def _define_value(self, name: str, value: Value) -> None:
        scope = self._scopes[-1]
        if name in scope.values:
            self.error(f"redefinition of value %{name}")
        scope.values[name] = value
        pending = scope.forward.pop(name, None)
        if pending is not None:
            placeholder, use_pos = pending
            if placeholder.type != value.type:
                self.error(
                    f"type mismatch for forward-referenced value %{name}: "
                    f"used as {placeholder.type} but defined as {value.type}",
                    use_pos)
            placeholder.replace_all_uses_with(value)

    def _lookup_value(self, name: str) -> Optional[Value]:
        for scope in reversed(self._scopes):
            if name in scope.values:
                return scope.values[name]
            if scope.isolated:
                break
        return None

    def _forward_reference(self, name: str, declared: Type,
                           use_pos: int) -> Value:
        """A use before the definition: hand out a typed placeholder that a
        later definition in this scope replaces (the mlir-opt behaviour,
        which keeps dominance violations *parseable* so the verifier and
        the lint rules can diagnose them on real IR)."""
        scope = self._scopes[-1]
        if name not in scope.forward:
            scope.forward[name] = (
                Value(declared, name_hint=_keepable_hint(name)), use_pos)
        return scope.forward[name][0]

    def _close_scope(self) -> None:
        scope = self._scopes.pop()
        if scope.forward:
            name, (_, use_pos) = next(iter(scope.forward.items()))
            self.error(f"use of undefined value %{name}", use_pos)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def parse_operation(
            self,
            successor_sink: Optional[List[Tuple[Operation, List[int]]]] = None,
    ) -> Operation:
        """Parse one operation and leave the cursor on the next
        significant character.

        A typical operation costs one match for its head and one for its
        attribute dictionary and signature, both looked up in the intern
        tables; everything after the signature is found by branching on
        the one character that follows it.
        """
        text = self.text
        op_start = self.pos
        if text[op_start:op_start + 1] in _WS_START:
            op_start = _WS_RE.match(text, op_start).end()
        head = _OP_HEAD_RE.match(text, op_start)
        if head is None:
            self.pos = op_start
            self._fail_op_head()
        result_list, op_name, operand_list = head.groups()
        pos = head.end()  # the head pattern took the whitespace after it
        if "\\" in op_name:
            op_name = _unescape(op_name)
        # A value list without a comma holds one value and no comment;
        # in one with commas, a `%name` inside a comment is not a value.
        if result_list is None:
            result_names: Sequence[str] = ()
        elif "," in result_list:
            result_names = _VALUE_OR_COMMENT_RE.findall(result_list)
            if "" in result_names:
                result_names = [name for name in result_names if name]
        else:
            result_names = (result_list[1:],)
        if operand_list is None:
            operand_names: Sequence[str] = ()
        elif "," in operand_list:
            operand_names = _VALUE_OR_COMMENT_RE.findall(operand_list)
            if "" in operand_names:
                operand_names = [name for name in operand_names if name]
        else:
            operand_names = (operand_list[1:],)
        op_class = _OPERATION_REGISTRY[op_name] \
            if op_name in _OPERATION_REGISTRY else None

        # Upstream-MLIR generic order (what repro.ir.printer prints):
        # successor list and region list come directly after the operand
        # list, with the attribute dictionary after the regions.  The
        # classic order, still read as input, puts both after the
        # signature instead; a '[' or '(' here is unambiguous because
        # the classic order always continues with '{' or ':'.
        ch = text[pos:pos + 1]
        successor_indices: Optional[List[int]] = None
        early_regions: Optional[List[Region]] = None
        if ch == "[" or ch == "(":
            self.pos = pos
            if ch == "[":
                successor_indices = self._parse_successor_indices()
                self.pos = pos = _WS_RE.match(text, self.pos).end()
                ch = text[pos:pos + 1]
            if ch == "(":
                early_regions = self._parse_regions(
                    op_name, op_class is not None and op_class._ISOLATED,
                    op_start)
                self.pos = pos = _WS_RE.match(text, self.pos).end()
                ch = text[pos:pos + 1]

        tail = _OP_TAIL_RE.match(text, pos)
        signature = attributes = None
        if tail is not None:
            dictionary, spelled = tail.group(1, 2)
            signature = _INTERNED_TYPES.get(spelled)
            attributes = _NO_ATTRIBUTES if dictionary is None \
                else _INTERNED_DICTS.get(dictionary)
        if signature is None or attributes is None:
            tail = None
            self.pos = pos
            attributes, signature = self._parse_op_tail(ch)
            pos = _WS_RE.match(text, self.pos).end()
        else:
            pos = tail.end()
        in_types = signature.inputs
        out_types = signature.results

        scope = self._scopes[-1]
        values = scope.values
        if operand_names or in_types:
            if len(operand_names) != len(in_types):
                self.error(
                    f"'{op_name}' has {len(operand_names)} operands but its "
                    f"signature lists {len(in_types)} operand types",
                    _signature_end(tail, self.pos))
            operands = [values[name] if name in values
                        else self._lookup_value(name)
                        for name in operand_names]
            for value, declared in zip(operands, in_types):
                if value is None or (value.type is not declared
                                     and value.type != declared):
                    self._resolve_operands(
                        head, op_name, operands, operand_names, in_types,
                        _signature_end(tail, self.pos))
                    break
        else:
            operands = []
        if result_names or out_types:
            if len(result_names) != len(out_types):
                self.error(
                    f"'{op_name}' binds {len(result_names)} results but its "
                    f"signature lists {len(out_types)} result types",
                    _signature_end(tail, self.pos))

        if op_class is not None:
            op = op_class.__new__(op_class)
            Operation.__init__(op, operands=operands, result_types=out_types,
                               attributes=attributes)
        else:
            op = self._unregistered_operation(
                op_name, operands, out_types, attributes,
                _signature_end(tail, self.pos))
        if early_regions:
            _attach_regions(op, early_regions)
        if result_names:
            forward = scope.forward
            for result, name in zip(op.results, result_names):
                if name in values or (forward and name in forward):
                    self.pos = _signature_end(tail, self.pos)
                    self._define_value(name, result)
                else:
                    values[name] = result
                if not name.isdigit():  # see _keepable_hint
                    result._name_hint = name
        if successor_indices is not None and successor_sink is None:
            self.error(f"'{op_name}' lists successors outside of a region",
                       _signature_end(tail, self.pos))

        # The one trailing scan: the signature took the whitespace after
        # it, so the next character says which clause follows, if any.
        ch = text[pos:pos + 1]
        if ch == "[" and successor_indices is None:
            self.pos = pos
            successor_indices = self._parse_successor_indices()
            if successor_sink is None:
                self.error(
                    f"'{op_name}' lists successors outside of a region")
            pos = _WS_RE.match(text, self.pos).end()
            ch = text[pos:pos + 1]
        if successor_indices is not None:
            successor_sink.append((op, successor_indices))
        if ch == "(" and early_regions is None:
            self.pos = pos
            _attach_regions(op, self._parse_regions(op_name, op._ISOLATED,
                                                    op_start))
            pos = _WS_RE.match(text, self.pos).end()
            ch = text[pos:pos + 1]
        # Trailing `loc(...)` (printed under print_locations) wins over the
        # textual position the op was parsed at, for which no line table
        # is then built.  The position stays an offset into that table
        # (see Operation.location): no Location object per parsed op.
        if ch == "l" and text.startswith("loc(", pos):
            self.pos = pos + 4
            op._location = self._parse_location_body()
            pos = _WS_RE.match(text, self.pos).end()
        else:
            op._location = self._line_starts or self._line_table()
            op._offset = op_start
        self.pos = pos
        return op

    def _parse_op_tail(self, ch: str) -> Tuple[Dict[str, Attribute],
                                                FunctionType]:
        """Attribute dictionary (if ``ch`` opens one) and signature, piece
        by piece; each spelling a piece consumed exactly is interned."""
        text = self.text
        attributes: Dict[str, Attribute] = _NO_ATTRIBUTES
        if ch == "{":
            spelled = _ATTR_DICT_RE.match(text, self.pos)
            attributes = self._parse_attr_dict()
            if spelled is not None and self.pos == spelled.end():
                _intern(_INTERNED_DICTS, spelled.group(), attributes)
        # `: (operand types) -> (result types)` is spelled like a
        # function type, and interned as one.
        m = _SIGNATURE_RE.match(text, self.pos)
        if m is not None:
            signature = _INTERNED_TYPES.get(m.group(1))
            if signature is not None:
                self.pos = m.end()
                return attributes, signature
        self._expect(":", "before the operation signature")
        signature = self._parse_function_type("in the operation signature")
        if m is not None and self.pos == m.end():
            _intern(_INTERNED_TYPES, m.group(1), signature)
        return attributes, signature

    def _resolve_operands(self, head: "re.Match[str]", op_name: str,
                          operands: List[Optional[Value]],
                          names: Sequence[str], types: Sequence[Type],
                          signature_end: int) -> None:
        """Give each operand no definition reached a forward reference,
        and report the first whose type is not the declared one."""
        for index, (name, declared) in enumerate(zip(names, types)):
            value = operands[index]
            if value is None:
                value = operands[index] = self._forward_reference(
                    name, declared, self._value_position(head, 3, index))
            if value.type is not declared and value.type != declared:
                self.error(
                    f"type mismatch for operand %{name} of '{op_name}': "
                    f"value has type {value.type} but the signature "
                    f"declares {declared}", signature_end)

    def _value_position(self, head: "re.Match[str]", group: int,
                        index: int) -> int:
        """Where value ``index`` of a list group of the op head starts
        (looked up only to locate a use error)."""
        values = [m.start() for m in _VALUE_OR_COMMENT_RE.finditer(
            self.text, *head.span(group)) if m.group(1)]
        return values[index]

    def _fail_op_head(self) -> None:
        """Report why the text at the cursor is not an operation head, at
        the token that breaks it (reached only when the head pattern does
        not match)."""
        if self._peek("%"):
            while True:
                if self._token(_VALUE_ID_RE) is None:
                    self.error("expected a result name after '%'")
                if not self._consume(","):
                    break
            self._expect("=", "after the operation result list")
        self._parse_string_literal("operation name")
        self._expect("(", "before the operand list")
        if not self._consume(")"):
            while True:
                if self._token(_VALUE_ID_RE) is None:
                    self.error("expected an operand name ('%value')")
                if not self._consume(","):
                    break
            self._expect(")", "after the operand list")
        raise AssertionError("the op-head pattern rejected a valid head")

    def _parse_string_literal(self, what: str) -> str:
        pos = self._skip_ws()
        m = _STRING_RE.match(self.text, pos)
        if m is None:
            if not self.text.startswith('"', pos):
                self.error(f"expected {what} in double quotes, "
                           f"found {self._found()!r}")
            self.error(f"unterminated string literal in {what}", pos + 1)
        self.pos = m.end()
        return _unescape(m.group(1))

    def _parse_successor_indices(self) -> List[int]:
        self._expect("[")
        indices: List[int] = []
        while True:
            label = self._token(_SUCCESSOR_RE)
            if label is None:
                self.error("expected a successor label ('^bbN')")
            indices.append(int(label))
            if not self._consume(","):
                break
        self._expect("]", "after the successor list")
        return indices

    def _parse_location_body(self) -> Location:
        """The rest of a ``loc("file":line:col)`` clause after ``loc(``."""
        if self._consume("unknown"):
            self._expect(")", "after 'loc(unknown'")
            return UNKNOWN
        filename = self._parse_string_literal("location filename")
        self._expect(":", "after the location filename")
        line = self._token(_NUMBER_RE)
        if line is None:
            self.error("expected a line number in loc(...)")
        self._expect(":", "after the location line number")
        column = self._token(_NUMBER_RE)
        if column is None:
            self.error("expected a column number in loc(...)")
        self._expect(")", "after the location")
        return Location(filename, int(line), int(column))

    def _unregistered_operation(self, name: str, operands: Sequence[Value],
                                result_types: Sequence[Type],
                                attributes: Dict[str, Attribute],
                                signature_end: int) -> Operation:
        """A generic operation named ``name`` under ``allow_unregistered``;
        otherwise an error with the closest registered name."""
        if not self.allow_unregistered:
            close = difflib.get_close_matches(name, registered_operations(), 1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            self.error(f"unknown operation {name!r}{hint}", signature_end)
        return UnregisteredOp(name, operands=operands,
                              result_types=result_types,
                              attributes=attributes)

    # ------------------------------------------------------------------
    # Regions and blocks
    # ------------------------------------------------------------------
    def _parse_regions(self, op_name: str, isolated: bool,
                       op_start: int) -> List[Region]:
        """The region list whose ``(`` is at the cursor, parsed before its
        regions are attached (in upstream order the operation does not
        exist yet); isolation for SSA scoping comes from the operation
        class."""
        if self._depth >= MAX_NESTING_DEPTH:
            self.error(f"'{op_name}' opens a region nested deeper than "
                       f"{MAX_NESTING_DEPTH} levels", op_start)
        self._depth += 1
        text = self.text
        regions: List[Region] = []
        pos = _WS_RE.match(text, self.pos + 1).end()
        while text[pos:pos + 1] == "{":
            self.pos = pos + 1
            region = Region()
            regions.append(region)
            self._parse_region_body(region, isolated, op_name)
            pos = _WS_RE.match(text, self.pos).end()
        self.pos = pos
        if text[pos:pos + 1] != ")":
            self._expect(")", "after the region list")
        self.pos = pos + 1
        self._depth -= 1
        return regions

    def _parse_region_body(self, region: Region, isolated: bool,
                           op_name: str) -> None:
        """The body of a region whose ``{`` the cursor is just past."""
        text = self.text
        self._scopes.append(_Scope(isolated))
        label_map: Dict[int, Block] = {}
        fixups: List[Tuple[Operation, List[int]]] = []
        current: Optional[Block] = None
        pos = _WS_RE.match(text, self.pos).end()
        while True:
            ch = text[pos:pos + 1]
            self.pos = pos
            if ch == "}":
                self.pos += 1
                break
            if not ch:
                self.error(
                    f"unbalanced region in '{op_name}': missing '}}' before "
                    "end of input")
            if ch == "^":
                label, current = self._parse_block_header()
                if label in label_map:
                    self.error(f"duplicate block label ^bb{label}")
                current.parent = region
                region.blocks.append(current)
                label_map[label] = current
                pos = _WS_RE.match(text, self.pos).end()
                continue
            if current is None:
                current = Block()
                current.parent = region
                region.blocks.append(current)
                label_map.setdefault(0, current)
            # Nothing holds the tree yet: linked without moving stamps.
            current._adopt(self.parse_operation(fixups))
            pos = self.pos
        if not region.blocks:
            # An empty region body stands for one empty block (builders always
            # materialize entry blocks, and `region.front` relies on it).
            current = Block()
            current.parent = region
            region.blocks.append(current)
        for branch, indices in fixups:
            successors = []
            for index in indices:
                target = label_map.get(index)
                if target is None:
                    self.error(
                        f"'{branch.name}' references undefined block "
                        f"^bb{index}")
                successors.append(target)
            branch.successors = successors
        self._close_scope()

    def _parse_block_header(self) -> Tuple[int, Block]:
        label = self._token(_SUCCESSOR_RE)
        if label is None:
            self.error("expected a block label ('^bbN')")
        block = Block()
        if self._consume("("):
            if not self._consume(")"):
                while True:
                    name = self._token(_VALUE_ID_RE)
                    if name is None:
                        self.error("expected a block argument name")
                    self._expect(":", "after the block argument name")
                    arg = block.add_argument(self.parse_type(),
                                             _keepable_hint(name))
                    self._define_value(name, arg)
                    if not self._consume(","):
                        break
                self._expect(")", "after the block argument list")
        self._expect(":", "after the block label")
        return int(label), block

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def _parse_function_type(self, arrow_context: str) -> FunctionType:
        inputs = self._parse_paren_type_list()
        self._expect("->", arrow_context)
        results = self._parse_paren_type_list()
        return FunctionType(tuple(inputs), tuple(results))

    def _parse_paren_type_list(self) -> List[Type]:
        self._expect("(", "before a type list")
        types: List[Type] = []
        if not self._consume(")"):
            while True:
                types.append(self.parse_type())
                if not self._consume(","):
                    break
            self._expect(")", "after a type list")
        return types

    def parse_type(self) -> Type:
        spelling = _TYPE_SPELLING_RE.match(self.text, self._skip_ws())
        if spelling is not None:
            type_ = _INTERNED_TYPES.get(spelling.group())
            if type_ is not None:
                self.pos = spelling.end()
                return type_
        type_ = self._parse_type_piecewise()
        # Only a parse that consumed exactly the delimited spelling stands
        # for it (`memref <4xf32>` reads past the spelling `memref`).
        if spelling is not None and self.pos == spelling.end():
            _intern(_INTERNED_TYPES, spelling.group(), type_)
        return type_

    def _parse_type_piecewise(self) -> Type:
        ch = self.text[self.pos:self.pos + 1]
        if ch == "(":
            return self._parse_function_type("in a function type")
        if ch == "!":
            return self._parse_dialect_type()
        ident = self._token(_IDENT_RE)
        if ident is None:
            self.error(f"expected a type, found {self._found()!r}")
        if ident == "index":
            return IndexType()
        if ident == "none":
            return NoneType()
        if ident == "memref":
            return self._parse_memref_body()
        if ident == "vector":
            return self._parse_vector_body()
        m = _INTEGER_TYPE_RE.match(ident)
        if m:
            return IntegerType(int(m.group(1)))
        m = _FLOAT_TYPE_RE.match(ident)
        if m:
            return FloatType(int(m.group(1)))
        self.error(f"unknown type {ident!r}")
        raise AssertionError("unreachable")

    def _parse_shape(self) -> Tuple[int, ...]:
        shape: List[int] = []
        while True:
            dim = self._token(_DIM_RE)
            if dim is None:
                return tuple(shape)
            shape.append(DYNAMIC if dim == "?" else int(dim))

    def _parse_memref_body(self) -> MemRefType:
        self._expect("<", "after 'memref'")
        shape = self._parse_shape()
        element = self.parse_type()
        memory_space = "global"
        if self._consume(","):
            space = self._token(_IDENT_RE)
            if space is None:
                self.error("expected a memory space name in memref type")
            memory_space = space
        self._expect(">", "after the memref element type")
        return MemRefType(shape, element, memory_space)

    def _parse_vector_body(self) -> VectorType:
        self._expect("<", "after 'vector'")
        shape = self._parse_shape()
        element = self.parse_type()
        self._expect(">", "after the vector element type")
        return VectorType(shape, element)

    def _parse_dialect_type(self) -> Type:
        self._expect("!")
        start = self._skip_ws()
        # The dialect namespace is the leading identifier run, up to the
        # first '.', '_', '<' or nested '!' ("sycl" in "sycl_buffer_1_...",
        # "llvm" in "llvm.ptr<...>").
        namespace = _DIALECT_NAME_RE.match(self.text, start)
        if namespace is None:
            self.error("expected a dialect type name after '!'")
        dialect = namespace.group()
        # Take the full raw spelling: identifier characters interleaved with
        # balanced <...> groups (e.g. `sycl_accessor_1_memref<4xf32>_read`)
        # and embedded `!` from nested dialect-type elements
        # (`sycl_buffer_1_!sycl_id_2`).
        while True:
            self.pos = _DIALECT_RUN_RE.match(self.text, self.pos).end()
            if not self.text.startswith("<", self.pos):
                break
            self._skip_balanced_angle()
        raw = self.text[start:self.pos]
        type_parser = lookup_type_parser(dialect)
        if type_parser is None:
            self.error(
                f"no type parser registered for dialect {dialect!r} "
                f"(while parsing '!{raw}')")
        result = type_parser(raw, parse_type)
        if result is None:
            self.error(f"dialect {dialect!r} cannot parse type '!{raw}'")
        return result

    def _skip_balanced_angle(self) -> None:
        """Move past the ``<...>`` group opening at the cursor."""
        depth = 0
        for m in _ANGLE_RE.finditer(self.text, self.pos):
            depth += 1 if m.group() == "<" else -1
            if depth == 0:
                self.pos = m.end()
                return
        self.error("unbalanced '<...>' in dialect type")

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def _parse_attr_dict(self) -> Dict[str, Attribute]:
        self._expect("{")
        attrs: Dict[str, Attribute] = {}
        if not self._consume("}"):
            while True:
                key = self._token(_IDENT_RE)
                if key is None:
                    self.error("expected an attribute name")
                self._expect("=", "after the attribute name")
                attrs[key] = self.parse_attribute()
                if not self._consume(","):
                    break
            self._expect("}", "after the attribute dictionary")
        return attrs

    def parse_attribute(self) -> Attribute:
        spelling = _ATTR_SPELLING_RE.match(self.text, self._skip_ws())
        if spelling is None:
            return self._parse_attribute_piecewise()
        attr = _INTERNED_ATTRS.get(spelling.group())
        if attr is not None:
            self.pos = spelling.end()
            return attr
        attr = self._parse_attribute_piecewise()
        # As for types: only a parse that consumed exactly the spelling
        # stands for it.
        if self.pos == spelling.end():
            _intern(_INTERNED_ATTRS, spelling.group(), attr)
        return attr

    def _parse_attribute_piecewise(self) -> Attribute:
        ch = self.text[self.pos:self.pos + 1]
        if ch == '"':
            return StringAttr(self._parse_string_literal("string attribute"))
        if ch == "@":
            return self._parse_symbol_ref()
        if ch == "[":
            return self._parse_array_attr()
        if ch == "{":
            return DictAttr(tuple(self._parse_attr_dict().items()))
        keyword = _ATTR_KEYWORD_RE.match(self.text, self.pos)
        if keyword is not None:
            self.pos = keyword.end()
            word = keyword.group()
            if word == "unit":
                return UnitAttr()
            if word == "dense":
                return self._parse_dense_attr()
            return BoolAttr(word == "true")
        number = self._token(_NUMBER_RE)
        if number is not None:
            self._expect(":", "after a numeric attribute value")
            type_ = self.parse_type()
            if is_float(type_):
                return FloatAttr(float(number), type_)
            try:
                return IntegerAttr(int(number), type_)
            except ValueError:
                self.error(f"invalid integer literal {number!r} for "
                           f"type {type_}")
        return TypeAttr(self.parse_type())

    def _parse_symbol_ref(self) -> SymbolRefAttr:
        self._expect("@")
        root = self._token(_IDENT_RE)
        if root is None:
            self.error("expected a symbol name after '@'")
        nested: List[str] = []
        while self._consume("::"):
            self._expect("@", "in a nested symbol reference")
            name = self._token(_IDENT_RE)
            if name is None:
                self.error("expected a nested symbol name after '::@'")
            nested.append(name)
        return SymbolRefAttr(root, tuple(nested))

    def _parse_array_attr(self) -> ArrayAttr:
        self._expect("[")
        elements: List[Attribute] = []
        if not self._consume("]"):
            while True:
                elements.append(self.parse_attribute())
                if not self._consume(","):
                    break
            self._expect("]", "after the array attribute")
        return ArrayAttr(tuple(elements))

    def _parse_dense_attr(self) -> DenseElementsAttr:
        self._expect("<", "after 'dense'")
        self._expect("[", "in a dense attribute")
        values: List[object] = []
        if not self._consume("]"):
            while True:
                if self._peek("..."):
                    self.error(
                        "dense attribute contains a truncation marker "
                        "('...'); the data cannot be reconstructed")
                number = self._token(_NUMBER_RE)
                if number is None:
                    self.error("expected a number in dense attribute")
                if any(c in number for c in ".eE") or \
                        number.lstrip("-") in ("inf", "nan"):
                    values.append(float(number))
                else:
                    values.append(int(number))
                if not self._consume(","):
                    break
            self._expect("]", "after the dense attribute values")
        self._expect(":", "before the dense attribute shape")
        shape = self._parse_shape()
        element_type = self.parse_type()
        self._expect(">", "after the dense attribute")
        return DenseElementsAttr(tuple(values), shape, element_type)


def _unescape(body: str) -> str:
    """The value of a string literal's body (``\\n``, ``\\t``; any other
    escaped character stands for itself)."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(
        lambda m: _STRING_ESCAPES.get(m.group(1), m.group(1)), body)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def parse_op(text: str, allow_unregistered: bool = False,
             filename: str = "<input>", first_line: int = 1) -> Operation:
    """Parse a single top-level operation; the whole input must be used.

    ``first_line`` is the line of ``filename`` that ``text`` starts on:
    locations and errors count the file's lines."""
    parser = Parser(text, allow_unregistered=allow_unregistered,
                    filename=filename, first_line=first_line)
    if parser._at_end():
        parser.error("empty input: expected an operation")
    op = parser.parse_operation()
    if not parser._at_end():
        parser.error("unexpected trailing input after the top-level operation")
    parser._close_scope()
    return op


#: The :func:`~repro.ir.operations.op_memo` key naming what a module
#: holds: the digest of its source, or the compile-cache key it was
#: spliced from.
CONTENT_TOKEN = "content-token"


def parse_module(text: str, allow_unregistered: bool = False,
                 filename: str = "<input>", first_line: int = 1) -> Operation:
    """Parse textual IR holding one top-level op (typically a module).

    The digest of ``text`` is memoized on the module as its
    :data:`CONTENT_TOKEN`: until the module is edited, its printed form
    is a function of that digest alone, which lets
    :meth:`repro.transforms.CompileCache.memo_key_for` key it without
    printing it.
    """
    module = parse_op(text, allow_unregistered=allow_unregistered,
                      filename=filename, first_line=first_line)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16)
    op_memo(module)[CONTENT_TOKEN] = digest.hexdigest()
    return module


def parse_type(text: str) -> Type:
    """Parse a standalone type from ``text`` (used by dialect type hooks)."""
    parser = Parser(text)
    type_ = parser.parse_type()
    if not parser._at_end():
        parser.error("unexpected trailing input after the type")
    return type_


def parse_attribute(text: str) -> Attribute:
    """Parse a standalone attribute value from ``text``."""
    parser = Parser(text)
    attr = parser.parse_attribute()
    if not parser._at_end():
        parser.error("unexpected trailing input after the attribute")
    return attr
