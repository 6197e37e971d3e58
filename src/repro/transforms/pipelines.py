"""The textual pipeline-spec language and the named pipelines built from it.

Every shipped compiler-model pipeline (``repro-opt --pipeline``) *is* its
entry in :data:`~repro.transforms.pipeline_specs.NAMED_PIPELINE_SPECS`;
:func:`build_named_pipeline` parses that entry once per process and hands
out fresh pass instances from it on every call.  An ablation is a spec
with passes left out, not a flag.

The spec language (``repro-opt --passes``) round-trips through
:func:`parse_pass_pipeline` / :func:`dump_pass_pipeline`::

    builtin.module(cse,func.func(canonicalize{max-iterations=10},licm))

Grammar::

    pipeline  ::= element-list | anchored
    anchored  ::= anchor '(' element-list ')'
    element   ::= anchored | pass
    pass      ::= name [ '{' key '=' value (',' key '=' value)* '}' ]
    anchor    ::= 'builtin.module' | 'func.func'

Pass names resolve through the declarative registry populated by the
``@register_pass`` decorators on each pass module (see
:mod:`repro.transforms.pass_manager`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .pass_manager import (
    ANCHOR_OPS,
    MODULE_ANCHOR,
    OpPassManager,
    Pass,
    PassManager,
    PassRegistration,
    lookup_pass,
)
# The raw table: this module's own imports are what fills it, so reading
# it here needs no ``_load_builtin_passes``.
from .pass_manager import _REGISTRATIONS as PASS_REGISTRATIONS
from .pipeline_specs import NAMED_PIPELINE_SPECS

# Registration imports: importing a pass module registers its passes, and
# this module is what ``lookup_pass`` imports to fill the registry (the
# target conversions are the passes behind ``lower-to-llvm``).
from . import canonicalize, cse, detect_reduction, host_device  # noqa: F401
from . import host_raising, licm, loop_internalization  # noqa: F401
from . import lower_sycl, mem2reg  # noqa: F401
from ..target import conversions  # noqa: F401


# ---------------------------------------------------------------------------
# Textual pass pipeline specifications (the `repro-opt --passes` language)
# ---------------------------------------------------------------------------

def available_passes() -> List[str]:
    """Sorted names accepted by :func:`parse_pass_pipeline`."""
    return sorted(PASS_REGISTRATIONS)


def resolve_pass_name(name: str) -> str:
    """Resolve a registered name (possibly an alias) to the pass's NAME.

    ``licm`` resolves to ``sycl-licm`` — the name pass executions carry,
    which is what instrumentation selectors match against.  Raises
    ``ValueError`` for unregistered names.
    """
    registration = lookup_pass(name)
    if registration is None:
        raise ValueError(
            f"unknown pass {name!r}; available passes: "
            f"{', '.join(available_passes())}")
    return registration.pass_class.NAME


def describe_registered_passes() -> str:
    """Registered passes with their option schemas (``--list-passes``)."""
    lines: List[str] = []
    for name in available_passes():
        registration = PASS_REGISTRATIONS[name]
        header = name
        if registration.alias_of is not None:
            presets = registration.options_class(
                **registration.preset_options).to_spec()
            header += f"  (alias of {registration.alias_of}{presets})"
        lines.append(header)
        if registration.description:
            lines.append(f"    # {registration.description}")
        if registration.alias_of is None:
            for schema_line in registration.options_class.schema():
                lines.append(f"    {schema_line}")
            for stat_name, stat_description in \
                    registration.pass_class.STATISTICS:
                lines.append(f"    stat: {stat_name} — {stat_description}")
    return "\n".join(lines)


class PipelineParseError(ValueError):
    """A malformed pipeline spec; carries the offending character offset."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (at character {offset})"
        super().__init__(message)
        self.offset = offset


_PUNCTUATION = "(){},="


def _tokenize(spec: str) -> List[Tuple[str, str, int]]:
    """Split ``spec`` into ``(kind, text, offset)`` tokens.

    ``kind`` is ``"punct"`` for one of ``(){},=`` and ``"name"`` for any
    other whitespace-delimited run (pass names, option keys and values).
    """
    tokens: List[Tuple[str, str, int]] = []
    index = 0
    length = len(spec)
    while index < length:
        char = spec[index]
        if char.isspace():
            index += 1
            continue
        if char in _PUNCTUATION:
            tokens.append(("punct", char, index))
            index += 1
            continue
        start = index
        while index < length and spec[index] not in _PUNCTUATION \
                and not spec[index].isspace():
            index += 1
        tokens.append(("name", spec[start:index], start))
    return tokens


class _PipelineParser:
    """Recursive-descent parser over the tokenized spec."""

    def __init__(self, spec: str):
        self.spec = spec
        self.tokens = _tokenize(spec)
        self.position = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self) -> Optional[Tuple[str, str, int]]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> Optional[Tuple[str, str, int]]:
        token = self._peek()
        if token is not None:
            self.position += 1
        return token

    def _at_punct(self, char: str) -> bool:
        token = self._peek()
        return token is not None and token[0] == "punct" and token[1] == char

    def _expect_punct(self, char: str) -> Tuple[str, str, int]:
        token = self._next()
        if token is None:
            raise PipelineParseError(
                f"expected '{char}' but the spec ended", len(self.spec))
        if token[0] != "punct" or token[1] != char:
            raise PipelineParseError(
                f"expected '{char}', got {token[1]!r}", token[2])
        return token

    # -- grammar -------------------------------------------------------------
    def parse(self) -> PassManager:
        if not any(kind == "name" for kind, _, _ in self.tokens):
            raise PipelineParseError("empty pass pipeline specification")
        elements = self._parse_element_list(terminator=None)
        trailing = self._peek()
        if trailing is not None:
            raise PipelineParseError(
                f"trailing input {trailing[1]!r}", trailing[2])
        if not elements:
            raise PipelineParseError("empty pass pipeline specification")
        root = PassManager()
        if len(elements) == 1:
            first, _ = elements[0]
            # A single top-level `builtin.module(...)` IS the root pipeline.
            if isinstance(first, OpPassManager) \
                    and first.anchor == MODULE_ANCHOR:
                root.elements = first.elements
                return root
        for element, offset in elements:
            self._attach(root, element, offset)
        return root

    def _attach(self, pipeline: OpPassManager,
                element: Union[Pass, OpPassManager], offset: int) -> None:
        try:
            if isinstance(element, OpPassManager):
                pipeline.elements.append(element)
            else:
                pipeline.add(element)
        except ValueError as error:
            raise PipelineParseError(str(error), offset)

    def _parse_element_list(
            self, terminator: Optional[str]
    ) -> List[Tuple[Union[Pass, OpPassManager], int]]:
        elements: List[Tuple[Union[Pass, OpPassManager], int]] = []
        while True:
            token = self._peek()
            if token is None or (terminator is not None
                                 and self._at_punct(terminator)):
                return elements
            elements.append(self._parse_element())
            if self._at_punct(","):
                self._next()
                continue
            return elements

    def _parse_element(self) -> Tuple[Union[Pass, OpPassManager], int]:
        token = self._next()
        if token is None:
            raise PipelineParseError("expected a pass or anchor",
                                     len(self.spec))
        kind, text, offset = token
        if kind != "name":
            raise PipelineParseError(
                f"expected a pass or anchor, got {text!r}", offset)
        if self._at_punct("("):
            return self._parse_anchored(text, offset), offset
        return self._parse_pass(text, offset), offset

    def _parse_anchored(self, anchor: str, offset: int) -> OpPassManager:
        if anchor not in ANCHOR_OPS:
            if lookup_pass(anchor) is not None:
                raise PipelineParseError(
                    f"pass '{anchor}' does not take a nested pipeline",
                    offset)
            raise PipelineParseError(
                f"unknown pipeline anchor '{anchor}'; expected one of "
                f"{', '.join(ANCHOR_OPS)}", offset)
        self._expect_punct("(")
        pipeline = OpPassManager(anchor)
        elements = self._parse_element_list(terminator=")")
        self._expect_punct(")")
        if not elements:
            raise PipelineParseError(
                f"empty pass pipeline for anchor '{anchor}'", offset)
        for element, element_offset in elements:
            if isinstance(element, OpPassManager) \
                    and element.anchor == MODULE_ANCHOR \
                    and anchor != MODULE_ANCHOR:
                raise PipelineParseError(
                    "cannot nest a 'builtin.module' pipeline under "
                    f"'{anchor}'", element_offset)
            self._attach(pipeline, element, element_offset)
        return pipeline

    def _parse_pass(self, name: str, offset: int) -> Pass:
        registration = lookup_pass(name)
        if registration is None:
            raise PipelineParseError(
                f"unknown pass '{name}'; available passes: "
                f"{', '.join(available_passes())}", offset)
        option_values: Dict[str, object] = {}
        if self._at_punct("{"):
            option_values = self._parse_options(registration)
        try:
            return registration.build(option_values)
        except (TypeError, ValueError) as error:
            raise PipelineParseError(
                f"cannot build pass '{name}': {error}", offset)

    def _parse_options(self,
                       registration: PassRegistration) -> Dict[str, object]:
        self._expect_punct("{")
        fields_by_key = registration.options_class.spec_fields()
        values: Dict[str, object] = {}
        while not self._at_punct("}"):
            key_token = self._next()
            if key_token is None:
                raise PipelineParseError(
                    "unterminated option block (missing '}')",
                    len(self.spec))
            kind, key, key_offset = key_token
            if kind != "name":
                raise PipelineParseError(
                    f"expected an option key, got {key!r}", key_offset)
            option_field = fields_by_key.get(key)
            if option_field is None:
                known = ", ".join(fields_by_key) or "none"
                raise PipelineParseError(
                    f"unknown option '{key}' for pass "
                    f"'{registration.name}' (available options: {known})",
                    key_offset)
            self._expect_punct("=")
            value_token = self._next()
            if value_token is None or value_token[0] != "name":
                where = value_token[2] if value_token else len(self.spec)
                raise PipelineParseError(
                    f"expected a value for option '{key}'", where)
            try:
                values[option_field.name] = \
                    registration.options_class.coerce(option_field,
                                                      value_token[1])
            except ValueError as error:
                raise PipelineParseError(str(error), value_token[2])
            if self._at_punct(","):
                comma = self._next()
                if self._at_punct("}"):
                    raise PipelineParseError(
                        "trailing ',' in option block", comma[2])
                continue
            if not self._at_punct("}"):
                stray = self._peek()
                where = stray[2] if stray else len(self.spec)
                what = repr(stray[1]) if stray else "end of spec"
                raise PipelineParseError(
                    f"expected ',' or '}}' after an option value, "
                    f"got {what}", where)
        self._expect_punct("}")
        return values


def parse_pass_pipeline(spec: str) -> PassManager:
    """Build a :class:`PassManager` from a textual pipeline spec.

    Accepts both the legacy flat form (``"canonicalize,cse"``) and the
    nested, options-aware form
    (``"builtin.module(cse,func.func(canonicalize{max-iterations=10}))"``);
    see the module docstring for the grammar.  Raises
    :class:`PipelineParseError` (a ``ValueError``) naming the offending
    token and its character offset on malformed input.
    """
    return _PipelineParser(spec).parse()


def check_pass_pipeline(spec: str, filename: str = "<pipeline>"):
    """Statically validate ``spec`` without building or running anything.

    Returns a list of :class:`~repro.ir.diagnostics.Diagnostic` objects —
    empty when the spec is well-formed.  Malformed specs yield an error
    diagnostic whose location points at the offending *character offset*
    (column) inside the spec, so drivers can report
    ``<pipeline>:1:17: error: ...`` before any IR is touched.
    """
    from ..ir import Diagnostic, Location, Severity, UNKNOWN

    try:
        _PipelineParser(spec).parse()
    except PipelineParseError as exc:
        location = Location(filename, 1, exc.offset + 1) \
            if exc.offset is not None else UNKNOWN
        return [Diagnostic(Severity.ERROR, str(exc), location)]
    except ValueError as exc:
        # Well-formed syntax but an unknown pass name / bad option value.
        return [Diagnostic(Severity.ERROR, str(exc),
                           Location(filename, 1, 1))]
    return []


def dump_pass_pipeline(pipeline: OpPassManager) -> str:
    """Canonical textual form of ``pipeline``.

    The inverse of :func:`parse_pass_pipeline`: dumping a parsed pipeline
    reproduces an equivalent spec (``dump(parse(s)) ==
    dump(parse(dump(parse(s))))``).  Pass options are included only when
    they differ from their defaults.
    """
    return pipeline.to_spec()


def shipped_pipeline_names() -> List[str]:
    """Names of the shipped compiler-model pipelines.

    This is the set the differential-execution harness
    (:mod:`repro.interp.differential`) must prove semantics-preserving
    for every executable module — tests and the CI differential smoke
    job iterate it rather than hard-coding pipeline names.
    """
    return sorted(NAMED_PIPELINE_SPECS)


#: Pipeline name -> the pipeline its spec parsed to, never run: the
#: template :func:`build_named_pipeline` copies.  Keyed by name, so it
#: holds at most one entry per ``NAMED_PIPELINE_SPECS`` row.
_TEMPLATES: Dict[str, PassManager] = {}


def _copy_passes(template: OpPassManager, target: OpPassManager) -> None:
    """Append fresh instances of ``template``'s passes to ``target``."""
    for element in template.elements:
        if isinstance(element, OpPassManager):
            _copy_passes(element, target.nest(element.anchor))
        else:
            options = element.options
            target.elements.append(
                type(element)(options=type(options)(**vars(options))))


def build_named_pipeline(name: str) -> PassManager:
    """A fresh :class:`PassManager` running ``NAMED_PIPELINE_SPECS[name]``.

    The spec is parsed once per process; every call instantiates its own
    passes, so no two returned managers share a pass.
    """
    template = _TEMPLATES.get(name)
    if template is None:
        spec = NAMED_PIPELINE_SPECS.get(name)
        if spec is None:
            raise ValueError(
                f"unknown pipeline {name!r}; available pipelines: "
                f"{', '.join(shipped_pipeline_names())}")
        template = _TEMPLATES[name] = parse_pass_pipeline(spec)
    manager = PassManager()
    _copy_passes(template, manager)
    return manager
