"""Standard pass pipelines and the textual pipeline-spec language.

* :func:`sycl_mlir_pipeline` — the paper's SYCL-MLIR flow: host raising,
  host-device propagation, then the SYCL-aware device optimizations
  (Loop Internalization, SYCL LICM, Detect Reduction) and only then the
  accessor lowering, followed by generic cleanup of the lowered form.
* :func:`dpcpp_pipeline` — the DPC++ baseline: premature lowering of SYCL
  accessor semantics followed by generic optimizations only.
* :func:`adaptivecpp_pipeline` — the AdaptiveCpp (SSCP JIT) baseline ahead-
  of-time part: premature lowering + generic optimizations; the runtime
  specialization happens at launch time (see
  :mod:`repro.transforms.specialization` and the compiler driver).

Every device pipeline opens ``canonicalize,cse,mem2reg``: promoting
constant-indexed private arrays is what LLVM's ``-O3`` does for each of
the modelled compilers, so none of them may be counted without it.

All three are expressed on the nested pass-manager API
(``pm.nest("func.func").add(...)``), so function-local optimizations run
once per isolated function.

The textual spec language (``repro-opt --passes``) round-trips through
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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..analysis.alias import AliasAnalysis
from ..analysis.sycl_alias import SYCLAliasAnalysis
from .canonicalize import CanonicalizePass, DCEPass
from .cse import CSEPass
from .detect_reduction import DetectReduction
from .host_device import HostDeviceOptimizationPass
from .host_raising import HostRaisingPass
from .licm import LoopInvariantCodeMotion
from .loop_internalization import LoopInternalization
from .lower_sycl import LowerAccessorSubscripts
from .mem2reg import Mem2Reg
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

# Importing the target subsystem registers the conversion passes behind
# the "lower-to-llvm" pipeline with the declarative pass registry, so
# `repro-opt --passes 'convert-scf-to-cf'` works standalone.
from ..target import conversions as _target_conversions  # noqa: E402,F401


@dataclass
class OptimizationOptions:
    """Feature toggles used by the drivers and the ablation benchmarks."""

    licm: bool = True
    detect_reduction: bool = True
    loop_internalization: bool = True
    host_device_propagation: bool = True
    host_raising: bool = True
    canonicalize: bool = True

    @classmethod
    def all_disabled(cls) -> "OptimizationOptions":
        return cls(licm=False, detect_reduction=False,
                   loop_internalization=False, host_device_propagation=False,
                   host_raising=False, canonicalize=True)

    def without(self, name: str) -> "OptimizationOptions":
        options = OptimizationOptions(**self.__dict__)
        if not hasattr(options, name):
            raise ValueError(f"unknown optimization flag {name!r}")
        setattr(options, name, False)
        return options


def _nest_function_passes(pm: PassManager, passes: List[Pass]) -> None:
    """Nest ``passes`` under a ``func.func`` pipeline, if any."""
    if not passes:
        return
    nested = pm.nest("func.func")
    for pass_ in passes:
        nested.add(pass_)


def sycl_mlir_pipeline(options: Optional[OptimizationOptions] = None,
                       jobs: int = 1) -> PassManager:
    """The SYCL-MLIR optimization pipeline (host + device, Sections V-VII).

    Accessor lowering closes the device stage whatever the options, so an
    ablation is counted in the same lowered form as the baselines.
    """
    options = options or OptimizationOptions()
    alias = SYCLAliasAnalysis()
    pm = PassManager(jobs=jobs)
    lead: List[Pass] = [CanonicalizePass(), CSEPass()] \
        if options.canonicalize else []
    _nest_function_passes(pm, lead + [Mem2Reg()])
    if options.host_raising:
        pm.add(HostRaisingPass())
    if options.host_device_propagation:
        pm.add(HostDeviceOptimizationPass())
    device: List[Pass] = []
    if options.canonicalize:
        device.append(CanonicalizePass())
    if options.loop_internalization:
        device.append(LoopInternalization())
    if options.licm:
        device.append(LoopInvariantCodeMotion(alias_analysis=alias))
    if options.detect_reduction:
        device.append(DetectReduction(alias_analysis=alias))
    # Late lowering: the SYCL passes above saw accessor semantics; what
    # runs from here on is the same raw-pointer form the baselines
    # optimize, so CSE merges equal addresses and the second LICM round
    # hoists the address arithmetic the lowering exposed.
    device.append(LowerAccessorSubscripts())
    if options.canonicalize:
        device.extend([CanonicalizePass(), CSEPass()])
    if options.licm:
        device.append(LoopInvariantCodeMotion(alias_analysis=alias))
    if options.canonicalize:
        device.append(DCEPass())
    _nest_function_passes(pm, device)
    return pm


def dpcpp_pipeline(options: Optional[OptimizationOptions] = None,
                   jobs: int = 1) -> PassManager:
    """The DPC++ baseline: premature lowering + generic optimizations.

    The generic optimizations use the dialect-independent alias analysis, so
    accessor-derived pointers conservatively may alias, which blocks scalar
    promotion of array reductions — the behaviour the paper attributes to
    LLVM-IR based flows.
    """
    options = options or OptimizationOptions()
    alias = AliasAnalysis()
    passes: List[Pass] = [
        CanonicalizePass(),
        CSEPass(),
        Mem2Reg(),
        LowerAccessorSubscripts(),
        CanonicalizePass(),
        CSEPass(),
    ]
    if options.licm:
        passes.append(LoopInvariantCodeMotion(alias_analysis=alias))
    if options.detect_reduction:
        passes.append(DetectReduction(alias_analysis=alias))
    passes.extend([CanonicalizePass(), CSEPass(), DCEPass()])
    pm = PassManager(jobs=jobs)
    _nest_function_passes(pm, passes)
    return pm


def _pipeline_from_spec(name: str, jobs: int) -> PassManager:
    """A pipeline without options: its ``NAMED_PIPELINE_SPECS`` entry is
    its definition, so the two cannot drift apart."""
    manager = parse_pass_pipeline(NAMED_PIPELINE_SPECS[name])
    manager.jobs = jobs
    return manager


def adaptivecpp_aot_pipeline(jobs: int = 1) -> PassManager:
    """AdaptiveCpp ahead-of-time part: lowering + light cleanup only."""
    return _pipeline_from_spec("adaptivecpp-aot", jobs)


def adaptivecpp_jit_pipeline(jobs: int = 1) -> PassManager:
    """AdaptiveCpp launch-time (JIT) optimizations after specialization.

    The runtime-checked alias analysis trusts the disjointness facts the JIT
    observes at launch, enabling LICM of accessor metadata and scalar
    promotion of reductions (with the cost of JIT-ing accounted separately
    by the compiler driver).
    """
    return _pipeline_from_spec("adaptivecpp-jit", jobs)


def lower_to_llvm_pipeline(jobs: int = 1) -> PassManager:
    """Progressive lowering to an LLVM-dialect CFG.

    Accessor subscripts become plain memref accesses, affine constructs
    become ``scf``, memory accesses become ``llvm.*`` while the control
    flow is still structured (each address is built once, where its
    operands are defined), structured control flow becomes a ``cf``
    branch CFG, arithmetic becomes ``llvm.*``, and finally whole
    functions convert to ``llvm.func``.  The differential harness
    proves the composition preserves the source module's semantics
    (see :mod:`repro.target.conversions` and ``docs/lowering.md``).

    Built in code although it takes no options: batch drivers build it
    once per module, and parsing its spec costs ten times the calls.
    """
    from ..target.conversions import (
        ConvertArithToLLVM,
        ConvertFuncToLLVM,
        ConvertMemRefToLLVM,
        ConvertSCFToCF,
        LowerAffine,
    )

    pm = PassManager(jobs=jobs)
    _nest_function_passes(pm, [
        LowerAccessorSubscripts(),
        LowerAffine(),
        ConvertMemRefToLLVM(),
        ConvertSCFToCF(),
        ConvertArithToLLVM(),
    ])
    pm.add(ConvertFuncToLLVM())
    return pm


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
        _PipelineParser(spec).parse().close()
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


def _options_free(name: str, builder: Callable[[int], PassManager]):
    """Wrap a pipeline that takes no options; reject options explicitly."""

    def build(options: Optional[OptimizationOptions] = None,
              jobs: int = 1) -> PassManager:
        if options is not None:
            raise ValueError(
                f"pipeline {name!r} does not accept optimization options")
        return builder(jobs)

    return build


#: Full compiler-model pipelines selectable by name (`repro-opt --pipeline`);
#: the same names key ``NAMED_PIPELINE_SPECS``.
NAMED_PIPELINES: Dict[str, Callable[..., PassManager]] = {
    "sycl-mlir": sycl_mlir_pipeline,
    "dpcpp": dpcpp_pipeline,
    "adaptivecpp-aot": _options_free("adaptivecpp-aot",
                                     adaptivecpp_aot_pipeline),
    "adaptivecpp-jit": _options_free("adaptivecpp-jit",
                                     adaptivecpp_jit_pipeline),
    "lower-to-llvm": _options_free("lower-to-llvm", lower_to_llvm_pipeline),
}


def shipped_pipeline_names() -> List[str]:
    """Names of the shipped compiler-model pipelines.

    This is the set the differential-execution harness
    (:mod:`repro.interp.differential`) must prove semantics-preserving
    for every executable module — tests and the CI differential smoke
    job iterate it rather than hard-coding pipeline names.
    """
    return sorted(NAMED_PIPELINES)


def build_named_pipeline(
        name: str,
        options: Optional[OptimizationOptions] = None,
        jobs: int = 1) -> PassManager:
    """Instantiate one of the paper's three compiler-model pipelines.

    ``jobs`` sizes the per-function parallel scheduler of the returned
    :class:`PassManager` (1 = serial).
    """
    builder = NAMED_PIPELINES.get(name)
    if builder is None:
        raise ValueError(
            f"unknown pipeline {name!r}; available pipelines: "
            f"{', '.join(sorted(NAMED_PIPELINES))}")
    return builder(options, jobs=jobs)
