"""What both code-generating tiers share and their code needs to run.

The error types the engine catches, the ``_jit_*`` scalar helpers
generated source binds, the counter merge, the block-counting half of
an emitter (:class:`_EmitterBase`) and the fingerprint-keyed
:class:`ExecutableCache` with its compile path (:func:`compile_cached`).
None of it depends on either emitter.  It lives apart from
:mod:`repro.interp.jit` and :mod:`repro.interp.vectorize` so that each
tier imports it without loading the other: a kernel the vector tier
accepts never pays for the JIT.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..dialects.arith import _floordiv, _ieee_zero_divide, _nan_propagating
from ..faults import TransientFault, fault_point
from ..ir import IndexType, IntegerType
from ..ir.operations import op_memo
from ..transforms.compile_cache import ContentTable, text_fingerprint
from .engine import TierFallback
from .memory import (
    BARRIER,
    READ_ONLY_STORE,
    AccessorBinding,
    InterpreterError,
    MemRefStorage,
    TrapError,
)


class JITUnsupportedError(InterpreterError):
    """The function uses a construct the emitter does not compile."""


class JITExecutionError(InterpreterError):
    """A generated executable failed mid-run for a non-semantic reason.

    Semantic traps (:class:`TrapError`) propagate unchanged; this wraps
    unexpected failures (a corrupt executable, an emitter bug) so the
    engine's re-materializing ``execute`` path can degrade to the
    interpreter tier.
    """


class _GuardFallback(Exception):
    """A generated prologue guard failed *before any side effect*."""


# ---------------------------------------------------------------------------
# Runtime helpers — everything the generated code may reference.  All
# module-level (static), so a source rehydrated from disk runs with a
# plain ``exec(source, _jit_namespace())``.
# ---------------------------------------------------------------------------

# The optional trailing ``name`` of the trapping helpers is the op the
# trap is reported against: an ``llvm.*`` alias traps under its own name.

def _jit_divsi(a, b, name="arith.divsi"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return _floordiv(a, b)  # C's truncating division, as arith's


def _jit_divui(a, b, name="arith.divui"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return a // b


def _jit_remsi(a, b, name="arith.remsi"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return a - _floordiv(a, b) * b


def _jit_remui(a, b, name="arith.remui"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return a % b


def _jit_divf(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        return _ieee_zero_divide("arith.divf", float(a), float(b))


def _jit_remf(a, b):
    try:
        return math.fmod(a, b)
    except (ValueError, ZeroDivisionError):
        return math.nan


_jit_minf, _jit_maxf = _nan_propagating(min), _nan_propagating(max)


def _jit_shift(op_name, compute, width, a, b):
    shift = int(b)
    if not 0 <= shift < width:
        raise TrapError(
            f"shift amount {shift} out of range for i{width} in "
            f"'{op_name}'")
    return compute(int(a), shift)


def _jit_shli(a, b, width, name="arith.shli"):
    return _jit_shift(name, lambda x, s: x << s, width, a, b)


def _jit_shrsi(a, b, width, name="arith.shrsi"):
    return _jit_shift(name, lambda x, s: x >> s, width, a, b)


def _jit_fptosi(value, name="arith.fptosi"):
    try:
        return int(value)
    except (ValueError, OverflowError) as error:
        raise TrapError(
            f"'{name}' cannot convert {value!r}: {error}") from None


def _jit_budget_trap(max_steps):
    return TrapError(
        f"exceeded the interpreter step budget ({max_steps} ops)")


def _jit_flat_trap(position, size):
    # MemRefStorage.load_flat / store_flat's message.
    return TrapError(
        f"flat index {position} out of bounds for memref of {size} "
        f"elements")


def _jit_at(values, dim, what):
    dim = int(dim)
    if not 0 <= dim < len(values):
        raise TrapError(
            f"dimension {dim} out of range for {what} of rank "
            f"{len(values)}")
    return int(values[dim])


def _jit_local_dtype(local_accessor):
    """The NumPy dtype of the storage behind a LocalAccessor argument
    (the selection ``Interpreter._local_storages`` performs)."""
    import numpy

    from .interpreter import _element_type_for_dtype
    from .memory import _numpy_dtype

    dtype = _numpy_dtype(_element_type_for_dtype(local_accessor.dtype))
    if dtype is None:
        raise _GuardFallback("local accessor dtype is not array-backed")
    return numpy.dtype(dtype)


def _jit_local_tile(local_accessor):
    """The per-group NumPy tile behind a LocalAccessor argument."""
    import numpy

    return numpy.zeros(math.prod(map(int, local_accessor.shape)),
                       dtype=_jit_local_dtype(local_accessor))


def _jit_namespace() -> Dict[str, object]:
    """Fresh globals for one executable.  Static by construction: every
    name binds a module-level object, so disk-cached source needs only
    ``compile()`` + ``exec`` to rehydrate."""
    import numpy

    from ..dialects import math as math_d
    from ..dialects.arith import _FLOAT_PREDICATES
    from ..runtime.accessor import LocalAccessor

    namespace = {_math_symbol(name): func
                 for name, func in math_d.SCALAR_FUNCS.items()}
    namespace.update({
        "_MathErrors": math_d.DOMAIN_ERRORS,
        "_domain_error": math_d.domain_error,
        "_np": numpy,
        "math": math,
        "_TrapError": TrapError,
        "_budget_trap": _jit_budget_trap,
        "_flat_trap": _jit_flat_trap,
        "_Fallback": _GuardFallback,
        "_BARRIER": BARRIER,
        "_AccessorBinding": AccessorBinding,
        "_MemRefStorage": MemRefStorage,
        "_LocalAccessor": LocalAccessor,
        "_at": _jit_at,
        "_divsi": _jit_divsi,
        "_divui": _jit_divui,
        "_remsi": _jit_remsi,
        "_remui": _jit_remui,
        "_divf": _jit_divf,
        "_remf": _jit_remf,
        "_minf": _jit_minf,
        "_maxf": _jit_maxf,
        "_shli": _jit_shli,
        "_shrsi": _jit_shrsi,
        "_fptosi": _jit_fptosi,
        "_FCMP": _FLOAT_PREDICATES,
        "_local_tile": _jit_local_tile,
        "_local_dtype": _jit_local_dtype,
    })
    return namespace


def _math_symbol(name: str) -> str:
    """The generated-code name bound to ``math`` op ``name``'s PY_FUNC."""
    return "_m_" + name.split(".", 1)[1]


def _scalar_int_type(type_) -> bool:
    return isinstance(type_, (IntegerType, IndexType))


def _merge_counters(into, delta) -> None:
    for field_name, value in delta.as_dict().items():
        setattr(into, field_name, getattr(into, field_name) + value)


# ---------------------------------------------------------------------------
# The counting half of an emitter
# ---------------------------------------------------------------------------

def _py_literal(value) -> Optional[str]:
    """Python source of a constant's value, or ``None`` if it has none."""
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "math.nan"
        if math.isinf(value):
            return "math.inf" if value > 0 else "(-math.inf)"
    elif not isinstance(value, int):
        return None
    return repr(value) if value >= 0 else f"({value!r})"


class _Stat:
    """Per-structured-block static tallies (multiplied by the block's
    run-time execution count when counters are flushed)."""

    __slots__ = ("ops", "loads", "stores", "bytes_read", "bytes_written",
                 "barriers")

    def __init__(self):
        for field_name in self.__slots__:
            setattr(self, field_name, 0)


class _EmitterBase:
    """Names, lines and block counting of a code generator.

    Every structured block gets a compile-time :class:`_Stat` tally and
    an execution count: an expression when it is known statically,
    otherwise a run-time ``_bc<n>`` counter patched in at the block's
    head (with the step-budget check when asked).  One ``finally``
    multiplies them out (:meth:`_flush_lines`).  ``SCALE`` multiplies
    every count: the vector tier runs each op for ``_L`` lanes at once.
    """

    SCALE = ""
    WHAT = "jit-compilable"

    def __init__(self, function):
        self.fn = function
        self.out: List[Optional[str]] = []     # body lines (indented)
        self.pro: List[str] = []               # prologue lines (indent 1)
        self.ind = 2                           # current body indent
        self.kinds: Dict[int, Tuple] = {}      # id(Value) -> kind tuple
        self.n = 0
        self.blocks: List[_Stat] = []
        #: Per-block static execution-count expression, or None when the
        #: count is data dependent (then a run-time ``_bc`` counts it).
        self.block_static: List[Optional[str]] = []
        self.count_stack: List[Optional[str]] = []
        self.patches: List[Tuple[int, int, int, bool]] = []
        self.static_budget: List[Tuple[str, int]] = []
        self.scopes: List[set] = []            # constructed-cell scopes
        self.memo_stack: List[Dict] = []       # scoped subscript CSE

    def fresh(self, prefix: str = "v") -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def line(self, text: str) -> None:
        self.out.append("    " * self.ind + text)

    def unsup(self, why: str) -> JITUnsupportedError:
        return JITUnsupportedError(
            f"'{self.fn.sym_name}' is not {self.WHAT}: {why}")

    def kind_of(self, value) -> Tuple:
        kind = self.kinds.get(id(value))
        if kind is None:
            raise self.unsup("use of a value the emitter did not bind")
        return kind

    def construct(self, cell: str, comps: list) -> None:
        """Bind ``cell``'s components until the current block ends.

        A read takes the components bound when it is emitted, so a cell
        constructed again in a nested block (which the next loop trip, or
        the code after a branch, may read) is beyond the emitter.
        """
        if any(cell in scope for scope in self.scopes[:-1]):
            raise self.unsup("id constructed again in a nested block")
        self.scopes[-1].add(cell)
        self.cell_comps[cell] = comps

    def bc(self, bid: int) -> str:
        return f"_bc{bid}"

    @contextmanager
    def _counted_block(self, budget: bool, count: Optional[str]):
        """Open one counted block and yield its :class:`_Stat`.

        ``count`` is the block's execution count as an expression of
        prologue variables when it is known statically; otherwise a
        run-time ``_bc`` counter (with the step-budget check when
        ``budget``) is patched in at the current position.  The block's
        cell and subscript-CSE scopes stay open until the ``with`` ends.
        """
        bid = len(self.blocks)
        stat = _Stat()
        self.blocks.append(stat)
        self.block_static.append(count)
        if count is None:
            self.patches.append((len(self.out), self.ind, bid, budget))
            self.out.append(None)
        elif budget:
            self.static_budget.append((count, bid))
        self.count_stack.append(count)
        self.scopes.append(set())
        self.memo_stack.append({})
        yield stat
        self.memo_stack.pop()
        self.scopes.pop()
        self.count_stack.pop()

    def _over_budget(self, count: str, bid: int) -> str:
        return (f"if {count} * {max(self.blocks[bid].ops, 1)}{self.SCALE} "
                f"> _max_steps: raise _budget_trap(_max_steps)")

    def _fill_patches(self) -> None:
        for pos, ind, bid, budget in self.patches:
            pad = "    " * ind
            text = f"{pad}{self.bc(bid)} += 1"
            if budget:
                text += f"\n{pad}{self._over_budget(self.bc(bid), bid)}"
            self.out[pos] = text

    def _static_budget_lines(self) -> List[str]:
        """Statically counted blocks pre-check the step budget once,
        instead of testing it on every execution."""
        return [f"    {self._over_budget(f'({expr})', bid)}"
                for expr, bid in self.static_budget]

    def _flush_lines(self) -> List[str]:
        lines = []
        for attr in _Stat.__slots__:
            terms = []
            for bid, stat in enumerate(self.blocks):
                if getattr(stat, attr):
                    static = self.block_static[bid]
                    count = f"({static})" if static is not None \
                        else self.bc(bid)
                    terms.append(f"{count} * {getattr(stat, attr)}")
            if terms:
                total = " + ".join(terms)
                if self.SCALE:
                    total = f"({total}){self.SCALE}"
                lines.append(f"        _counters.{attr} += {total}")
        return lines


# ---------------------------------------------------------------------------
# Executable cache (a ContentTable: memory LRU over an optional DiskCache)
# ---------------------------------------------------------------------------

#: Generation of each emitter's output format, part of every
#: :class:`ExecutableCache` key: a disk entry holds *generated source*,
#: which a changed emitter would otherwise keep reusing for as long as it
#: still compiles.  Bump a tier's entry on any change to what its
#: emitter generates.
EMITTER_VERSIONS = {"jit": 4, "vector": 6}


@dataclass
class CompiledExecutable:
    """One compiled function: generated source plus its entry point."""

    kernel: str
    mode: str
    source: str
    entry: object
    origin: str = "fresh"  # "fresh" | "memory" | "disk"


class ExecutableCache(ContentTable):
    """Fingerprint-keyed :class:`ContentTable` of
    :class:`CompiledExecutable`.

    Keys are ``(text_fingerprint(printed function),
    "<tier><EMITTER_VERSIONS[tier]>:<mode>")`` — the compile-cache key
    scheme, tagged with the emitting tier and its generation — so a
    structurally identical function hits regardless of object identity,
    both tiers share one cache without colliding, and a
    :class:`DiskCache` can persist the generated source under the same
    address (the source *is* the entry text; rehydration is
    ``compile()`` + ``exec``).
    """

    def __init__(self, max_entries: int = 128, disk=None):
        super().__init__(max_entries, disk)

    def key_for(self, function, mode: str,
                tier: str = "jit") -> Tuple[str, str]:
        """The cache key of ``function`` under ``tier`` and ``mode``.

        Memoized on the function until it is edited (shared by every
        cache): printing the IR on every launch would cost more than
        small kernels take to run, and a key that outlived an in-place
        edit would run the old code.
        """
        from ..ir import Printer

        tag = f"{tier}{EMITTER_VERSIONS[tier]}:{mode}"
        memo = op_memo(function)
        key = memo.get(tag)
        if key is None:
            printed = Printer().print_op_to_string(function)
            key = memo[tag] = (text_fingerprint(printed), tag)
        return key


def compile_cached(function, mode: str, cache: Optional[ExecutableCache],
                   tier: str, emit: Callable[[], str],
                   namespace: Callable[[], Dict[str, object]],
                   ) -> CompiledExecutable:
    """``function``'s executable for ``mode``, through ``cache`` if given.

    ``emit()`` generates the source of a ``_run`` entry point, which is
    executed in a fresh ``namespace()``.  Raises
    :class:`JITUnsupportedError` for uncompilable input and propagates
    :class:`~repro.faults.TransientFault` from the ``<tier>.compile``
    fault point (``corrupt`` poisons the source instead).
    """
    def load(source: str, origin: str) -> CompiledExecutable:
        return CompiledExecutable(
            function.sym_name, mode, source,
            _load_source(function, source, namespace), origin=origin)

    def rehydrate(payload: dict) -> CompiledExecutable:
        # Disk source that no longer compiles (a mangled entry that
        # passed its fingerprint, an emitter-version skew) raises: the
        # table recovers it and the function is compiled cold below.
        rehydrated.append(load(payload["text"], "disk"))
        return rehydrated[0]

    key = None
    rehydrated: List[CompiledExecutable] = []
    if cache is not None:
        key = cache.key_for(function, mode, tier)
        hit = cache.get(key, rehydrate)
        if hit is not None:
            return hit if rehydrated else CompiledExecutable(
                hit.kernel, hit.mode, hit.source, hit.entry, origin="memory")
    source = emit()
    injected = fault_point(
        f"{tier}.compile", key=key[0] if key else function.sym_name)
    if injected == "corrupt":
        source = (f"def _run(_args, _GR, _LR, _PR, _counters, "
                  f"_max_steps):\n    raise RuntimeError('injected "
                  f"corrupt {tier} executable')\n")
    executable = load(source, "fresh")
    if cache is not None and injected is None:
        cache.put(key, executable, source)
    return executable


def _load_source(function, source: str, namespace):
    code = compile(source, f"<repro-jit:{function.sym_name}>", "exec")
    globals_ = namespace()
    exec(code, globals_)
    return globals_["_run"]


def compile_for_engine(engine, tier: str, compile_, *args):
    """``compile_(*args, cache=...)`` through ``engine``'s executable
    cache (made on first use); a construct the emitter rejects or an
    injected transient compile fault declines the tier."""
    cache = engine.executable_cache
    if cache is None:
        cache = engine.executable_cache = ExecutableCache()
    try:
        return compile_(*args, cache=cache)
    except JITUnsupportedError as error:
        raise TierFallback(str(error)) from error
    except TransientFault as error:
        raise TierFallback(
            f"injected {tier} compile fault: {error}") from error


def launch_ranges(global_size, local_size):
    """``(global, local, group)`` extents of a launch as int tuples, the
    last two ``None`` for a basic launch (an ND-range is validated by
    :class:`~repro.runtime.ndrange.NDRange`)."""
    from ..runtime.ndrange import NDRange, Range

    global_range = global_size if isinstance(global_size, Range) \
        else Range(global_size)
    if local_size is None:
        return tuple(global_range), None, None
    nd_range = NDRange(global_range, local_size if isinstance(
        local_size, Range) else Range(local_size))
    return (tuple(global_range), tuple(nd_range.local_range),
            tuple(nd_range.group_range))


def run_executable(executable: CompiledExecutable, function, *args):
    """Call a generated entry point, sorting its failures into the
    engine's channels: traps propagate, a prologue guard (fired before
    any side effect) declines the tier, anything unexpected is a
    :class:`JITExecutionError` the re-materializing path degrades on."""
    try:
        return executable.entry(*args)
    except (TrapError, TransientFault):
        raise
    except _GuardFallback as guard:
        raise TierFallback(str(guard)) from guard
    except OverflowError as error:
        raise TrapError(
            f"value exceeds the range of the storage element: "
            f"{error}") from None
    except InterpreterError:
        raise
    except Exception as error:  # noqa: BLE001 - degradation boundary
        if isinstance(error, ValueError) and "read-only" in str(error):
            # NumPy refused a store into a ``read`` accessor's array.
            raise TrapError(READ_ONLY_STORE) from None
        raise JITExecutionError(
            f"generated executable for '{function.sym_name}' failed: "
            f"{error!r}") from error
