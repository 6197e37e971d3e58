"""What the JIT's generated code and its neighbours need at run time.

The error types the engine and the vector tier catch, the ``_jit_*``
scalar helpers generated source binds (and the vector tier reuses for
its scalar lanes), and the counter merge — none of it depends on the
emitter.  It lives apart from :mod:`repro.interp.jit` so that the engine
and :mod:`repro.interp.vectorize` can import it without loading the
emitter: a kernel the vector tier accepts never pays for the JIT.
"""

from __future__ import annotations

import math
from typing import Dict

from .memory import (
    BARRIER,
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

def _jit_floordiv(a, b):
    # C-style truncating division (mirrors arith._floordiv).
    return int(a / b) if (a < 0) != (b < 0) and a % b != 0 else a // b


# The optional trailing ``name`` of the trapping helpers is the op the
# trap is reported against: an ``llvm.*`` alias traps under its own name.

def _jit_divsi(a, b, name="arith.divsi"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return _jit_floordiv(a, b)


def _jit_divui(a, b, name="arith.divui"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return a // b


def _jit_remsi(a, b, name="arith.remsi"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return a - _jit_floordiv(a, b) * b


def _jit_remui(a, b, name="arith.remui"):
    if b == 0:
        raise TrapError(f"division by zero in '{name}'")
    return a % b


def _jit_ieee_zero_divide(op_name, a, b):
    if op_name == "arith.divf" and a != 0.0 and not math.isnan(a):
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return math.nan


def _jit_divf(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        return _jit_ieee_zero_divide("arith.divf", float(a), float(b))


def _jit_remf(a, b):
    try:
        return math.fmod(a, b)
    except (ValueError, ZeroDivisionError):
        return math.nan


def _jit_minf(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return min(a, b)


def _jit_maxf(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return max(a, b)


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


def _jit_local_tile(local_accessor):
    """The per-group NumPy tile behind a LocalAccessor argument (the
    same dtype selection ``Interpreter._local_storages`` performs)."""
    import numpy

    from .interpreter import _element_type_for_dtype
    from .memory import _numpy_dtype

    shape = tuple(int(d) for d in local_accessor.shape)
    dtype = _numpy_dtype(_element_type_for_dtype(local_accessor.dtype))
    if dtype is None:
        raise _GuardFallback("local accessor dtype is not array-backed")
    total = 1
    for dim in shape:
        total *= dim
    return numpy.zeros(total, dtype=dtype)


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
    })
    return namespace


def _math_symbol(name: str) -> str:
    """The generated-code name bound to ``math`` op ``name``'s PY_FUNC."""
    return "_m_" + name.split(".", 1)[1]


def _merge_counters(into, delta) -> None:
    for field_name, value in delta.as_dict().items():
        setattr(into, field_name, getattr(into, field_name) + value)
