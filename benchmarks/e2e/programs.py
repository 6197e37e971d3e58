"""The benchmark's input programs and their NumPy references.

Eight SYCL-Bench-shaped kernels written with the embedded frontend
(:class:`repro.frontend.kernel_builder.KernelSource`), a lowered-CFG
copy of one of them (``gemm_cfg``), and one host+device program
(``gemm_host``).  Every kernel carries an independent NumPy closed form:
the reference never calls into ``repro``; it is handed the input arrays
(rebuilt here from the documented fill formula of
``repro.interp.synthesize_spec``, and checked against the read-only
buffers every execution reports back) and returns the expected outputs.

The program under test only ever sees the generated *text*; the
``Program`` object travels beside it so the harness knows the launch
configuration and the reference.

Seeding: a program's name carries a fixed-width tag derived from the
seed, which changes the synthesized buffer contents (they are seeded by
``crc32("<function>:<argument>")``); embedded float constants are drawn
from the seeded generator; shape variants (loop bounds, work-group
sizes) are a fixed multiset whose *assignment and order* the seed
permutes.  Total static and dynamic operation counts therefore do not
depend on the seed, while no two seeds produce the same text.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dialects import arith, builtin, llvm
from repro.dialects.sycl import (
    AccessorType,
    BufferType,
    NDRangeType,
    RangeType,
)
from repro.frontend.kernel_builder import AccessorParam, KernelSource
from repro.ir import Printer, PointerType, f32, i64, int_array_attr

Arrays = Dict[str, np.ndarray]
Reference = Callable[[Arrays], Arrays]

#: Embedded constants are drawn from here: exactly representable in
#: f32 and never 0 or +-1, which the canonicalizer would fold away and
#: so change the operation counts from seed to seed.
CONSTANT_POOL = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.25, 2.5)


@dataclass
class Program:
    """One kernel, how to launch it, and what it must compute."""

    name: str                      # function symbol (seed-tagged)
    family: str                    # "gemm", "sobel", ...
    source: Optional[KernelSource]
    global_size: Tuple[int, ...]
    local_size: Optional[Tuple[int, ...]]
    buffers: Dict[str, Tuple[int, ...]]
    reference: Reference
    work_group_attr: bool = False  # set sycl.work_group_size on the kernel
    params: Dict[str, object] = field(default_factory=dict)

    def function(self):
        function = self.source.build()
        if self.work_group_attr and self.local_size:
            function.set_attr("sycl.work_group_size",
                              int_array_attr(list(self.local_size), i64()))
        return function

    def spec(self, binding: Optional[Dict[str, str]] = None):
        """Launch configuration; ``binding`` maps the declared buffer
        names to the argument names the parsed function ended up with."""
        from repro.interp import ExecutionSpec

        binding = binding or {}
        return ExecutionSpec(
            global_size=self.global_size, local_size=self.local_size,
            buffers={binding.get(name, name): shape
                     for name, shape in self.buffers.items()})


# ---------------------------------------------------------------------------
# Inputs: the fill formula of repro.interp.differential, restated
# ---------------------------------------------------------------------------

def synthesized_input(function: str, argument: str,
                      shape: Sequence[int]) -> np.ndarray:
    """The f32 buffer ``synthesize_spec`` fills for ``function:argument``."""
    seed = zlib.crc32(f"{function}:{argument}".encode("utf-8"))
    index = np.arange(int(np.prod(shape)), dtype=np.int64)
    values = (((seed + index * 29) % 23) - 11) * 0.375
    return values.astype(np.float32).reshape(tuple(shape))


def program_inputs(program: Program,
                   binding: Optional[Dict[str, str]] = None) -> Arrays:
    """Input arrays by declared name.  The fill is seeded by the
    argument's *actual* name, which the printer may have suffixed to keep
    names unique across a multi-kernel module."""
    binding = binding or {}
    return {name: synthesized_input(program.name, binding.get(name, name),
                                    shape)
            for name, shape in program.buffers.items()}


# ---------------------------------------------------------------------------
# The eight kernel families
# ---------------------------------------------------------------------------

def _acc(name: str, dims: int, mode: str) -> AccessorParam:
    return AccessorParam(name, dims, f32(), mode)


def vec_add(name: str, n: int, alpha: float) -> Program:
    """1-D, no loop, memory-bound: ``c = a + alpha * b``."""

    def body(k):
        i = k.global_id(0)
        k.store("c", [i], k.load("a", [i]) + k.load("b", [i]) * alpha)

    def reference(x: Arrays) -> Arrays:
        return {"c": x["a"].astype(np.float64)
                + x["b"].astype(np.float64) * alpha}

    source = KernelSource(name, body=body, nd_range_dims=1,
                          uses_nd_item=False,
                          accessors=[_acc("a", 1, "read"),
                                     _acc("b", 1, "read"),
                                     _acc("c", 1, "write")])
    return Program(name, "vec_add", source, (n,), None,
                   {"a": (n,), "b": (n,), "c": (n,)}, reference,
                   params={"n": n, "alpha": alpha})


def gemm(name: str, n: int, depth: int, wg: int) -> Program:
    """2-D nd_item GEMM, k-loop: Loop Internalization + Detect Reduction."""

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            value = k.load("C", [i, j]) \
                + k.load("A", [i, kk]) * k.load("B", [kk, j])
            k.store("C", [i, j], value)

    def reference(x: Arrays) -> Arrays:
        a = x["A"].astype(np.float64)[:n, :depth]
        b = x["B"].astype(np.float64)[:depth, :n]
        return {"C": x["C"].astype(np.float64) + a @ b}

    source = KernelSource(name, body=body, nd_range_dims=2,
                          accessors=[_acc("A", 2, "read"),
                                     _acc("B", 2, "read"),
                                     _acc("C", 2, "read_write")])
    return Program(name, "gemm", source, (n, n), (wg, wg),
                   {"A": (n, depth), "B": (depth, n), "C": (n, n)},
                   reference, work_group_attr=True,
                   params={"n": n, "depth": depth, "wg": wg})


def syrk(name: str, n: int, depth: int, wg: int, alpha: float) -> Program:
    """``C += alpha * A @ A^T`` (2-D nd_item, k-loop, one operand reused)."""

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        with k.loop(0, depth) as kk:
            value = k.load("C", [i, j]) \
                + k.load("A", [i, kk]) * k.load("A", [j, kk]) * alpha
            k.store("C", [i, j], value)

    def reference(x: Arrays) -> Arrays:
        a = x["A"].astype(np.float64)[:n, :depth]
        return {"C": x["C"].astype(np.float64) + alpha * (a @ a.T)}

    source = KernelSource(name, body=body, nd_range_dims=2,
                          accessors=[_acc("A", 2, "read"),
                                     _acc("C", 2, "read_write")])
    return Program(name, "syrk", source, (n, n), (wg, wg),
                   {"A": (n, depth), "C": (n, n)}, reference,
                   work_group_attr=True,
                   params={"n": n, "depth": depth, "wg": wg, "alpha": alpha})


def mvt(name: str, n: int, depth: int) -> Program:
    """1-D item, row loop: ``x[i] += sum_j A[i, j] * y[j]`` (LICM +
    Detect Reduction)."""

    def body(k):
        i = k.global_id(0)
        with k.loop(0, depth) as j:
            value = k.load("x", [i]) + k.load("A", [i, j]) * k.load("y", [j])
            k.store("x", [i], value)

    def reference(x: Arrays) -> Arrays:
        a = x["A"].astype(np.float64)
        return {"x": x["x"].astype(np.float64)
                + a @ x["y"].astype(np.float64)}

    source = KernelSource(name, body=body, nd_range_dims=1,
                          uses_nd_item=False,
                          accessors=[_acc("A", 2, "read"),
                                     _acc("y", 1, "read"),
                                     _acc("x", 1, "read_write")])
    return Program(name, "mvt", source, (n,), None,
                   {"A": (n, depth), "y": (depth,), "x": (n,)}, reference,
                   params={"n": n, "depth": depth})


def nbody(name: str, n: int, bodies: int, softening: float) -> Program:
    """Compute-bound: 1-D gravity with ``rsqrt`` over ``bodies`` partners."""

    def body(k):
        i = k.global_id(0)
        with k.loop(0, bodies) as j:
            delta = k.load("pos", [j]) - k.load("pos", [i])
            inverse = k.rsqrt(delta * delta + softening)
            force = k.load("acc", [i]) \
                + delta * k.load("mass", [j]) * inverse * inverse * inverse
            k.store("acc", [i], force)

    def reference(x: Arrays) -> Arrays:
        pos = x["pos"].astype(np.float64)
        delta = pos[None, :bodies] - pos[:n, None]
        inverse = 1.0 / np.sqrt(delta * delta + softening)
        mass = x["mass"].astype(np.float64)[None, :bodies]
        return {"acc": x["acc"].astype(np.float64)
                + (delta * mass * inverse ** 3).sum(axis=1)}

    size = max(n, bodies)
    source = KernelSource(name, body=body, nd_range_dims=1,
                          uses_nd_item=False,
                          accessors=[_acc("pos", 1, "read"),
                                     _acc("mass", 1, "read"),
                                     _acc("acc", 1, "read_write")])
    return Program(name, "nbody", source, (n,), None,
                   {"pos": (size,), "mass": (size,), "acc": (n,)}, reference,
                   params={"n": n, "bodies": bodies, "softening": softening})


def kmeans(name: str, n: int, clusters: int) -> Program:
    """Nearest-centroid assignment: centroid loop, ``select``, no branch."""

    def body(k):
        i = k.global_id(0)
        px = k.load("px", [i])
        py = k.load("py", [i])
        with k.loop(0, clusters) as c:
            dx = px - k.load("cx", [c])
            dy = py - k.load("cy", [c])
            distance = dx * dx + dy * dy
            best = k.load("best", [i])
            closer = distance < best
            k.store("best", [i], closer.select(distance, best))
            k.store("label", [i],
                    closer.select(c.to_int().to_float(),
                                  k.load("label", [i])))

    def reference(x: Arrays) -> Arrays:
        best = x["best"].astype(np.float64).copy()
        label = x["label"].astype(np.float64).copy()
        px = x["px"].astype(np.float64)
        py = x["py"].astype(np.float64)
        for c in range(clusters):
            distance = (px - float(x["cx"][c])) ** 2 \
                + (py - float(x["cy"][c])) ** 2
            closer = distance < best
            best = np.where(closer, distance, best)
            label = np.where(closer, float(c), label)
        return {"best": best, "label": label}

    source = KernelSource(name, body=body, nd_range_dims=1,
                          uses_nd_item=False,
                          accessors=[_acc("px", 1, "read"),
                                     _acc("py", 1, "read"),
                                     _acc("cx", 1, "read"),
                                     _acc("cy", 1, "read"),
                                     _acc("best", 1, "read_write"),
                                     _acc("label", 1, "read_write")])
    return Program(name, "kmeans", source, (n,), None,
                   {"px": (n,), "py": (n,), "cx": (clusters,),
                    "cy": (clusters,), "best": (n,), "label": (n,)},
                   reference, params={"n": n, "clusters": clusters})


#: Minimal 19-exchange median-of-9 network (Paeth); the median ends in
#: slot 4.
_MEDIAN9 = ((1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5),
            (7, 8), (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7),
            (4, 2), (6, 4), (4, 2))


def median(name: str, n: int, gain: float) -> Program:
    """3x3 median filter: private array and a min/max exchange network.

    The window wraps at the image edge (``% n``) so there is no border
    branch — the divergent program is ``sobel``.
    """

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        window = k.private_array(9)
        slot = 0
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                row = (i + (n + di)) % n
                column = (j + (n + dj)) % n
                k.private_store(window, slot, k.load("src", [row, column]))
                slot += 1
        for low, high in _MEDIAN9:
            a = k.private_load(window, low)
            b = k.private_load(window, high)
            k.private_store(window, low, k.minimum(a, b))
            k.private_store(window, high, k.maximum(a, b))
        k.store("dst", [i, j], k.private_load(window, 4) * gain)

    def reference(x: Arrays) -> Arrays:
        src = x["src"].astype(np.float64)
        stack = np.stack([np.roll(src, (-di, -dj), axis=(0, 1))
                          for di in (-1, 0, 1) for dj in (-1, 0, 1)])
        return {"dst": np.median(stack, axis=0) * gain}

    source = KernelSource(name, body=body, nd_range_dims=2,
                          uses_nd_item=False,
                          accessors=[_acc("src", 2, "read"),
                                     _acc("dst", 2, "write")])
    return Program(name, "median", source, (n, n), None,
                   {"src": (n, n), "dst": (n, n)}, reference,
                   params={"n": n, "gain": gain})


def sobel(name: str, n: int, scale: float) -> Program:
    """3x3 gradient stencil; the border test is an ``if_then`` on the
    work-item id, so the kernel is divergent and the vector tier must
    decline it."""

    gx = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))

    def body(k):
        i = k.global_id(0)
        j = k.global_id(1)
        inside = (i > 0) & (i < n - 1) & (j > 0) & (j < n - 1)
        with k.if_then(inside):
            horizontal = None
            vertical = None
            for di in range(3):
                for dj in range(3):
                    pixel = None
                    for weight, which in ((gx[di][dj], "h"),
                                          (gx[dj][di], "v")):
                        if weight == 0:
                            continue
                        if pixel is None:
                            pixel = k.load("src", [i + (di - 1),
                                                   j + (dj - 1)])
                        term = pixel * float(weight)
                        if which == "h":
                            horizontal = term if horizontal is None \
                                else horizontal + term
                        else:
                            vertical = term if vertical is None \
                                else vertical + term
            magnitude = k.sqrt(horizontal * horizontal
                               + vertical * vertical)
            k.store("dst", [i, j], magnitude * scale)

    def reference(x: Arrays) -> Arrays:
        src = x["src"].astype(np.float64)
        out = x["dst"].astype(np.float64).copy()
        horizontal = np.zeros((n - 2, n - 2))
        vertical = np.zeros((n - 2, n - 2))
        for di in range(3):
            for dj in range(3):
                window = src[di:di + n - 2, dj:dj + n - 2]
                horizontal += gx[di][dj] * window
                vertical += gx[dj][di] * window
        out[1:n - 1, 1:n - 1] = np.sqrt(horizontal ** 2
                                        + vertical ** 2) * scale
        return {"dst": out}

    source = KernelSource(name, body=body, nd_range_dims=2,
                          uses_nd_item=False,
                          accessors=[_acc("src", 2, "read"),
                                     _acc("dst", 2, "read_write")])
    return Program(name, "sobel", source, (n, n), None,
                   {"src": (n, n), "dst": (n, n)}, reference,
                   params={"n": n, "scale": scale})


FAMILIES = ("vec_add", "gemm", "syrk", "mvt", "nbody", "kmeans", "median",
            "sobel")


# ---------------------------------------------------------------------------
# Seeded program sets
# ---------------------------------------------------------------------------

def seed_tag(seed: int, salt: str = "") -> str:
    """Fixed-width tag, so a seed never changes the length of a name."""
    return f"{zlib.crc32(f'{seed}:{salt}'.encode('utf-8')) & 0xffff:04x}"


#: The eight shape variants of every family in the compile workloads:
#: (loop bound, work-group size).  A fixed multiset — the seed decides
#: which variant slot gets which shape, never which shapes exist.
COMPILE_SHAPES = ((16, 4), (8, 2), (8, 4), (16, 2),
                  (16, 8), (24, 2), (24, 4), (32, 8))

#: Launch extent of the small correctness run of a compiled variant
#: (the lowered code runs on the tree-walking interpreter).
ORACLE_EXTENT = 4


def _build(family: str, name: str, extent: int, depth: int, wg: int,
           constant: float) -> Program:
    if family == "vec_add":
        return vec_add(name, extent * depth, constant)
    if family == "gemm":
        return gemm(name, extent, depth, wg)
    if family == "syrk":
        return syrk(name, extent, depth, wg, constant)
    if family == "mvt":
        return mvt(name, extent, depth)
    if family == "nbody":
        return nbody(name, extent, depth, constant)
    if family == "kmeans":
        return kmeans(name, extent * 2, depth)
    if family == "median":
        return median(name, extent, constant)
    if family == "sobel":
        return sobel(name, extent, constant)
    raise ValueError(f"unknown program family {family!r}")


def compile_variants(seed: int, per_family: int = 8) -> List[Program]:
    """``8 * per_family`` seeded variants for the compile workloads."""
    rng = random.Random(seed)
    programs: List[Program] = []
    for family in FAMILIES:
        shapes = list(COMPILE_SHAPES[:per_family])
        rng.shuffle(shapes)
        for slot, (depth, wg) in enumerate(shapes):
            name = f"{family}_{seed_tag(seed, family)}_{slot}"
            # Work-group launches need an extent the group size divides.
            extent = max(ORACLE_EXTENT, wg)
            program = _build(family, name, extent, depth, wg,
                             rng.choice(CONSTANT_POOL))
            program.params["shape"] = (depth, wg)
            programs.append(program)
    rng.shuffle(programs)
    return programs


def exec_programs(seed: int, smoke: bool = False) -> List[Program]:
    """The eight families at execution-heavy sizes (``gemm_cfg`` is
    derived from ``gemm`` by the workload: it is a lowering, not a
    different source)."""
    rng = random.Random(seed)

    def name(family: str) -> str:
        return f"{family}_{seed_tag(seed, family)}"

    def constant() -> float:
        return rng.choice(CONSTANT_POOL)

    if smoke:
        sizes = dict(vec=256, gemm=8, wg=4, mvt=16, nbody=16, kmeans=32,
                     clusters=4, image=8, stencil=8)
    else:
        sizes = dict(vec=1 << 18, gemm=48, wg=8, mvt=384, nbody=40,
                     kmeans=16384, clusters=16, image=192, stencil=20)
    programs = [
        vec_add(name("vec_add"), sizes["vec"], constant()),
        gemm(name("gemm"), sizes["gemm"], sizes["gemm"], sizes["wg"]),
        syrk(name("syrk"), sizes["gemm"], sizes["gemm"], sizes["wg"],
             constant()),
        mvt(name("mvt"), sizes["mvt"], sizes["mvt"]),
        nbody(name("nbody"), sizes["nbody"], sizes["nbody"], constant()),
        kmeans(name("kmeans"), sizes["kmeans"], sizes["clusters"]),
        median(name("median"), sizes["image"], constant()),
        sobel(name("sobel"), sizes["stencil"], constant()),
    ]
    rng.shuffle(programs)
    return programs


def serve_programs(seed: int, smoke: bool = False) -> List[Program]:
    """The eight hot kernels of ``serve_mix``, at request-sized launches."""
    rng = random.Random(seed)
    n = 8 if smoke else 16

    def name(family: str) -> str:
        return f"{family}_{seed_tag(seed, 'hot' + family)}"

    def constant() -> float:
        return rng.choice(CONSTANT_POOL)

    return [
        vec_add(name("vec_add"), n * n, constant()),
        gemm(name("gemm"), n, n, 4),
        syrk(name("syrk"), n, n, 4, constant()),
        mvt(name("mvt"), n, n),
        nbody(name("nbody"), n, n, constant()),
        kmeans(name("kmeans"), n * 4, 4),
        median(name("median"), n, constant()),
        sobel(name("sobel"), n, constant()),
    ]


def small_gemm(seed: int, salt: str, n: int = 16, wg: int = 4) -> Program:
    """The ``n x n`` GEMM of the ``cold_cli`` and ``serve_mix`` workloads."""
    return gemm(f"gemm_{seed_tag(seed, salt)}", n, n, wg)


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

def module_of(programs: Sequence[Program], name: str = "kernels"):
    module = builtin.ModuleOp.build(name)
    for program in programs:
        module.append(program.function())
    return module


def module_text(programs: Sequence[Program]) -> str:
    """The generic-syntax text handed to the system under test."""
    return Printer().print_module(module_of(programs)) + "\n"


# ---------------------------------------------------------------------------
# The host + device program
# ---------------------------------------------------------------------------

#: Mangled DPC++ runtime entry points, as a host frontend would emit them
#: (Itanium mangling of sycl::_V1::{range,nd_range,buffer,accessor}
#: constructors and handler::parallel_for).
_RANGE_CTOR = "_ZN4sycl3_V15rangeILi2EEC2Emm"
_ND_RANGE_CTOR = "_ZN4sycl3_V18nd_rangeILi2EEC2ENS0_5rangeILi2EEES4_"
_BUFFER_CTOR = "_ZN4sycl3_V16bufferIfLi2EEC2ERKNS0_5rangeILi2EEE"
_ACCESSOR_CTOR = "_ZN4sycl3_V18accessorIfLi2EEC2ERNS0_6bufferIfLi2EEERNS0_7handlerE"


def _parallel_for_symbol(kernel: str) -> str:
    # host-raising reads the kernel name with a greedy
    # ``parallel_forI([A-Za-z0-9_]+)E``: the suffix must hold no further
    # capital E, or the match runs past the name.
    return f"_ZN4sycl3_V17handler12parallel_forI{kernel}EvT_"


def host_program(program: Program, host_name: str) -> Tuple[str, Program]:
    """``program`` (a GEMM) launched from LLVM-dialect host code.

    The returned module holds an ``llvm.func`` that builds the ranges,
    buffers and accessors through mangled runtime constructor calls and
    submits the kernel with ``handler::parallel_for``; the kernel lives
    in a nested ``kernels`` module and carries *no* hand-set
    ``sycl.work_group_size`` — the work-group size can only reach Loop
    Internalization if host raising and host->device propagation
    recover it from the constant ranges.
    """
    device = builtin.ModuleOp.build("kernels")
    kernel = program.source.build()
    device.append(kernel)

    host = llvm.LLVMFuncOp.build(host_name, [PointerType()],
                                 arg_names=["handler"])
    body = host.body
    handler = host.arguments[0]

    def emit(op):
        body.append(op)
        return op

    def constant(value: int):
        return emit(llvm.LLVMConstantOp.build(value, i64())).result

    one = constant(1)

    def stack_object(label: str, type_):
        return emit(llvm.LLVMAllocaOp.build(one, label, type_)).result

    def construct(callee: str, destination, args):
        emit(llvm.LLVMCallOp.build(callee, [destination, *args]))
        return destination

    def make_range(label: str, extents: Sequence[int]):
        return construct(_RANGE_CTOR, stack_object(label, RangeType(2)),
                         [constant(extent) for extent in extents])

    global_range = make_range("global", program.global_size)
    local_range = make_range("local", program.local_size)
    nd_range = construct(_ND_RANGE_CTOR,
                         stack_object("ndrange", NDRangeType(2)),
                         [global_range, local_range])
    accessors = []
    for accessor in program.source.accessors:
        shape = program.buffers[accessor.name]
        extent = make_range(f"{accessor.name}_range", shape)
        buffer = construct(
            _BUFFER_CTOR,
            stack_object(f"{accessor.name}_buf", BufferType(2, f32())),
            [extent])
        accessors.append(construct(
            _ACCESSOR_CTOR,
            stack_object(f"{accessor.name}_acc",
                         AccessorType(2, f32(), accessor.access_mode)),
            [buffer, handler]))
    call = emit(llvm.LLVMCallOp.build(_parallel_for_symbol(program.name),
                                      [handler, nd_range, *accessors]))
    call.set_attr("num_range_operands", arith.IntegerAttr(1, i64()))
    emit(llvm.LLVMReturnOp.build())

    module = builtin.ModuleOp.build("host_device")
    module.append(device)
    module.append(host)
    return Printer().print_module(module) + "\n", program
