"""Seeded synthetic IR generator for tests.

Builds valid modules whose shape is controlled by a :class:`GeneratorConfig`:

* ``num_ops`` — approximate total operation count;
* ``nesting_depth`` — depth of ``scf.for`` nests wrapping compute segments;
* ``duplicate_density`` — fraction of binary ops re-emitted with identical
  operands (CSE fodder);
* ``foldable_density`` — fraction of ops that are constant-foldable or
  algebraic identities like ``x + 0`` / ``x * 1`` (canonicalize fodder);
* ``dead_density`` — fraction of ops whose results are never used
  (DCE fodder);
* ``num_kernels`` — number of SYCL-style kernel functions (marked with
  ``sycl.kernel``, memref "accessor" arguments, load/compute/store loop
  nests), modelling the paper's kernel shapes structurally.

Everything is seeded, so a config always generates the same module; the
fixed-point, concurrency and cache-key tests rely on this to build the
same input more than once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.dialects import all_dialects  # noqa: F401 - registers ops/types
from repro.dialects import arith
from repro.dialects import memref as memref_dialect
from repro.dialects import scf as scf_dialect
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import Block, BoolAttr, Value, f32, i64, index, memref


@dataclass
class GeneratorConfig:
    """Parameters controlling the synthetic module shape."""

    num_ops: int = 1000
    nesting_depth: int = 2
    duplicate_density: float = 0.25
    foldable_density: float = 0.2
    dead_density: float = 0.1
    chain_density: float = 0.6
    #: Depth of dedicated dead def-use chains (each op used only by the
    #: next, final result unused).  This is what IR looks like after a
    #: lowering pass strips the consumers of address-arithmetic chains —
    #: e.g. ``lower_sycl`` rewriting accessor subscripts — and it is the
    #: shape that punishes sweep-based DCE (one erasure per sweep per
    #: chain).  0 disables chain generation.
    dead_chain_depth: int = 128
    num_kernels: int = 1
    seed: int = 0


_BINOPS = (arith.AddIOp, arith.MulIOp, arith.SubIOp)


class _Budget:
    """Shared op budget so generation stops near ``num_ops``."""

    def __init__(self, limit: int):
        self.remaining = limit

    def take(self, count: int = 1) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= count
        return True


def _emit_compute(block: Block, pool: List[Value], rng: random.Random,
                  config: GeneratorConfig, budget: _Budget,
                  depth: int) -> None:
    """Fill ``block`` with arithmetic, recursing into loop nests."""
    emitted: List = []
    while budget.remaining > 0:
        roll = rng.random()
        if depth < config.nesting_depth and roll < 0.02 and budget.remaining > 8:
            _emit_loop(block, pool, rng, config, budget, depth)
            continue
        if config.dead_chain_depth and roll < 0.01 and budget.remaining > 4:
            _emit_dead_chain(block, pool, rng, config, budget)
            continue
        if roll < config.foldable_density and budget.take(3):
            # Constant-foldable pair plus an identity (x + 0).
            lhs = block.append(arith.ConstantOp.build(rng.randrange(64), i64()))
            zero = block.append(arith.ConstantOp.build(0, i64()))
            folded = block.append(arith.AddIOp.build(lhs.result, zero.result))
            pool.append(folded.result)
            continue
        if emitted and rng.random() < config.duplicate_density and budget.take(1):
            # Exact duplicate of an earlier op: CSE fodder.
            original = rng.choice(emitted)
            dup = block.append(type(original).build(*original.operands))
            pool.append(dup.result)
            continue
        if not budget.take(1):
            break
        op_class = rng.choice(_BINOPS)
        # Deep def-use chains (the realistic case: each op feeds the next)
        # versus a wide DAG with uniformly chosen operands.
        if rng.random() < config.chain_density:
            lhs = pool[-1]
            rhs = rng.choice(pool)
        else:
            lhs = rng.choice(pool)
            rhs = rng.choice(pool)
        op = block.append(op_class.build(lhs, rhs))
        emitted.append(op)
        if rng.random() >= config.dead_density:
            pool.append(op.result)
        if rng.random() < 0.002:
            break


def _emit_dead_chain(block: Block, pool: List[Value], rng: random.Random,
                     config: GeneratorConfig, budget: _Budget) -> None:
    """A def-use chain whose final result is unused: deep-DCE fodder."""
    depth = min(config.dead_chain_depth, max(2, budget.remaining))
    budget.take(depth)
    current = rng.choice(pool)
    for _ in range(depth):
        link = block.append(arith.AddIOp.build(current, rng.choice(pool)))
        current = link.result


def _emit_loop(block: Block, pool: List[Value], rng: random.Random,
               config: GeneratorConfig, budget: _Budget, depth: int) -> None:
    budget.take(5)
    lower = block.append(arith.ConstantOp.build(0, index()))
    upper = block.append(arith.ConstantOp.build(rng.randrange(8, 64), index()))
    step = block.append(arith.ConstantOp.build(1, index()))
    loop = block.append(scf_dialect.ForOp.build(
        lower.result, upper.result, step.result))
    body = loop.body
    iv = loop.induction_variable()
    cast = body.append(arith.IndexCastOp.build(iv, i64()))
    inner_pool = list(pool) + [cast.result]
    # Cap what this nest may consume so generation spreads across segments.
    inner_budget = _Budget(min(budget.remaining, max(8, budget.remaining // 3)))
    before = inner_budget.remaining
    _emit_compute(body, inner_pool, rng, config, inner_budget, depth + 1)
    budget.remaining = max(0, budget.remaining - (before - inner_budget.remaining))
    body.append(scf_dialect.YieldOp.build())


def _emit_kernel(module: ModuleOp, name: str, rng: random.Random,
                 config: GeneratorConfig, budget: _Budget) -> None:
    """A SYCL-style kernel: accessor-like memref args, loop nest, load/store."""
    elem = f32()
    acc_type = memref((64, 64), elem)
    kernel = FuncOp.build(name, [acc_type, acc_type, acc_type, index()],
                          arg_names=["accA", "accB", "accC", "n"])
    kernel.set_attr("sycl.kernel", BoolAttr(True))
    module.append(kernel)
    body = kernel.body
    a, b, c, n = kernel.arguments

    budget.take(12)
    zero = body.append(arith.ConstantOp.build(0, index()))
    step = body.append(arith.ConstantOp.build(1, index()))
    outer = body.append(scf_dialect.ForOp.build(zero.result, n, step.result))
    inner = outer.body.append(scf_dialect.ForOp.build(
        zero.result, n, step.result))
    i = outer.induction_variable()
    j = inner.induction_variable()
    loop_body = inner.body
    load_a = loop_body.append(memref_dialect.LoadOp.build(a, [i, j]))
    load_b = loop_body.append(memref_dialect.LoadOp.build(b, [i, j]))
    product = loop_body.append(arith.MulFOp.build(load_a.result, load_b.result))
    acc = product.result
    # Duplicate address/compute chains: what CSE cleans up in real kernels.
    extra = max(0, min(budget.remaining // 2,
                       int(config.duplicate_density * 20)))
    for _ in range(extra):
        if not budget.take(2):
            break
        dup = loop_body.append(arith.MulFOp.build(load_a.result, load_b.result))
        acc_op = loop_body.append(arith.AddFOp.build(acc, dup.result))
        acc = acc_op.result
    loop_body.append(memref_dialect.StoreOp.build(acc, c, [i, j]))
    loop_body.append(scf_dialect.YieldOp.build())
    outer.body.append(scf_dialect.YieldOp.build())
    body.append(ReturnOp.build())


def generate_module(config: GeneratorConfig) -> ModuleOp:
    """Generate a deterministic synthetic module for ``config``."""
    rng = random.Random(config.seed)
    module = ModuleOp.build()
    budget = _Budget(config.num_ops)

    for k in range(config.num_kernels):
        _emit_kernel(module, f"bench_kernel_{k}", rng, config, budget)

    function = FuncOp.build("bench_main", [i64(), i64(), i64()],
                            arg_names=["x", "y", "z"])
    module.append(function)
    body = function.body
    pool: List[Value] = list(function.arguments)
    seed_const = body.append(arith.ConstantOp.build(7, i64()))
    pool.append(seed_const.result)
    while budget.remaining > 0:
        _emit_compute(body, pool, rng, config, budget, depth=0)
    body.append(ReturnOp.build())
    return module


def count_ops(module: ModuleOp) -> int:
    return sum(1 for _ in module.walk(include_self=False))
