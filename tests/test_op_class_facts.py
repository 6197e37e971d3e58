"""The per-class facts hot loops read agree with what they stand for.

``Operation.__init_subclass__`` fixes four facts per op class:
``_trait_mask_`` (the OR of the ``Trait.bit``\\ s of ``TRAITS``),
``_ISOLATED``, ``_HAS_EFFECTS`` (``isinstance(op, MemoryEffectsInterface)``)
and ``_HAS_VERIFIER`` (the class overrides ``verify_op``); canonicalize
filters its pattern per class with ``_CanonicalizePattern.can_rewrite``.  Each is
checked here against its source, for every registered op class, the base
``Operation`` and an op parsed under ``allow_unregistered``.
"""

import re
from pathlib import Path

import pytest

import repro.dialects  # noqa: F401 - registers every op class
from repro.dialects import arith
from repro.ir import (
    MemoryEffectsInterface,
    Operation,
    Printer,
    Trait,
    UnregisteredOp,
    has_trait,
    parse_module,
    registered_operations,
)
from repro.testing.generate import GeneratorConfig, generate_module
from repro.transforms.canonicalize import (
    _CanonicalizePattern,
    _simplify_identities,
    fold_operation,
)

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"

UNREGISTERED = '''"builtin.module"() : () -> () ({
  %0 = "test.opaque"() : () -> (i32)
  "test.sink"(%0) : (i32) -> ()
})
'''


def _unregistered_op():
    module = parse_module(UNREGISTERED, allow_unregistered=True)
    op = module.body.first_op
    assert type(op) is UnregisteredOp and op.name == "test.opaque"
    return op


def _subjects():
    """``(label, op class, an instance or None)``."""
    subjects = [(name, cls, None)
                for name, cls in sorted(registered_operations().items())]
    subjects.append(("<base Operation>", Operation, Operation()))
    op = _unregistered_op()
    subjects.append(("<unregistered test.opaque>", type(op), op))
    return subjects


def _defined_below_operation(cls, name):
    """Whether a class in ``cls``'s MRO before ``Operation`` defines
    ``name`` itself."""
    mro = cls.__mro__
    return any(name in vars(base) for base in mro[:mro.index(Operation)])


can_canonicalize = _CanonicalizePattern().can_rewrite


def _disagreements(check):
    """The labels of the subjects for which ``check(cls, op)`` is False."""
    return [label for label, cls, op in _subjects() if not check(cls, op)]


def _mask_of(traits):
    mask = 0
    for trait in traits:
        mask |= trait.bit
    return mask


def test_trait_bits_are_distinct_powers_of_two():
    bits = [trait.bit for trait in Trait]
    assert len(set(bits)) == len(bits)
    assert all(bit > 0 and bit & (bit - 1) == 0 for bit in bits)


def test_every_registered_class_is_covered():
    assert len(_subjects()) == len(registered_operations()) + 2
    assert len(registered_operations()) > 100


def test_trait_mask_is_the_or_of_traits():
    assert not _disagreements(
        lambda cls, op: cls._trait_mask_ == _mask_of(cls.TRAITS)
        and (op is None or op._trait_mask_ == _mask_of(cls.TRAITS)))


def test_has_trait_agrees_for_every_trait():
    for trait in Trait:
        assert not _disagreements(
            lambda cls, op: has_trait(cls, trait) == (trait in cls.TRAITS)
            and (op is None or has_trait(op, trait) == (trait in cls.TRAITS))
        ), trait
    assert not _disagreements(
        lambda cls, op:
        cls._ISOLATED == (Trait.ISOLATED_FROM_ABOVE in cls.TRAITS))


def test_has_effects_is_the_interface():
    assert not _disagreements(
        lambda cls, op:
        cls._HAS_EFFECTS == issubclass(cls, MemoryEffectsInterface)
        and (op is None
             or op._HAS_EFFECTS == isinstance(op, MemoryEffectsInterface)))


def test_has_verifier_is_an_override():
    assert not _disagreements(
        lambda cls, op:
        cls._HAS_VERIFIER == _defined_below_operation(cls, "verify_op"))
    verifying = {label for label, cls, _ in _subjects() if cls._HAS_VERIFIER}
    assert {"cf.br", "cf.cond_br"} <= verifying


def test_can_canonicalize_matches_fold_identity_and_select():
    assert not _disagreements(
        lambda cls, op: can_canonicalize(cls) == (
            not issubclass(cls, arith.ConstantOp) and (
                _defined_below_operation(cls, "fold")
                or getattr(cls, "IDENTITY", None) is not None
                or issubclass(cls, arith.SelectOp))))


def test_the_base_class_and_unregistered_ops_have_no_facts():
    for op in (Operation(), _unregistered_op()):
        assert op._trait_mask_ == 0
        assert not op._HAS_EFFECTS
        assert not op._HAS_VERIFIER
        assert not op._ISOLATED
        assert not can_canonicalize(type(op))


def _modules():
    for path in sorted(GOLDEN.glob("*.mlir")):
        if not path.name.endswith("_errors.mlir"):
            yield path.name, parse_module(path.read_text())
    for seed in range(0, 31, 5):
        yield f"generated{seed}", generate_module(GeneratorConfig(
            num_ops=150, nesting_depth=2, num_kernels=2, seed=seed))


@pytest.mark.parametrize("label,module", list(_modules()),
                         ids=lambda value: value if isinstance(value, str)
                         else "")
def test_an_op_canonicalize_skips_could_not_be_rewritten(label, module):
    before = Printer().print_module(module)
    skipped = 0
    for op in list(module.walk()):
        if can_canonicalize(type(op)):
            continue
        skipped += 1
        assert not fold_operation(op), op
        assert not _simplify_identities(op), op
    assert skipped
    assert Printer().print_module(module) == before


def test_no_module_assigns_traits_after_class_creation():
    # The mask is computed once, when the class is created: assigning
    # the trait set of an existing class would leave the mask stale.
    late = re.compile(r"\w\.TRAITS\s*[|&^-]?=(?!=)|setattr\([^)]*['\"]TRAITS")
    offenders = []
    for root in (SRC, Path(__file__).parent):
        for path in root.rglob("*.py"):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if late.search(line):
                    offenders.append(f"{path}:{number}: {line.strip()}")
    assert not offenders, offenders
