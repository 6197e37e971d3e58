"""repro — Python reproduction of "Experiences Building an MLIR-Based SYCL
Compiler" (CGO 2024).

The public API is organised in layers:

* :mod:`repro.ir` and :mod:`repro.dialects` — the mini-MLIR infrastructure
  and the SYCL dialect (the paper's core contribution).
* :mod:`repro.analysis` and :mod:`repro.transforms` — the paper's analyses
  (alias, reaching definitions, uniformity, memory access) and device /
  host-device optimizations (LICM, detect-reduction, loop internalization,
  host raising, constant propagation, dead argument elimination).
* :mod:`repro.runtime` and :mod:`repro.interp` — the SYCL runtime
  substrate (buffers, accessors, devices) and the IR interpreter /
  differential-execution harness used in place of GPU hardware
  (``repro-run``, ``run_differential``).
* :mod:`repro.frontend` — the kernel-builder DSL and the three compiler
  drivers (SYCL-MLIR, DPC++ baseline, AdaptiveCpp baseline).
* :mod:`repro.benchsuite` and :mod:`repro.evaluation` — the SYCL-Bench /
  oneAPI workloads and the harness regenerating the paper's figures.
"""

__version__ = "1.0.0"

#: Subpackages resolved lazily (PEP 562) so that ``import repro.interp``
#: does not eagerly pull in the dialect definitions: the interpreter /
#: execution-engine layer only needs them once a module actually runs.
_LAZY_SUBPACKAGES = ("analysis", "dialects", "interp", "ir", "transforms")


def __getattr__(name):
    if name in _LAZY_SUBPACKAGES:
        import importlib

        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def _lazy_exports(package: str, table):
    """The PEP 562 ``__getattr__`` of a subpackage whose public names live
    in its submodules: ``table`` maps each name to the submodule defining
    it, imported when the name is first asked for."""

    def __getattr__(name):
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        import importlib
        import sys

        value = getattr(
            importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__all__ = ["analysis", "dialects", "interp", "ir", "transforms",
           "__version__"]
