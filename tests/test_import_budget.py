"""What a process imports — the ``test_ir_footprint.py`` of start-up.

Under ``PYTHONDONTWRITEBYTECODE`` every process recompiles every source
line it imports, so on a one-shot tool the lever is *modules and lines
imported* (docs/performance.md, "Start-up: what a process imports").
These tests hold the layering that keeps them down: every check runs in
a fresh interpreter and reads ``sys.modules`` when the work is done.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.ir import Printer

from .helpers import build_gemm_module, build_listing2_function, wrap_in_module

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Runs ``repro-run`` (``run ARGV...``), imports modules (``import
#: NAME...``) or executes a snippet (``exec CODE``), then reports what
#: got imported: module names, and the source lines of ``repro.*``.
_PROBE = r"""
import json, os, sys
mode, rest = sys.argv[1], sys.argv[2:]
code = 0
try:
    if mode == "run":
        from repro.tools.repro_run import main
        code = main(rest)
    elif mode == "import":
        for name in rest:
            __import__(name)
    else:
        exec(rest[0])
finally:
    names = sorted(sys.modules)
    lines = 0
    for name in names:
        path = getattr(sys.modules[name], "__file__", None)
        if name.split(".")[0] == "repro" and path and path.endswith(".py"):
            with open(path, encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    with open(os.environ["IMPORT_BUDGET_OUT"], "w") as handle:
        json.dump({"modules": names, "repro_lines": lines}, handle)
sys.exit(code)
"""

#: A compile-only process never needs these.
COMPILE_ONLY_FORBIDDEN = (
    "numpy", "multiprocessing", "concurrent.futures.process",
    "repro.interp.jit", "repro.interp.vectorize",
    "repro.interp.interpreter", "repro.analysis.lint",
    "repro.transforms.executor")

#: All of ``repro.transforms`` a front-tier hit may touch.
FRONT_HIT_TRANSFORMS = {
    "repro.transforms", "repro.transforms.compile_cache",
    "repro.transforms.disk_cache", "repro.transforms.pipeline_specs"}

#: ``repro.*`` source lines a primed ``repro-run`` may import (23 256
#: before the layering, 13 077 when this was written).
FRONT_HIT_LINE_BUDGET = 14_000

GEMM_ARGS = ["--entry", "gemm", "--global-size", "8x8",
             "--local-size", "4x4", "--buffer", "A=8x8",
             "--buffer", "B=8x8", "--buffer", "C=8x8",
             "--print-buffers", "--cost-report"]


def _probe(tmp_path, *argv):
    """``(returncode, stdout, stderr, imported modules, repro lines)``
    of one fresh interpreter."""
    out = tmp_path / "imports.json"
    env = dict(os.environ, PYTHONPATH=SRC, IMPORT_BUDGET_OUT=str(out))
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_FAULT_PLAN", None)
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    report = json.loads(out.read_text(encoding="utf-8"))
    return (done.returncode, done.stdout, done.stderr,
            set(report["modules"]), report["repro_lines"])


@pytest.fixture
def gemm_path(tmp_path):
    module, _ = build_gemm_module(size=8, work_group=4)
    path = tmp_path / "gemm.mlir"
    path.write_text(Printer().print_module(module) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def divergent_path(tmp_path):
    module = wrap_in_module(build_listing2_function()[0])
    path = tmp_path / "divergent.mlir"
    path.write_text(Printer().print_module(module) + "\n", encoding="utf-8")
    return path


class TestCompileOnlyProcesses:
    @pytest.mark.parametrize("tool", ["repro.tools.repro_opt",
                                      "repro.serve.server"])
    def test_importing_a_compile_tool_loads_no_execution_layer(
            self, tmp_path, tool):
        rc, _, err, modules, _ = _probe(tmp_path, "import", tool)
        assert rc == 0, err
        assert not modules.intersection(COMPILE_ONLY_FORBIDDEN)

    def test_a_plain_compile_loads_no_numpy(self, tmp_path, gemm_path):
        code = ("import sys; from repro.tools.repro_opt import main; "
                f"rc = main([{str(gemm_path)!r}, '--passes', "
                "'canonicalize,cse', '-o', os.devnull]); "
                "assert rc == 0, rc")
        rc, _, err, modules, _ = _probe(tmp_path, "exec", code)
        assert rc == 0, err
        assert not modules.intersection(COMPILE_ONLY_FORBIDDEN)


class TestPrimedReproRun:
    def test_a_front_hit_loads_no_pass_and_the_same_bytes_come_out(
            self, tmp_path, gemm_path):
        argv = ["run", str(gemm_path), *GEMM_ARGS, "--pipeline",
                "sycl-mlir", "--cache-dir", str(tmp_path / "cache")]
        cold = _probe(tmp_path, *argv)
        warm = _probe(tmp_path, *argv)
        assert cold[0] == 0, cold[2]
        assert "[tier: vector]" in cold[1]
        assert warm[:3] == cold[:3]

        # The empty cache took the slow path, passes and all ...
        assert {"repro.transforms.pass_manager",
                "repro.transforms.pipelines", "repro.transforms.licm",
                "repro.analysis.manager",
                "repro.target.conversions"} <= cold[3]
        # ... the primed one answered from the front tier.
        modules, lines = warm[3], warm[4]
        assert {name for name in modules
                if name.startswith("repro.transforms")} \
            <= FRONT_HIT_TRANSFORMS
        loaded = sorted(
            name for name in modules
            if name.startswith(("repro.analysis.", "repro.target"))
            or name in ("repro.interp.jit", "repro.tools.repro_opt",
                        "multiprocessing"))
        assert loaded == []
        assert lines <= FRONT_HIT_LINE_BUDGET
        assert lines < cold[4]


class TestTiersLoadWhenReached:
    def _stdout_without_tier(self, stdout):
        return [line.split(" [tier: ")[0] for line in stdout.splitlines()]

    def test_asking_for_the_jit_loads_the_emitter(self, tmp_path, gemm_path):
        argv = ["run", str(gemm_path), *GEMM_ARGS]
        jit = _probe(tmp_path, *argv, "--tier", "jit")
        interp = _probe(tmp_path, *argv, "--tier", "interp")
        assert jit[0] == interp[0] == 0, jit[2] + interp[2]
        assert "[tier: jit]" in jit[1] and "[tier: interp]" in interp[1]
        assert "repro.interp.jit" in jit[3]
        assert not interp[3].intersection(
            {"repro.interp.jit", "repro.interp.vectorize"})
        assert self._stdout_without_tier(jit[1]) \
            == self._stdout_without_tier(interp[1])

    def test_the_vector_tier_never_loads_the_jit(self, tmp_path, gemm_path):
        """The vector tier compiles its own executable: the JIT's emitter,
        ~1 500 lines a no-bytecode process would compile, stays unread."""
        argv = ["run", str(gemm_path), *GEMM_ARGS]
        vector = _probe(tmp_path, *argv, "--tier", "vector")
        interp = _probe(tmp_path, *argv, "--tier", "interp")
        assert vector[0] == interp[0] == 0, vector[2] + interp[2]
        assert "[tier: vector]" in vector[1]
        assert "repro.interp.vectorize" in vector[3]
        assert "repro.interp.jit" not in vector[3]
        assert self._stdout_without_tier(vector[1]) \
            == self._stdout_without_tier(interp[1])

    def test_a_divergent_kernel_reaches_the_jit_at_auto(
            self, tmp_path, divergent_path):
        argv = ["run", str(divergent_path), "--global-size", "4x4",
                "--arg", "idx=3", "--cost-report"]
        auto = _probe(tmp_path, *argv)
        interp = _probe(tmp_path, *argv, "--tier", "interp")
        assert auto[0] == interp[0] == 0, auto[2] + interp[2]
        assert "[tier: jit]" in auto[1]
        assert "repro.interp.jit" in auto[3]
        assert self._stdout_without_tier(auto[1]) \
            == self._stdout_without_tier(interp[1])
        # Same counters on both tiers (the remark is the vector tier's).
        report = [line for line in auto[2].splitlines()
                  if not line.startswith("repro-run: tier ")]
        assert report == interp[2].splitlines()

    def test_listing_tiers_and_a_typo_load_no_tier(self, tmp_path,
                                                   gemm_path):
        rc, out, _, modules, _ = _probe(tmp_path, "run", "--list-tiers")
        assert (rc, out.split()) == (0, ["auto", "interp", "jit", "vector"])
        assert not modules.intersection(
            {"repro.interp.jit", "repro.interp.vectorize", "numpy"})
        rc, _, err, modules, _ = _probe(
            tmp_path, "run", str(gemm_path), *GEMM_ARGS, "--tier", "cuda")
        assert rc == 2
        assert "unknown execution tier 'cuda' (available: auto, interp, " \
               "jit, vector)" in err
        assert "repro.interp.jit" not in modules


_FIRST_TOUCH = """
import sys, threading
import repro.analysis, repro.transforms
from repro.interp.engine import executor_for

sys.setswitchinterval(1e-6)
start = threading.Barrier(2)
seen = [[], []]

def touch(slot):
    start.wait(timeout=30)
    seen[slot] += [repro.transforms.PassManager,
                   repro.analysis.AliasAnalysis, executor_for("jit")]

threads = [threading.Thread(target=touch, args=(slot,)) for slot in (0, 1)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert len(seen[0]) == 3 and all(
    mine is theirs for mine, theirs in zip(*seen)), seen
from repro.transforms.pass_manager import PassManager
assert seen[0][0] is PassManager
"""


def test_concurrent_first_touch_resolves_to_one_object(tmp_path):
    rc, _, err, modules, _ = _probe(tmp_path, "exec", _FIRST_TOUCH)
    assert rc == 0, err
    assert "repro.interp.jit" in modules


# ---------------------------------------------------------------------------
# Pass registration does not ride on a package import
# ---------------------------------------------------------------------------

_WORKER_PAYLOAD = """
from repro.transforms.executor import _compile_work_unit
result = _compile_work_unit({
    "uid": 0, "label": "unit", "attempt": 1,
    "filename": "<unit>", "verify": True, "spec": "canonicalize,cse",
    "text": open(%r, encoding="utf-8").read()})
assert result["ok"], result
"""


class TestPassRegistryPopulatesItself:
    """With lazy package ``__init__``s nothing imports the pass modules
    as a side effect; every way into the registry loads them itself."""

    @pytest.mark.parametrize("snippet", [
        "from repro.transforms.pass_manager import lookup_pass\n"
        "assert lookup_pass('cse').pass_class.NAME == 'cse'\n"
        "assert lookup_pass('convert-scf-to-cf') is not None\n"
        "assert lookup_pass('no-such-pass') is None",
        "from repro.transforms.pass_manager import PASS_REGISTRATIONS\n"
        "assert {'cse', 'licm', 'lower-affine'} <= set(PASS_REGISTRATIONS)",
        "from repro.transforms.pipelines import parse_pass_pipeline\n"
        "manager = parse_pass_pipeline('canonicalize,licm')\n"
        "assert manager.to_spec() == "
        "'builtin.module(canonicalize,sycl-licm)'",
        "from repro.transforms.pipelines import check_pass_pipeline\n"
        "assert check_pass_pipeline('canonicalize,cse') == []\n"
        "(problem,) = check_pass_pipeline('canonicalize,csee')\n"
        "assert 'available passes: ' in problem.message\n"
        "assert 'convert-func-to-llvm' in problem.message",
        "from repro.transforms import available_passes\n"
        "assert {'cse', 'dce', 'lower-affine'} <= set(available_passes())",
    ], ids=["lookup_pass", "PASS_REGISTRATIONS", "parse_pass_pipeline",
            "check_pass_pipeline", "available_passes"])
    def test_from_a_fresh_interpreter(self, tmp_path, snippet):
        rc, _, err, _, _ = _probe(tmp_path, "exec", snippet)
        assert rc == 0, err

    def test_list_passes_prints_the_whole_registry(self, tmp_path):
        from repro.transforms import describe_registered_passes

        code = ("from repro.tools.repro_opt import main; "
                "code = main(['--list-passes'])")
        rc, out, err, _, _ = _probe(tmp_path, "exec", code)
        assert rc == 0, err
        # This process has long imported every pass module.
        assert out == describe_registered_passes() + "\n"

    def test_a_process_tier_worker_resolves_its_spec(self, tmp_path,
                                                     gemm_path):
        rc, _, err, _, _ = _probe(tmp_path, "exec",
                                  _WORKER_PAYLOAD % str(gemm_path))
        assert rc == 0, err
