"""Self-test of the end-to-end benchmark (collected by the tier-1 run).

Checks the harness, not the system's speed: a ``--smoke`` suite passes,
every name is well-formed and matches ``BENCHMARK.json``, exact counts
repeat, a wrong reference is caught, and the trace covers the scenario.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT = ("code_ops", "dyn_ops", "dyn_bytes", "ops_ratio_dpcpp",
         "bytes_ratio_dpcpp")

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def smoke(tmp_path, *extra):
    out = tmp_path / "bench-e2e.json"
    completed = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out), *extra],
        capture_output=True, text=True, cwd=REPO_ROOT)
    results = json.loads(out.read_text()) if out.exists() else None
    return completed, results


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    completed, results = smoke(tmp_path_factory.mktemp("e2e"))
    assert completed.returncode == 0, completed.stderr[-2000:]
    return results


def test_smoke_suite_passes_on_every_workload(suite):
    assert sorted(suite["workloads"]) == sorted(
        name for name, _ in metrics.WORKLOADS)
    for name, report in suite["workloads"].items():
        assert report["failed"] == 0, (name, report["problems"])
        assert report["attempted"] > 0
        assert report["fail_share"] == 0.0


def test_names_are_well_formed_and_match_the_manifest(suite):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest == metrics.manifest()
    listed = [m["name"] for m in manifest["end_to_end"]] \
        + [m["name"] for m in manifest["per_layer"]]
    assert len(listed) == len(set(listed))
    assert "setup_s" in listed
    for name in listed + [w["name"] for w in manifest["workloads"]]:
        assert NAME.match(name), name
    for report in suite["workloads"].values():
        assert sorted(report["values"]) == sorted(listed)
        for row in list(report["rows"]) + list(report["programs"]):
            assert NAME.match(row), row


def test_exact_counts_repeat(suite, tmp_path):
    completed, again = smoke(tmp_path, "--only", "compile_kernels")
    assert completed.returncode == 0, completed.stderr[-2000:]
    first = suite["workloads"]["compile_kernels"]["values"]
    second = again["workloads"]["compile_kernels"]["values"]
    for name in EXACT:
        assert first[name] == second[name], name
        assert first[name] > 0
    # Somewhere in the compiler an iteration order depends on object
    # addresses: the call count moves by a few hundred in a million.
    assert first["py_calls"] == pytest.approx(second["py_calls"], rel=2e-3)


def test_trace_covers_the_scenario(suite):
    for name, report in suite["workloads"].items():
        assert report["values"]["trace.coverage"] >= 0.95, name


def test_wrong_reference_is_caught(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import programs
    import run

    genuine = programs.vec_add

    def off_by_one(*args, **kwargs):
        program = genuine(*args, **kwargs)
        reference = program.reference
        program.reference = lambda arrays: {
            name: value + 1.0 for name, value in reference(arrays).items()}
        return program

    monkeypatch.setattr(programs, "vec_add", off_by_one)
    out = tmp_path / "bench-e2e.json"
    status = run.main(["--smoke", "--only", "exec_heavy",
                       "--out", str(out)])
    report = json.loads(out.read_text())["workloads"]["exec_heavy"]
    assert status != 0
    assert report["fail_share"] > 0
    assert any("vec_add" in problem for problem in report["problems"])
