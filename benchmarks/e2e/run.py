"""End-to-end benchmark: SYCL-dialect text in, checked buffers out.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload exec_heavy --seed 11 \\
        --seconds 12 --trace 0

prints a report to stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) of ``BENCHMARK.json``.

The whole suite (every workload, untraced then traced, one child process
at a time)::

    python3 benchmarks/e2e/run.py --seed 11 --out bench-e2e.json
    python3 benchmarks/e2e/run.py --smoke            # correctness only
    python3 benchmarks/e2e/run.py --only cold_cli
    python3 benchmarks/e2e/run.py --compare A.json B.json

Exit status is non-zero when any output mismatched its reference, any
operation failed, or ``--compare`` found a regression.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")

import measure  # noqa: E402
import metrics  # noqa: E402

#: Extra set-up measurements per run (fresh processes); with the run's
#: own that makes three, and ``setup_s`` is their median.
SETUP_PROBES = 2
TRACE_FILE = "bench-trace.json"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_workloads():
    """Import the workload module (and with it ``repro``)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"benchmarks/e2e: no system under test at {SRC}")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def workload_class(workloads, name: str):
    classes = {cls.name: cls for cls in (
        workloads.CompileKernels, workloads.CompileLarge,
        workloads.ExecHeavy, workloads.ColdCli, workloads.ServeMix)}
    return classes[name]


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def run_workload(args) -> Dict[str, object]:
    """Set up, sample for ``args.seconds``, count, check; the report.

    ``--trace 0`` yields the end-to-end values, ``--trace 1`` the
    per-layer values; a smoke run, which is not about time, yields both.
    """
    start_load = measure.load_average()
    origin = time.perf_counter() if args.smoke else PROCESS_START
    tracing = bool(args.trace or args.smoke)
    end_to_end = not args.trace or args.smoke
    spare_cpus = measure.pin_to_one_cpu()
    workloads = load_workloads()
    recorder = measure.SpanRecorder()
    workload = workload_class(workloads, args.workload)(
        args.seed, args.smoke, recorder, spare_cpus)
    try:
        workload.setup()
        setup_raw = time.perf_counter() - origin
        setup_s = measure.normalise(setup_raw, measure.calibrate(7))
        if args.setup_probe:
            return {"setup_s": setup_s, "setup_raw_s": setup_raw}

        # Warm-up: one discarded sample fills lazy caches and finishes
        # lazy imports, then the counted pass.  (A smoke run checks
        # outputs, not time: its one traced sample is also its warm-up.)
        warmup = measure.Sampler(recorder)
        warm_start = time.perf_counter()
        if not args.smoke:
            workload.sample(warmup)
        warmup_s = measure.normalise(time.perf_counter() - warm_start,
                                     measure.calibrate())
        calls = 0
        if end_to_end and not args.smoke:
            calls = workload.count_calls()

        traced = measure.Sampler(recorder)
        plain = traced if args.smoke else measure.Sampler(recorder)
        deadline = time.perf_counter() + args.seconds
        turn = 0
        while True:
            sampler = traced if tracing and turn % 2 == 0 else plain
            recorder.enabled = sampler is traced
            sample_start = time.perf_counter()
            sampler.begin_sample()
            workload.sample(sampler)
            sampler.end_sample()
            recorder.enabled = False
            turn += 1
            # Stop where the measured time lands nearest to the budget:
            # another sample only if at least half of it still fits.
            now = time.perf_counter()
            enough = turn >= (2 if tracing else 1)
            if args.smoke or (enough and
                              now + (now - sample_start) / 2 >= deadline):
                break
        peak_rss = workload.peak_rss_mb()
        if args.smoke:
            calls = workload.count_calls()

        timings = workload.timings(plain)
        report: Dict[str, object] = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke,
            "environment": dict(measure.environment(),
                                load_average_start=start_load),
            "rows": {row: measure.summarize(samples)
                     for row, samples in plain.rows.items()},
            "programs": workload.program_rows(plain),
            "spreads": workload.spreads(plain),
        }
        workload.check()
        values: Dict[str, float] = {}
        if tracing:
            values.update(layer_values(workload, plain, traced, timings))
            values["setup.warmup_s"] = warmup_s
            report["spans"] = recorder.export()
        if end_to_end:
            values.update(timings)
            values.update(workload.counts())
            values["py_calls"] = calls
            values["peak_rss_mb"] = peak_rss
    finally:
        workload.close()
    if end_to_end:
        values["setup_s"] = median_setup(args, setup_s)

    samplers = [warmup, traced] + ([] if plain is traced else [plain])
    attempted = sum(s.attempted for s in samplers) + workload.checked
    failed = sum(s.failed for s in samplers) + len(workload.problems)
    unit_spread = plain.unit_spread()
    report.update({
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted,
        "problems": (workload.problems
                     + [e for s in samplers for e in s.errors])[:20],
        "calibration": {"unit_median_s": statistics.median(plain.units),
                        "spread": unit_spread,
                        "noisy": unit_spread > measure.NOISY_CAL_SPREAD},
        "values": values,
    })
    report["environment"]["load_average_end"] = measure.load_average()
    return report


def layer_values(workload, plain, traced, timings) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    spans = traced.layer_medians()
    values = {name: 0.0 for name, _, _ in metrics.per_layer()}
    for name, seconds in spans.items():
        key = f"{name}_s"
        if key in values:
            values[key] += seconds
    # A cache hit is the warm operation's pipeline stage.
    values["transforms.cache.mem_hit_s"] = spans.get(
        "warm.transforms.cache", 0.0)
    values.update(workload.layers(traced))
    values["frontend.build_s"] = measure.normalise(workload.frontend_s,
                                                   measure.calibrate())
    traced_timings = workload.timings(traced)
    values["trace.coverage"] = traced.coverage()
    # (A smoke run's single batch may hold no cold request at all.)
    values["trace.overhead_ratio"] = \
        traced_timings["cold_s"] / timings["cold_s"] \
        if timings["cold_s"] else 1.0
    values["raw.cold_s"] = workload.raw_seconds(plain, "cold.")
    values["raw.warm_s"] = workload.raw_seconds(plain, "warm.")
    values["cal.unit_s"] = statistics.median(plain.units)
    values["cal.spread"] = plain.unit_spread()
    return values


def median_setup(args, own: float) -> float:
    """Median of this process's set-up time and of fresh probes'."""
    samples = [own]
    if not args.smoke:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-probe"],
                capture_output=True, text=True, env=child_environment())
            if probe.returncode != 0:
                log(probe.stderr)
                raise SystemExit(f"set-up probe exited {probe.returncode}")
            samples.append(json.loads(
                probe.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def contract_line(report: Dict[str, object], trace: int) -> str:
    """The driver's result line: every metric of the manifest, by name."""
    values = report["values"]
    if trace:
        listed = [(name, unit) for name, unit, _ in metrics.per_layer()]
    else:
        listed = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in listed},
    })


def print_report(report: Dict[str, object], trace: int) -> None:
    units = {name: unit for name, unit, _ in metrics.per_layer()}
    units.update({name: unit for name, unit, _, _ in metrics.END_TO_END})
    calibration = report["calibration"]
    log(f"== {report['workload']} seed={report['seed']} "
        f"trace={trace} attempted={report['attempted']} "
        f"failed={report['failed']}"
        + ("  [noisy calibration]" if calibration["noisy"] else ""))
    for name, value in report["values"].items():
        log(f"  {name:<52} {value:>16.6g} {units.get(name, '')}")
    for problem in report["problems"]:
        log(f"  problem: {problem}")


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def run_child(workload: str, args, trace: int, seconds: float) -> dict:
    """One workload in a child process; its full report."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    report_path = os.path.join(HERE, ".work", f"report-{workload}.json")
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--report", report_path]
    completed = subprocess.run(command, env=child_environment(),
                               stdout=subprocess.DEVNULL)
    if not os.path.exists(report_path):
        raise SystemExit(f"{workload}: child exited "
                         f"{completed.returncode} without a report")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(report_path)
    return report


def run_suite(args) -> int:
    """Every workload, one at a time; a child process each (two: the
    traced run is a separate one) unless this is a smoke run."""
    names = args.only or [name for name, _ in metrics.WORKLOADS]
    results = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    traces = {}
    failed = 0
    for name in names:
        if args.smoke:
            report = run_workload(argparse.Namespace(
                workload=name, seed=args.seed, seconds=0.0, trace=1,
                smoke=True, setup_probe=False))
        else:
            report = run_child(name, args, 0, args.seconds)
            traced = run_child(name, args, 1, args.seconds)
            report["values"].update(traced["values"])
            report["spans"] = traced["spans"]
            for key in ("attempted", "failed"):
                report[key] += traced[key]
            report["problems"] += traced["problems"]
            report["fail_share"] = report["failed"] / report["attempted"]
        print_report(report, 1)
        traces[name] = report.pop("spans", [])
        failed += report["failed"]
        results["workloads"][name] = report
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    with open(os.path.join(os.path.dirname(os.path.abspath(args.out)),
                           TRACE_FILE), "w", encoding="utf-8") as handle:
        json.dump(traces, handle)
    log(f"wrote {args.out} and {TRACE_FILE}; failed operations: {failed}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Apply the bounds of the manifest to two suite results (A is the
    parent, B the change); 1 when any metric regressed.  A timing whose
    samples spread wider than its bound inside either run is
    *unresolved*, not unchanged."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    regressed = 0
    for workload in sorted(set(a) & set(b)):
        for name, unit, better, bound in metrics.END_TO_END:
            old = a[workload]["values"][name]
            new = b[workload]["values"][name]
            change = (new - old) / old
            worse = change if better == "lower" else -change
            wide = max(a[workload]["spreads"].get(name, 0.0),
                       b[workload]["spreads"].get(name, 0.0))
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif wide > bound:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            print(f"{workload:<16} {name:<18} {old:>14.6g} -> {new:>14.6g} "
                  f"{unit:<6} {change:+8.2%} (bound {bound:.1%})  {verdict}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the SYCL-MLIR reproduction.")
    parser.add_argument("--workload",
                        choices=[name for name, _ in metrics.WORKLOADS],
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=metrics.manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one sample per row at tiny sizes: "
                             "correctness only")
    parser.add_argument("--only", action="append",
                        choices=[name for name, _ in metrics.WORKLOADS],
                        help="suite: run only this workload (repeatable)")
    parser.add_argument("--out", default="bench-e2e.json",
                        help="suite: where the results go")
    parser.add_argument("--report", help="also write the full report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Exact call counts need a fixed hash seed; start again with one.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  child_environment())
    if args.workload is None:
        return run_suite(args)
    report = run_workload(args)
    if args.setup_probe:
        print(json.dumps(report))
        return 0
    print_report(report, args.trace)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    print(contract_line(report, args.trace), flush=True)
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
