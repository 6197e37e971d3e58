"""One compile session behind every front door: the error contract.

``repro-opt``, ``repro-run``, ``repro-lint``, the daemon's ``compile``
and ``execute`` and the ``--jobs`` worker all compile through
:class:`~repro.transforms.compile_cache.CompileSession` and only format
its outcome.  A table of inputs goes through every door: a parse error,
a verify error, a bad spec, a pass that raises, a pass that breaks the
IR, a front hit, a damaged front entry and an instrumented manager.
A pass that crashes (raises anything but ``ValueError``) is one row per
exception type.  Each row pins what the door answers — stderr text and
exit code, or the NDJSON ``kind`` — so the doors cannot drift apart
again.
"""

import builtins
import gc
import threading
from dataclasses import dataclass

import pytest

from repro.ir import Printer, parse_module
from repro.serve import CompileService, ReproServer, ServeClient, ServeError
from repro.tools import repro_lint, repro_opt, repro_run
from repro.transforms import (
    CompileCache,
    DiskCache,
    ModulePass,
    PassInstrumentation,
    PassOptions,
    parse_pass_pipeline,
)
from repro.transforms.compile_cache import FRONT_PREFIX, CompileSession
from repro.transforms.executor import _compile_work_unit
from repro.transforms.pass_manager import (
    _REGISTRATIONS,
    PassRegistration,
    lookup_pass,
)
from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS

from .helpers import build_listing1_function, wrap_in_module

GOOD = Printer().print_module(
    wrap_in_module(build_listing1_function()[0])) + "\n"
NOT_IR = '"builtin.module"() ({\n  "arith.nope"() : () -> ()\n}) : () -> ()\n'
#: Parses; an op after the terminator does not verify.
NOT_VERIFYING = (
    '"builtin.module"() ({\n  "func.func"() {function_type = () -> (),'
    ' sym_name = "f"} : () -> () ({\n    "func.return"() : () -> ()\n'
    '    "func.return"() : () -> ()\n  })\n}) : () -> ()\n')

PARSE = "parse error: line 2:28: unknown operation 'arith.nope'"
TERMINATOR = ":3:5: error: func.return: terminator must be the last"
UNKNOWN_PASS = "unknown pass 'no-such-pass'"
REFUSED = "test-raise refused the module"


class RaisingPass(ModulePass):
    """Refuses every module: a pass error at run time."""

    NAME = "test-raise"

    def run_on_module(self, module, report):
        raise ValueError(REFUSED)


class BreakingPass(ModulePass):
    """Leaves every function with a second terminator."""

    NAME = "test-break"

    def run_on_module(self, module, report):
        for function in list(module.walk()):
            if function.OPERATION_NAME == "func.func":
                block = function.regions[0].blocks[-1]
                block.append(block.terminator.clone({}))


class CrashingPass(ModulePass):
    """A pass bug: a ``KeyError`` (or the ``error=`` type) from inside
    the pipeline."""

    NAME = "test-crash"

    @dataclass
    class Options(PassOptions):
        error: str = "KeyError"

    def run_on_module(self, module, report):
        raise getattr(builtins, self.options.error)("no-such-key")


@pytest.fixture(autouse=True)
def test_passes(monkeypatch):
    lookup_pass("cse")  # the built-in registry first
    for cls in (RaisingPass, BreakingPass, CrashingPass):
        monkeypatch.setitem(_REGISTRATIONS, cls.NAME,
                            PassRegistration(cls.NAME, cls, cls.Options))


#: row -> (input text, pass pipeline spec).
ERROR_ROWS = {
    "parse": (NOT_IR, "canonicalize"),
    "verify": (NOT_VERIFYING, "canonicalize"),
    "bad-spec": (GOOD, "canonicalize,no-such-pass"),
    "pass-raises": (GOOD, "canonicalize,test-raise"),
    "pass-breaks-ir": (GOOD, "test-break"),
}

#: row -> what the crashing pass raised, as the doors quote it.
CRASHES = {
    f"pass-crashes-{error.__name__}":
        f"internal error in pass test-crash: {error.__name__}: "
        f"{error('no-such-key')}"
    for error in (KeyError, AttributeError, IndexError, AssertionError,
                  RecursionError)}
for row in CRASHES:
    ERROR_ROWS[row] = (GOOD, "canonicalize,test-crash{error=%s}"
                       % row.rsplit("-", 1)[1])

#: row -> (exit code, stderr start) of ``repro-opt`` and ``repro-lint``;
#: ``{tool}`` and ``{file}`` are filled in.  A bad spec is found before
#: the input is read, by the static checker.
CLI_ROWS = {
    "parse": (1, "{tool}: {file}: " + PARSE),
    "verify": (1, "{tool}: {file}: verification failed:\n{file}"
               + TERMINATOR),
    "bad-spec": (2, "{tool}: <pipeline>:1:14: error: " + UNKNOWN_PASS),
    "pass-raises": (2, "{tool}: {file}: " + REFUSED),
    "pass-breaks-ir": (1, "{tool}: {file}: verification failed:\n{file}:"),
    **{row: (2, "{tool}: {file}: " + message)
       for row, message in CRASHES.items()},
}

#: row -> (exit code, stderr start) of ``repro-run``: no file label, and
#: a bad ``--passes`` spec is reported when the pipeline is built.
RUN_ROWS = {
    "parse": (1, "repro-run: " + PARSE),
    "verify": (1, "repro-run: verification failed:\n{file}" + TERMINATOR),
    "bad-spec": (2, "repro-run: " + UNKNOWN_PASS),
    "pass-raises": (2, "repro-run: " + REFUSED),
    "pass-breaks-ir": (1, "repro-run: verification failed:\n{file}:"),
    **{row: (2, "repro-run: " + message) for row, message in CRASHES.items()},
}

#: row -> (NDJSON kind, error start) of the daemon's compile and execute.
SERVED_ROWS = {
    "parse": ("parse-error", PARSE),
    "verify": ("verify-error", "verification failed:\n<request>"
               + TERMINATOR),
    "bad-spec": ("pipeline-error", "<pipeline>:1:14: error: "
                 + UNKNOWN_PASS),
    "pass-raises": ("compile-error", REFUSED),
    "pass-breaks-ir": ("verify-error", "verification failed:\n<request>:"),
    **{row: ("internal-error", message) for row, message in CRASHES.items()},
}

#: row -> start of the worker's error diagnostic, and the pass it names.
WORKER_ROWS = {
    "parse": ("ParseError: line 2:28: unknown operation", None),
    "verify": ("VerificationError: func.return: terminator", None),
    "bad-spec": ("PipelineParseError: " + UNKNOWN_PASS, None),
    "pass-raises": ("ValueError: " + REFUSED, "test-raise"),
    "pass-breaks-ir": ("VerificationError: func.return: terminator",
                       "test-break"),
    **{row: (message.split(": ", 1)[1], "test-crash")
       for row, message in CRASHES.items()},
}


def _write(tmp_path, text):
    path = tmp_path / "in.mlir"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(capsys, main, argv):
    rc = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _request(service, method, text, spec, **fields):
    if method == "execute":
        fields.setdefault("entry", "foo")
    return service.handle({"id": 1, "method": method, "ir": text,
                           "passes": spec, **fields}, lambda event: None)


@pytest.mark.parametrize("row", sorted(ERROR_ROWS))
class TestErrorsAtEveryDoor:
    @pytest.mark.parametrize("tool, main", [
        ("repro-opt", repro_opt.main), ("repro-lint", repro_lint.main)])
    def test_batch_tools(self, tmp_path, capsys, row, tool, main):
        text, spec = ERROR_ROWS[row]
        path = _write(tmp_path, text)
        rc, out, err = _cli(capsys, main, [path, "--passes", spec])
        code, start = CLI_ROWS[row]
        assert (rc, out) == (code, "")
        assert err.startswith(start.format(tool=tool, file=path)), err
        if row in CRASHES:  # one line, no traceback
            assert err == start.format(tool=tool, file=path) + "\n"

    def test_repro_run(self, tmp_path, capsys, row):
        text, spec = ERROR_ROWS[row]
        path = _write(tmp_path, text)
        rc, out, err = _cli(capsys, repro_run.main,
                            [path, "--entry", "foo", "--passes", spec])
        code, start = RUN_ROWS[row]
        assert (rc, out) == (code, "")
        assert err.startswith(start.format(file=path)), err
        if row in CRASHES:
            assert err == start.format(file=path) + "\n"

    @pytest.mark.parametrize("method", ["compile", "execute"])
    def test_daemon(self, row, method):
        text, spec = ERROR_ROWS[row]
        service = CompileService()
        reply = _request(service, method, text, spec)
        kind, start = SERVED_ROWS[row]
        assert (reply["ok"], reply["kind"]) == (False, kind)
        assert reply["error"].startswith(start), reply["error"]
        # Broken pass output is never executed.
        assert service.executions == service.compiles == 0

    def test_worker(self, row):
        text, spec = ERROR_ROWS[row]
        result = _compile_work_unit({
            "uid": 3, "label": "unit", "attempt": 0, "filename": "in.mlir",
            "verify": True, "spec": spec, "text": text})
        message, pass_name = WORKER_ROWS[row]
        assert (result["ok"], result["transient"]) == (False, False)
        assert result["diagnostic"]["message"].startswith(message)
        assert result["pass_name"] == pass_name


@pytest.mark.parametrize("method", ["compile", "execute"])
def test_a_pass_bug_costs_the_daemon_one_reply(method):
    """Anything but a ``ValueError`` from a pass is answered as an
    ``internal-error`` naming the pass and the type; the connection
    serves the next request and the crashed request's manager is back
    in the pool."""
    server = ReproServer(("127.0.0.1", 0), CompileService())
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    crash = "builtin.module(canonicalize,test-crash)"
    try:
        with ServeClient(host=server.host, port=server.port,
                         timeout=30.0) as client:
            pools = []
            for _ in range(2):
                with pytest.raises(ServeError) as excinfo:
                    client.request(method, ir=GOOD, passes=crash,
                                   entry="foo")
                assert excinfo.value.kind == "internal-error"
                assert str(excinfo.value) == \
                    CRASHES["pass-crashes-KeyError"]
                pools.append(client.status()["pool"])
            assert pools[0] == pools[1] and pools[0][crash] == 1
            assert client.request(method, ir=GOOD, passes="canonicalize",
                                  entry="foo")["ok"]
            assert client.status()["errors"] == 2
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_a_pass_bug_in_a_jobs_batch_is_named_in_the_remark(tmp_path, capsys):
    """Each segment a worker crashed on fails on one line, and the
    worker's remark names the pass and where the module came from."""
    path = tmp_path / "batch.mlir"
    path.write_text(GOOD + "// -----\n" + GOOD.replace('"foo"', '"bar"'),
                    encoding="utf-8")
    rc, out, err = _cli(capsys, repro_opt.main, [
        path, "--split-input-file", "--jobs", "2", "--report",
        "--passes", "canonicalize,test-crash"])
    assert rc == 2 and out.count("FAILED") == 2
    crashed = sorted(line for line in err.splitlines()
                     if line.startswith("repro-opt: "))
    assert crashed == [f"repro-opt: {path} (segment {n}): "
                       + CRASHES["pass-crashes-KeyError"] for n in (1, 2)]
    assert f"worker error: {path}:1:1: error: KeyError: 'no-such-key' " \
        "(in pass 'test-crash' at pipeline position 1)" in err


@pytest.mark.parametrize("jobs", ("1", "2"), ids=("in-process", "worker"))
def test_a_second_segment_is_located_by_the_files_lines(tmp_path, capsys,
                                                         jobs):
    """A ``--split-input-file`` segment's diagnostics count the lines of
    the file, in-process and in the ``--jobs`` worker's remark."""
    path = tmp_path / "split.mlir"
    path.write_text(GOOD + "// -----\n" + NOT_VERIFYING, encoding="utf-8")
    # GOOD, the separator, then the segment; its third line is the one.
    located = f"{path}:{GOOD.count(chr(10)) + 4}:5: error: "
    rc, _, err = _cli(capsys, repro_opt.main, [
        path, "--split-input-file", "--jobs", jobs, "--report",
        "--passes", "canonicalize"])
    assert rc == 1
    assert f"\n{located}func.return: terminator must be the last" in err
    if jobs == "2":
        assert f"worker error: {located}VerificationError: func.return: " \
            "terminator must be the last" in err


SYCL_MLIR = NAMED_PIPELINE_SPECS["sycl-mlir"]
#: The front-key form of each door, computed by hand: what the printed
#: text depends on besides the input and the pipeline.
FORMS = {
    "repro-opt": ("repro-opt", False, False, False),
    "repro-run": ("repro-run", False, False),
    "served": ("served", True, False),
}


@pytest.fixture
def spy_cache(monkeypatch):
    """Every ``CompileCache`` a tool builds, in creation order."""
    from repro.transforms import compile_cache

    created = []

    class Recorded(compile_cache.CompileCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(compile_cache, "CompileCache", Recorded)
    monkeypatch.setattr(repro_opt, "CompileCache", Recorded)
    monkeypatch.setattr(repro_lint, "CompileCache", Recorded)
    return created


def _door(door, tmp_path, capsys, root, extra=()):
    """One compile of ``GOOD`` through ``sycl-mlir`` at ``door``:
    ``(exit code or kind, output, stderr or cached flag)``."""
    if door == "served":
        reply = _request(CompileService(cache_dir=str(root)), "compile",
                         GOOD, SYCL_MLIR, **dict(extra))
        return reply.get("kind", 0), reply["text"], reply["cached"]
    path = _write(tmp_path, GOOD)
    argv = [path, "--pipeline", "sycl-mlir", "--cache-dir", root, *extra]
    main = {"repro-opt": repro_opt.main, "repro-lint": repro_lint.main,
            "repro-run": repro_run.main}[door]
    if door == "repro-run":
        argv += ["--entry", "foo"]
    return _cli(capsys, main, argv)


class TestTheCacheAtEveryDoor:
    @pytest.mark.parametrize("door", ["repro-opt", "repro-run", "served"])
    def test_a_front_hit_answers_like_the_compile(
            self, tmp_path, capsys, spy_cache, door):
        root = tmp_path / "cache"
        cold = _door(door, tmp_path, capsys, root)
        warm = _door(door, tmp_path, capsys, root)
        assert cold[0] == 0 and warm[:2] == cold[:2]
        if door == "served":
            assert (cold[2], warm[2]) == (False, True)
        else:
            assert warm[2] == cold[2]
            assert spy_cache[-1].front.stats.hits == 1
        front = (FRONT_PREFIX + CompileCache.front_key(
            GOOD, SYCL_MLIR, *FORMS[door]), SYCL_MLIR)
        assert DiskCache(root).load(front) is not None

    def test_lint_and_execute_stay_on_the_second_level(
            self, tmp_path, capsys, spy_cache):
        root = tmp_path / "cache"
        for _ in range(2):
            assert _door("repro-lint", tmp_path, capsys, root)[0] == 0
        assert spy_cache[-1].front.stats.lookups == 0
        assert spy_cache[-1].disk.stats.hits == 1
        service = CompileService(cache_dir=str(root))
        for _ in range(2):
            assert _request(service, "execute", GOOD, SYCL_MLIR)["ok"]
        described = service.cache.describe()
        assert described["front"]["hits"] + \
            described["front"]["misses"] == 0
        assert described["hits"] == 2

    @pytest.mark.parametrize("door", ["repro-opt", "repro-run", "served"])
    def test_a_damaged_front_entry_recovers(self, tmp_path, capsys,
                                            spy_cache, door):
        root = tmp_path / "cache"
        cold = _door(door, tmp_path, capsys, root)
        path = DiskCache(root).path_for((FRONT_PREFIX + CompileCache.front_key(
            GOOD, SYCL_MLIR, *FORMS[door]), SYCL_MLIR))
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        if door == "served":
            service = CompileService(cache_dir=str(root))
            reply = _request(service, "compile", GOOD, SYCL_MLIR)
            # The second level answered from disk, and recorded again.
            assert reply["text"] == cold[1] and reply["cached"]
            cache = service.cache
        else:
            assert _door(door, tmp_path, capsys, root) == cold
            cache = spy_cache[-1]
        assert cache.disk.stats.corrupt_recoveries == 1
        assert cache.front.stats.hits == 0
        assert DiskCache(root).load(
            (FRONT_PREFIX + CompileCache.front_key(
                GOOD, SYCL_MLIR, *FORMS[door]), SYCL_MLIR)) is not None

    def test_an_instrumented_manager_bypasses_the_cache(
            self, tmp_path, capsys):
        root = tmp_path / "cache"
        # repro-opt builds no cache for an observed compile ...
        for _ in range(2):
            rc, _, err = _door("repro-opt", tmp_path, capsys, root,
                               ["--verify-each", "--report"])
            assert rc == 0 and "compile cache:" not in err
        assert len(DiskCache(root)) == 0
        # ... the daemon's progress requests skip both key levels ...
        service = CompileService()
        for _ in range(2):
            reply = _request(service, "compile", GOOD, SYCL_MLIR,
                             progress=True)
            assert reply["ok"] and not reply["cached"]
        assert service.cache.describe()["front"]["entries"] == 0
        # ... and so does any session whose manager is observed.
        manager = parse_pass_pipeline(SYCL_MLIR)
        manager.add_instrumentation(PassInstrumentation())
        cache = CompileCache()
        session = CompileSession(manager, cache=cache)
        for _ in range(2):
            outcome = session.compile(GOOD, "in.mlir", FORMS["served"])
            assert outcome.kind is None and not outcome.cached
        assert len(cache) == len(cache.front) == 0


def test_the_worker_prints_what_repro_opt_prints(tmp_path, capsys):
    result = _compile_work_unit({
        "uid": 0, "label": "unit", "attempt": 0, "filename": "in.mlir",
        "verify": True, "spec": SYCL_MLIR, "text": GOOD})
    assert result["ok"] and result["statistics"]
    rc, out, _ = _cli(capsys, repro_opt.main,
                      [_write(tmp_path, GOOD), "--pipeline", "sycl-mlir"])
    assert (rc, result["text"]) == (0, out)


class TestTheOutcome:
    def test_errors_carry_their_location(self):
        session = CompileSession(parse_pass_pipeline("canonicalize"))
        parse = session.compile(NOT_IR, "a.mlir")
        assert (parse.kind, parse.exit_code) == ("parse", 1)
        assert parse.location.describe() == "a.mlir:2:28"
        verify = session.compile(NOT_VERIFYING, "b.mlir")
        assert (verify.kind, verify.exit_code) == ("verify", 1)
        assert verify.location.describe() == "b.mlir:3:5"
        assert verify.module is not None
        refused = CompileSession(
            parse_pass_pipeline("test-raise")).compile(GOOD, "c.mlir")
        assert (refused.kind, refused.exit_code) == ("compile", 2)
        assert refused.message == REFUSED
        assert refused.location.filename == "c.mlir"

    def test_a_front_hit_builds_no_pass_manager(self):
        cache = CompileCache()
        CompileSession(lambda: parse_pass_pipeline(SYCL_MLIR),
                       spec=SYCL_MLIR, cache=cache).compile(
            GOOD, "in.mlir", FORMS["served"])

        def no_manager():
            raise AssertionError("a front hit builds no pass manager")

        session = CompileSession(no_manager, spec=SYCL_MLIR, cache=cache)
        outcome = session.compile(GOOD, "in.mlir", FORMS["served"])
        assert outcome.cached and outcome.module is None
        assert session.manager is None


def _instance_dicts(module):
    """Ops of ``module`` holding an instance ``__dict__`` (``attributes``
    is the one dict a slot holds)."""
    return [op for op in module.walk()
            if any(type(referent) is dict and referent is not op.attributes
                   for referent in gc.get_referents(op))]


class TestCloneReadsNoInstanceDict:
    def test_cloning_a_parsed_module_creates_no_dict(self):
        module = parse_module(GOOD)
        clone = module.clone({})
        assert _instance_dicts(module) == _instance_dicts(clone) == []
        assert Printer().print_module(clone) == \
            Printer().print_module(module)

    def test_an_unregistered_op_keeps_its_name(self):
        text = ('"builtin.module"() ({\n  "test.widget"() {size = 3 : i64}'
                ' : () -> ()\n}) : () -> ()')
        module = parse_module(text, allow_unregistered=True)
        clone = module.clone({})
        (widget,) = clone.regions[0].blocks[0].operations
        assert widget.OPERATION_NAME == "test.widget"
        printed = Printer().print_module(clone)
        assert printed == Printer().print_module(module)
        assert '"test.widget"() {size = 3 : i64}' in printed
