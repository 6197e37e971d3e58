"""The compile daemon: protocol, concurrency, and fault behaviour.

The server under test is hosted in-process on an ephemeral port (the
subprocess lifecycle — SIGTERM/Ctrl-C exit codes — is covered in
``tests/test_fault_tolerance.py`` with the other CLI signal contracts).
The load-bearing assertions: N concurrent clients get results
byte-identical to a serial one-shot compile, a bad request never takes
the daemon down, and injected ``serve.request`` transients surface as
retryable errors the client's retry loop absorbs — never as wrong
output.
"""

import json
import threading
from pathlib import Path

import pytest

import repro.ir
from repro.faults import fault_plan, install_fault_plan
from repro.ir import Printer
from repro.serve import server as server_module
from repro.serve import (
    CompileService,
    ProtocolError,
    ReproServer,
    ServeClient,
    ServeError,
    read_message,
    write_message,
)
from repro.transforms import (
    build_named_pipeline,
    dump_pass_pipeline,
    parse_pass_pipeline,
)
from repro.transforms.compile_cache import FRONT_PREFIX

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"


@pytest.fixture(autouse=True)
def _clean_fault_state():
    yield
    install_fault_plan(None)


def _module_text():
    module = wrap_in_module(*[build()[0] for build in (
        build_listing1_function,
        build_listing2_function,
        build_listing3_function,
    )])
    return Printer().print_module(module)


def _one_shot(text):
    """What ``repro-opt`` would print for the same input (plus the
    trailing newline both emit)."""
    from repro.ir import parse_module

    module = parse_module(text, filename="<request>")
    manager = parse_pass_pipeline(PIPELINE)
    manager.run(module)
    return Printer().print_module(module) + "\n"


@pytest.fixture()
def server():
    service = CompileService()
    instance = ReproServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=instance.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def _client(server, **kwargs):
    return ServeClient(host=server.host, port=server.port, timeout=30.0,
                       **kwargs)


class TestProtocol:
    def test_ping(self, server):
        with _client(server) as client:
            response = client.ping()
        assert response["pong"] is True
        assert response["protocol"] == 1

    def test_unknown_method_is_an_error_not_a_disconnect(self, server):
        with _client(server) as client:
            with pytest.raises(ServeError, match="unknown method"):
                client.request("frobnicate")
            assert client.ping()["pong"] is True

    def test_framing_error_reported_then_connection_dropped(self, server):
        import socket

        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            wfile.write(b"this is not json\n")
            wfile.flush()
            response = read_message(rfile)
            assert response["ok"] is False
            assert response["kind"] == "protocol-error"
            assert read_message(rfile) is None  # server hung up

    def test_requests_are_id_tagged(self, server):
        import socket

        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            write_message(wfile, {"id": "my-tag", "method": "ping"})
            response = read_message(rfile)
        assert response["id"] == "my-tag"

    def test_message_round_trip_helpers(self):
        import io

        buffer = io.BytesIO()
        write_message(buffer, {"a": 1})
        buffer.seek(0)
        assert read_message(buffer) == {"a": 1}
        assert read_message(buffer) is None
        with pytest.raises(ProtocolError):
            read_message(io.BytesIO(b"[1, 2]\n"))


class TestCompile:
    def test_byte_identical_to_one_shot(self, server):
        text = _module_text()
        with _client(server) as client:
            done = client.compile(text, PIPELINE)
        assert done["text"] == _one_shot(text)
        assert done["cached"] is False

    def test_second_compile_is_cached(self, server):
        text = _module_text()
        with _client(server) as client:
            first = client.compile(text, PIPELINE)
            second = client.compile(text, PIPELINE)
        assert second["cached"] is True
        assert second["text"] == first["text"]
        assert second["statistics"] is not None

    def test_located_compile_prints_its_own_lines(self, server):
        """Two texts that differ only by a leading comment share a
        second-level entry; printed locations must still name each
        request's own lines, and a repeat is a front hit."""
        from repro.ir import parse_module

        text = _module_text()
        shifted = "// a leading comment\n" + text

        def one_shot(source):
            module = parse_module(source, filename="<request>")
            parse_pass_pipeline(PIPELINE).run(module)
            return Printer(print_locations=True).print_module(module) + "\n"

        with _client(server) as client:
            first = client.compile(text, PIPELINE, print_locations=True)
            second = client.compile(shifted, PIPELINE, print_locations=True)
            repeat = client.compile(shifted, PIPELINE, print_locations=True)
        assert first["text"] == one_shot(text)
        assert second["text"] == one_shot(shifted) != first["text"]
        assert second["cached"] is False
        assert repeat["cached"] is True and repeat["text"] == second["text"]

    def test_progress_events_stream(self, server):
        text = _module_text()
        events = []
        with _client(server) as client:
            done = client.compile(text, PIPELINE, progress=events.append)
        assert done["text"] == _one_shot(text)
        phases = {event["phase"] for event in events}
        assert phases == {"pass-begin", "pass-end"}
        names = {event["pass"] for event in events}
        assert names == {"canonicalize", "cse", "dce"}
        # Streaming bypasses the cache (the documented trade).
        assert done["cached"] is False

    def test_parse_error_keeps_daemon_alive(self, server):
        with _client(server) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile("definitely not IR {", PIPELINE)
            assert excinfo.value.kind == "parse-error"
            assert client.ping()["pong"] is True

    def test_bad_pipeline_spec_is_a_request_error(self, server):
        with _client(server) as client:
            with pytest.raises(ServeError) as excinfo:
                client.compile(_module_text(), "no-such-pass(")
            assert excinfo.value.kind == "pipeline-error"

    def test_missing_fields_rejected(self, server):
        with _client(server) as client:
            with pytest.raises(ServeError, match="no IR"):
                client.request("compile", passes=PIPELINE)
            with pytest.raises(ServeError, match="no pipeline"):
                client.request("compile", ir=_module_text())

    def test_manager_pool_reuses_managers(self, server):
        text = _module_text()
        with _client(server) as client:
            client.compile(text, PIPELINE)
            client.compile(text, PIPELINE)
            status = client.status()
        assert status["pool"] == {PIPELINE: 1}

    def test_respelled_specs_share_one_pooled_manager(self, monkeypatch):
        """The pool used to be looked up by the request's spelling but
        filed under the canonical one: every request with a non-canonical
        spec re-parsed the pipeline and left one more manager behind."""
        service = CompileService()
        text = _module_text()
        respelled = "builtin.module(func.func(canonicalize, cse,dce))"
        parses = []
        real = server_module.parse_pass_pipeline
        monkeypatch.setattr(server_module, "parse_pass_pipeline",
                            lambda spec: parses.append(spec) or real(spec))
        replies = [service.handle(
            {"id": n, "method": "compile", "ir": text, "passes": respelled,
             "progress": True},  # keeps the front tier out of the way
            lambda event: None) for n in range(5)]
        assert all(reply["ok"] for reply in replies)
        assert service.pool_sizes() == {PIPELINE: 1}
        assert parses == [respelled]
        assert replies[0]["text"] == _one_shot(text)

    def test_invalid_specs_are_reported_and_never_remembered(self):
        service = CompileService()
        for _ in range(2):
            reply = service.handle(
                {"id": 1, "method": "compile", "ir": _module_text(),
                 "passes": "canonicalize,no-such-pass"},
                lambda event: None)
            assert reply["kind"] == "pipeline-error"
            assert "no-such-pass" in reply["error"]
        assert not service._canonical and service.pool_sizes() == {}

    def test_spelling_memo_is_bounded(self, monkeypatch):
        service = CompileService()
        monkeypatch.setattr(service, "MAX_SPELLINGS", 3)
        for blanks in range(1, 6):
            assert service._canonical_spec(
                "canonicalize," + " " * blanks + "cse") == \
                service._canonical_spec("canonicalize,cse")
        assert len(service._canonical) == 3
        assert len(service.pool_sizes()) == 1

    def test_request_analyses_do_not_outlive_the_request(self, monkeypatch):
        """Analyses are anchored at op *objects*: kept in the daemon's
        manager they could never hit again and pinned every module."""
        import gc
        import weakref

        service = CompileService()
        seen = []
        real = repro.ir.parse_module

        def tracking(text, **kwargs):
            module = real(text, **kwargs)
            seen.append(weakref.ref(module))
            return module

        monkeypatch.setattr("repro.ir.parse_module", tracking)
        # The paper's pipeline on a GEMM: Detect Reduction rebuilds the
        # k-loop with ``C`` as an ``iter_arg``, erasing a loop that
        # analyses were anchored at, which eviction by ancestry (all the
        # shared manager had) cannot find any more.
        text = Printer().print_module(build_gemm_module()[0])
        spec = dump_pass_pipeline(build_named_pipeline("sycl-mlir"))
        for name in ("a", "b", "c"):
            reply = service.handle(
                {"id": 1, "method": "compile", "passes": spec,
                 "ir": text.replace("gemm", f"gemm_{name}")},
                lambda event: None)
            assert reply["ok"], reply
        gc.collect()
        assert len(seen) == 3 and all(ref() is None for ref in seen)
        described = service.analysis_manager.describe()
        assert described["entries"] == 0 and described["misses"] > 0


    def test_request_threads_share_one_analysis_manager(self):
        """Every pooled manager uses the daemon's analysis manager:
        concurrent requests lose no counter update, keep no entry and
        reply as a serial run does."""
        import sys

        text = Printer().print_module(build_gemm_module()[0])
        spec = dump_pass_pipeline(build_named_pipeline("sycl-mlir"))

        def request(service, name):
            return service.handle(
                {"id": 1, "method": "compile", "passes": spec,
                 "ir": text.replace("gemm", f"gemm_{name}")},
                lambda event: None)

        serial = CompileService()
        expected = {name: request(serial, name)["text"]
                    for name in range(12)}
        per_request = serial.analysis_manager.describe()["misses"] // 12
        assert per_request > 0

        service = CompileService()
        replies, errors = {}, []

        def worker(names):
            try:
                for name in names:
                    replies[name] = request(service, name)["text"]
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(range(n, 12, 4),))
                   for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert replies == expected
        described = service.analysis_manager.describe()
        assert described["misses"] == 12 * per_request
        assert described["entries"] == 0


class TestExecute:
    def test_gemm_reply_carries_the_engine_buffers_as_lists(self, server):
        from repro.interp import ExecutionEngine

        module, specs = build_gemm_module(size=4, work_group=2)
        spec = specs["gemm"]
        with _client(server) as client:
            reply = client.request(
                "execute", ir=Printer().print_module(module), entry="gemm",
                global_size=list(spec.global_size),
                local_size=list(spec.local_size),
                buffers={name: list(shape)
                         for name, shape in spec.buffers.items()})
            assert client.status()["executions"] == 1
        expected = ExecutionEngine(module).run("gemm", spec)
        assert reply["tier"] == expected.tier
        assert reply["counters"] == expected.counters
        assert sorted(reply["memory"]) == ["A", "B", "C"]
        for name, values in reply["memory"].items():
            assert all(type(value) is float for value in values), name
            # f32 -> Python float -> JSON -> float is exact.
            assert values == expected.memory[name].tolist(), name


class TestStatus:
    def test_status_reports_cache_and_counters(self, server):
        text = _module_text()
        with _client(server) as client:
            client.compile(text, PIPELINE)
            client.compile(text, PIPELINE)
            status = client.status()
        assert status["compiles"] == 2
        assert status["cache"]["hits"] == 1
        assert status["cache"]["misses"] == 1
        assert status["uptime_seconds"] >= 0
        assert "analyses" in status
        # The second compile was answered by the front tier; the top
        # level counts it once, like any other hit.
        assert status["cache"]["front"] == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
            "recovered": 0}

    def test_status_includes_disk_tier_when_configured(self, tmp_path):
        service = CompileService(cache_dir=str(tmp_path))
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            with ServeClient(host=server.host, port=server.port) as client:
                client.compile(_module_text(), PIPELINE)
                status = client.status()
            disk = status["cache"]["disk"]
            # One compile persists at both key levels: the optimized
            # module and the recorded reply (the "front:" entry).
            assert disk["stores"] == 2
            assert disk["bytes_on_disk"] > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestConcurrency:
    def test_concurrent_clients_byte_identical(self, server):
        """The acceptance bar: >= 4 concurrent clients, every result
        byte-identical to the serial one-shot compile."""
        text = _module_text()
        expected = _one_shot(text)
        results = {}
        errors = []

        def hammer(index):
            try:
                with _client(server) as client:
                    for _ in range(3):
                        done = client.compile(text, PIPELINE)
                        assert done["text"] == expected
                    results[index] = True
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append((index, exc))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(results) == 6

    def test_concurrent_distinct_pipelines(self, server):
        text = _module_text()
        specs = [
            "builtin.module(func.func(canonicalize))",
            "builtin.module(func.func(cse))",
            "builtin.module(func.func(canonicalize,cse,dce))",
            "builtin.module(func.func(dce))",
        ]
        outcomes = {}
        errors = []

        def compile_with(spec):
            try:
                with _client(server) as client:
                    outcomes[spec] = client.compile(text, spec)["text"]
            except Exception as exc:  # noqa: BLE001
                errors.append((spec, exc))

        threads = [threading.Thread(target=compile_with, args=(spec,))
                   for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(outcomes) == len(specs)
        # dce alone and the full pipeline genuinely differ from each
        # other on at least one listing, so outputs are not all equal.
        assert len(set(outcomes.values())) > 1


class TestFaults:
    def test_transient_request_fault_is_retryable(self, server):
        text = _module_text()
        with _client(server, max_retries=2, backoff=0.01) as client:
            with fault_plan("serve.request@compile=transient"):
                done = client.compile(text, PIPELINE)
        assert done["text"] == _one_shot(text)

    def test_transient_fault_without_retries_surfaces(self, server):
        text = _module_text()
        with _client(server, max_retries=0) as client:
            with fault_plan("serve.request@compile=transient"):
                with pytest.raises(ServeError) as excinfo:
                    client.compile(text, PIPELINE)
        assert excinfo.value.retryable is True
        assert excinfo.value.kind == "transient"

    def test_corrupt_request_fault_rejected_not_wrong(self, server):
        text = _module_text()
        with _client(server, max_retries=2, backoff=0.01) as client:
            with fault_plan("serve.request@compile=corrupt"):
                done = client.compile(text, PIPELINE)
        assert done["text"] == _one_shot(text)

    def test_disk_read_corruption_served_through_daemon(self, tmp_path):
        """A daemon over a poisoned disk store recompiles cold and
        still answers correctly."""
        text = _module_text()
        service = CompileService(cache_dir=str(tmp_path))
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            with ServeClient(host=server.host, port=server.port) as client:
                client.compile(text, PIPELINE)
            # Mangle the persisted front entry (the one the next compile
            # reads first) behind the daemon's back, then defeat the
            # in-memory tier so the next compile reads disk.
            victim, payload = next(
                (path, payload) for path in Path(tmp_path).glob("*/*.json")
                for payload in [json.loads(path.read_text())]
                if payload["fingerprint"].startswith(FRONT_PREFIX))
            payload["text"] = payload["text"][:-10]
            victim.write_text(json.dumps(payload))
            service.cache.clear()
            with ServeClient(host=server.host, port=server.port) as client:
                done = client.compile(text, PIPELINE)
                status = client.status()
            assert done["text"] == _one_shot(text)
            assert status["cache"]["disk"]["corrupt_recoveries"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestShutdown:
    def test_shutdown_request_stops_server(self):
        service = CompileService()
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        with ServeClient(host=server.host, port=server.port) as client:
            response = client.shutdown()
        assert response["shutdown"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()
