"""The compile cache's two key levels: the byte-addressed front tier and
its link to the printed-form (second-level) key.

The load-bearing properties: the two levels never disagree (equal front
key implies byte-equal output; inputs that only *print* the same share
the second-level key and nothing else); a front hit is indistinguishable
from the second-level hit it stands in for, and builds no module; every
fault on the front path degrades to the slow path; and the content
token behind ``CompileCache.memo_key_for`` returns exactly the key a
forced re-print returns, whatever happened to the module.
"""

import random
import sys
import threading

import pytest

from repro.dialects import arith
from repro.faults import fault_plan, install_fault_plan
from repro.ir import Printer, i64, parse_module
from repro.ir.printer import Printer as PrinterClass
from repro.serve import CompileService
from repro.testing.generate import GeneratorConfig, generate_module
from repro.transforms import (
    CompileCache,
    DiskCache,
    build_named_pipeline,
    dump_pass_pipeline,
    parse_pass_pipeline,
    shipped_pipeline_names,
)
from repro.transforms.compile_cache import FRONT_PREFIX
from repro.transforms.pipeline_specs import NAMED_PIPELINE_SPECS

from .helpers import (
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"
#: The same pipeline in a spelling ``to_spec()`` does not produce.
RESPELLED_PIPELINE = "builtin.module(func.func(canonicalize, cse,dce))"
FORM = ("served", True, False)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    yield
    install_fault_plan(None)


def _texts():
    """The three paper listings and a few generated modules, printed."""
    modules = [wrap_in_module(build()[0]) for build in (
        build_listing1_function, build_listing2_function,
        build_listing3_function)]
    modules += [generate_module(GeneratorConfig(
        num_ops=60, dead_chain_depth=4, num_kernels=1, seed=seed))
        for seed in range(4)]
    return [Printer().print_module(module) for module in modules]


def _respell(text):
    """Different bytes, same module: a comment and trailing blanks."""
    return "// respelled\n" + text.replace("\n", "  \n")


def _one_shot(text, spec=PIPELINE):
    module = parse_module(text, filename="<request>")
    manager = parse_pass_pipeline(spec)
    manager.run(module)
    return Printer().print_module(module) + "\n"


def _compile(service, text, spec=PIPELINE, **fields):
    reply = service.handle(
        {"id": 7, "method": "compile", "ir": text, "passes": spec, **fields},
        lambda event: None)
    assert reply["ok"], reply
    return reply


class TestTwoLevelsAgree:
    def test_equal_front_key_means_byte_equal_output(self):
        service = CompileService()
        outputs = {}
        texts = _texts()
        for text in texts + [_respell(text) for text in texts] + texts:
            key = CompileCache.front_key(text, PIPELINE, *FORM)
            outputs.setdefault(key, set()).add(
                _compile(service, text)["text"])
        assert len(outputs) == 2 * len(texts)
        assert all(len(texts_out) == 1 for texts_out in outputs.values())

    def test_respelled_input_differs_in_front_key_only(self):
        for text in _texts():
            respelled = _respell(text)
            assert Printer().print_module(parse_module(respelled)) == text
            assert CompileCache.front_key(text, PIPELINE, *FORM) != \
                CompileCache.front_key(respelled, PIPELINE, *FORM)
            assert CompileCache.key_for(parse_module(text), PIPELINE) == \
                CompileCache.key_for(parse_module(respelled), PIPELINE)

    def test_respelled_input_is_a_second_level_hit(self):
        service = CompileService()
        text = _texts()[2]
        first = _compile(service, text)
        respelled = _compile(service, _respell(text))
        assert not first["cached"] and respelled["cached"]
        assert respelled["text"] == first["text"]
        front = service.cache.describe()["front"]
        assert (front["hits"], front["misses"], front["entries"]) == (0, 2, 2)

    def test_any_one_token_edit_changes_the_front_key(self):
        rng = random.Random(18)
        for text in _texts():
            key = CompileCache.front_key(text, PIPELINE, *FORM)
            edits = {text + " ", " " + text, text.replace("i64", "i32", 1)}
            for _ in range(20):
                at = rng.randrange(len(text))
                edits.add(text[:at] + ("0" if text[at] != "0" else "1")
                          + text[at + 1:])
            edits.discard(text)
            assert all(CompileCache.front_key(edit, PIPELINE, *FORM) != key
                       for edit in edits)
            for spec in (PIPELINE.replace("cse", "licm"),
                         PIPELINE.replace(",dce", ""),
                         PIPELINE.replace("canonicalize",
                                          "canonicalize{max-iterations=3}")):
                assert CompileCache.front_key(text, spec, *FORM) != key
            for form in (("served", False, False), ("served", True, True),
                         ("repro-opt", True, False), ()):
                assert CompileCache.front_key(text, PIPELINE, *form) != key

    def test_key_parts_cannot_run_into_each_other(self):
        assert CompileCache.front_key("ab", "c") != \
            CompileCache.front_key("a", "bc")


class TestFrontHitStandsInForASecondLevelHit:
    def test_front_hit_reply_equals_second_level_hit_reply(self):
        service = CompileService()
        text = _texts()[1]
        miss = _compile(service, text)
        front_hit = _compile(service, text)
        service.cache.front.clear()  # force the second level to answer
        second_level_hit = _compile(service, text)
        assert front_hit == second_level_hit
        assert front_hit["cached"] and not miss["cached"]
        assert front_hit["text"] == miss["text"] == _one_shot(text)
        assert ["compile-cache", "hits", 1] in front_hit["statistics"]
        described = service.cache.describe()
        # Every request counted once at the top level, whoever answered.
        assert (described["hits"], described["misses"]) == (2, 1)
        assert described["front"]["hits"] == 1

    def test_front_hit_builds_no_module(self, monkeypatch):
        service = CompileService()
        text = _texts()[0]
        expected = _compile(service, text)["text"]

        def no_parse(*args, **kwargs):
            raise AssertionError("a front hit never parses")

        monkeypatch.setattr("repro.ir.parse_module", no_parse)
        assert _compile(service, text)["text"] == expected
        assert service.pool_sizes() == {PIPELINE: 1}

    def test_verify_and_print_locations_never_share_an_entry(self):
        service = CompileService()
        text = _texts()[0]
        variants = [{}, {"verify": False}, {"print_locations": True},
                    {"verify": False, "print_locations": True}]
        first = [_compile(service, text, **fields) for fields in variants]
        # One compile, then a second-level hit: none may be answered from
        # an entry recorded under other flags, and a located compile
        # takes no second-level hit (the template's locations would name
        # the text that filled it).
        assert service.cache.describe()["front"]["hits"] == 0
        assert [reply["cached"] for reply in first] == \
            [False, True, False, False]
        again = [_compile(service, text, **fields) for fields in variants]
        assert service.cache.describe()["front"]["hits"] == 4
        for before, after, fields in zip(first, again, variants):
            assert after["text"] == before["text"]
            assert ("loc(" in after["text"]) == \
                bool(fields.get("print_locations"))

    def test_progress_requests_bypass_the_tier(self):
        service = CompileService()
        text = _texts()[0]
        _compile(service, text)
        events = []
        reply = service.handle(
            {"id": 1, "method": "compile", "ir": text, "passes": PIPELINE,
             "progress": True}, events.append)
        assert reply["ok"] and not reply["cached"]
        assert any(event["phase"] == "pass-begin" for event in events)
        front = service.cache.describe()["front"]
        assert (front["hits"], front["misses"], front["entries"]) == (0, 1, 1)

    def test_error_replies_are_never_stored(self):
        service = CompileService()
        broken = _texts()[0].replace("func.return", "func.retrun", 1)
        for _ in range(2):
            reply = service.handle(
                {"id": 1, "method": "compile", "ir": broken,
                 "passes": PIPELINE}, lambda event: None)
            assert not reply["ok"] and reply["kind"] == "parse-error"
        front = service.cache.describe()["front"]
        assert (front["hits"], front["entries"]) == (0, 0)

    def test_lru_bound_is_honoured(self):
        service = CompileService(max_entries=2)
        texts = _texts()[:3]
        for text in texts:
            _compile(service, text)
        front = service.cache.describe()["front"]
        assert (front["entries"], front["evictions"]) == (2, 1)
        # The oldest was evicted at both levels: a full miss again.
        assert not _compile(service, texts[0])["cached"]
        assert _compile(service, texts[2])["cached"]
        assert service.cache.describe()["front"]["entries"] == 2

    def test_front_hits_keep_the_second_level_entry_recent(self):
        """Hot modules are answered by the front tier; their templates
        must not age out behind it (``execute`` still needs them)."""
        service = CompileService(max_entries=2)
        hot, *others = _texts()[:3]
        _compile(service, hot)
        for text in others:
            _compile(service, hot)       # front hit
            _compile(service, text)      # miss: evicts the older template
        hot_key = CompileCache.key_for(parse_module(hot), PIPELINE)
        assert service.cache.lookup(hot_key) is not None

    def test_clear_empties_both_levels(self):
        service = CompileService()
        _compile(service, _texts()[0])
        service.cache.clear()
        assert not _compile(service, _texts()[0])["cached"]


class TestRestart:
    def test_restarted_service_answers_from_the_front_tier(
            self, tmp_path, monkeypatch):
        text = _texts()[2]
        expected = _compile(CompileService(cache_dir=str(tmp_path)),
                            text)["text"]
        restarted = CompileService(cache_dir=str(tmp_path))

        def no_parse(*args, **kwargs):
            raise AssertionError("the front tier answers without parsing")

        monkeypatch.setattr("repro.ir.parse_module", no_parse)
        # A re-spelled spec resolves to the same front key.
        reply = _compile(restarted, text, spec=RESPELLED_PIPELINE)
        assert reply["cached"] and reply["text"] == expected
        described = restarted.cache.describe()
        assert described["front"]["hits"] == 1
        assert described["disk"]["hits"] == 1
        # Promoted: the next one does not touch the disk.
        _compile(restarted, text)
        assert restarted.cache.describe()["disk"]["hits"] == 1

    def test_front_entry_names_its_second_level_key(self, tmp_path):
        text = _texts()[2]
        _compile(CompileService(cache_dir=str(tmp_path)), text)
        restarted = CompileService(cache_dir=str(tmp_path))
        entry = restarted.cache.front_lookup(
            CompileCache.front_key(text, PIPELINE, *FORM), PIPELINE)
        assert entry.key == CompileCache.key_for(parse_module(text), PIPELINE)


class TestFaultsDegradeToTheSlowPath:
    def test_corrupt_front_hit_is_evicted_and_counted(self):
        service = CompileService()
        text = _texts()[1]
        expected = _compile(service, text)["text"]
        with fault_plan("compile-cache.hit=corrupt"):
            reply = _compile(service, text)
        # The fault fired on the front hit; the second level answered.
        assert reply["text"] == expected and reply["cached"]
        front = service.cache.describe()["front"]
        assert (front["recovered"], front["hits"]) == (1, 0)
        # ... and recorded the reply again.
        assert front["entries"] == 1
        assert _compile(service, text)["text"] == expected
        assert service.cache.describe()["front"]["hits"] == 1

    def test_transient_fault_on_the_hit_path_is_a_miss_not_an_error(self):
        service = CompileService()
        text = _texts()[1]
        expected = _compile(service, text)["text"]
        with fault_plan("compile-cache.hit:*=transient"):
            assert _compile(service, text)["text"] == expected
        assert service.cache.describe()["front"]["recovered"] == 1

    @pytest.mark.parametrize("mangle", [
        lambda raw: raw[: len(raw) // 2],
        lambda raw: raw.replace('"resolved_fingerprint": "',
                                '"resolved_fingerprint": 7, "was": "'),
    ], ids=["truncated", "not-a-front-entry"])
    def test_mangled_front_disk_entry_recovers(self, tmp_path, mangle):
        text = _texts()[1]
        first = CompileService(cache_dir=str(tmp_path))
        expected = _compile(first, text)["text"]
        path = first.cache.disk.path_for(
            (FRONT_PREFIX + CompileCache.front_key(text, PIPELINE, *FORM),
             PIPELINE))
        path.write_text(mangle(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        restarted = CompileService(cache_dir=str(tmp_path))
        reply = _compile(restarted, text)
        # Slow path: parsed, then served by the second level's disk entry.
        assert reply["text"] == expected and reply["cached"]
        described = restarted.cache.describe()
        assert described["disk"]["corrupt_recoveries"] == 1
        assert described["front"]["hits"] == 0
        # Write-through repaired the entry.
        healed = CompileService(cache_dir=str(tmp_path))
        assert _compile(healed, text)["text"] == expected
        assert healed.cache.describe()["front"]["hits"] == 1


    def test_a_hit_found_unusable_later_is_recovered_at_both_tiers(
            self, tmp_path):
        """``front_recover``: what a caller that *parses* a hit (repro-run)
        does when the recorded text turns out not to be a module."""
        text = _texts()[1]
        service = CompileService(cache_dir=str(tmp_path))
        _compile(service, text)
        cache = CompileCache(disk=DiskCache(tmp_path))
        key = CompileCache.front_key(text, PIPELINE, *FORM)
        assert cache.front_lookup(key, PIPELINE) is not None
        cache.front_recover(key, PIPELINE)
        described = cache.describe()
        # The request is still counted once: a miss, not a hit.
        assert described["hits"] == 0
        assert (described["front"]["hits"], described["front"]["misses"],
                described["front"]["recovered"],
                described["front"]["entries"]) == (0, 1, 1, 0)
        assert described["disk"]["corrupt_recoveries"] == 1
        assert CompileCache(disk=DiskCache(tmp_path)).front_lookup(
            key, PIPELINE) is None


class TestNamedPipelineSpecs:
    """The leaf table ``repro-run`` computes its front key from without
    importing a pass must be what building the pipeline would dump."""

    def test_the_table_is_the_dump_of_every_shipped_pipeline(self):
        dumped = {name: dump_pass_pipeline(build_named_pipeline(name))
                  for name in shipped_pipeline_names()}
        assert NAMED_PIPELINE_SPECS == dumped

    def test_every_entry_is_its_own_canonical_form(self):
        for name, spec in NAMED_PIPELINE_SPECS.items():
            manager = parse_pass_pipeline(spec)
            assert dump_pass_pipeline(manager) == spec, name


class TestAnEmptyCacheIsStillACache:
    def test_truthiness_does_not_depend_on_the_contents(self, tmp_path,
                                                        monkeypatch):
        cache = CompileCache()
        disk = DiskCache(tmp_path)
        assert len(cache) == 0 and len(disk) == 0
        assert cache and (cache or None) is cache
        # ... and asking costs no directory walk.
        monkeypatch.setattr(
            DiskCache, "_entries_by_age",
            lambda self: pytest.fail("truthiness walked the store"))
        assert disk and (disk or None) is disk


class TestConcurrency:
    def test_two_threads_hit_miss_evict_stay_byte_identical(self):
        service = CompileService(max_entries=2)
        texts = _texts()[:4]
        expected = {text: _one_shot(text) for text in texts}
        wrong = []

        def hammer(seed):
            rng = random.Random(seed)
            for _ in range(60):
                text = rng.choice(texts)
                spec = rng.choice((PIPELINE, RESPELLED_PIPELINE))
                if _compile(service, text, spec=spec)["text"] \
                        != expected[text]:
                    wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in (1, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        described = service.cache.describe()
        front = described["front"]
        assert front["entries"] <= 2 and described["entries"] <= 2
        assert front["hits"] > 0 and front["evictions"] > 0
        # Every request was counted exactly once at the top level.
        assert described["hits"] + described["misses"] == 120
        assert service.pool_sizes().keys() == {PIPELINE}


class TestMemoKeyFor:
    """``memo_key_for`` against ``key_for``, the forced re-print."""

    def _agree(self, cache, module):
        assert cache.memo_key_for(module, PIPELINE) == \
            CompileCache.key_for(module, PIPELINE)

    def test_same_key_after_every_kind_of_edit(self):
        cache = CompileCache()
        text = _texts()[2]
        module = parse_module(text)
        self._agree(cache, module)                       # parse
        function = module.regions[0].blocks[0].first_op
        ops = list(function.walk(include_self=False))
        ops[0].set_attr("note", arith.ConstantOp.build(1, i64())
                        .attributes["value"])
        self._agree(cache, module)                       # set_attr
        module = parse_module(text)
        function = module.regions[0].blocks[0].first_op
        block = function.regions[0].blocks[0]
        block.insert_before(block.first_op,
                            arith.ConstantOp.build(41, i64()))
        self._agree(cache, module)                       # op insertion
        module = parse_module(text)
        user = next(op for op in module.walk()
                    if len(op.operands) >= 2
                    and op.operands[0].type == op.operands[1].type
                    and op.operands[0] is not op.operands[1])
        user.set_operand(0, user.operands[1])
        self._agree(cache, module)                       # operand rewire
        module = parse_module(text)
        self._agree(cache, module)
        producer = next(op for op in module.walk() if op.results)
        producer.results[0].name_hint = "renamed"
        assert "%renamed" in Printer().print_module(module)
        self._agree(cache, module)                       # renamed hint

    def test_same_key_after_a_splice(self):
        cache = CompileCache()
        text = _texts()[2]
        manager = parse_pass_pipeline(PIPELINE)
        manager.cache = cache
        manager.run(parse_module(text))                  # miss: stores
        module = parse_module(text)
        report = manager.run(module)                     # hit: splices
        assert report.get_statistic("compile-cache", "hits") == 1
        self._agree(cache, module)
        self._agree(cache, module)                       # memoized now
        function = module.regions[0].blocks[0].first_op
        function.set_attr("note", function.attributes["sym_name"])
        self._agree(cache, module)                       # ... and stale

    def test_an_unchanged_module_is_printed_once_per_content(
            self, monkeypatch):
        cache = CompileCache()
        text = _texts()[0]
        prints = []
        real = PrinterClass.print_module

        def counting(self, module):
            prints.append(module)
            return real(self, module)

        monkeypatch.setattr(PrinterClass, "print_module", counting)
        keys = {cache.memo_key_for(parse_module(text), PIPELINE)
                for _ in range(3)}
        assert len(keys) == 1 and len(prints) == 1
        # Different bytes are a different stamp, even when they print
        # the same: one more print, the same key.
        keys.add(cache.memo_key_for(parse_module(_respell(text)), PIPELINE))
        assert len(keys) == 1 and len(prints) == 2

    def test_a_mutation_elsewhere_keeps_the_token(self, monkeypatch):
        cache = CompileCache()
        text = _texts()[0]
        module = parse_module(text)
        key = cache.memo_key_for(module, PIPELINE)
        other = parse_module(_texts()[1])
        function = other.regions[0].blocks[0].first_op
        function.set_attr("note", function.attributes["sym_name"])
        prints = []
        real = PrinterClass.print_module
        monkeypatch.setattr(
            PrinterClass, "print_module",
            lambda self, op: prints.append(op) or real(self, op))
        assert cache.memo_key_for(module, PIPELINE) == key
        assert prints == []

    def test_a_rename_changes_the_key(self):
        cache = CompileCache()
        module = parse_module(_texts()[2])
        key = cache.memo_key_for(module, PIPELINE)
        producer = next(op for op in module.walk() if op.results)
        producer.results[0].name_hint = "renamed"
        renamed = cache.memo_key_for(module, PIPELINE)
        assert renamed != key
        assert renamed == CompileCache.key_for(module, PIPELINE)
