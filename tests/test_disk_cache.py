"""The persistent disk cache: round trips, invalidation, recovery.

The contract under test (``docs/serving.md``): a compile served
warm-from-disk is byte-identical to a cold compile in *any* process; a
changed input or changed pipeline spec can never hit (content
addressing); and no corruption — torn writes, mangled entries, injected
read faults, unwritable disks — can ever make a compile fail or produce
wrong output (it degrades to a cold recompile that repairs the store).
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import fault_plan, install_fault_plan
from repro.ir import Printer
from repro.transforms import (
    CompileCache,
    DiskCache,
    parse_pass_pipeline,
)
from repro.transforms.disk_cache import ENTRY_VERSION

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"
OTHER_PIPELINE = "builtin.module(func.func(canonicalize,cse))"


@pytest.fixture(autouse=True)
def _clean_fault_state():
    yield
    install_fault_plan(None)


def _module(*builders):
    builders = builders or (build_listing1_function,
                            build_listing2_function,
                            build_listing3_function)
    return wrap_in_module(*[build()[0] for build in builders])


def _compile(cache, spec=PIPELINE, *builders):
    """One compile through a fresh manager wired to ``cache``; returns
    the printed result (the bytes a CLI would emit)."""
    module = _module(*builders)
    manager = parse_pass_pipeline(spec)
    manager.cache = cache
    manager.run(module)
    return Printer().print_module(module)


def _entry_files(root):
    return sorted(Path(root).glob("*/*.json"))


class TestTwoTierReadThrough:
    def test_warm_from_disk_is_byte_identical(self, tmp_path):
        # Two CompileCache instances over one disk root model two
        # *processes*: the second has cold memory and hits only disk.
        cold = _compile(CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        warm = _compile(CompileCache(disk=disk))
        assert warm == cold
        assert disk.stats.hits == 1
        assert disk.stats.misses == 0

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        _compile(CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        _compile(cache)
        _compile(cache)
        # Second lookup through the same cache hits memory, not disk;
        # both lookups are hits of the cache (memory or disk answered).
        assert disk.stats.hits == 1
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)

    def test_a_disk_hit_is_a_hit_of_the_cache(self, tmp_path, capsys):
        """One counting rule: a lookup the disk answered is a hit, so the
        cache's counters agree with the report's ``compile-cache``
        statistic and the ``--report`` summary line."""
        from repro.tools.repro_opt import main as repro_opt

        _compile(CompileCache(disk=DiskCache(tmp_path)))
        cache = CompileCache(disk=DiskCache(tmp_path))
        manager = parse_pass_pipeline(PIPELINE)
        manager.cache = cache
        report = manager.run(_module())
        assert report.get_statistic("compile-cache", "hits") == 1
        assert cache.describe()["hits"] == 1
        assert cache.describe()["misses"] == 0
        assert cache.stats.hit_rate() == 1.0

        source = tmp_path / "in.mlir"
        source.write_text(Printer().print_module(_module()) + "\n")
        argv = [str(source), "--passes", PIPELINE, "--lint", "--report",
                "--cache-dir", str(tmp_path / "cli"), "-o",
                str(tmp_path / "out.mlir")]
        for _ in range(2):
            assert repro_opt(argv) == 0
        err = capsys.readouterr().err
        assert "compile-cache: hits = 1" in err
        assert err.rstrip().count("compile cache: 1 hits, 0 misses") == 1

    def test_hit_carries_statistics_and_remarks(self, tmp_path):
        module = _module()
        manager = parse_pass_pipeline(PIPELINE)
        manager.cache = CompileCache(disk=DiskCache(tmp_path))
        cold_report = manager.run(module)
        cold_stats = {(s.pass_name, s.name): s.value
                      for s in cold_report.statistics
                      if s.pass_name != "compile-cache"}

        warm_manager = parse_pass_pipeline(PIPELINE)
        warm_manager.cache = CompileCache(disk=DiskCache(tmp_path))
        warm_report = warm_manager.run(_module())
        warm_stats = {(s.pass_name, s.name): s.value
                      for s in warm_report.statistics
                      if s.pass_name != "compile-cache"}
        assert warm_stats == cold_stats
        assert warm_report.get_statistic("compile-cache", "hits") == 1

    def test_write_through_persists_one_entry(self, tmp_path):
        disk = DiskCache(tmp_path)
        _compile(CompileCache(disk=disk))
        files = _entry_files(tmp_path)
        assert len(files) == 1
        # Sharded layout: <root>/<2-hex>/<digest>.json
        assert files[0].parent.name == files[0].stem[:2]
        payload = json.loads(files[0].read_text())
        assert payload["version"] == ENTRY_VERSION


class TestInvalidation:
    def test_changed_input_misses(self, tmp_path):
        _compile(CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        _compile(CompileCache(disk=disk), PIPELINE,
                 build_listing1_function)  # different module
        assert disk.stats.hits == 0
        assert disk.stats.misses == 1

    def test_changed_pipeline_misses(self, tmp_path):
        _compile(CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        _compile(CompileCache(disk=disk), OTHER_PIPELINE)
        assert disk.stats.hits == 0
        assert disk.stats.misses == 1

    def test_poisoned_entry_for_changed_input_cannot_hit(self, tmp_path):
        """Cache poisoning: rebind an existing entry's file to the key
        of a *different* compile — the key-field check must reject it."""
        _compile(CompileCache(disk=DiskCache(tmp_path)))
        victim = _entry_files(tmp_path)[0]
        other_key = DiskCache.digest_for(("not-the-fingerprint", PIPELINE))
        stolen = victim.parent.parent / other_key[:2] / f"{other_key}.json"
        stolen.parent.mkdir(parents=True, exist_ok=True)
        stolen.write_bytes(victim.read_bytes())

        disk = DiskCache(tmp_path)
        assert disk.load(("not-the-fingerprint", PIPELINE)) is None
        assert disk.stats.corrupt_recoveries == 1
        assert not stolen.exists()  # evicted on the spot


class TestCorruptionRecovery:
    def test_mangled_text_recovers_cold(self, tmp_path):
        cold = _compile(CompileCache(disk=DiskCache(tmp_path)))
        victim = _entry_files(tmp_path)[0]
        payload = json.loads(victim.read_text())
        payload["text"] = payload["text"].replace("func", "fnuc", 1)
        victim.write_text(json.dumps(payload))

        disk = DiskCache(tmp_path)
        out = _compile(CompileCache(disk=disk))
        assert out == cold  # recompiled, not served corrupt
        assert disk.stats.corrupt_recoveries == 1
        assert disk.stats.stores == 1  # the cold run repaired the store

    def test_torn_write_truncated_json_recovers(self, tmp_path):
        cold = _compile(CompileCache(disk=DiskCache(tmp_path)))
        victim = _entry_files(tmp_path)[0]
        victim.write_text(victim.read_text()[: victim.stat().st_size // 2])

        disk = DiskCache(tmp_path)
        assert _compile(CompileCache(disk=disk)) == cold
        assert disk.stats.misses == 1
        assert disk.stats.corrupt_recoveries == 1  # evicted, not skipped

    def test_wrong_version_recovers(self, tmp_path):
        cold = _compile(CompileCache(disk=DiskCache(tmp_path)))
        victim = _entry_files(tmp_path)[0]
        payload = json.loads(victim.read_text())
        payload["version"] = ENTRY_VERSION + 1
        victim.write_text(json.dumps(payload))

        disk = DiskCache(tmp_path)
        assert _compile(CompileCache(disk=disk)) == cold
        assert disk.stats.corrupt_recoveries == 1

    def test_injected_read_corruption_recovers(self, tmp_path):
        cold = _compile(CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        with fault_plan("disk-cache.read=corrupt"):
            assert _compile(CompileCache(disk=disk)) == cold
        assert disk.stats.corrupt_recoveries == 1
        # The recovery evicted and the cold run re-stored the entry.
        assert len(_entry_files(tmp_path)) == 1

    def test_injected_transient_read_degrades_to_miss(self, tmp_path):
        cold = _compile(CompileCache(disk=DiskCache(tmp_path)))
        disk = DiskCache(tmp_path)
        with fault_plan("disk-cache.read=transient"):
            assert _compile(CompileCache(disk=disk)) == cold
        assert disk.stats.misses == 1
        assert disk.stats.corrupt_recoveries == 0

    def test_injected_write_failure_never_fails_compile(self, tmp_path):
        disk = DiskCache(tmp_path)
        with fault_plan("disk-cache.write:*=transient"):
            out = _compile(CompileCache(disk=disk))
        assert out
        assert disk.stats.write_errors == 1
        assert _entry_files(tmp_path) == []

    def test_unwritable_root_never_fails_compile(self, tmp_path):
        root = tmp_path / "cache"
        disk = DiskCache(root)
        os.chmod(root, stat.S_IRUSR | stat.S_IXUSR)
        try:
            if os.access(root, os.W_OK):  # running as root: no-op chmod
                pytest.skip("cannot drop write permission (euid 0)")
            out = _compile(CompileCache(disk=disk))
            assert out
            assert disk.stats.write_errors == 1
        finally:
            os.chmod(root, stat.S_IRWXU)


class TestEviction:
    def test_lru_eviction_respects_byte_budget(self, tmp_path):
        disk = DiskCache(tmp_path, max_bytes=1)  # everything over budget
        cache = CompileCache(disk=disk)
        _compile(cache, PIPELINE, build_listing1_function)
        _compile(cache, PIPELINE, build_listing2_function)
        # Each store sweeps; at most the just-written entry survives
        # transiently and the next sweep removes it too.
        assert len(_entry_files(tmp_path)) <= 1
        assert disk.stats.evictions >= 1

    def test_hit_refreshes_recency(self, tmp_path):
        disk = DiskCache(tmp_path, max_bytes=None)
        cache = CompileCache(disk=disk)
        _compile(cache, PIPELINE, build_listing1_function)
        _compile(cache, PIPELINE, build_listing2_function)
        entries = _entry_files(tmp_path)
        assert len(entries) == 2
        for path in entries:  # age both entries far into the past
            old = path.stat().st_mtime - 1000
            os.utime(path, (old, old))
        aged = {path: path.stat().st_mtime for path in entries}
        # A fresh-process hit on listing1's entry must bump only it.
        warm_disk = DiskCache(tmp_path, max_bytes=None)
        _compile(CompileCache(disk=warm_disk), PIPELINE,
                 build_listing1_function)
        assert warm_disk.stats.hits == 1
        refreshed = [path for path in entries
                     if path.stat().st_mtime > aged[path] + 500]
        assert len(refreshed) == 1

    @staticmethod
    def _store(disk, name, age):
        """One ~1 KB entry whose mtime lies ``age`` seconds back."""
        key = (name, "spec")
        assert disk.store(key, name + " " * 1000)
        path = disk.path_for(key)
        past = path.stat().st_mtime - age
        os.utime(path, (past, past))
        return path

    def test_running_total_evicts_oldest_first(self, tmp_path):
        disk = DiskCache(tmp_path, max_bytes=4500)  # room for three
        paths = [self._store(disk, f"entry{n}", age=1000 - 100 * n)
                 for n in range(3)]
        assert disk.stats.evictions == 0 and all(p.exists() for p in paths)
        paths.append(self._store(disk, "entry3", age=0))
        # Over budget: the oldest goes, nothing else.
        assert [p.exists() for p in paths] == [False, True, True, True]
        assert disk.stats.evictions == 1
        assert disk.bytes_on_disk() <= 4500
        # A hit refreshes recency: entry1 outlives the colder entry2.
        assert disk.load(("entry1", "spec")) is not None
        paths.append(self._store(disk, "entry4", age=0))
        assert [p.exists() for p in paths] == \
            [False, True, False, True, True]

    def test_stores_under_budget_do_not_rescan(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path, max_bytes=1_000_000)
        scans = []
        real = DiskCache._entries_by_age
        monkeypatch.setattr(DiskCache, "_entries_by_age",
                            lambda self: scans.append(1) or real(self))
        for n in range(5):
            self._store(disk, f"entry{n}", age=0)
        assert len(scans) == 1  # the first store's, never again
        assert disk._total == disk.bytes_on_disk()
        assert disk.describe()["entries"] == 5

    def test_sweep_sees_what_another_process_wrote(self, tmp_path):
        """The running total is one process's view; the sweep is not:
        files another writer added are counted and, being older, are
        the first to go."""
        disk = DiskCache(tmp_path, max_bytes=4500)
        mine = [self._store(disk, f"mine{n}", age=100 - n)
                for n in range(2)]
        other = DiskCache(tmp_path, max_bytes=None)  # "another process"
        theirs = [self._store(other, "theirs0", age=1000),
                  self._store(other, "theirs1", age=50)]
        stray = theirs[0].parent / f".{theirs[0].name}.99999.tmp"
        stray.write_text("x" * 1000)  # a writer that died mid-store
        os.utime(stray, (1, 1))
        mine.append(self._store(disk, "mine2", age=0))
        assert disk.bytes_on_disk() > 4500  # over budget, unnoticed ...
        assert disk.stats.evictions == 0
        mine.append(self._store(disk, "mine3", age=0))
        # ... until this process's own total crosses it; then oldest
        # first, whoever wrote it, temp files included.
        assert disk.bytes_on_disk() <= 4500
        assert not stray.exists()
        assert [p.exists() for p in theirs] == [False, True]
        assert [p.exists() for p in mine] == [False, False, True, True]
        assert disk._total == disk.bytes_on_disk()

    def test_explicit_evict(self, tmp_path):
        disk = DiskCache(tmp_path)
        _compile(CompileCache(disk=disk))
        key_file = _entry_files(tmp_path)[0]
        assert key_file.exists()
        # Reconstruct the key from the stored payload.
        payload = json.loads(key_file.read_text())
        assert disk.evict((payload["fingerprint"], payload["spec"]))
        assert not key_file.exists()


class TestStats:
    def test_describe_shape(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = CompileCache(disk=disk)
        _compile(cache)
        summary = cache.describe()
        assert summary["disk"]["stores"] == 1
        assert summary["disk"]["entries"] == 1
        assert summary["disk"]["bytes_on_disk"] > 0
        for counter in ("hits", "misses", "evictions",
                        "corrupt_recoveries", "write_errors"):
            assert counter in summary["disk"]

    def test_no_disk_tier_keeps_historical_shape(self):
        assert "disk" not in CompileCache().describe()


class TestCrossProcess:
    def test_fresh_process_warm_hit_via_cli(self, tmp_path):
        """The genuine article: two ``repro-opt`` *processes* sharing a
        disk root produce byte-identical output, the second warm."""
        source = Printer().print_module(_module())
        input_path = tmp_path / "in.mlir"
        input_path.write_text(source, encoding="utf-8")
        cache_dir = tmp_path / "cache"
        command = [sys.executable, "-m", "repro.tools.repro_opt",
                   str(input_path), "--passes", PIPELINE,
                   "--cache-dir", str(cache_dir), "--report"]
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                 / "src")}
        first = subprocess.run(command, capture_output=True, text=True,
                               env=env, timeout=120)
        second = subprocess.run(command, capture_output=True, text=True,
                                env=env, timeout=120)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
        # A cold compile misses at both key levels; the warm process is
        # answered by the front tier alone, from one disk read.
        assert "disk cache: 0 hits, 2 misses" in first.stderr
        assert "disk cache: 1 hits, 0 misses" in second.stderr
        assert "front cache: 1 hits, 0 misses" in second.stderr


class TestEntryVersion:
    def test_an_entry_of_an_older_pipeline_output_is_recompiled(
            self, tmp_path, monkeypatch, capsys):
        # Version 2 was written while Loop Internalization tiled every
        # loop it legally could, the tile-2 GEMM included.
        from repro.tools.repro_opt import main
        from repro.transforms import disk_cache
        from repro.transforms.loop_internalization import (
            LoopCost,
            LoopInternalization,
        )

        module, _ = build_gemm_module(size=4, work_group=2)
        path = tmp_path / "gemm.mlir"
        path.write_text(Printer().print_module(module) + "\n",
                        encoding="utf-8")
        argv = [str(path), "--pipeline", "sycl-mlir",
                "--cache-dir", str(tmp_path / "cache")]
        with monkeypatch.context() as older:
            older.setattr(disk_cache, "ENTRY_VERSION", 2)
            older.setattr(LoopInternalization, "_estimate",
                          lambda self, loop, candidates, tile, shared:
                          (LoopCost(0, 0), LoopCost(1, 1)))
            assert main(argv) == 0
            assert "sycl.group_barrier" in capsys.readouterr().out
        assert main(argv) == 0
        assert "sycl.group_barrier" not in capsys.readouterr().out
