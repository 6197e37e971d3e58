"""The one cache table behind the compile templates, the front tier and
the executables: the same contract holds for each, driven through the
calls its clients make.

Each table is a :class:`~repro.transforms.compile_cache.ContentTable`
(an LRU in memory over an optional ``DiskCache``), so a hit is a hit
whichever tier answered, a disk answer is promoted, a disk entry the
table cannot decode is recovered and healed by the next store, the
bound evicts least-recently-used entries, and ``forget`` turns a hit
into exactly one recovered miss.
"""

import pytest

from repro.interp.jit import compile_executable
from repro.interp.jit_runtime import ExecutableCache
from repro.ir import Printer
from repro.transforms import CachedCompile, CompileCache, DiskCache
from repro.transforms.compile_cache import FRONT_PREFIX, ContentTable

from .helpers import build_gemm_module, build_listing1_function, wrap_in_module

PIPELINE = "builtin.module(func.func(canonicalize,cse,dce))"


def _template() -> CachedCompile:
    return CachedCompile(module=wrap_in_module(build_listing1_function()[0]),
                         statistics=[("cse", "ops_erased", 1)],
                         remarks=["cse: erased 1 op"])


class _Templates:
    """The second level: ``lookup``, then ``store`` on a miss."""

    def __init__(self, max_entries, disk):
        self.cache = self.table = CompileCache(max_entries, disk)

    def key(self, n):
        return (f"fingerprint{n}", PIPELINE)

    def request(self, n) -> bool:
        if self.cache.lookup(self.key(n)) is not None:
            return True
        self.cache.store(self.key(n), _template())
        return False

    @staticmethod
    def mangle(disk, key):
        # Passes the disk's own checks; does not parse.
        disk.store(key, "this is not IR\n", statistics=[], remarks=[])


class _FrontReplies:
    """The front tier: ``front_lookup``, then ``front_store`` of the
    reply a second-level compile produced."""

    SECOND = ("second-level", PIPELINE)

    def __init__(self, max_entries, disk):
        self.cache = CompileCache(max_entries, disk)
        self.table = self.cache.front

    def key(self, n):
        return (FRONT_PREFIX + f"front{n}", PIPELINE)

    def request(self, n) -> bool:
        if self.cache.front_lookup(f"front{n}", PIPELINE) is not None:
            return True
        template = _template()
        self.cache.store(self.SECOND, template)
        self.cache.front_store(
            f"front{n}", Printer().print_module(template.module) + "\n",
            self.SECOND)
        return False

    @staticmethod
    def mangle(disk, key):
        # Intact text, but no second-level key to resolve to.
        disk.store(key, "reply\n", statistics=[], remarks=[])


class _Executables:
    """Generated code: ``compile_executable`` through the cache."""

    def __init__(self, max_entries, disk):
        self.table = ExecutableCache(max_entries or 128, disk)
        self.functions = [
            build_gemm_module(size=size, work_group=2)[0].lookup_symbol(
                "gemm") for size in (4, 6, 8)]

    def key(self, n):
        return self.table.key_for(self.functions[n], "nd")

    def request(self, n) -> bool:
        executable = compile_executable(self.functions[n], "nd",
                                        cache=self.table)
        return executable.origin != "fresh"

    @staticmethod
    def mangle(disk, key):
        # Passes the disk's own checks; does not compile.
        disk.store(key, "def _run(:\n")


@pytest.fixture(params=[_Templates, _FrontReplies, _Executables],
                ids=["template", "front-reply", "executable"])
def kind(request):
    return request.param


def _counts(table: ContentTable):
    stats = table.stats
    return (stats.hits, stats.misses, stats.evictions, stats.recovered)


class TestOneTableContract:
    def test_a_second_request_hits_memory(self, kind):
        cache = kind(None, None)
        assert not cache.request(0)
        assert cache.request(0)
        assert _counts(cache.table) == (1, 1, 0, 0)
        assert "disk" not in cache.table.describe()

    def test_disk_read_through_promotes(self, kind, tmp_path):
        kind(None, DiskCache(tmp_path)).request(0)
        disk = DiskCache(tmp_path)
        cache = kind(None, disk)
        assert cache.request(0)
        assert disk.stats.hits == 1
        # The second lookup is answered by memory: the disk is not read
        # again, and both lookups count as hits.
        assert cache.request(0)
        assert disk.stats.hits == 1
        assert _counts(cache.table) == (2, 0, 0, 0)

    def test_a_mangled_disk_entry_is_recovered_once_and_healed(
            self, kind, tmp_path):
        kind(None, DiskCache(tmp_path)).request(0)
        disk = DiskCache(tmp_path)
        cache = kind(None, disk)
        kind.mangle(disk, cache.key(0))
        assert not cache.request(0)
        assert _counts(cache.table) == (0, 1, 0, 0)
        assert disk.stats.corrupt_recoveries == 1
        # The cold request wrote the entry through again.
        healed = kind(None, DiskCache(tmp_path))
        assert healed.request(0)
        assert healed.table.disk.stats.corrupt_recoveries == 0

    def test_the_bound_evicts_least_recently_used(self, kind):
        cache = kind(2, None)
        for n in (0, 1, 2):
            assert not cache.request(n)
        assert len(cache.table) == 2
        assert _counts(cache.table) == (0, 3, 1, 0)
        assert cache.request(2)
        assert not cache.request(0)  # the oldest went first
        assert _counts(cache.table) == (1, 4, 2, 0)

    def test_forget_turns_a_hit_into_one_recovered_miss(
            self, kind, tmp_path):
        disk = DiskCache(tmp_path)
        cache = kind(None, disk)
        cache.request(0)
        assert cache.request(0)
        cache.table.forget(cache.key(0))
        assert _counts(cache.table) == (0, 2, 1, 1)
        assert len(cache.table) == 0
        assert not disk.path_for(cache.key(0)).exists()
        assert disk.stats.corrupt_recoveries == 1
        assert not cache.request(0)
