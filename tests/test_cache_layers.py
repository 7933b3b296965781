"""The layered compile-cache subsystem: memory LRU tier, SQLite WAL
persistent tier (including corruption fallback and cross-process
sharing), tier composition behind ExecutionCache, and the import shims
that keep the pre-refactor entry points working."""

import multiprocessing
import sqlite3

import pytest

import repro.cache as cache_pkg
from repro.cache import (
    MemoryCache,
    PersistentCache,
    circuit_key,
    index_sensitive_transpiler,
)
from repro.core import CompileService, ExecutionCache, qucp_allocate
from repro.core import executor as executor_mod
from repro.core import index_sensitive_transpiler as core_ist
from repro.core.executor import _default_transpiler
from repro.workloads import workload


def _allocation(device, names=("lin", "adder")):
    circuits = [workload(n).circuit() for n in names]
    return qucp_allocate(circuits, device)


class TestMemoryCache:
    def test_roundtrip_and_counters(self):
        mem = MemoryCache()
        assert mem.get("a") is None
        mem.put("a", 1)
        assert mem.get("a") == 1
        assert mem.stats == {"hits": 1, "misses": 1, "evictions": 0,
                             "entries": 1}

    def test_lru_eviction_order(self):
        mem = MemoryCache(max_entries=2)
        mem.put("a", 1)
        mem.put("b", 2)
        assert mem.get("a") == 1  # refresh "a": "b" is now LRU
        mem.put("c", 3)
        assert "b" not in mem
        assert mem.get("a") == 1
        assert mem.get("c") == 3
        assert mem.evictions == 1

    def test_replacing_existing_key_does_not_evict(self):
        mem = MemoryCache(max_entries=2)
        mem.put("a", 1)
        mem.put("b", 2)
        mem.put("a", 10)
        assert len(mem) == 2
        assert mem.evictions == 0
        assert mem.get("a") == 10

    def test_zero_cap_stores_nothing(self):
        mem = MemoryCache(max_entries=0)
        mem.put("a", 1)
        assert len(mem) == 0
        assert mem.get("a") is None

    def test_clear_keeps_counters(self):
        mem = MemoryCache()
        mem.put("a", 1)
        mem.get("a")
        mem.clear()
        assert len(mem) == 0
        assert mem.hits == 1


class TestPersistentCache:
    def test_roundtrip_and_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = PersistentCache(path)
        store.put("k1", b"payload-1", "inv-a")
        store.put("k2", b"payload-2", "inv-a")
        assert store.get("k1") == b"payload-1"
        assert len(store) == 2
        assert store.invariant_classes() == {"inv-a": 2}
        store.close()
        # A second connection (as another process would open) sees the
        # committed rows.
        again = PersistentCache(path)
        assert again.get("k2") == b"payload-2"
        assert again.get("missing") is None
        assert again.stats["hits"] == 1
        assert again.stats["misses"] == 1
        again.close()

    def test_delete_and_clear(self, tmp_path):
        store = PersistentCache(str(tmp_path / "store.db"))
        store.put("k1", b"x")
        store.put("k2", b"y")
        store.delete("k1")
        assert store.get("k1") is None
        store.clear()
        assert len(store) == 0

    def test_garbage_file_disables_with_warning(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.warns(RuntimeWarning, match="unusable"):
            store = PersistentCache(str(path))
        assert store.disabled
        # Disabled store degrades to misses/no-ops, never crashes.
        store.put("k", b"v")
        assert store.get("k") is None
        assert len(store) == 0

    def test_truncated_store_falls_back_cold(self, tmp_path):
        path = tmp_path / "store.db"
        store = PersistentCache(str(path))
        for i in range(20):
            store.put(f"k{i}", b"x" * 512)
        store.close()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.warns(RuntimeWarning, match="unusable"):
            reopened = PersistentCache(str(path))
            # Init may survive truncation (header intact); the first
            # query then hits the torn pages.  Either way: warn + miss.
            assert reopened.get("k0") is None
        assert reopened.disabled

    def test_newer_schema_left_untouched(self, tmp_path):
        path = str(tmp_path / "store.db")
        PersistentCache(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="schema"):
            store = PersistentCache(path)
        assert store.disabled


def _spawn_writer(path, worker_id, n_entries):
    """Write one worker's slice plus the shared key (spawn target)."""
    from repro.cache import PersistentCache

    store = PersistentCache(path)
    for i in range(n_entries):
        store.put(f"w{worker_id}-k{i}", f"w{worker_id}-v{i}".encode(),
                  f"class-{i % 3}")
    store.put("shared", b"shared-value", "class-shared")
    read_back = store.get(f"w{worker_id}-k0")
    store.close()
    return read_back


class TestCrossProcessStore:
    def test_two_processes_share_one_wal_store(self, tmp_path):
        path = str(tmp_path / "shared.db")
        n = 25
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            results = pool.starmap(_spawn_writer,
                                   [(path, 0, n), (path, 1, n)])
        assert results == [b"w0-v0", b"w1-v0"]
        store = PersistentCache(path)
        assert len(store) == 2 * n + 1
        for wid in (0, 1):
            for i in range(n):
                assert store.get(f"w{wid}-k{i}") == \
                    f"w{wid}-v{i}".encode()
        assert store.get("shared") == b"shared-value"
        store.close()


class TestTieredExecutionCache:
    def _key(self, cache, alloc, device):
        return cache.transpile_key(alloc.circuit, device, alloc,
                                   _default_transpiler)

    def test_persistable_key_has_digest(self, toronto):
        cache = ExecutionCache()
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = self._key(cache, alloc, toronto)
        assert key.digest is not None
        assert key.invariants is not None

    def test_undeclared_hook_not_persisted(self, toronto, tmp_path):
        def hook(circuit, device, allocation):  # no persistent token
            return _default_transpiler(circuit, device, allocation)

        cache = ExecutionCache(store_path=str(tmp_path / "s.db"))
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = cache.transpile_key(alloc.circuit, toronto, alloc, hook)
        assert key.digest is None
        result = cache.transpile(alloc.circuit, toronto, alloc, hook)
        assert result is not None
        assert len(cache.persistent) == 0

    def test_warm_store_serves_cold_cache(self, toronto, tmp_path):
        path = str(tmp_path / "store.db")
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        warm = ExecutionCache(store_path=path)
        compiled = warm.transpile(alloc.circuit, toronto, alloc,
                                  _default_transpiler)
        assert len(warm.persistent) == 1

        cold = ExecutionCache(store_path=path)
        key = self._key(cold, alloc, toronto)
        served = cold.lookup_transpile_raw(key, toronto,
                                           _default_transpiler)
        assert served is not None
        assert circuit_key(served.circuit) == \
            circuit_key(compiled.circuit)
        assert served.initial_layout.as_dict() == \
            compiled.initial_layout.as_dict()
        assert cold.stats["promotions"] == 1
        # Promotion populated L1: the next lookup skips the store.
        persistent_hits = cold.persistent.hits
        assert cold.lookup_transpile_raw(key, toronto,
                                         _default_transpiler) is not None
        assert cold.persistent.hits == persistent_hits

    def test_corrupt_row_recompiles_and_heals(self, toronto, tmp_path):
        path = str(tmp_path / "store.db")
        cache = ExecutionCache(store_path=path)
        alloc = _allocation(toronto, names=("lin",)).allocations[0]
        key = self._key(cache, alloc, toronto)
        cache.persistent.put(key.digest, b"not a pickle", "inv")
        cold = ExecutionCache(store_path=path)
        assert cold.lookup_transpile_raw(key, toronto,
                                         _default_transpiler) is None
        assert cold.tiers.stats["decode_errors"] == 1
        # The torn row was dropped; a real compile republishes it.
        result = cold.transpile(alloc.circuit, toronto, alloc,
                                _default_transpiler)
        assert result is not None
        assert len(cold.persistent) == 1
        healed = ExecutionCache(store_path=path)
        assert healed.lookup_transpile_raw(key, toronto,
                                           _default_transpiler) is not None

    def test_cold_service_on_warm_store_compiles_nothing(self, toronto,
                                                         tmp_path):
        path = str(tmp_path / "store.db")
        job = _allocation(toronto)
        with CompileService(mode="serial",
                            cache=ExecutionCache(store_path=path)) as warm:
            warm.compile_allocation(job)
            assert warm.stats["submitted"] == 2
        with CompileService(mode="serial",
                            cache=ExecutionCache(store_path=path)) as cold:
            cold.compile_allocation(job)
            assert cold.stats["submitted"] == 0
            assert cold.stats["promotions"] == 2

    def test_env_default_max_entries(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "17")
        assert ExecutionCache().max_entries == 17
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "-1")
        assert ExecutionCache().max_entries is None
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES")
        assert ExecutionCache().max_entries == executor_mod._DEFAULT_MAX_ENTRIES  # noqa: E501,SLF001
        assert ExecutionCache(max_entries=None).max_entries is None


class TestShims:
    def test_key_helpers_moved_but_reachable(self):
        assert executor_mod.index_sensitive_transpiler \
            is cache_pkg.index_sensitive_transpiler
        assert core_ist is index_sensitive_transpiler

    def test_index_sensitive_marking_unchanged(self):
        @index_sensitive_transpiler
        def hook(circuit, device, allocation):
            return None

        assert getattr(hook, "_observes_allocation_index")


class TestSingleCoreRouting:
    """``choose_route`` must never auto-pick *any* pool on a single-core
    (or unknown-core-count) host: measured there, threads run GIL-bound
    compiles at ~0.9x serial and the chunked process pool at ~0.6x, so
    the only route that never loses is serial."""

    def test_auto_mode_single_core_host(self, monkeypatch):
        monkeypatch.setattr("repro.core.compile_service.os.cpu_count",
                            lambda: 1)
        assert CompileService.choose_route(64, 65) == "serial"

    def test_auto_mode_unknown_core_count(self, monkeypatch):
        monkeypatch.setattr("repro.core.compile_service.os.cpu_count",
                            lambda: None)
        assert CompileService.choose_route(64, 65) == "serial"

    def test_cold_process_regression_batch_stays_serial_on_one_core(self):
        # The committed BENCH_transpile run that motivated the retune:
        # 150 heavy-tail programs on a 27q device, one core — explicit
        # process mode ran at 0.47x serial; auto must not repeat that.
        assert CompileService.choose_route(150, 27, cores=1) == "serial"
        assert CompileService.choose_route(48, 65, cores=1) == "serial"

    def test_multi_core_still_routes_to_process(self, monkeypatch):
        monkeypatch.setattr("repro.core.compile_service.os.cpu_count",
                            lambda: 4)
        assert CompileService.choose_route(64, 65) == "process"

    def test_multi_core_narrow_device_routes_to_threads(self):
        assert CompileService.choose_route(64, 27, cores=4) == "thread"
