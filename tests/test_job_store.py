"""Durability-layer tests: the job store's persistence and degradation
contracts, Result round-trips, retry-policy determinism, and the
provider's resume-on-restart path."""

import json
import math
import sqlite3
import threading
import time
import warnings

import pytest

from repro.circuits import ghz_circuit
from repro.core.faults import (
    corrupt_file,
    locked_database,
    write_foreign_store,
)
from repro.hardware import linear_device
from repro.service import (
    JobError,
    JobSet,
    JobStatus,
    JobStore,
    JobTimeoutError,
    ProgramResult,
    QuantumProvider,
    Result,
    RetryPolicy,
    RunMetadata,
    ScheduleRecord,
)


def make_provider(tmp_path=None, **kwargs):
    if tmp_path is not None:
        kwargs.setdefault("store_path", str(tmp_path / "jobs.sqlite"))
    return QuantumProvider(**kwargs)


def minimal_result(job_id="job-000001"):
    return Result(metadata=RunMetadata(
        job_id=job_id, backend_name="test", method="direct", shots=0,
        num_programs=0, num_hardware_jobs=0, throughput=0.0))


# ----------------------------------------------------------------------
# JobStore: CRUD + reopen
# ----------------------------------------------------------------------

class TestJobStoreCrud:
    def test_submission_recorded(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_submission("job-000001", 1, "dev", b"spec")
            rec = store.get("job-000001")
            assert rec.status == "queued"
            assert rec.attempts == 0
            assert rec.spec == b"spec"
            assert rec.is_pending
            assert not store.disabled

    def test_transition_audit_trail(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_submission("job-000001", 1, "dev")
            store.record_transition("job-000001", "running", attempt=1)
            store.record_transition("job-000001", JobStatus.DONE,
                                    attempt=1)
            trail = [(t.status, t.attempt)
                     for t in store.transitions("job-000001")]
            assert trail == [("queued", 0), ("running", 1), ("done", 1)]
            assert not store.get("job-000001").is_pending

    def test_reopen_reloads_everything(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        payload = {"metadata": {"job_id": "job-000002"},
                   "programs": [], "schedule": None}
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev-a")
            store.record_transition("job-000001", "running", attempt=1)
            store.record_submission("job-000002", 2, "dev-b", b"xx")
            store.record_transition("job-000002", "done", attempt=1)
            store.record_result("job-000002", payload)
        with JobStore(path) as fresh:
            assert len(fresh) == 2
            assert fresh.stats["loaded"] == 2
            assert [r.job_id for r in fresh.jobs()] == [
                "job-000001", "job-000002"]
            # The job that was RUNNING at "crash" time is the one a
            # restart must re-run.
            assert [r.job_id for r in fresh.pending()] == ["job-000001"]
            done = fresh.get("job-000002")
            assert done.result == payload
            assert done.spec == b"xx"
            assert fresh.max_job_number() == 2
            trail = [t.status for t in fresh.transitions("job-000001")]
            assert trail == ["queued", "running"]

    def test_error_text_survives_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev")
            store.record_transition("job-000001", "error", attempt=2,
                                    error="worker exploded")
        with JobStore(path) as fresh:
            rec = fresh.get("job-000001")
            assert rec.status == "error"
            assert rec.attempts == 2
            assert rec.error == "worker exploded"

    def test_transition_for_unknown_job_is_noop(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            store.record_transition("job-999999", "done")
            store.record_result("job-999999", {})
            assert store.get("job-999999") is None
            assert len(store) == 0

    def test_max_job_number_empty(self, tmp_path):
        with JobStore(str(tmp_path / "s.sqlite")) as store:
            assert store.max_job_number() == 0


# ----------------------------------------------------------------------
# JobStore: degradation (never crash, warn once, keep serving)
# ----------------------------------------------------------------------

class TestJobStoreDegradation:
    def _assert_usable_in_memory(self, store):
        """A degraded store must keep full in-memory service."""
        store.record_submission("job-000001", 1, "dev")
        store.record_transition("job-000001", "done", attempt=1)
        store.record_result("job-000001", {"ok": True})
        rec = store.get("job-000001")
        assert rec.status == "done"
        assert rec.result == {"ok": True}
        store.close()

    def test_garbage_file_degrades(self, tmp_path):
        path = corrupt_file(str(tmp_path / "s.sqlite"), mode="garbage")
        with pytest.warns(RuntimeWarning, match="unusable"):
            store = JobStore(path)
        assert store.disabled
        self._assert_usable_in_memory(store)

    def test_foreign_database_refused_and_untouched(self, tmp_path):
        path = write_foreign_store(str(tmp_path / "theirs.sqlite"))
        with pytest.warns(RuntimeWarning, match="another application"):
            store = JobStore(path)
        assert store.disabled
        self._assert_usable_in_memory(store)
        conn = sqlite3.connect(path)
        try:
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")}
            rows = conn.execute(
                "SELECT COUNT(*) FROM somebody_elses_data").fetchone()[0]
        finally:
            conn.close()
        assert "jobs" not in tables
        assert rows == 1

    def test_compile_cache_file_refused(self, tmp_path):
        """A PersistentCache file shares the ``meta`` convention but is
        not a job store — the table scan must catch it."""
        from repro.cache import PersistentCache

        path = str(tmp_path / "cache.sqlite")
        cache = PersistentCache(path)
        cache.put("k", b"artifact-bytes")
        cache.close()
        with pytest.warns(RuntimeWarning, match="unusable"):
            store = JobStore(path)
        assert store.disabled
        store.close()
        # The cache file is still a valid compile cache afterwards.
        reopened = PersistentCache(path)
        assert reopened.get("k") == b"artifact-bytes"
        reopened.close()

    def test_locked_database_degrades_fast(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        JobStore(path).close()
        with locked_database(path):
            with pytest.warns(RuntimeWarning, match="unusable"):
                store = JobStore(path, timeout=0.05)
            assert store.disabled
            self._assert_usable_in_memory(store)

    def test_newer_schema_left_untouched(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev")
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='99' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="schema version"):
            store = JobStore(path)
        assert store.disabled
        store.close()
        conn = sqlite3.connect(path)
        try:
            version = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()[0]
            jobs = conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
        finally:
            conn.close()
        assert version == "99"
        assert jobs == 1

    def test_warns_exactly_once(self, tmp_path):
        path = corrupt_file(str(tmp_path / "s.sqlite"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = JobStore(path)
            store.record_submission("job-000001", 1, "dev")
            store.record_transition("job-000001", "done")
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert store.stats["disabled"] == 1
        store.close()

    def test_mid_life_mirror_failure_degrades(self, tmp_path):
        """Losing the connection after open degrades writes, not reads."""
        path = str(tmp_path / "s.sqlite")
        store = JobStore(path)
        store.record_submission("job-000001", 1, "dev")
        store._conn.close()  # simulate the handle dying under us
        with pytest.warns(RuntimeWarning, match="unusable"):
            store.record_transition("job-000001", "done", attempt=1)
        assert store.disabled
        assert store.get("job-000001").status == "done"
        store.close()


# ----------------------------------------------------------------------
# Result / RunMetadata / ProgramResult round-trips
# ----------------------------------------------------------------------

class TestResultRoundTrip:
    def test_program_result_round_trip(self):
        prog = ProgramResult(
            index=3, circuit_name="ghz_2", partition=(4, 5), efs=0.125,
            counts={"00": 7, "11": 9}, probabilities={"00": 0.4,
                                                      "11": 0.6},
            pst=0.9, jsd=0.01, device_name="line-5", hardware_job=1,
            turnaround_ns=1234.5)
        payload = prog.to_dict()
        assert ProgramResult.from_dict(payload).to_dict() == payload

    def test_program_result_none_turnaround(self):
        prog = ProgramResult(
            index=0, circuit_name="c", partition=(0,), efs=0.0,
            counts={}, probabilities={"0": 1.0}, pst=1.0, jsd=0.0,
            device_name="d", hardware_job=0)
        payload = prog.to_dict()
        back = ProgramResult.from_dict(payload)
        assert back.turnaround_ns is None
        assert back.to_dict() == payload

    def test_metadata_nan_serializes_to_null_and_back(self):
        meta = RunMetadata(
            job_id="job-000001", backend_name="b", method="m", shots=16,
            num_programs=2, num_hardware_jobs=1, throughput=1.5,
            makespan_ns=float("nan"),
            mean_turnaround_ns=float("nan"))
        payload = meta.to_dict()
        assert payload["makespan_ns"] is None
        assert payload["mean_turnaround_ns"] is None
        back = RunMetadata.from_dict(payload)
        # null is the canonical spelling of a NaN timing: the round
        # trip converges (None stays None) instead of oscillating.
        assert back.makespan_ns is None
        assert back.to_dict() == payload

    def test_metadata_full_round_trip(self):
        meta = RunMetadata(
            job_id="job-000009", backend_name="fleet[a,b]",
            method="online-qucp(th=0.3)", shots=4096, num_programs=5,
            num_hardware_jobs=2, throughput=3.25, makespan_ns=1e6,
            mean_turnaround_ns=5e5, rejected=(1, 3),
            compile_requests=5, transpile_hits=2, transpile_misses=3,
            cache_evictions=1, cache_promotions=1, execution_batches=2,
            races=2, attempts=3,
            rejection_reasons=((1, "too wide"), (3, "no coupling")))
        payload = json.loads(json.dumps(meta.to_dict()))
        back = RunMetadata.from_dict(payload)
        assert back == meta
        assert back.to_dict() == payload

    def test_metadata_loads_payload_with_pool_counters(self):
        # Stores written before execution ran inline only carry the
        # per-pool counters; they load, and every other field survives.
        payload = {
            "job_id": "job-000004", "backend_name": "fleet[a,b]",
            "method": "online-qucp(th=0.3)", "shots": 2048,
            "num_programs": 3, "num_hardware_jobs": 2, "throughput": 0.5,
            "makespan_ns": 2e6, "mean_turnaround_ns": 1e6,
            "rejected": [2], "compile_requests": 3, "transpile_hits": 1,
            "transpile_misses": 2, "cache_evictions": 0,
            "cache_promotions": 1, "execution_batches": 2,
            "execution_chunks": 4, "execution_fallbacks": 1, "races": 1,
            "attempts": 2, "rejection_reasons": {"2": "too wide"},
            "dynamic_programs": 1,
        }
        back = RunMetadata.from_dict(json.loads(json.dumps(payload)))
        legacy = {"execution_chunks", "execution_fallbacks"}
        assert back.to_dict() == {k: v for k, v in payload.items()
                                  if k not in legacy}

    def test_result_round_trip_is_bit_identical(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()] * 2, shots=64, seed=11)
            payload = job.result().to_dict()
        finally:
            prov.shutdown()
        # Through JSON bytes, exactly as the store holds it.
        stored = json.loads(json.dumps(payload))
        back = Result.from_dict(stored)
        assert back.to_dict() == payload
        assert back.counts(0) == payload["programs"][0]["counts"]

    def test_rehydrated_schedule_is_a_read_only_record(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.backend(line5).run(
                [ghz_circuit(2).measure_all()], shots=16, seed=3)
            payload = job.result().to_dict()
        finally:
            prov.shutdown()
        back = Result.from_dict(payload)
        record = back.schedule
        assert isinstance(record, ScheduleRecord)
        assert record.num_jobs == payload["schedule"]["num_jobs"]
        with pytest.raises(AttributeError):
            record.num_jobs = 99
        with pytest.raises(AttributeError):
            record.no_such_field
        assert back.to_dict()["schedule"] == payload["schedule"]

    def test_nan_timings_round_trip_through_store(self, tmp_path):
        """A direct-run result (NaN-free but None-timing) survives the
        actual SQLite round trip bit-identically."""
        res = minimal_result()
        assert math.isnan(res.mean_pst())  # no programs
        payload = res.to_dict()
        path = str(tmp_path / "s.sqlite")
        with JobStore(path) as store:
            store.record_submission("job-000001", 1, "dev")
            store.record_result("job-000001", payload)
        with JobStore(path) as fresh:
            stored = fresh.get("job-000001").result
        assert Result.from_dict(stored).to_dict() == payload


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_is_deterministic_per_job_and_attempt(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        for attempt in (1, 2, 3):
            assert a.delay_s("job-000042", attempt) == \
                b.delay_s("job-000042", attempt)
        assert a.delay_s("job-000001", 1) != a.delay_s("job-000002", 1)
        assert a.delay_s("job-000001", 1) != a.delay_s("job-000001", 2)

    def test_delay_bounds_and_cap(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0,
                             max_backoff_s=0.3, jitter=0.1)
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.3), (9, 0.3)):
            delay = policy.delay_s("job-000001", attempt)
            assert base * 0.9 <= delay <= base * 1.1

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_s=0.25, jitter=0.0)
        assert policy.delay_s("anything", 1) == 0.25
        assert policy.delay_s("anything", 2) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_s("job", 0)

    def test_non_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retries(OSError("flaky disk"))
        assert not policy.retries(JobError("all rejected"))

    def test_run_attempt_timeout(self):
        policy = RetryPolicy(attempt_timeout_s=0.05)
        with pytest.raises(JobTimeoutError) as info:
            policy.run_attempt(lambda: time.sleep(5), "job-000001", 2)
        assert info.value.job_id == "job-000001"
        assert info.value.attempt == 2
        assert policy.run_attempt(lambda: "ok", "job-000001", 1) == "ok"

    def test_flaky_job_retries_to_success(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.005))
        try:
            backend = prov.simulator(line5)
            calls = {"n": 0}

            def flaky(job_id):
                calls["n"] += 1
                if calls["n"] < 3:
                    raise OSError("transient glitch")
                return minimal_result(job_id)

            job = prov._submit_job(backend, flaky)
            result = job.result()
            assert job.status() is JobStatus.DONE
            assert job.attempts == 3
            # The surviving attempt's count lands in the metadata.
            assert result.metadata.attempts == 3
        finally:
            prov.shutdown()

    def test_exhausted_attempts_surface_last_error(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.005))
        try:
            def doomed(job_id):
                raise OSError("still broken")

            job = prov._submit_job(prov.simulator(line5), doomed)
            with pytest.raises(OSError, match="still broken"):
                job.result()
            assert job.status() is JobStatus.ERROR
            assert job.attempts == 2
        finally:
            prov.shutdown()

    def test_job_error_is_not_retried(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=5, backoff_s=0.005))
        try:
            calls = {"n": 0}

            def rejected(job_id):
                calls["n"] += 1
                raise JobError("all rejected", job_id=job_id,
                               reasons={0: "too wide"})

            job = prov._submit_job(prov.simulator(line5), rejected)
            with pytest.raises(JobError, match="program 0: too wide"):
                job.result()
            assert calls["n"] == 1
            assert job.attempts == 1
        finally:
            prov.shutdown()

    def test_timed_out_attempt_retries(self, line5):
        prov = QuantumProvider(
            devices=[line5],
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.005,
                                     attempt_timeout_s=0.2))
        try:
            calls = {"n": 0}

            def slow_then_fast(job_id):
                calls["n"] += 1
                if calls["n"] == 1:
                    time.sleep(2.0)  # abandoned by the timeout
                return minimal_result(job_id)

            job = prov._submit_job(prov.simulator(line5),
                                   slow_then_fast)
            result = job.result(timeout=30)
            assert result.metadata.attempts == 2
        finally:
            prov.shutdown()


# ----------------------------------------------------------------------
# Provider durability: persist, rehydrate, resume
# ----------------------------------------------------------------------

class TestProviderDurability:
    def test_completed_job_persisted_with_trail(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=32, seed=5)
            payload = job.result().to_dict()
            rec = prov.store.get(job.job_id)
            assert rec.status == "done"
            assert rec.result == payload
            assert rec.spec is not None
            trail = [t.status
                     for t in prov.store.transitions(job.job_id)]
            assert trail == ["queued", "running", "done"]
        finally:
            prov.shutdown()

    def test_restart_reserves_results_bit_identically(self, tmp_path,
                                                      line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov.simulator(line5).run(
            [ghz_circuit(3).measure_all()], shots=64, seed=9)
        payload = job.result().to_dict()
        job_id = job.job_id
        prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.status() is JobStatus.DONE
            rehydrated = handle.result()
            assert rehydrated.to_dict() == payload
            assert isinstance(rehydrated.schedule, (type(None),
                                                    ScheduleRecord))
        finally:
            fresh.shutdown()

    def test_restart_resumes_interrupted_job(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov.simulator(line5).run(
            [ghz_circuit(2).measure_all()] * 2, shots=32, seed=4)
        payload = job.result().to_dict()
        job_id = job.job_id
        prov.shutdown()

        # Simulate dying mid-run: rewind the stored status to RUNNING.
        with JobStore(str(tmp_path / "jobs.sqlite")) as store:
            store.record_transition(job_id, "running", attempt=1)

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.job_id == job_id
            result = handle.result(timeout=120)
            assert handle.status() is JobStatus.DONE
            # The replay is the same deterministic computation: same
            # programs, same counts, same schedule.
            replayed = result.to_dict()
            assert replayed["programs"] == payload["programs"]
            assert replayed["schedule"] == payload["schedule"]
            rec = fresh.store.get(job_id)
            assert rec.status == "done"
        finally:
            fresh.shutdown()

    def test_unreplayable_interrupted_job_errors(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov._submit_job(prov.simulator(line5),
                               lambda job_id: minimal_result(job_id))
        job.result()
        job_id = job.job_id
        prov.shutdown()
        with JobStore(str(tmp_path / "jobs.sqlite")) as store:
            assert store.get(job_id).spec is None  # no replay recipe
            store.record_transition(job_id, "running", attempt=1)

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.status() is JobStatus.ERROR
            with pytest.raises(RuntimeError, match="not.*replayable"):
                handle.result()
        finally:
            fresh.shutdown()

    def test_error_job_rehydrates_as_error(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5])
        job = prov.backend(line5).run(
            [ghz_circuit(8).measure_all()], shots=16, seed=1)
        with pytest.raises(JobError):
            job.result()
        job_id = job.job_id
        prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(job_id)
            assert handle.status() is JobStatus.ERROR
            with pytest.raises(RuntimeError, match="rejected"):
                handle.result()
        finally:
            fresh.shutdown()

    def test_job_numbering_continues_after_restart(self, tmp_path,
                                                   line5):
        prov = make_provider(tmp_path, devices=[line5])
        first = prov.simulator(line5).run(
            [ghz_circuit(2).measure_all()], shots=8, seed=1)
        first.result()
        prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            second = fresh.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=8, seed=2)
            second.result()
            assert first.job_id == "job-000001"
            assert second.job_id == "job-000002"
        finally:
            fresh.shutdown()

    def test_env_var_supplies_store_path(self, tmp_path, line5,
                                         monkeypatch):
        path = str(tmp_path / "env-jobs.sqlite")
        monkeypatch.setenv("REPRO_JOB_STORE", path)
        prov = QuantumProvider(devices=[line5])
        try:
            assert prov.store_path == path
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=8, seed=1)
            job.result()
            assert prov.store.get(job.job_id).status == "done"
        finally:
            prov.shutdown()

    def test_evicted_handle_falls_back_to_store(self, tmp_path, line5):
        prov = make_provider(tmp_path, devices=[line5], job_history=1)
        try:
            sim = prov.simulator(line5)
            first = sim.run([ghz_circuit(2).measure_all()], shots=8,
                            seed=1)
            payload = first.result().to_dict()
            second = sim.run([ghz_circuit(2).measure_all()], shots=8,
                             seed=2)
            second.result()
            third = sim.run([ghz_circuit(2).measure_all()], shots=8,
                            seed=3)
            third.result()
            # The registry is bounded, but the durable store still
            # resolves the evicted id.
            assert len(prov.jobs()) <= 2
            handle = prov.job(first.job_id)
            assert handle.result().to_dict() == payload
        finally:
            prov.shutdown()

    def test_cancelled_job_recorded_and_rehydrated(self, tmp_path,
                                                   line5):
        from concurrent.futures import CancelledError

        prov = make_provider(tmp_path, devices=[line5])
        release = threading.Event()
        blocker = prov._submit_job(
            prov.simulator(line5),
            lambda job_id: (release.wait(30),
                            minimal_result(job_id))[1])
        queued = prov._submit_job(
            prov.simulator(line5),
            lambda job_id: minimal_result(job_id))
        try:
            assert queued.cancel()
            assert queued.status() is JobStatus.CANCELLED
            release.set()
            blocker.result()
            assert prov.store.get(queued.job_id).status == "cancelled"
            queued_id = queued.job_id
        finally:
            release.set()
            prov.shutdown()

        fresh = make_provider(tmp_path, devices=[line5])
        try:
            handle = fresh.job(queued_id)
            assert handle.status() is JobStatus.CANCELLED
            with pytest.raises(CancelledError):
                handle.result()
        finally:
            fresh.shutdown()

    def test_corrupt_store_degrades_but_jobs_run(self, tmp_path, line5):
        path = corrupt_file(str(tmp_path / "jobs.sqlite"))
        with pytest.warns(RuntimeWarning, match="unusable"):
            prov = QuantumProvider(devices=[line5], store_path=path)
        try:
            job = prov.simulator(line5).run(
                [ghz_circuit(2).measure_all()], shots=16, seed=1)
            result = job.result()
            assert job.status() is JobStatus.DONE
            assert len(result.programs) == 1
            # Still tracked (in memory), just not durable.
            assert prov.store.disabled
            assert prov.store.get(job.job_id).status == "done"
        finally:
            prov.shutdown()


# ----------------------------------------------------------------------
# JobSet partial-failure mode
# ----------------------------------------------------------------------

class TestJobSetPartialFailure:
    def test_return_exceptions_collects_in_order(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            sim = prov.simulator(line5)
            good = sim.run([ghz_circuit(2).measure_all()], shots=8,
                           seed=1)
            # Every submission too wide for the fleet: a JobError.
            bad = prov.backend(line5).run(
                [ghz_circuit(8).measure_all()], shots=8, seed=1)
            tail = sim.run([ghz_circuit(2).measure_all()], shots=8,
                           seed=2)
            jobs = JobSet([good, bad, tail])

            collected = jobs.results(return_exceptions=True)
            assert isinstance(collected[0], Result)
            assert isinstance(collected[1], JobError)
            assert isinstance(collected[2], Result)
            assert collected[1].reasons  # structured, per-program

            # The default mode still aborts on the first failure.
            with pytest.raises(JobError):
                jobs.results()
        finally:
            prov.shutdown()

    def test_cancelled_member_contributes_its_exception(self, line5):
        from concurrent.futures import CancelledError

        prov = QuantumProvider(devices=[line5])
        release = threading.Event()
        try:
            blocker = prov._submit_job(
                prov.simulator(line5),
                lambda job_id: (release.wait(30),
                                minimal_result(job_id))[1])
            queued = prov._submit_job(
                prov.simulator(line5),
                lambda job_id: minimal_result(job_id))
            assert queued.cancel()
            release.set()
            jobs = JobSet([blocker, queued])
            collected = jobs.results(return_exceptions=True)
            assert isinstance(collected[0], Result)
            assert isinstance(collected[1], CancelledError)
        finally:
            release.set()
            prov.shutdown()
