"""The provider: device discovery, shared caches, and the job pool.

:class:`QuantumProvider` is the facade's root object.  It

- discovers execution targets (the built-in synthetic IBM devices plus
  anything registered with :meth:`~QuantumProvider.add_device`), handing
  out *one shared instance per name* so every backend built on a device
  shares its :class:`~repro.core.AllocationEngine` memos and
  :class:`~repro.transpiler.context.DeviceContext` tables;
- owns the shared :class:`~repro.core.ExecutionCache` and the
  :class:`~repro.core.CompileService` publishing into it, so compiles
  dedup across jobs, backends, and sessions;
- owns the job pool: every ``backend.run(...)`` returns an asynchronous
  :class:`~repro.service.Job` executing here, with stable provider-
  scoped ids resolvable through :meth:`~QuantumProvider.job`.

Most callers want the module-level :func:`provider` accessor::

    import repro

    backend = repro.provider().backend("ibm_toronto")
    job = backend.run(circuits, shots=4096, seed=7)
    result = job.result()
"""

from __future__ import annotations

import dataclasses
import difflib
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.allocators import AllocationResult
from ..core.compile_service import CompileService
from ..core.execution_service import ExecutionService
from ..core.executor import _UNSET, ExecutionCache
from ..hardware.devices import (
    Device,
    ibm_manhattan,
    ibm_melbourne,
    ibm_toronto,
)
from ..hardware.fleet import DeviceFleet
from .backend import (
    BackendConfiguration,
    BaseBackend,
    CloudBackend,
    SimulatorBackend,
)
from .job import Job, JobStatus, _JobState
from .result import Result
from .retry import RetryPolicy, publication_allowed
from .session import Session
from .store import JobStore, StoredJob

__all__ = ["QuantumProvider", "UnknownDeviceError", "provider"]


class UnknownDeviceError(KeyError):
    """A device name that matches nothing the provider can resolve.

    Same contract as :class:`repro.core.UnknownAllocatorError`: a
    :class:`KeyError` subclass whose ``__str__`` is the plain message
    (not the repr-quoted default), naming the resolvable devices with a
    close-match suggestion for typos.
    """

    def __init__(self, name: str, known: Sequence[str]) -> None:
        hint = ""
        close = difflib.get_close_matches(name, known, n=1)
        if close:
            hint = f" — did you mean {close[0]!r}?"
        super().__init__(
            f"unknown device {name!r}; available: "
            f"{', '.join(repr(k) for k in known)}{hint}")
        self.name = name
        self.known = tuple(known)

    def __str__(self) -> str:
        return self.args[0]

#: Built-in synthetic devices, constructed lazily on first lookup.
_BUILTIN_DEVICES: Dict[str, Callable[[], Device]] = {
    "ibm_melbourne": ibm_melbourne,
    "ibm_toronto": ibm_toronto,
    "ibm_manhattan": ibm_manhattan,
}

#: Anything a backend target may be specified as.
DeviceLike = Union[str, Device]

#: Environment variable supplying the default persistent-store path.
_CACHE_PATH_ENV = "REPRO_CACHE_PATH"

#: Environment variable supplying the default durable job-store path.
_JOB_STORE_ENV = "REPRO_JOB_STORE"


class QuantumProvider:
    """Entry point of the service facade.

    Parameters
    ----------
    devices:
        Extra devices to register at construction (on top of the
        built-ins), addressable by their ``Device.name``.
    compile_mode:
        Worker routing of the shared :class:`CompileService` —
        ``"auto"`` (default; per-batch serial/thread/process choice),
        or an explicit route.
    compile_workers:
        Compile pool size (``None`` = executor default).
    cache_entries:
        LRU bound on the shared :class:`ExecutionCache`'s in-memory
        tables.  When omitted, a generous default cap applies (4096,
        overridable via ``REPRO_CACHE_MAX_ENTRIES``); an explicit
        ``None`` is unbounded.
    cache_path:
        Location of a persistent on-disk compile-artifact store (SQLite
        WAL, shared across processes): compiled equivalence classes
        survive provider restarts and dedup across concurrent
        providers.  When omitted, the ``REPRO_CACHE_PATH`` environment
        variable is consulted; unset means in-memory caching only.
    job_workers:
        Job pool width.  Defaults to 1, which keeps shared-cache
        statistics and engine memo growth deterministic.  Jobs run on
        threads and simulate inline through the shared
        :class:`~repro.core.ExecutionService`, which holds the GIL for
        most of a simulation, so a wider pool mainly overlaps one job's
        compile waits and store writes with another's simulation;
        speculative duplicate submissions (hedged racing at the job
        level) still need it.
    job_history:
        Bound on the job registry.  Finished jobs beyond it (oldest
        first) are evicted so their Results can be reclaimed —
        ``provider.job(old_id)`` then raises KeyError (unless a durable
        store still holds the result, which :meth:`job` falls back to).
        ``None`` (default) keeps every handle, which is fine
        interactively but grows without bound in a long-lived service;
        set it (like *cache_entries*) for service deployments.
    store_path:
        Location of a durable :class:`~repro.service.JobStore` (SQLite
        WAL).  Every submission, status transition, and completed
        ``Result`` payload is persisted there, and a fresh provider
        opened on the same store **resumes**: completed results are
        re-served bit-identically, and jobs that were QUEUED/RUNNING
        at crash time are re-queued from their stored replay specs.
        When omitted, the ``REPRO_JOB_STORE`` environment variable is
        consulted; unset means in-memory jobs only.
    retry_policy:
        A :class:`~repro.service.RetryPolicy` applied to every job:
        failed attempts retry with deterministic exponential backoff,
        optionally bounded by a per-attempt timeout.  ``None``
        (default) runs each job exactly once.
    """

    def __init__(
        self,
        devices: Sequence[Device] = (),
        compile_mode: str = "auto",
        compile_workers: Optional[int] = None,
        cache_entries=_UNSET,
        cache_path: Optional[str] = None,
        job_workers: int = 1,
        job_history: Optional[int] = None,
        store_path: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if job_workers < 1:
            raise ValueError("job_workers must be at least 1")
        if job_history is not None and job_history < 1:
            raise ValueError("job_history must be at least 1")
        self.job_history = job_history
        self.retry_policy = retry_policy
        # The lock guards device registration and the job registry; it
        # must exist before the first add_device call below.
        self._lock = threading.Lock()
        self._devices: "OrderedDict[str, Device]" = OrderedDict()
        for device in devices:
            self.add_device(device)
        if cache_path is None:
            cache_path = os.environ.get(_CACHE_PATH_ENV) or None
        self.cache = ExecutionCache(max_entries=cache_entries,
                                    store_path=cache_path)
        # Attempts abandoned by a retry timeout keep running on their
        # daemon threads; the fence gate stops them from publishing
        # stale artifacts into the shared cache (no-op for unfenced
        # threads, so this costs nothing without a retry policy).
        self.cache.write_gate = publication_allowed
        self.compile_service = CompileService(
            max_workers=compile_workers, mode=compile_mode,
            cache=self.cache)
        self.execution_service = ExecutionService()
        self._pool = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-job")
        self._job_counter = 0
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._closed = False
        # Resume bookkeeping: while _resume_id is set, _submit_job
        # reuses that id instead of allocating a fresh one (only ever
        # set from __init__, before any concurrent submission exists).
        self._resume_id: Optional[str] = None
        self._resume_number = 0
        self._store: Optional[JobStore] = None
        if store_path is None:
            store_path = os.environ.get(_JOB_STORE_ENV) or None
        if store_path is not None:
            self._store = JobStore(store_path)
            self._job_counter = self._store.max_job_number()
            self._recover()

    # ------------------------------------------------------------------
    # device discovery
    # ------------------------------------------------------------------
    def available_devices(self) -> List[str]:
        """Names resolvable by :meth:`device` (built-ins + registered)."""
        with self._lock:
            names = set(_BUILTIN_DEVICES) | set(self._devices)
        return sorted(names)

    def device(self, name: str) -> Device:
        """The shared instance registered under *name*.

        Built-in devices are constructed once on first lookup and then
        reused, so every backend on ``"ibm_toronto"`` shares one
        instance — and with it the allocation-engine memos and
        compilation context.  Thread-safe: concurrent first lookups
        resolve to one instance.
        """
        with self._lock:
            found = self._devices.get(name)
            if found is not None:
                return found
            factory = _BUILTIN_DEVICES.get(name)
            if factory is None:
                names = sorted(set(_BUILTIN_DEVICES) | set(self._devices))
                raise UnknownDeviceError(name, names)
            device = factory()
            self._devices[name] = device
            return device

    def add_device(self, device: Device, name: Optional[str] = None
                   ) -> str:
        """Register *device* (under *name* or ``device.name``)."""
        key = name or device.name
        with self._lock:
            existing = self._devices.get(key)
            if existing is not None and existing is not device:
                raise ValueError(f"device {key!r} is already registered")
            self._devices[key] = device
        return key

    def _resolve_device(self, target: DeviceLike) -> Device:
        """Name -> registered instance; Device -> used as-is.

        A passed instance is opportunistically registered, but only if
        its name is still free: twin devices sharing one name (e.g. two
        differently-seeded Torontos in a benchmark fleet) stay usable
        without colliding — the explicitly passed instance always wins
        for *this* backend, and :meth:`device` keeps resolving the name
        to whichever instance claimed it first.
        """
        if isinstance(target, Device):
            with self._lock:
                self._devices.setdefault(target.name, target)
            return target
        return self.device(target)

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------
    def backends(self) -> List[str]:
        """Names :meth:`backend` / :meth:`simulator` accept."""
        return self.available_devices()

    def backend(self, target: DeviceLike = "ibm_toronto",
                **config) -> CloudBackend:
        """A cloud (scheduler-backed) backend on one device.

        Keyword arguments configure the target
        (:class:`~repro.service.BackendConfiguration` fields:
        ``allocator``, ``fidelity_threshold``, ``batch_window_ns``,
        ``shots``, ...).
        """
        device = self._resolve_device(target)
        return CloudBackend(device.name, self, DeviceFleet(device),
                            BackendConfiguration(**config))

    def get_backend(self, target: DeviceLike = "ibm_toronto",
                    **config) -> CloudBackend:
        """Alias of :meth:`backend` (the Qiskit-style accessor name)."""
        return self.backend(target, **config)

    def simulator(self, target: DeviceLike = "ibm_toronto",
                  **config) -> SimulatorBackend:
        """A direct-execution backend on one device (no queue model)."""
        device = self._resolve_device(target)
        return SimulatorBackend(f"{device.name}-simulator", self, device,
                                BackendConfiguration(**config))

    def fleet_backend(self, targets: Sequence[DeviceLike],
                      policy: str = "least_loaded",
                      name: Optional[str] = None,
                      **config) -> CloudBackend:
        """A cloud backend over a multi-device fleet.

        *policy* is the fleet placement policy (``round_robin`` /
        ``least_loaded`` / ``best_fidelity``).
        """
        devices = [self._resolve_device(t) for t in targets]
        fleet = DeviceFleet(devices, policy=policy)
        label = name or "fleet[" + ",".join(d.name for d in devices) + "]"
        return CloudBackend(label, self, fleet,
                            BackendConfiguration(**config))

    def session(self, backend: Union[BaseBackend, DeviceLike,
                                     None] = None,
                **kwargs) -> Session:
        """Open a :class:`Session` pinned to *backend*.

        *backend* may be an existing backend object or a device name
        (wrapped as a cloud backend); extra keyword arguments go to the
        :class:`Session` constructor (``shots``, ``seed``, ``warm``).
        """
        if backend is None or isinstance(backend, (str, Device)):
            backend = self.backend(backend or "ibm_toronto")
        return Session(backend, **kwargs)

    # ------------------------------------------------------------------
    # resume-on-restart
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the job registry from the durable store.

        Finished jobs come back as resolved handles (completed results
        re-served **bit-identically** from their stored payloads);
        QUEUED/RUNNING/RETRYING jobs — interrupted by whatever killed
        the previous provider — are re-queued from their replay specs
        under their original ids.
        """
        assert self._store is not None
        for record in self._store.jobs():
            if record.is_pending:
                self._resume_record(record)
            else:
                self._jobs[record.job_id] = self._rehydrated_handle(
                    record)

    @staticmethod
    def _rehydrated_handle(record: StoredJob) -> Job:
        """A resolved job handle for a stored final-state record."""
        # Local import: admission sits above the job/store primitives
        # this module already uses, and importing it at module scope
        # would cycle through the service package init.
        from .admission import OverloadedError, QuotaExceededError

        future: "Future[Result]" = Future()
        state = _JobState()
        state.attempts = record.attempts
        if record.status == "done" and record.result is not None:
            future.set_result(Result.from_dict(record.result))
        elif record.status == "cancelled":
            future.cancel()
        elif record.status in ("shed", "rejected"):
            # Admission refusals rehydrate as their typed errors, so a
            # restarted gateway reports the same refusal the original
            # caller saw — and never re-queues the work.
            cls = (OverloadedError if record.status == "shed"
                   else QuotaExceededError)
            future.set_exception(cls(
                record.error
                or f"job {record.job_id} was {record.status} "
                   "by admission control"))
            return Job(record.job_id, record.backend_name, future,
                       state=state,
                       final_status=JobStatus(record.status))
        else:
            future.set_exception(RuntimeError(
                record.error
                or f"job {record.job_id} failed before restart"))
        return Job(record.job_id, record.backend_name, future,
                   state=state)

    def _resume_record(self, record: StoredJob) -> None:
        """Re-queue one interrupted job from its stored replay spec."""
        spec = None
        if record.spec is not None:
            try:
                spec = pickle.loads(record.spec)
            except Exception:  # noqa: BLE001 - damaged spec = no replay
                spec = None
        if spec is None:
            assert self._store is not None
            error = ("interrupted before completion and not "
                     "replayable (no usable replay spec)")
            self._store.record_transition(record.job_id, "error",
                                          error=error)
            future: "Future[Result]" = Future()
            future.set_exception(RuntimeError(
                f"job {record.job_id} was {error}"))
            self._jobs[record.job_id] = Job(
                record.job_id, record.backend_name, future)
            return
        self._resume_id = record.job_id
        self._resume_number = record.job_number
        try:
            cfg = spec["configuration"]
            if spec["kind"] == "simulator":
                backend: BaseBackend = SimulatorBackend(
                    spec["backend_name"], self, spec["device"], cfg)
                payload = spec["payload"]
                if isinstance(payload, AllocationResult):
                    # The backend wraps the unpickled allocation's own
                    # device instance, satisfying run()'s identity check.
                    backend.run(payload, seed=spec["seed"])
                else:
                    backend.run(payload, seed=spec["seed"],
                                allocator=spec["allocator"])
            else:
                backend = CloudBackend(
                    spec["backend_name"], self, spec["fleet"], cfg)
                backend.run(spec["submissions"], seed=spec["seed"],
                            allocator=spec["allocator"],
                            execute=spec["execute"])
        finally:
            self._resume_id = None
            self._resume_number = 0

    # ------------------------------------------------------------------
    # the job pool
    # ------------------------------------------------------------------
    def reserve_job_id(self) -> "tuple[str, int]":
        """Allocate the next ``(job_id, job_number)`` without queueing.

        The gateway uses this for submissions refused at admission: the
        refusal gets a real provider-sequence id (recorded terminally in
        the store via :meth:`JobStore.record_refusal`), so accepted and
        refused work share one id space and the durable history orders
        them exactly as they arrived.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("provider is shut down")
            self._job_counter += 1
            number = self._job_counter
            return f"job-{number:06d}", number

    def _submit_job(self, backend: BaseBackend,
                    fn: Callable[[str], Result],
                    spec: Optional[dict] = None) -> Job:
        """Allocate an id, queue *fn* on the pool, return the handle.

        *spec* is the submission's replay recipe — pickled into the
        durable store (when one is attached) so a restarted provider
        can re-run the job; ``None`` marks it non-replayable.
        """
        store = self._store
        with self._lock:
            if self._closed:
                raise RuntimeError("provider is shut down")
            if self._resume_id is not None:
                job_id, number = self._resume_id, self._resume_number
            else:
                self._job_counter += 1
                number = self._job_counter
                job_id = f"job-{number:06d}"
        if store is not None:
            blob = None
            if spec is not None:
                try:
                    blob = pickle.dumps(spec)
                except Exception:  # noqa: BLE001 - best-effort durability
                    blob = None
            store.record_submission(job_id, number, backend.name, blob)
        state = _JobState()
        future = self._pool.submit(self._run_job, fn, job_id, state)
        on_cancel = None
        if store is not None:
            def on_cancel(job_id=job_id):  # noqa: E731 - closure per job
                store.record_transition(job_id, "cancelled")
        job = Job(job_id, backend, future, state=state,
                  on_cancel=on_cancel)
        with self._lock:
            self._jobs[job_id] = job
            if self.job_history is not None:
                # Evict oldest *finished* handles past the bound; live
                # jobs are never dropped, so the registry can exceed
                # the bound only by the number of in-flight jobs.
                excess = len(self._jobs) - self.job_history
                if excess > 0:
                    for jid in [jid for jid, j in self._jobs.items()
                                if j.done()][:excess]:
                        del self._jobs[jid]
        return job

    def _run_job(self, fn: Callable[[str], Result], job_id: str,
                 state: _JobState) -> Result:
        """Pool-side wrapper: retry policy + durable transitions."""
        policy = self.retry_policy
        store = self._store
        max_attempts = policy.max_attempts if policy is not None else 1
        for attempt in range(1, max_attempts + 1):
            state.attempts = attempt
            state.retrying = False
            if store is not None:
                store.record_transition(job_id, "running",
                                        attempt=attempt)
            try:
                if policy is not None:
                    result = policy.run_attempt(
                        lambda: fn(job_id), job_id, attempt)
                else:
                    result = fn(job_id)
            except BaseException as exc:
                state.last_error = exc
                if (policy is None or attempt >= max_attempts
                        or not policy.retries(exc)):
                    if store is not None:
                        store.record_transition(job_id, "error",
                                                attempt=attempt,
                                                error=str(exc))
                    raise
                state.retrying = True
                if store is not None:
                    store.record_transition(job_id, "retrying",
                                            attempt=attempt,
                                            error=str(exc))
                time.sleep(policy.delay_s(job_id, attempt))
                continue
            if attempt > 1 and isinstance(result, Result):
                result.metadata = dataclasses.replace(
                    result.metadata, attempts=attempt)
            if store is not None:
                store.record_transition(job_id, "done", attempt=attempt)
                if isinstance(result, Result):
                    store.record_result(job_id, result.to_dict())
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def job(self, job_id: str) -> Job:
        """Resolve a handle by its stable id.

        Handles evicted from the registry (``job_history``) are
        transparently rebuilt from the durable store when one is
        attached and still holds the job.
        """
        with self._lock:
            found = self._jobs.get(job_id)
        if found is None and self._store is not None:
            record = self._store.get(job_id)
            if record is not None and not record.is_pending:
                return self._rehydrated_handle(record)
        if found is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return found

    def jobs(self) -> List[Job]:
        """Every retained handle, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def retire_finished(self) -> int:
        """Drop every finished handle from the registry (freeing their
        Results for reclamation); returns how many were dropped."""
        with self._lock:
            done = [jid for jid, job in self._jobs.items() if job.done()]
            for jid in done:
                del self._jobs[jid]
        return len(done)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Snapshot of the shared compile-cache/service counters.

        Request accounting (submitted/coalesced/short-circuits) merged
        with the cache tiers' hit/miss/eviction/promotion counters —
        see :attr:`repro.core.CompileService.stats`.
        """
        return dict(self.compile_service.stats)

    @property
    def cache_path(self) -> Optional[str]:
        """Path of the attached persistent store, or ``None``."""
        return self.cache.store_path

    @property
    def store(self) -> Optional[JobStore]:
        """The attached durable job store, or ``None``."""
        return self._store

    @property
    def store_path(self) -> Optional[str]:
        """Path of the attached durable job store, or ``None``."""
        return None if self._store is None else self._store.path

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the job pool and the compile service.

        With ``wait=True`` queued jobs drain: everything already
        submitted finishes (and lands in the store) first.  With
        ``wait=False`` queued-but-unstarted jobs are **cancelled
        deterministically**, in submission order, and recorded as
        CANCELLED in the durable store — never left QUEUED to be
        silently re-run by the next resume.  Running jobs cannot be
        interrupted either way (the kernels hold no cancellation
        points); ``wait=False`` simply stops waiting for them.  The
        caches stay readable either way.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = list(self._jobs.values())
        if not wait:
            # Drain the queue first so the worker cannot start a later
            # job while earlier ones are being cancelled; then record
            # the cancellations in submission order (cancel() on an
            # already-cancelled future succeeds and fires the store
            # hook).
            self._pool.shutdown(wait=False, cancel_futures=True)
            for job in jobs:
                job.cancel()
        else:
            self._pool.shutdown(wait=True)
        self.compile_service.shutdown(wait=wait)
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "QuantumProvider":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"<QuantumProvider devices={self.available_devices()} "
                f"jobs={self._job_counter}>")


_DEFAULT_PROVIDER: Optional[QuantumProvider] = None
_DEFAULT_LOCK = threading.Lock()


def provider(**options) -> QuantumProvider:
    """The process-wide default :class:`QuantumProvider`.

    With no arguments, returns one shared instance (created on first
    call) — the idiomatic entry point, so separate modules draw on the
    same caches and job registry.  Any keyword argument constructs a
    *fresh*, independent provider configured with it instead.
    """
    if options:
        return QuantumProvider(**options)
    global _DEFAULT_PROVIDER
    with _DEFAULT_LOCK:
        if _DEFAULT_PROVIDER is None:
            _DEFAULT_PROVIDER = QuantumProvider()
        return _DEFAULT_PROVIDER
