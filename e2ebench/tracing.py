"""In-memory span tracing of the request path, applied from outside.

:class:`Tracer` wraps the public entry points of each ``src/repro``
layer, binding every wrapper under the name its caller looks up (a
class attribute for methods, the importing module's global for
functions), so no program code changes.  Each call records one span:
name, start, end, parent span, thread and the carrier/ticket id it
served.  Spans live in a lock-guarded list until :meth:`Tracer.export`
writes them out as stdlib JSON.

Self time is a span's length minus the part its children cover.
Children are nested calls on the same thread; work a pool thread does
for the job thread is its own root span, and the job thread's time
waiting for it is the ``exec.wait``/``compile.wait`` span.  Work in
process-pool workers is invisible here and shows up only as those
waits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, span name)`` for every wrapped entry
#: point.  Dotted paths are class attributes; bare names are module
#: globals, patched in the module that *calls* them.  Missing targets
#: are skipped and listed in the export, so a refactor that renames a
#: private route loses that span rather than breaking the benchmark.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.gateway", "Gateway.submit", "gateway.submit"),
    ("repro.service.gateway", "Gateway.flush", "gateway.flush"),
    ("repro.service.gateway", "Gateway.result", "gateway.result"),
    ("repro.service.job", "Job.result", "gateway.result_wait"),
    ("repro.service.admission", "AdmissionController.decide",
     "admission.decide"),
    ("repro.service.backend", "CloudBackend.run", "backend.run"),
    ("repro.service.provider", "QuantumProvider._run_job", "job.run"),
    ("repro.core.scheduler", "CloudScheduler.schedule",
     "scheduler.schedule"),
    ("repro.service.backend", "run_batch", "exec.run_batch"),
    ("repro.core.executor", "compute_transpile_key", "cache.key"),
    ("repro.core.executor", "ExecutionCache.ideal", "cache.ideal"),
    ("repro.core.compile_service", "CompileService.submit_allocation",
     "compile.submit"),
    ("repro.core.executor", "transpile_for_partition",
     "compile.transpile"),
    ("repro.core.execution_service", "ExecutionService.run_parallel",
     "exec.run_parallel"),
    ("repro.core.execution_service", "ExecutionService._run_threads",
     "exec.wait"),
    ("repro.core.execution_service", "ExecutionService._run_process",
     "exec.wait"),
    ("repro.core.execution_service", "run_circuit", "sim.dm"),
    ("repro.sim.feedforward", "run_dynamic", "sim.feedforward"),
    ("repro.service.store", "JobStore.record_submission", "store.write"),
    ("repro.service.store", "JobStore.record_transition", "store.write"),
    ("repro.service.store", "JobStore.record_result", "store.write"),
    ("repro.service.backend", "CloudBackend._build_result",
     "result.build"),
    ("repro.service.result", "Result.to_dict", "result.serialize"),
)

#: Spans that only wait for work another thread does; excluded from
#: the attributed time so nothing is counted twice.
WAIT_ONLY = ("gateway.result_wait",)


class _TimedFuture:
    """A compile future whose ``result()`` records a wait span."""

    def __init__(self, future: Future, tracer: "Tracer") -> None:
        self._future = future
        self._tracer = tracer

    def result(self, timeout: Optional[float] = None):
        with self._tracer.span("compile.wait"):
            return self._future.result(timeout)

    def __getattr__(self, name: str):
        return getattr(self._future, name)


class _Span:
    """Context manager recording one span into its tracer."""

    __slots__ = ("tracer", "name", "ref", "index")

    def __init__(self, tracer: "Tracer", name: str,
                 ref: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.ref = ref
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self.tracer._open(self.name, self.ref)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.index)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install()`` patches every reachable target; ``uninstall()``
    restores the originals.  Only one carrier is ever in flight (one
    client, one job worker), so spans on the job and pool threads are
    attributed to :attr:`carrier`, set when the carrier starts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: ``[name, start, end, parent, thread, ref]`` per span.
        self.spans: List[list] = []
        self.carrier: Optional[str] = None
        self.client_thread = threading.get_ident()
        self.pid = os.getpid()
        self.job_thread: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []
        self.skipped: List[str] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, ref: Optional[str]) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        row = [name, time.perf_counter(), None, parent,
               threading.get_ident(), ref or self.carrier]
        with self._lock:
            self.spans.append(row)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, ref: Optional[str] = None) -> _Span:
        return _Span(self, name, ref)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        if name == "job.run":
            @functools.wraps(fn)
            def job_run(provider, run_fn, job_id, *args, **kwargs):
                tracer.carrier = job_id
                tracer.job_thread = threading.get_ident()
                with tracer.span(name, job_id):
                    return fn(provider, run_fn, job_id, *args, **kwargs)
            return job_run

        if name == "compile.submit":
            @functools.wraps(fn)
            def submit_allocation(*args, **kwargs):
                with tracer.span(name):
                    futures = fn(*args, **kwargs)
                return [_TimedFuture(f, tracer) for f in futures]
            return submit_allocation

        if name in ("gateway.submit", "gateway.flush", "gateway.result"):
            # Record the ticket (or, for a flush, the carrier) id the
            # response names.
            @functools.wraps(fn)
            def respond(*args, **kwargs):
                with tracer.span(name) as sp:
                    out = fn(*args, **kwargs)
                tracer.spans[sp.index][5] = out.get(
                    "job_id", out.get("carrier_job_id"))
                return out
            return respond

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                # A forked pool worker inherited the patch; its spans
                # could never reach the parent.
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> "Tracer":
        self.skipped = []
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__.get(attr) if isinstance(
                owner, type) else getattr(owner, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time (s) of every span, by span index."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self time (s).  Spans taken
        on pool threads are listed apart, as ``name [pool]``: their time
        overlaps the job thread's wait for them."""
        blocking = {self.client_thread, self.job_thread}
        table: Dict[str, Dict[str, float]] = {}
        for row, own in zip(self.spans, self.self_times()):
            name = row[0] if row[4] in blocking else f"{row[0]} [pool]"
            entry = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += row[2] - row[1]
            entry["self_s"] += own
        return table

    def queue_waits(self) -> List[float]:
        """Per carrier: flush returned -> carrier started (s)."""
        flushed = {row[5]: row[2] for row in self.spans
                   if row[0] == "gateway.flush"}
        return [row[1] - flushed[row[5]] for row in self.spans
                if row[0] == "job.run" and row[5] in flushed]

    def attributed_s(self) -> float:
        """Time covered by layer spans on the blocking path: self time
        on the client and job threads (waits for the other thread
        excluded) plus each carrier's queue wait."""
        blocking = {self.client_thread, self.job_thread}
        covered = sum(
            own for row, own in zip(self.spans, self.self_times())
            if row[4] in blocking and row[0] not in WAIT_ONLY)
        return covered + sum(self.queue_waits())

    def span_cost_s(self, calls: int = 20000) -> float:
        """What tracing adds to one call: a wrapped no-op timed against
        the bare one, on a throw-away tracer."""
        def noop() -> None:
            return None

        wrapped = Tracer()._wrap(noop, "probe")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, time.perf_counter() - start - bare) / calls

    def export(self, path: str, extra: Dict[str, object]) -> None:
        """Write every span and *extra* context as one JSON document."""
        t0 = self.spans[0][1] if self.spans else 0.0
        threads: Dict[int, int] = {}
        rows = []
        for name, start, end, parent, thread, ref in self.spans:
            rows.append({
                "name": name,
                "start_us": round((start - t0) * 1e6, 3),
                "end_us": round((end - t0) * 1e6, 3),
                "parent": parent,
                "thread": threads.setdefault(thread, len(threads)),
                "id": ref,
            })
        with open(path, "w") as fh:
            json.dump(dict(extra, skipped_targets=self.skipped,
                           spans=rows), fh)
