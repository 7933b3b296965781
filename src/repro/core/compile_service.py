"""Transpile service: inline compiles behind a shared cache.

The cloud service's compile cost is per-program transpilation; with the
:mod:`~repro.transpiler.context` layer the device-invariant tables are
shared, so what remains is per-program work.  :class:`CompileService`
runs every compile it owns inline on the calling thread, with three
layers of reuse:

- the shared :class:`~repro.core.executor.ExecutionCache` (full results,
  keyed by circuit structure + placement + device + hook);
- in-flight coalescing — a request for a key another thread is already
  compiling joins that compile's future instead of compiling twice;
- the fingerprint-keyed :func:`~repro.transpiler.context.device_context`
  registry, so no compile rebuilds distance tables.

Compiles run inline because pools did not pay: on a 2-core host no
end-to-end workload ever reached the process route (every batch held
1-4 programs), and inline compiles matched or beat the thread route
(``vqe_sweep`` 115 vs 107 programs/s over 10 alternating pairs).

It plugs into :func:`repro.core.executor.run_batch` (prefetch: all jobs'
programs are compiled before the first job executes) and
:class:`repro.core.CloudScheduler` (each dispatched batch is compiled
as it is admitted).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, Hashable, List, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device
from ..transpiler.transpile import TranspileResult
from .allocators import AllocationResult, ProgramAllocation
from .executor import ExecutionCache, TranspilerFn, _default_transpiler

__all__ = ["CompileService"]


class CompileService:
    """Compiles programs inline, deduplicated against a shared cache.

    Parameters
    ----------
    cache:
        The shared :class:`ExecutionCache`; a private one is created
        when omitted.  Every compile publishes its result here, so
        executors running against the same cache see compile hits.

    Futures returned by :meth:`submit` resolve to *raw* (shared) results;
    use :meth:`transpile` / :meth:`compile_allocation` to get the
    defensively copied form callers may mutate.
    """

    def __init__(self, cache: Optional[ExecutionCache] = None) -> None:
        self.cache = cache or ExecutionCache()
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, Future] = {}
        self._requests: Dict[str, int] = {
            "submitted": 0, "coalesced": 0, "short_circuits": 0,
            "fallbacks": 0}

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting merged with the cache's tier counters.

        Request side: ``submitted`` (compiles actually run),
        ``coalesced`` (requests that joined another thread's in-flight
        compile), ``short_circuits`` (answered straight from the
        cache), and ``fallbacks``, always 0 now that no pool can break
        (kept because the end-to-end benchmark reads it).  Cache side:
        see :attr:`ExecutionCache.stats` (hits/misses, evictions,
        equivalence hits, promotions, ``persistent_*``).
        """
        merged = dict(self._requests)
        merged.update(self.cache.stats)
        return merged

    # ------------------------------------------------------------------
    def submit(self, circuit: QuantumCircuit, device: Device,
               allocation: ProgramAllocation,
               transpiler_fn: Optional[TranspilerFn] = None) -> Future:
        """Compile one program; dedups against cache and in-flight work.

        An owned request compiles before this returns; the future
        resolves once the result is computed *and* published to
        :attr:`cache`.  A request joining another thread's compile gets
        that compile's future, which may still be pending.  The value is
        the raw cached result — shared, do not mutate; resolve through
        :meth:`transpile` for a fresh copy.
        """
        fn = transpiler_fn or _default_transpiler
        key = self.cache.transpile_key(circuit, device, allocation, fn)
        with self._lock:
            found, out = self._claim(key, device, fn)
        if out is None:
            return found
        try:
            result = fn(circuit, device, allocation)
            self.cache.store_transpile_raw(key, device, fn, result)
        except BaseException as exc:  # noqa: BLE001 - future carries it
            self._release(key)
            out.set_exception(exc)
        else:
            self._release(key)
            out.set_result(result)
        return out

    def _claim(self, key: Optional[Hashable], device: Device,
               fn: TranspilerFn
               ) -> Tuple[Optional[Future], Optional[Future]]:
        """Cache/in-flight dedup for one request.

        Call under the lock with *key* precomputed outside it (the
        circuit fingerprint is the expensive part and needs no lock).
        Returns ``(resolved, owned)``: *resolved* is a future the
        caller hands back as-is (cache hit or coalesced join, in which
        case *owned* is ``None``); otherwise *owned* is a fresh future
        the caller must fulfil, registered in-flight under *key*.
        """
        found = self.cache.lookup_transpile_raw(key, device, fn)
        if found is not None:
            self._requests["short_circuits"] += 1
            done: Future = Future()
            done.set_result(found)
            return done, None
        if key is not None:
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._requests["coalesced"] += 1
                return inflight, None
        out: Future = Future()
        if key is not None:
            self._inflight[key] = out
        self._requests["submitted"] += 1
        return None, out

    def _release(self, key: Optional[Hashable]) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    def transpile(self, circuit: QuantumCircuit, device: Device,
                  allocation: ProgramAllocation,
                  transpiler_fn: Optional[TranspilerFn] = None
                  ) -> TranspileResult:
        """Blocking single transpile through the service (fresh copy)."""
        fut = self.submit(circuit, device, allocation, transpiler_fn)
        return ExecutionCache._fresh(fut.result())

    # ------------------------------------------------------------------
    def submit_allocation(self, allocation_result: AllocationResult,
                          transpiler_fn: Optional[TranspilerFn] = None
                          ) -> List[Future]:
        """Submit every program of one allocated job (program order)."""
        device = allocation_result.device
        return [
            self.submit(a.circuit, device, a, transpiler_fn)
            for a in sorted(allocation_result.allocations,
                            key=lambda a: a.index)
        ]

    def compile_allocation(self, allocation_result: AllocationResult,
                           transpiler_fn: Optional[TranspilerFn] = None
                           ) -> List[TranspileResult]:
        """Batch-transpile one allocated job; results in program order."""
        futures = self.submit_allocation(allocation_result, transpiler_fn)
        return [ExecutionCache._fresh(f.result()) for f in futures]
