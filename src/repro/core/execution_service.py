"""Parallel program execution over a persistent worker pool.

With the compile path ~13x faster and persistent across processes
(PRs 3-6), end-to-end job latency is dominated by *simulation*: GIL-bound
numpy running strictly serially inside
:func:`~repro.sim.executor.run_parallel`.  :class:`ExecutionService`
shards that per-program work across a process pool, mirroring
:class:`~repro.core.compile_service.CompileService`:

- the joint (cross-program) half of a batch —
  :func:`~repro.sim.executor.prepare_parallel` (validation, ASAP padding,
  crosstalk scales) and :func:`~repro.sim.executor.spawn_seeds` — runs in
  the **parent**, so after it each program's simulation is a pure
  function of its own ``(circuit, partition, seed, scales, shots)``
  tuple;
- programs are sharded into contiguous per-worker chunks carrying the
  plain-data device fingerprint
  (:func:`~repro.core.compile_service._device_fingerprint_spec` — the
  calibration snapshot, kilobytes) plus the pre-spawned
  :class:`~numpy.random.SeedSequence` children, so the per-program RNG
  streams are **bit-identical to the serial path** regardless of how the
  batch is chunked (enforced by ``tests/test_execution_service.py``);
- each worker rebuilds the :class:`~repro.sim.noise_model.NoiseModel`
  once per calibration fingerprint (process-local cache) and restricts
  it per partition — the same plain-dict construction as
  :meth:`~repro.hardware.devices.Device.noise_model`, hence the same
  floats, hence the same Kraus channels.

Each program's noisy output distribution is memoized on the service.
After the joint half, a program's probabilities depend only on its
effective circuit, its partition's calibration values, its crosstalk
scales and ``noisy`` — never on the seed or the shot count, which enter
only at :func:`~repro.sim.readout.sample_counts`.  The memo key is a
16-byte blake2b digest of exactly those values (:func:`_memo_key`), so a
hit replays ``sample_counts(probabilities, shots, seed)`` — the call
:func:`~repro.sim.density_matrix.run_circuit` makes — and its counts are
bit-identical to a fresh simulation.  Dynamic programs (control flow or
mid-circuit measurement) sample per shot and bypass the memo.  Only the
misses are routed and simulated; workers stay stateless.

``mode="auto"`` routes each batch's misses to serial/thread/process
workers from their estimated simulation cost (miss count x per-program
width/shots cost, measured table below) against the measured pool
overheads — so a single-core host, a tiny batch, or a batch whose total
work would not amortize a fork never pays for a pool it cannot exploit.
A broken process pool degrades to inline serial execution
(``stats["fallbacks"]``) and is replaced compare-and-swap style, exactly
like the compile service.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..cache import MemoryCache
from ..circuits.controlflow import ControlFlowOp
from ..hardware.calibration import Calibration
from ..hardware.devices import Device
from ..sim.density_matrix import SimulationResult, run_circuit
from ..sim.executor import Program, prepare_parallel, spawn_seeds
from ..sim.noise_model import NoiseModel
from ..sim.readout import SeedLike, sample_counts
from ..transpiler.context import calibration_fingerprint
from .compile_service import _device_fingerprint_spec

__all__ = ["ExecutionService"]

_MODES = ("auto", "thread", "process", "serial")

#: Batches at or below this size always run inline: even at the widest
#: committed program the pool entry overhead is comparable to the work.
_SERIAL_MAX_BATCH = 2

#: Measured per-program simulation cost (ms) by circuit width — 20-gate
#: heavy-tail-mix programs at 4096 shots on the committed crossover run
#: (``benchmarks/bench_execution.py``, see ``BENCH_execution.json``).
#: Above the table the cost is extrapolated at the measured ~2x/qubit
#: slope (density-matrix state doubles per qubit twice, but gate count
#: per layer shrinks the constant).
_PROGRAM_COST_MS: Dict[int, float] = {
    1: 2.0, 2: 3.8, 3: 6.3, 4: 7.3, 5: 12.6, 6: 17.8, 7: 48.0,
}
_COST_TABLE_MAX = max(_PROGRAM_COST_MS)

#: Extra cost per 4096 shots beyond the first (sampling is cheap next to
#: the density-matrix evolution; measured <1 ms at width 7).
_SHOTS_COST_MS_PER_4096 = 0.5

#: Measured routing thresholds (same crossover run): a thread pool costs
#: ~0.1 ms/task to enter, a process pool ~2 ms to create plus ~16 ms
#: first-dispatch round-trip and per-chunk pickling.  Below
#: ``_THREAD_MIN_BATCH_MS`` of estimated work the pool entry is a pure
#: tax — stay serial; below ``_PROCESS_MIN_BATCH_MS`` a fork cannot
#: amortize — use threads (numpy releases the GIL inside its kernels,
#: so threads overlap partially at zero pickling cost).
_THREAD_MIN_BATCH_MS = 25.0
_PROCESS_MIN_BATCH_MS = 120.0

#: Output distributions each service keeps (LRU).  An entry is a digest
#: key plus at most ``2**width`` probabilities — about 5 KB at width 7.
_MEMO_MAX_ENTRIES = 256


# ----------------------------------------------------------------------
# output-distribution memo
# ----------------------------------------------------------------------

def _memo_key(program: Program, scales: Dict[int, float],
              calibration: Calibration, noisy: bool) -> Optional[bytes]:
    """Digest of everything :func:`run_circuit` reads, or ``None``.

    Covers the effective circuit (after ASAP padding), the calibration
    values the partition-restricted noise model carries (1q/2q error,
    readout, t1, t2, detuning — read live, so an in-place calibration
    edit changes the key), the crosstalk scales and ``noisy``.  Seed and
    shots are left out: they only enter at sampling.  Dynamic circuits
    sample per shot, so they get no key.
    """
    # One pass builds the instruction entries and repeats run_circuit's
    # dispatch test: control flow, or a measured qubit operated on again,
    # goes to the per-shot feed-forward engine.
    circuit = program.circuit
    entries = []
    measured: set = set()
    for inst in circuit:
        gate = inst.gate
        if isinstance(gate, ControlFlowOp):
            return None
        name = gate.name
        if name == "measure":
            measured.add(inst.qubits[0])
        elif (name not in ("delay", "barrier")
              and not measured.isdisjoint(inst.qubits)):
            return None
        entries.append((name, gate.params, inst.qubits, inst.clbits))
    noise: Tuple = ()
    if noisy:
        part = program.partition
        cal = calibration
        noise = (
            [(cal.oneq_error.get(p), cal.readout_error.get(p),
              cal.t1.get(p), cal.t2.get(p), cal.detuning.get(p))
             for p in part],
            [(i, j, cal.twoq_error.get((a, b) if a <= b else (b, a)))
             for i, a in enumerate(part) for j, b in enumerate(part)
             if i < j],
        )
    payload = (circuit.num_qubits, circuit.num_clbits, entries, noise,
               sorted(scales.items()), noisy)
    return hashlib.blake2b(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),
                           digest_size=16).digest()


# ----------------------------------------------------------------------
# process-worker side: fingerprint shipping + noise-model rehydration
# ----------------------------------------------------------------------

#: Process-local noise models, one per calibration fingerprint: every
#: chunk a worker serves after the first reuses the rebuilt model.
_WORKER_NOISE: Dict[Hashable, NoiseModel] = {}


def _noise_from_calibration(calibration) -> NoiseModel:
    """The exact :meth:`Device.noise_model` construction, from a snapshot.

    Same plain-dict copies of the same calibration values, so the
    worker-side model is bit-identical to the parent's.
    """
    return NoiseModel(
        oneq_error=dict(calibration.oneq_error),
        twoq_error=dict(calibration.twoq_error),
        readout_error=dict(calibration.readout_error),
        t1=dict(calibration.t1),
        t2=dict(calibration.t2),
        detuning=dict(calibration.detuning),
        gate_duration=dict(calibration.gate_duration),
    )


def _worker_noise(calibration) -> NoiseModel:
    """This worker process's noise model for *calibration* (cached)."""
    key = calibration_fingerprint(calibration)
    model = _WORKER_NOISE.get(key)
    if model is None:
        model = _noise_from_calibration(calibration)
        _WORKER_NOISE[key] = model
    return model


def _simulate_chunk(
    spec: Dict,
    tasks: Sequence[Tuple],
    shots: int,
    noisy: bool,
) -> List[SimulationResult]:
    """Simulate one shard of (circuit, partition, seed, scales) tasks.

    Mirrors the serial loop of :func:`~repro.sim.executor.run_parallel`
    exactly: the seed is the parent-spawned per-program child stream and
    the scales come from the parent's joint schedule, so nothing here
    depends on which chunk (or how many chunks) the batch was cut into.
    """
    noise = _worker_noise(spec["calibration"]) if noisy else None
    results: List[SimulationResult] = []
    for circuit, partition, seed, scales in tasks:
        restricted = noise.restricted(partition) if noise is not None \
            else None
        results.append(
            run_circuit(circuit, noise_model=restricted, shots=shots,
                        seed=seed, error_scales=scales))
    return results


class ExecutionService:
    """Executes program batches across a persistent worker pool.

    Parameters
    ----------
    max_workers:
        Pool size (``None`` = executor default).  Ignored for
        ``mode="serial"``.
    mode:
        ``"auto"`` (default; per-batch choice via :meth:`choose_route`),
        ``"thread"``, ``"process"``, or ``"serial"`` (no pool — same
        API, inline execution, bit-identical to
        :func:`~repro.sim.executor.run_parallel`).

    Across batches the service keeps its pools, :attr:`stats` and an
    LRU memo of up to ``_MEMO_MAX_ENTRIES`` output distributions, keyed
    by a digest of each program's effective circuit, partition
    calibration values, crosstalk scales and ``noisy`` (see
    :func:`_memo_key`).  Hits resample the stored distribution with the
    program's own seed, so results stay bit-identical to
    :func:`~repro.sim.executor.run_parallel`; any number of executors
    may share one instance.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 mode: str = "auto") -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
        self.mode = mode
        self._max_workers = max_workers
        # Pools are lazy: auto mode may never need one of them, and a
        # process pool costs real fork/spawn time.
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        # ``batches``/``programs`` count everything routed through
        # :meth:`run_parallel`; ``chunks`` process-pool shards shipped;
        # ``fallbacks`` programs executed inline after a broken or
        # shut-down pool; ``*_batches`` per-route accounting.
        self._requests: Dict[str, int] = {
            "batches": 0, "programs": 0, "chunks": 0, "fallbacks": 0,
            "serial_batches": 0, "thread_batches": 0, "process_batches": 0,
        }
        self._memo = MemoryCache(_MEMO_MAX_ENTRIES)

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting (copy): batches, programs, chunks,
        fallbacks, per-route batch counts, and memo hits/misses (static
        programs only; dynamic ones bypass the memo)."""
        memo = self._memo.stats
        with self._lock:
            out = dict(self._requests)
        out["memo_hits"] = memo["hits"]
        out["memo_misses"] = memo["misses"]
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def estimate_batch_ms(batch_size: int, max_program_qubits: int,
                          shots: int) -> float:
        """Estimated serial simulation cost of one batch (ms).

        Per-program cost from the measured width table (extrapolated at
        ~2x/qubit above it) plus the measured marginal shot-sampling
        cost, times the batch size.  This deliberately prices every
        program at the batch's *widest* width — over-estimating mixed
        batches routes them to a pool a little early, which on a
        multi-core host is the cheap direction to err.
        """
        width = max(1, max_program_qubits)
        if width <= _COST_TABLE_MAX:
            per_program = _PROGRAM_COST_MS[width]
        else:
            per_program = (_PROGRAM_COST_MS[_COST_TABLE_MAX]
                           * 2.0 ** (width - _COST_TABLE_MAX))
        per_program += _SHOTS_COST_MS_PER_4096 * max(shots, 0) / 4096.0
        return batch_size * per_program

    @classmethod
    def choose_route(cls, batch_size: int, max_program_qubits: int,
                     shots: int = 4096,
                     cores: Optional[int] = None) -> str:
        """Worker route for one batch, from measured cost/overhead data.

        Tiny batches run inline; a single-core host always runs inline
        (no pool can win without a second core — the compile bench's
        1-core ``cold_process`` regression is exactly this mistake);
        batches whose estimated work would not amortize a fork use
        threads; the rest shard across the process pool.  Thresholds
        come from the committed crossover measurement
        (``benchmarks/bench_execution.py --crossover``), not guesses.
        """
        if batch_size <= _SERIAL_MAX_BATCH:
            return "serial"
        if cores is None:
            cores = os.cpu_count() or 1
        if cores <= 1:
            return "serial"
        estimated = cls.estimate_batch_ms(batch_size, max_program_qubits,
                                          shots)
        if estimated < _THREAD_MIN_BATCH_MS:
            return "serial"
        if estimated < _PROCESS_MIN_BATCH_MS:
            return "thread"
        return "process"

    def _thread_executor(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="execution-service")
        return self._thread_pool

    def _process_executor(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            self._process_pool = ProcessPoolExecutor(
                max_workers=self._max_workers)
        return self._process_pool

    # ------------------------------------------------------------------
    def run_parallel(
        self,
        programs: Sequence[Program],
        device: Device,
        shots: int = 4096,
        seed: SeedLike = None,
        scheduling: str = "alap",
        include_crosstalk: bool = True,
        noisy: bool = True,
    ) -> List[SimulationResult]:
        """Drop-in, bit-identical replacement for
        :func:`repro.sim.executor.run_parallel`.

        The joint half (validation, ASAP padding, crosstalk scales, seed
        spawning) runs here in the parent.  Memo hits are resampled
        inline; only the misses are routed and simulated, so the
        results cannot depend on the route, the chunking or the memo.
        """
        effective, scales = prepare_parallel(
            programs, device, scheduling=scheduling,
            include_crosstalk=include_crosstalk, noisy=noisy)
        seeds = spawn_seeds(seed, len(effective))

        results: List[Optional[SimulationResult]] = [None] * len(effective)
        keys = [_memo_key(prog, scales[k], device.calibration, noisy)
                for k, prog in enumerate(effective)]
        misses: List[int] = []
        for k, key in enumerate(keys):
            cached = self._memo.get(key) if key is not None else None
            if cached is None:
                misses.append(k)
                continue
            probabilities, measured_clbits = cached
            results[k] = SimulationResult(
                probabilities=dict(probabilities),
                counts=sample_counts(probabilities, shots, seed=seeds[k]),
                shots=shots, measured_clbits=measured_clbits)

        todo = [effective[k] for k in misses]
        todo_scales = [scales[k] for k in misses]
        todo_seeds = [seeds[k] for k in misses]
        route = self.mode if todo else "serial"
        if route == "auto":
            max_width = max(p.circuit.num_qubits for p in todo)
            route = self.choose_route(len(todo), max_width, shots)
        with self._lock:
            self._requests["batches"] += 1
            self._requests["programs"] += len(effective)
            self._requests[f"{route}_batches"] += 1

        if route == "serial":
            fresh = self._run_inline(todo, todo_scales, todo_seeds, device,
                                     shots, noisy, range(len(todo)))
        elif route == "thread":
            fresh = self._run_threads(todo, todo_scales, todo_seeds, device,
                                      shots, noisy)
        else:
            fresh = self._run_process(todo, todo_scales, todo_seeds, device,
                                      shots, noisy)
        for k, result in zip(misses, fresh):
            results[k] = result
            if keys[k] is not None:
                self._memo.put(keys[k], (dict(result.probabilities),
                                         result.measured_clbits))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_inline(self, effective: Sequence[Program],
                    scales: Sequence[Dict[int, float]],
                    seeds: Sequence[Optional[np.random.SeedSequence]],
                    device: Device, shots: int, noisy: bool,
                    indices: Sequence[int]) -> List[SimulationResult]:
        """The serial loop of :func:`sim.executor.run_parallel`, verbatim."""
        full_noise = device.noise_model() if noisy else None
        results: List[SimulationResult] = []
        for k in indices:
            prog = effective[k]
            noise = None
            if noisy:
                noise = full_noise.restricted(prog.partition)
            results.append(
                run_circuit(prog.circuit, noise_model=noise, shots=shots,
                            seed=seeds[k], error_scales=scales[k]))
        return results

    def _run_threads(self, effective: Sequence[Program],
                     scales: Sequence[Dict[int, float]],
                     seeds: Sequence[Optional[np.random.SeedSequence]],
                     device: Device, shots: int, noisy: bool
                     ) -> List[SimulationResult]:
        """One thread task per program; parent-side noise restriction."""
        full_noise = device.noise_model() if noisy else None
        futures: List[Future] = []
        submitted = 0
        try:
            pool = self._thread_executor()
            for k, prog in enumerate(effective):
                noise = (full_noise.restricted(prog.partition)
                         if noisy else None)
                futures.append(
                    pool.submit(run_circuit, prog.circuit,
                                noise_model=noise, shots=shots,
                                seed=seeds[k], error_scales=scales[k]))
                submitted = k + 1
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:  # noqa: BLE001 - pool health, not a program
            # A shut-down/unusable thread pool must not fail the batch:
            # run the unsubmitted tail inline (already-submitted futures
            # still resolve normally below).
            rest = range(submitted, len(effective))
            with self._lock:
                self._requests["fallbacks"] += len(rest)
            tail = self._run_inline(effective, scales, seeds, device,
                                    shots, noisy, rest)
            return [f.result() for f in futures] + tail
        return [f.result() for f in futures]

    def _run_process(self, effective: Sequence[Program],
                     scales: Sequence[Dict[int, float]],
                     seeds: Sequence[Optional[np.random.SeedSequence]],
                     device: Device, shots: int, noisy: bool
                     ) -> List[SimulationResult]:
        """Contiguous per-worker chunks over the process pool."""
        spec = _device_fingerprint_spec(device)
        workers = self._max_workers or os.cpu_count() or 1
        n_chunks = max(1, min(len(effective), workers))
        bounds = [round(i * len(effective) / n_chunks)
                  for i in range(n_chunks + 1)]
        chunks: List[Tuple[int, int, Future]] = []
        submitted_upto = 0
        pool = None
        try:
            pool = self._process_executor()
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == hi:
                    continue
                tasks = [(effective[k].circuit, effective[k].partition,
                          seeds[k], scales[k]) for k in range(lo, hi)]
                chunks.append(
                    (lo, hi, pool.submit(_simulate_chunk, spec, tasks,
                                         shots, noisy)))
                submitted_upto = hi
                with self._lock:
                    self._requests["chunks"] += 1
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:  # noqa: BLE001 - pool health, not a program
            # pool.submit (or pool creation) raised synchronously: a
            # broken or shut-down pool.  Drop it so the next batch gets
            # a fresh one; the unsubmitted tail runs inline below.
            self._drop_pool(pool)
            pool = None

        results: List[Optional[SimulationResult]] = [None] * len(effective)
        for lo, hi, fut in chunks:
            try:
                chunk_results = fut.result()
                if len(chunk_results) != hi - lo:
                    raise RuntimeError(
                        f"chunk returned {len(chunk_results)} results for "
                        f"{hi - lo} tasks")
            except (KeyboardInterrupt, SystemExit):
                raise
            except BrokenExecutor:
                # A worker died mid-chunk (OOM-killed, crashed
                # interpreter): pool health, not a program error — the
                # programs themselves are fine, so simulate them inline.
                self._drop_pool(pool)
                pool = None
                with self._lock:
                    self._requests["fallbacks"] += hi - lo
                chunk_results = self._run_inline(
                    effective, scales, seeds, device, shots, noisy,
                    range(lo, hi))
            results[lo:hi] = chunk_results
        if submitted_upto < len(effective):
            rest = range(submitted_upto, len(effective))
            with self._lock:
                self._requests["fallbacks"] += len(rest)
            results[submitted_upto:] = self._run_inline(
                effective, scales, seeds, device, shots, noisy, rest)
        return results  # type: ignore[return-value]

    def _drop_pool(self, pool) -> None:
        """Discard *pool* compare-and-swap style (only if still current).

        Another thread may already have replaced it with a healthy pool;
        dropping unconditionally would leak that one's workers.
        """
        if pool is None:
            return
        with self._lock:
            if self._process_pool is not pool:
                return
            self._process_pool = None
        try:
            pool.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - already broken
            pass

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pools (the service stays usable: the next
        batch that needs a pool lazily builds a fresh one)."""
        thread_pool, process_pool = None, None
        with self._lock:
            thread_pool, self._thread_pool = self._thread_pool, None
            process_pool, self._process_pool = self._process_pool, None
        if thread_pool is not None:
            thread_pool.shutdown(wait=wait)
        if process_pool is not None:
            process_pool.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
