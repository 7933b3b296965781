"""Program-batch execution with an output-distribution memo.

Every dispatched hardware job is one
:func:`~repro.sim.executor.run_parallel` batch.  :class:`ExecutionService`
runs that batch with the same joint half —
:func:`~repro.sim.executor.prepare_parallel` (validation, ASAP padding,
crosstalk scales) and :func:`~repro.sim.executor.spawn_seeds` — and the
same per-program loop, but memoizes each program's noisy output
distribution across batches.

After the joint half, a program's probabilities depend only on its
effective circuit, its partition's calibration values, its crosstalk
scales and ``noisy`` — never on the seed or the shot count, which enter
only at :func:`~repro.sim.readout.sample_counts`.  The memo key is a
16-byte blake2b digest of exactly those values (:func:`_memo_key`), so a
hit replays ``sample_counts(probabilities, shots, seed)`` — the call
:func:`~repro.sim.density_matrix.run_circuit` makes — and its counts are
bit-identical to a fresh simulation.  Dynamic programs (control flow or
mid-circuit measurement) sample per shot and bypass the memo.  Only the
misses are simulated, inline, in batch order.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache import MemoryCache
from ..circuits.controlflow import ControlFlowOp
from ..hardware.calibration import Calibration
from ..hardware.devices import Device
from ..sim.density_matrix import SimulationResult, run_circuit
from ..sim.executor import Program, prepare_parallel, spawn_seeds
from ..sim.readout import SeedLike, sample_counts

__all__ = ["ExecutionService"]

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


class ExecutionService:
    """Executes program batches through a shared output-distribution memo.

    Across batches the service keeps :attr:`stats` and an LRU memo of up
    to ``_MEMO_MAX_ENTRIES`` output distributions, keyed by a digest of
    each program's effective circuit, partition calibration values,
    crosstalk scales and ``noisy`` (see :func:`_memo_key`).  Hits
    resample the stored distribution with the program's own seed, so
    results stay bit-identical to :func:`~repro.sim.executor.run_parallel`;
    any number of executors may share one instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Everything routed through :meth:`run_parallel`.
        self._requests: Dict[str, int] = {"batches": 0, "programs": 0}
        self._memo = MemoryCache(_MEMO_MAX_ENTRIES)

    @property
    def stats(self) -> Dict[str, int]:
        """Request accounting (copy): batches, programs, and memo
        hits/misses (static programs only; dynamic ones bypass the
        memo)."""
        memo = self._memo.stats
        with self._lock:
            out = dict(self._requests)
        out["memo_hits"] = memo["hits"]
        out["memo_misses"] = memo["misses"]
        # Per-route counters indexed by e2ebench/run.py's layer table;
        # every batch runs inline.
        out.update(serial_batches=out["batches"], thread_batches=0,
                   process_batches=0, fallbacks=0)
        return out

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

        Memo hits are resampled with their own seeds; the misses run
        through the reference per-program loop and are stored.
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
        with self._lock:
            self._requests["batches"] += 1
            self._requests["programs"] += len(effective)

        full_noise = device.noise_model() if noisy and misses else None
        for k in misses:
            prog = effective[k]
            noise = None
            if noisy:
                noise = full_noise.restricted(prog.partition)
            result = run_circuit(prog.circuit, noise_model=noise,
                                 shots=shots, seed=seeds[k],
                                 error_scales=scales[k])
            results[k] = result
            if keys[k] is not None:
                self._memo.put(keys[k], (dict(result.probabilities),
                                         result.measured_clbits))
        return results  # type: ignore[return-value]
