"""Parallel-job execution on a simulated device.

This is the "hardware access" layer of the reproduction.  A *job* is a set
of programs, each bound to a disjoint partition of physical qubits.  The
executor:

1. aligns the programs' gate layers in time (ALAP by default — programs
   finish together, as in the paper and in the Qiskit scheduler);
2. looks up, for every CX layer, which other partitions drive CXs in the
   same layer, and boosts the CX error by the device's *ground-truth*
   crosstalk factor for one-hop link pairs;
3. simulates each program on its own partition with the device
   calibration noise (per-partition density matrix — the physics couples
   only through the error rates, which is exactly the crosstalk model).

Under ``scheduling="asap"`` shorter programs idle *after* finishing and
accumulate T1/T2 decoherence — the effect ALAP exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import ControlFlowOp, has_control_flow
from ..hardware.devices import Device
from .density_matrix import SimulationResult, run_circuit
from .readout import SeedLike

__all__ = ["Program", "run_parallel", "run_single", "program_duration",
           "prepare_parallel", "spawn_seeds"]


@dataclass(frozen=True)
class Program:
    """A circuit bound to a partition of physical qubits.

    The circuit is expressed over *local* qubit indices ``0..k-1``;
    ``partition[i]`` is the physical qubit local index *i* runs on.
    """

    circuit: QuantumCircuit
    partition: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.circuit.num_qubits > len(self.partition):
            raise ValueError(
                f"circuit needs {self.circuit.num_qubits} qubits but the "
                f"partition has {len(self.partition)}")
        if len(set(self.partition)) != len(self.partition):
            raise ValueError("partition has duplicate physical qubits")

    def physical_edge(self, a: int, b: int) -> Tuple[int, int]:
        """Map a local qubit pair to the physical link it occupies."""
        pa, pb = self.partition[a], self.partition[b]
        return (pa, pb) if pa <= pb else (pb, pa)


def program_duration(circuit: QuantumCircuit,
                     gate_duration: Dict[str, float]) -> float:
    """Wall-clock makespan of *circuit* under ASAP scheduling.

    Computed from the same per-instruction timing as
    :func:`timed_intervals`, so ``delay`` instructions are priced at their
    actual ``params[0]`` duration (not the 35 ns fallback) and barriers
    take no time — ALAP/ASAP duration estimates agree with the schedule
    the crosstalk-overlap computation uses.
    """
    intervals = timed_intervals(circuit, gate_duration, mode="asap")
    return max((end for _, end in intervals), default=0.0)


def timed_intervals(
    circuit: QuantumCircuit,
    gate_duration: Dict[str, float],
    mode: str = "alap",
) -> List[Tuple[float, float]]:
    """Per-instruction ``(start, end)`` times in nanoseconds.

    Under ``mode="alap"`` times count **backwards from the common finish
    time** (0 = end of the job), which is the natural frame for parallel
    programs that finish together; under ``"asap"`` they count forward
    from the start.
    """

    def asap_times(instructions) -> List[Tuple[float, float]]:
        avail: Dict[int, float] = {}
        cavail: Dict[int, float] = {}
        out: List[Tuple[float, float]] = []
        for inst in instructions:
            if isinstance(inst.gate, ControlFlowOp):
                # A control-flow block occupies its whole qubit/clbit
                # footprint for its *worst-case* duration: the deepest
                # branch for if/else, iterations x body makespan for
                # loops.  That is the bound the scheduler must reserve.
                dur = inst.gate.duration_bound(
                    lambda body: _body_makespan(body, gate_duration))
            elif inst.name == "delay":
                dur = float(inst.params[0])
            else:
                dur = gate_duration.get(inst.name, 35.0)
            if inst.name == "barrier":
                dur = 0.0
            start = max(
                [avail.get(q, 0.0) for q in inst.qubits]
                + [cavail.get(c, 0.0) for c in inst.clbits]
                + [0.0]
            )
            end = start + dur
            for q in inst.qubits:
                avail[q] = end
            for c in inst.clbits:
                cavail[c] = end
            out.append((start, end))
        return out

    if mode == "asap":
        return asap_times(circuit.instructions)
    if mode == "alap":
        rev = asap_times(list(reversed(circuit.instructions)))
        return list(reversed(rev))
    raise ValueError(f"unknown scheduling mode {mode!r}")


def _body_makespan(body: QuantumCircuit,
                   gate_duration: Dict[str, float]) -> float:
    """ASAP makespan of a control-flow body (recursive via intervals)."""
    intervals = timed_intervals(body, gate_duration, mode="asap")
    return max((end for _, end in intervals), default=0.0)


def _crosstalk_scales(
    programs: Sequence[Program],
    device: Device,
    scheduling: str,
) -> List[Dict[int, float]]:
    """Per-program {instruction index: error scale} from the joint schedule.

    CX gates of different programs that *overlap in time* receive a
    multiplicative error boost given by the device's ground-truth
    crosstalk factor for their link pair, weighted by the fraction of the
    gate duration during which the aggressor is active.
    """
    durations = device.calibration.gate_duration
    # Collect (program, inst index, interval, physical edge) for every CX.
    active: List[Tuple[int, int, float, float, Tuple[int, int]]] = []
    for p_idx, prog in enumerate(programs):
        intervals = timed_intervals(prog.circuit, durations,
                                    mode=scheduling)
        for i_idx, inst in enumerate(prog.circuit):
            if (inst.gate.is_directive or len(inst.qubits) != 2
                    or isinstance(inst.gate, ControlFlowOp)):
                # Control-flow blocks are neither crosstalk aggressors
                # nor victims: their internal CX timing is shot-dependent
                # so the joint-schedule overlap model cannot place them.
                continue
            edge = prog.physical_edge(*inst.qubits)
            start, end = intervals[i_idx]
            active.append((p_idx, i_idx, start, end, edge))

    scales: List[Dict[int, float]] = [dict() for _ in programs]
    for p_idx, i_idx, start, end, edge in active:
        duration = max(end - start, 1e-9)
        factor = 1.0
        for q_idx, _, s2, e2, other in active:
            if q_idx == p_idx:
                continue
            overlap = min(end, e2) - max(start, s2)
            if overlap <= 0.0:
                continue
            pair_factor = device.crosstalk.factor(edge, other)
            if pair_factor <= 1.0:
                continue
            weight = min(overlap / duration, 1.0)
            factor *= 1.0 + (pair_factor - 1.0) * weight
        if factor > 1.0:
            scales[p_idx][i_idx] = factor
    return scales


def _validate_program_edges(instructions, prog: Program,
                            device: Device) -> None:
    """Check every 2q gate — control-flow bodies included — is on a link."""
    for inst in instructions:
        if isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                _validate_program_edges(body.instructions, prog, device)
            continue
        if inst.gate.is_directive or len(inst.qubits) != 2:
            continue
        edge = prog.physical_edge(*inst.qubits)
        if not device.coupling.is_edge(*edge):
            raise ValueError(
                f"2q gate on {edge} but the device has no such link")


def _with_trailing_idle(circuit: QuantumCircuit, idle_ns: float
                        ) -> QuantumCircuit:
    """Insert a pre-measurement delay on every qubit (ASAP penalty).

    Dynamic and mid-circuit-measurement circuits get the idle appended
    at the very end instead: moving a mid-circuit measure past the
    control flow (or the later gates) it feeds would change which
    branches run / what the bit reads.
    """
    if idle_ns <= 0:
        return circuit
    if has_control_flow(circuit) or circuit.has_midcircuit_measurement():
        out = circuit.copy()
        for q in range(circuit.num_qubits):
            out.delay(q, idle_ns)
        return out
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    measures = [inst for inst in circuit if inst.name == "measure"]
    for inst in circuit:
        if inst.name == "measure":
            continue
        out._instructions.append(inst)  # noqa: SLF001
    for q in range(circuit.num_qubits):
        out.delay(q, idle_ns)
    for inst in measures:
        out._instructions.append(inst)  # noqa: SLF001
    return out


def spawn_seeds(seed: SeedLike,
                count: int) -> List[Optional[np.random.SeedSequence]]:
    """Derive *count* independent RNG streams from one base seed.

    Accepts an int or an existing :class:`numpy.random.SeedSequence` and
    spawns statistically-independent children, one per program — shot
    sampling of co-scheduled programs must not share a stream, or their
    multinomial draws correlate.  ``None`` stays ``None`` (fresh OS
    entropy per program).

    A caller-supplied SeedSequence is never mutated (``spawn`` advances
    its child counter): children are derived from a private namespace
    under it, so the same object yields the same streams on every call
    and stays usable for the caller's own spawning.
    """
    if seed is None:
        return [None] * count
    if isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=tuple(seed.spawn_key) + (0x9E3779B9,))
    else:
        base = np.random.SeedSequence(seed)
    return list(base.spawn(count))


def prepare_parallel(
    programs: Sequence[Program],
    device: Device,
    scheduling: str = "alap",
    include_crosstalk: bool = True,
    noisy: bool = True,
) -> Tuple[List[Program], List[Dict[int, float]]]:
    """The joint (cross-program) half of :func:`run_parallel`.

    Validates the partitions, applies the ASAP trailing-idle padding,
    and computes the per-program crosstalk error scales from the joint
    schedule.  Returns ``(effective_programs, error_scales)`` — after
    this point each program's simulation depends only on its own
    ``(circuit, partition, seed, scales)`` tuple, which is what lets
    :class:`~repro.core.execution_service.ExecutionService` memoize each
    program's output distribution without changing a single bit of the
    output.
    """
    seen: set = set()
    for prog in programs:
        overlap = seen & set(prog.partition)
        if overlap:
            raise ValueError(f"partitions overlap on qubits {sorted(overlap)}")
        seen.update(prog.partition)
        _validate_program_edges(prog.circuit.instructions, prog, device)

    durations = device.calibration.gate_duration
    # Under ASAP, pad shorter programs with trailing idle (decoherence)
    # *before* computing crosstalk scales so instruction indices agree.
    effective = list(programs)
    if scheduling == "asap" and noisy and len(programs) > 1:
        total_duration = max(
            program_duration(p.circuit, durations) for p in programs)
        effective = []
        for prog in programs:
            idle = total_duration - program_duration(prog.circuit, durations)
            effective.append(
                Program(_with_trailing_idle(prog.circuit, idle),
                        prog.partition))

    if include_crosstalk and noisy and len(programs) > 1:
        scales = _crosstalk_scales(effective, device, scheduling)
    else:
        scales = [dict() for _ in effective]
    return effective, scales


def run_parallel(
    programs: Sequence[Program],
    device: Device,
    shots: int = 4096,
    seed: SeedLike = None,
    scheduling: str = "alap",
    include_crosstalk: bool = True,
    noisy: bool = True,
) -> List[SimulationResult]:
    """Execute *programs* simultaneously on *device* and return results.

    Partitions must be pairwise disjoint.  With ``noisy=False`` this is an
    ideal run (useful for reference distributions).  The joint crosstalk
    schedule is computed once for the whole job; *seed* (int or
    :class:`numpy.random.SeedSequence`) is spawned into independent
    per-program child streams so co-scheduled programs sample
    independently.
    """
    effective, scales = prepare_parallel(
        programs, device, scheduling=scheduling,
        include_crosstalk=include_crosstalk, noisy=noisy)

    full_noise = device.noise_model() if noisy else None

    seeds = spawn_seeds(seed, len(effective))
    results: List[SimulationResult] = []
    for k, prog in enumerate(effective):
        noise = None
        if noisy:
            noise = full_noise.restricted(prog.partition)
        results.append(
            run_circuit(prog.circuit, noise_model=noise, shots=shots,
                        seed=seeds[k], error_scales=scales[k]))
    return results


def run_single(
    circuit: QuantumCircuit,
    partition: Tuple[int, ...],
    device: Device,
    shots: int = 4096,
    seed: SeedLike = None,
    noisy: bool = True,
) -> SimulationResult:
    """Execute one program alone on its partition (no crosstalk)."""
    return run_parallel(
        [Program(circuit, partition)], device, shots=shots, seed=seed,
        noisy=noisy,
    )[0]
