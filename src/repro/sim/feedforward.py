"""Per-shot feed-forward execution of dynamic circuits.

Two engines for circuits whose control flow survives static expansion:

- :func:`run_dynamic` — the *noisy* engine.  Shots are sampled one by
  one: a mid-circuit ``measure`` samples the marginal probability,
  projects and renormalizes the density matrix, and records the clbit
  (readout confusion is applied to the recorded bit, matching the
  static path's end-of-circuit confusion model); conditions then steer
  which bodies run.  Evolution is memoized in a trie keyed by the
  measurement record, so each distinct history is evolved once, not
  once per shot; counts are bit-identical to per-shot replay under any
  seed.  Statically-resolvable circuits take a fast path:
  they are expanded and delegated to the ordinary distribution-sampling
  simulator, which makes unrolled and feed-forward execution
  **bit-identical** under the same seed — the equivalence the
  randomized suite in ``tests/test_controlflow_equivalence.py`` locks.

- :func:`dynamic_probabilities` — the *exact noiseless* engine.  A
  statevector tree walk forks at every measurement/reset with the
  branch probabilities as weights, so the returned distribution is
  exact (no sampling noise); it is the dynamic analogue of
  :func:`repro.sim.statevector.ideal_probabilities` and backs the
  execution cache's ideal-reference lookups for dynamic programs.

Seed discipline matches the executor: *seed* is an int or a spawned
``SeedSequence`` child; one ``default_rng`` stream drives all shots of a
program sequentially, so co-scheduled programs stay independent through
``spawn_seeds`` exactly as in the static path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import (ForLoopOp, IfElseOp, WhileLoopOp,
                                    has_control_flow, written_clbits_of)
from .density_matrix import SimulationResult, _TensorOps
from .kernels import apply_kraus, apply_to_statevector, initial_state_tensor
from .noise_model import NoiseModel
from .readout import SeedLike

__all__ = ["run_dynamic", "dynamic_probabilities", "needs_feedforward"]

_PROJECTORS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: Branches lighter than this probability are pruned from the tree walk.
_PRUNE = 1e-12

#: Bytes of trie states one trajectory run keeps.  Past it, new nodes
#: drop theirs and rebuild it on demand from the nearest ancestor.
_MEMO_BYTES = 32 * 2 ** 20


def _expand(circuit: QuantumCircuit) -> QuantumCircuit:
    # Local import: the transpiler package imports the sim layer.
    from ..transpiler.controlflow import expand_control_flow

    return expand_control_flow(circuit)


def needs_feedforward(circuit: QuantumCircuit) -> bool:
    """True when the deferred-measurement simulators would be wrong.

    Either unresolved control flow or a mid-circuit measurement (a
    measured qubit operated on again) forces per-shot execution; plain
    end-measured circuits keep the distribution-sampling fast path.
    """
    return (has_control_flow(circuit)
            or circuit.has_midcircuit_measurement())


# ----------------------------------------------------------------------
# noisy per-shot trajectories
# ----------------------------------------------------------------------
def _prob_one(rho: np.ndarray, qubit: int, n: int) -> float:
    """Marginal P(qubit = 1) from a density tensor's diagonal."""
    diag = np.real(np.diagonal(rho.reshape(2 ** n, 2 ** n)))
    diag = diag.clip(min=0.0).reshape((2,) * n)
    axes = tuple(a for a in range(n) if a != qubit)
    marginal = diag.sum(axis=axes) if axes else diag
    total = float(marginal[0] + marginal[1])
    if total <= 0.0:
        return 0.0
    return float(marginal[1]) / total


def _trace(rho: np.ndarray, n: int) -> float:
    return float(np.real(np.trace(rho.reshape(2 ** n, 2 ** n))))


class _Branch:
    """A trie node: one ``(outcome, recorded bit)`` measurement history,
    the static ops queued since (``segment``), the next measurement's
    ``qubit``/``p_one``, and — within the memo budget — its pre-measure
    ``state``."""

    __slots__ = ("parent", "outcome", "segment", "qubit", "p_one",
                 "state", "children")

    def __init__(self, parent=None, outcome: int = 0) -> None:
        self.parent, self.outcome = parent, outcome
        self.segment: List[Tuple[object, float]] = []
        self.qubit, self.p_one, self.state = -1, None, None
        self.children: Dict[Tuple[int, int], "_Branch"] = {}


class _TrajectoryRunner:
    """One program's feed-forward executor over a measurement-record trie.

    Each shot walks the instructions, steered by its own bits, but only
    queues static ops; a node evolves its segment (the root's is the
    shared prefix) when a shot first reaches its measurement, and later
    shots with that history reuse its ``p_one``.  Ops after the last
    measurement never run: they cannot change the counts.
    """

    def __init__(self, circuit: QuantumCircuit,
                 noise_model: Optional[NoiseModel],
                 error_scales: Dict[int, float],
                 rng: np.random.Generator) -> None:
        self.circuit = circuit
        self.n = circuit.num_qubits
        self.ops = _TensorOps(self.n)
        self.noise_model = noise_model
        self.error_scales = error_scales
        self.rng = rng
        self.memo_bytes = 0
        # for_loop bodies with a loop parameter are rebound per index
        # value; memoize per (op, value) so the binding cost is paid
        # once per program, not once per shot.
        self._bound_bodies: Dict[Tuple[int, int], QuantumCircuit] = {}

    # -- static-instruction evolution (mirrors simulate_density_matrix)
    def _apply_static(self, rho: np.ndarray, inst, scale: float
                      ) -> np.ndarray:
        if inst.name == "barrier":
            return rho
        if inst.name == "reset":
            # Reset is a deterministic channel, not a sampling event.
            return self.ops.reset(rho, inst.qubits[0])
        if inst.name != "delay":
            rho = self.ops.unitary(rho, inst.name, inst.params,
                                   inst.qubits)
        elif self.noise_model is not None:
            delta = self.noise_model.detuning_of(inst.qubits[0])
            if delta != 0.0:
                angle = delta * float(inst.params[0])
                rho = self.ops.unitary(rho, "rz", (angle,), inst.qubits)
        if self.noise_model is not None:
            channel = self.noise_model.channel_for(inst, error_scale=scale)
            if channel is not None:
                rho = self.ops.channel(rho, channel,
                                       inst.qubits[:channel.num_qubits])
        return rho

    def _materialize(self, node: _Branch) -> np.ndarray:
        """Pre-measure state of *node*, replaying its segments (and any
        whose state fell outside the budget) from the nearest ancestor
        that kept one — the same float sequence either way."""
        path: List[_Branch] = []
        while node is not None and node.state is None:
            path.append(node)
            node = node.parent
        rho = self.ops.initial() if node is None else node.state
        for branch in reversed(path):
            if branch.parent is not None:
                rho = apply_kraus(rho, (_PROJECTORS[branch.outcome],),
                                  (branch.parent.qubit,), self.n)
                trace = _trace(rho, self.n)
                if trace > 0.0:
                    rho = rho / trace
            for inst, scale in branch.segment:
                rho = self._apply_static(rho, inst, scale)
        return rho

    def _measure(self, qubit: int, clbit: int) -> None:
        node = self.node
        if node.p_one is None:
            node.segment, node.qubit = self.pending, qubit
            rho = self._materialize(node)
            node.p_one = _prob_one(rho, qubit, self.n)
            if self.memo_bytes + rho.nbytes <= _MEMO_BYTES:
                node.state = rho
                self.memo_bytes += rho.nbytes
        self.pending = []
        outcome = 1 if self.rng.random() < node.p_one else 0
        recorded = outcome
        if self.noise_model is not None:
            confusion = self.noise_model.confusion_matrix(qubit)
            recorded = int(self.rng.random() < float(confusion[1, outcome]))
        self.bits[clbit] = recorded
        child = node.children.get((outcome, recorded))
        if child is None:
            child = node.children[(outcome, recorded)] = _Branch(node,
                                                                 outcome)
        self.node = child

    def _iteration_body(self, op: ForLoopOp, value: int) -> QuantumCircuit:
        if op.loop_parameter is None:
            return op.body
        key = (id(op), value)
        body = self._bound_bodies.get(key)
        if body is None:
            body = op.iteration_body(value)
            self._bound_bodies[key] = body
        return body

    def _run_sequence(self, instructions, top_level: bool) -> None:
        bits = self.bits
        for idx, inst in enumerate(instructions):
            op = inst.gate
            if isinstance(op, IfElseOp):
                body = op.body_for(op.condition.evaluate(bits))
                if body is not None:
                    self._run_sequence(body.instructions, False)
                continue
            if isinstance(op, ForLoopOp):
                for value in op.indexset:
                    self._run_sequence(
                        self._iteration_body(op, value).instructions, False)
                continue
            if isinstance(op, WhileLoopOp):
                iterations = 0
                while (iterations < op.max_iterations
                       and op.condition.evaluate(bits)):
                    self._run_sequence(op.body.instructions, False)
                    iterations += 1
                continue
            if inst.name == "measure":
                self._measure(inst.qubits[0], inst.clbits[0])
                continue
            # Crosstalk error scales are keyed by *top-level* instruction
            # index (the joint schedule never sees inside bodies).
            scale = self.error_scales.get(idx, 1.0) if top_level else 1.0
            self.pending.append((inst, scale))

    def run(self, shots: int, measured: Tuple[int, ...]) -> Dict[str, int]:
        root = _Branch()
        counts: Dict[str, int] = {}
        for _ in range(shots):
            self.node, self.pending, self.bits = root, [], {}
            self._run_sequence(self.circuit.instructions, True)
            key = "".join(str(self.bits.get(c, 0)) for c in measured)
            counts[key] = counts.get(key, 0) + 1
        return counts


def run_dynamic(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    shots: int = 0,
    seed: SeedLike = None,
    error_scales: Optional[Dict[int, float]] = None,
    allow_unroll: bool = True,
) -> SimulationResult:
    """Execute a control-flow circuit shot by shot with feed-forward.

    With ``allow_unroll=True`` (default) statically-resolvable circuits
    are expanded and delegated to the distribution-sampling path, whose
    output is then bit-identical to transpiling the unrolled circuit —
    per-shot trajectories only pay their cost where branches genuinely
    depend on data.  ``allow_unroll=False`` forces trajectories (used by
    the benchmark to price the two strategies honestly).

    ``probabilities`` on the returned result are the empirical shot
    frequencies (a trajectory engine has no closed-form distribution).
    """
    from .density_matrix import run_circuit

    if allow_unroll:
        expanded = _expand(circuit)
        if not needs_feedforward(expanded):
            return run_circuit(expanded, noise_model=noise_model,
                               shots=shots, seed=seed,
                               error_scales=error_scales)
        target = expanded
    else:
        target = circuit
    if shots <= 0:
        raise ValueError(
            "per-shot feed-forward execution needs shots > 0 (there is "
            "no closed-form output distribution for data-dependent "
            "branches)")
    measured = written_clbits_of(target)
    if not measured:
        raise ValueError(
            "dynamic circuit has unresolved control flow but no "
            "measurements — nothing can feed the conditions")
    runner = _TrajectoryRunner(target, noise_model, error_scales or {},
                               np.random.default_rng(seed))
    counts = runner.run(shots, measured)
    probabilities = {k: v / shots for k, v in counts.items()}
    return SimulationResult(
        probabilities=probabilities,
        counts=counts,
        shots=shots,
        density_matrix=None,
        measured_clbits=measured,
    )


# ----------------------------------------------------------------------
# exact noiseless tree walk
# ----------------------------------------------------------------------
def _split_state(state: np.ndarray, qubit: int, n: int
                 ) -> List[Tuple[int, float, np.ndarray]]:
    """Project onto |0>/|1> of *qubit*: ``(outcome, prob, state)`` list."""
    branches: List[Tuple[int, float, np.ndarray]] = []
    for outcome in (0, 1):
        index = [slice(None)] * n
        index[qubit] = outcome
        amplitude = state[tuple(index)]
        prob = float(np.sum(np.abs(amplitude) ** 2))
        if prob <= _PRUNE:
            continue
        projected = np.zeros_like(state)
        projected[tuple(index)] = amplitude / np.sqrt(prob)
        branches.append((outcome, prob, projected))
    return branches


def dynamic_probabilities(circuit: QuantumCircuit) -> Dict[str, float]:
    """Exact noiseless output distribution of a dynamic circuit.

    Forks the statevector at every measurement and reset, weighting each
    branch by its Born probability and steering conditions with the
    branch's recorded clbits.  Key-string position *i* holds the clbit
    ``measured_clbits[i]`` in sorted order, matching the static path.
    """
    expanded = _expand(circuit)
    if not needs_feedforward(expanded) and not any(
            inst.name == "reset" for inst in expanded):
        from .statevector import ideal_probabilities

        return ideal_probabilities(expanded)
    circuit = expanded
    n = circuit.num_qubits
    measured = written_clbits_of(circuit)
    results: Dict[str, float] = {}

    def finish(state, bits, weight) -> None:
        key = "".join(str(bits.get(c, 0)) for c in measured)
        results[key] = results.get(key, 0.0) + weight

    def run_seq(instructions, i, state, bits, weight, cont) -> None:
        while i < len(instructions):
            inst = instructions[i]
            op = inst.gate
            if isinstance(op, IfElseOp):
                body = op.body_for(op.condition.evaluate(bits))
                if body is None:
                    i += 1
                    continue
                return run_seq(
                    body.instructions, 0, state, bits, weight,
                    lambda s, b, w, i=i: run_seq(instructions, i + 1, s,
                                                 b, w, cont))
            if isinstance(op, ForLoopOp):
                unrolled: List = []
                for value in op.indexset:
                    unrolled.extend(op.iteration_body(value).instructions)
                return run_seq(
                    tuple(unrolled), 0, state, bits, weight,
                    lambda s, b, w, i=i: run_seq(instructions, i + 1, s,
                                                 b, w, cont))
            if isinstance(op, WhileLoopOp):
                return run_while(
                    op, 0, state, bits, weight,
                    lambda s, b, w, i=i: run_seq(instructions, i + 1, s,
                                                 b, w, cont))
            if inst.name == "measure":
                qubit, clbit = inst.qubits[0], inst.clbits[0]
                for outcome, prob, branch in _split_state(state, qubit, n):
                    if weight * prob <= _PRUNE:
                        continue
                    branch_bits = dict(bits)
                    branch_bits[clbit] = outcome
                    run_seq(instructions, i + 1, branch, branch_bits,
                            weight * prob, cont)
                return
            if inst.name == "reset":
                qubit = inst.qubits[0]
                for outcome, prob, branch in _split_state(state, qubit, n):
                    if weight * prob <= _PRUNE:
                        continue
                    if outcome == 1:
                        branch = apply_to_statevector(
                            branch, _X_MATRIX, (qubit,), n)
                    run_seq(instructions, i + 1, branch, dict(bits),
                            weight * prob, cont)
                return
            if inst.name in ("barrier", "delay"):
                i += 1
                continue
            state = apply_to_statevector(state, op.matrix(), inst.qubits,
                                         n)
            i += 1
        cont(state, bits, weight)

    def run_while(op, iterations, state, bits, weight, cont) -> None:
        if (iterations >= op.max_iterations
                or not op.condition.evaluate(bits)):
            return cont(state, bits, weight)
        run_seq(op.body.instructions, 0, state, bits, weight,
                lambda s, b, w: run_while(op, iterations + 1, s, b, w,
                                          cont))

    run_seq(circuit.instructions, 0, initial_state_tensor(n), {}, 1.0,
            finish)
    total = sum(results.values())
    if total > 0.0:
        results = {k: v / total for k, v in results.items()}
    return results
