"""The feed-forward trajectory trie: bit-identity, memory bound, and work.

``tests/data/feedforward_golden.json`` holds counts captured from the
per-shot replay engine that preceded the measurement-record trie (each
shot copied the shared prefix state and re-evolved its whole suffix).
The trie must reproduce those counts exactly: it consumes the RNG in
the same order and applies the same float operations to the same
states, only once per distinct history instead of once per shot.

Regenerate (only from an engine known to be correct)::

    PYTHONPATH=src python tests/test_feedforward_memo.py
"""

import json
import os
import sys

import pytest

from repro.circuits import ControlFlowOp
from repro.hardware import ibm_toronto
from repro.sim import feedforward, run_dynamic
from repro.workloads import dynamic_circuit, dynamic_workload_names

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "feedforward_golden.json")
#: Coupled three-qubit paths on ibm_toronto (local i = physical [i]).
PARTITIONS = ((0, 1, 4), (12, 13, 14), (22, 25, 24))
SEEDS = (0, 1, 7)
SHOTS = 256


def _crosstalk_scales(circuit):
    """A non-trivial per-instruction error boost, keyed top-level."""
    return {i: 1.0 + 0.5 * (i % 3)
            for i in range(len(circuit.instructions))}


def golden_cases():
    """The case grid: (case id, run_dynamic keyword arguments)."""
    noise = ibm_toronto().noise_model()
    cases = []
    for name in dynamic_workload_names():
        circuit = dynamic_circuit(name)
        for seed in SEEDS:
            cases.append((f"{name}-noiseless-s{seed}",
                          dict(circuit=circuit, seed=seed)))
            for part in PARTITIONS:
                restricted = noise.restricted(part[:circuit.num_qubits])
                for label, scales in (("flat", {}), ("xtalk",
                                      _crosstalk_scales(circuit))):
                    cases.append((
                        f"{name}-{'.'.join(map(str, part))}-{label}"
                        f"-s{seed}",
                        dict(circuit=circuit, noise_model=restricted,
                             seed=seed, error_scales=scales)))
                    if part == PARTITIONS[0]:
                        cases.append((
                            f"{name}-{'.'.join(map(str, part))}-{label}"
                            f"-s{seed}-trajectories",
                            dict(circuit=circuit, noise_model=restricted,
                                 seed=seed, error_scales=scales,
                                 allow_unroll=False)))
    return cases


def _counts(kwargs, shots=SHOTS):
    return run_dynamic(shots=shots, **kwargs).counts


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cases():
    return dict(golden_cases())


class TestGolden:
    def test_grid_matches_golden(self, golden, cases):
        assert sorted(cases) == sorted(golden)

    @pytest.mark.parametrize("case_id", [c for c, _ in golden_cases()])
    def test_counts_bit_identical(self, golden, cases, case_id):
        assert _counts(cases[case_id]) == golden[case_id]


class TestMemoBudget:
    @pytest.mark.parametrize("name", ["teleportation",
                                      "repeat_until_success",
                                      "conditional_fixup"])
    def test_past_budget_equals_unbounded(self, monkeypatch, name):
        """With no byte budget every state is dropped and rebuilt from
        the initial state; counts must not move."""
        circuit = dynamic_circuit(name)
        kwargs = dict(
            circuit=circuit, seed=3,
            noise_model=ibm_toronto().noise_model().restricted(
                PARTITIONS[1][:circuit.num_qubits]),
            error_scales=_crosstalk_scales(circuit))
        unbounded = _counts(kwargs, shots=1024)
        monkeypatch.setattr(feedforward, "_MEMO_BYTES", 0)
        assert _counts(kwargs, shots=1024) == unbounded

    def test_budget_drops_states(self, monkeypatch):
        """A tight budget keeps the earliest states and drops later
        ones, so the replay path is really exercised above."""
        kept = []
        real_init = feedforward._TrajectoryRunner.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            kept.append(self)

        monkeypatch.setattr(feedforward._TrajectoryRunner, "__init__", spy)
        state_bytes = 16 * 4 ** 3  # one 3-qubit density tensor
        monkeypatch.setattr(feedforward, "_MEMO_BYTES", 2 * state_bytes)
        run_dynamic(dynamic_circuit("teleportation"),
                    noise_model=ibm_toronto().noise_model().restricted(
                        PARTITIONS[0]),
                    shots=512, seed=5)
        (runner,) = kept
        assert runner.memo_bytes == 2 * state_bytes


def _count_calls(monkeypatch):
    calls = []
    for cls, attr in ((feedforward._TrajectoryRunner, "_apply_static"),
                      (feedforward._TrajectoryRunner, "_measure"),
                      (feedforward._Branch, "__init__")):
        real = getattr(cls, attr)

        def counting(self, *args, _real=real, _attr=attr):
            calls.append(_attr)
            return _real(self, *args)

        monkeypatch.setattr(cls, attr, counting)
    return calls


def _static_ops(circuit):
    """Static instructions in *circuit*, each body counted once."""
    total = 0
    for inst in circuit.instructions:
        if isinstance(inst.gate, ControlFlowOp):
            total += sum(_static_ops(body) for body in inst.gate.bodies)
        elif inst.name != "measure":
            total += 1
    return total


class TestWorkIndependentOfShots:
    @pytest.mark.parametrize("name", ["teleportation",
                                      "repeat_until_success"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_static_work_bounded_by_histories(self, monkeypatch, name,
                                              noisy):
        circuit = dynamic_circuit(name)
        noise = (ibm_toronto().noise_model().restricted(
            PARTITIONS[0][:circuit.num_qubits]) if noisy else None)
        calls = _count_calls(monkeypatch)
        applied, histories = {}, {}
        for shots in (64, 4096):
            calls.clear()
            run_dynamic(circuit, noise_model=noise, shots=shots, seed=2)
            applied[shots] = calls.count("_apply_static")
            histories[shots] = calls.count("__init__")
            # Every shot still measures; only evolution is shared.
            assert calls.count("_measure") >= shots
            # Each distinct history (trie node) evolves its segment once.
            assert applied[shots] <= histories[shots] * _static_ops(
                circuit)
        # The first 64 shots of the 4096-shot run are the 64-shot run,
        # so equal history counts mean the same histories.
        if histories[64] == histories[4096]:
            assert applied[64] == applied[4096]
        if not noisy and name == "teleportation":
            # Four equiprobable histories: 64 shots already visit all.
            assert histories[64] == histories[4096]


if __name__ == "__main__":
    golden_counts = {case_id: _counts(kwargs)
                     for case_id, kwargs in golden_cases()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden_counts, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden_counts)} cases to {GOLDEN_PATH}",
          file=sys.stderr)
