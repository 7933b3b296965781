"""ExecutionService bit-identity (the execution acceptance gate).

The service must be **bit-identical** to the reference
:func:`repro.sim.executor.run_parallel` — same counts, same
probabilities, same clbit records — because it runs the same joint half
(ASAP padding, crosstalk scales, seed spawning) and the same
per-program loop, and its memo resamples stored distributions with each
program's own pre-spawned ``SeedSequence`` child.  The randomized suite
here sweeps programs x shots x seeds.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core import ExecutionService, execute_allocation, qucp_allocate, run_batch
from repro.core import execution_service as execution_service_mod
from repro.hardware import ibm_toronto
from repro.sim.density_matrix import run_circuit
from repro.sim.executor import Program, run_parallel
from repro.workloads import workload

#: Disjoint linear chains of ibm_toronto's heavy-hex coupling map —
#: every consecutive pair is a real link, so locally nearest-neighbour
#: circuits are always executable on them.
CHAINS = [(0, 1, 2), (3, 5, 8), (12, 13, 14, 16), (19, 20), (22, 25, 26)]


def random_program(chain, rng, depth=12):
    """A random device-respecting program on *chain* (local NN CXs)."""
    n = len(chain)
    circuit = QuantumCircuit(n, n)
    for _ in range(depth):
        r = rng.random()
        if n > 1 and r < 0.35:
            i = int(rng.integers(0, n - 1))
            circuit.cx(i, i + 1)
        elif r < 0.6:
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)),
                       int(rng.integers(0, n)))
        elif r < 0.8:
            circuit.h(int(rng.integers(0, n)))
        else:
            circuit.x(int(rng.integers(0, n)))
    circuit.measure_all()
    return Program(circuit, chain)


def random_job(rng, max_programs=5):
    k = int(rng.integers(1, min(max_programs, len(CHAINS)) + 1))
    picked = sorted(rng.choice(len(CHAINS), size=k, replace=False))
    return [random_program(CHAINS[i], rng) for i in picked]


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.counts == w.counts
        assert g.probabilities == w.probabilities
        assert g.shots == w.shots
        assert g.measured_clbits == w.measured_clbits


class TestEquivalence:
    """Randomized: the service reproduces the reference exactly."""

    @pytest.mark.parametrize("trial", range(4))
    def test_random_batches_are_bit_identical(self, trial):
        rng = np.random.default_rng(1000 + trial)
        device = ibm_toronto()
        programs = random_job(rng)
        shots = int(rng.choice([0, 257, 1024]))
        seed = int(rng.integers(0, 2**31))
        want = run_parallel(programs, device, shots=shots, seed=seed)
        got = ExecutionService().run_parallel(programs, device,
                                              shots=shots, seed=seed)
        assert_identical(got, want)

    @pytest.mark.parametrize("trial", range(4))
    def test_random_batches_hit_bit_identically(self, trial):
        # The second and third runs of a batch are all memo hits,
        # resampled with new seeds and shot counts.
        rng = np.random.default_rng(2000 + trial)
        device = ibm_toronto()
        programs = random_job(rng)
        svc = ExecutionService()
        for _ in range(3):
            shots = int(rng.choice([0, 257, 1024]))
            seed = int(rng.integers(0, 2**31))
            want = run_parallel(programs, device, shots=shots, seed=seed)
            got = svc.run_parallel(programs, device, shots=shots,
                                   seed=seed)
            assert_identical(got, want)
        assert svc.stats["memo_misses"] == len(programs)
        assert svc.stats["memo_hits"] == 2 * len(programs)

    def test_seed_sequence_and_options_round_trip(self):
        rng = np.random.default_rng(7)
        device = ibm_toronto()
        programs = random_job(rng, max_programs=3)
        base = np.random.SeedSequence(99)
        for kwargs in (
            dict(seed=base, shots=128),
            dict(seed=11, shots=64, noisy=False),
            dict(seed=11, shots=64, include_crosstalk=False),
            dict(seed=11, shots=64, scheduling="asap"),
        ):
            want = run_parallel(programs, device, **kwargs)
            got = ExecutionService().run_parallel(programs, device,
                                                  **kwargs)
            assert_identical(got, want)

    def test_one_service_many_batches(self):
        rng = np.random.default_rng(21)
        device = ibm_toronto()
        svc = ExecutionService()
        for trial in range(3):
            programs = random_job(rng, max_programs=3)
            want = run_parallel(programs, device, shots=93, seed=trial)
            got = svc.run_parallel(programs, device, shots=93, seed=trial)
            assert_identical(got, want)
        assert svc.stats["batches"] == 3

    def test_validation_still_raises(self):
        device = ibm_toronto()
        bad = QuantumCircuit(2, 2)
        bad.cx(0, 1)
        bad.measure_all()
        with pytest.raises(ValueError, match="no such link"):
            ExecutionService().run_parallel([Program(bad, (0, 2))], device,
                                            shots=16)

    def test_program_errors_propagate(self, monkeypatch):
        def exploding(*args, **kwargs):
            raise RuntimeError("simulation exploded")

        monkeypatch.setattr(execution_service_mod, "run_circuit", exploding)
        programs = random_job(np.random.default_rng(5), max_programs=4)
        svc = ExecutionService()
        with pytest.raises(RuntimeError, match="simulation exploded"):
            svc.run_parallel(programs, ibm_toronto(), shots=8, seed=1)
        assert len(svc._memo) == 0

    def test_failed_batch_leaves_the_service_usable(self, monkeypatch):
        # The second miss fails; the first one's distribution is
        # complete, so a retry hits it and stays bit-identical.
        calls = []

        def second_call_explodes(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("simulation exploded")
            return run_circuit(*args, **kwargs)

        rng = np.random.default_rng(6)
        programs = [random_program(CHAINS[i], rng) for i in (0, 2, 4)]
        device = ibm_toronto()
        svc = ExecutionService()
        monkeypatch.setattr(execution_service_mod, "run_circuit",
                            second_call_explodes)
        with pytest.raises(RuntimeError, match="simulation exploded"):
            svc.run_parallel(programs, device, shots=8, seed=1)
        monkeypatch.setattr(execution_service_mod, "run_circuit",
                            run_circuit)
        want = run_parallel(programs, device, shots=8, seed=2)
        assert_identical(svc.run_parallel(programs, device, shots=8,
                                          seed=2), want)
        assert svc.stats["memo_hits"] == 1

    def test_empty_batch(self):
        device = ibm_toronto()
        svc = ExecutionService()
        assert svc.run_parallel([], device, shots=8, seed=1) == \
            run_parallel([], device, shots=8, seed=1) == []
        assert svc.stats["batches"] == 1
        assert svc.stats["programs"] == 0


class TestStats:
    def test_route_counters_read_by_the_e2e_benchmark(self):
        # e2ebench/run.py indexes these four keys in its layer table.
        svc = ExecutionService()
        programs = random_job(np.random.default_rng(9), max_programs=3)
        svc.run_parallel(programs, ibm_toronto(), shots=32, seed=1)
        stats = svc.stats
        assert stats["batches"] == 1
        assert stats["programs"] == len(programs)
        assert stats["serial_batches"] == stats["batches"]
        for key in ("thread_batches", "process_batches", "fallbacks"):
            assert stats[key] == 0


    def test_stats_is_a_copy(self):
        svc = ExecutionService()
        svc.stats["batches"] = 99
        svc.stats.clear()
        assert svc.stats["batches"] == 0
        assert svc.stats["memo_hits"] == 0

    def test_takes_no_pool_arguments(self):
        # Every batch runs inline; there are no worker-pool knobs.
        for kwargs in (dict(mode="process"), dict(max_workers=2)):
            with pytest.raises(TypeError):
                ExecutionService(**kwargs)


class TestExecutorWiring:
    """run_batch / execute_allocation with a service are bit-identical."""

    def test_execute_allocation_with_service(self):
        device = ibm_toronto()
        circuits = [workload(n).circuit() for n in ("adder", "bell", "lin")]
        allocation = qucp_allocate(circuits, device)
        want = execute_allocation(allocation, shots=64, seed=5)
        svc = ExecutionService()
        got = execute_allocation(allocation, shots=64, seed=5,
                                 execution_service=svc)
        assert svc.stats["batches"] == 1
        for g, w in zip(got, want):
            assert g.result.counts == w.result.counts
            assert g.result.probabilities == w.result.probabilities

    def test_run_batch_with_service(self):
        device = ibm_toronto()
        circuits = [workload(n).circuit() for n in ("adder", "bell")]
        jobs = [qucp_allocate(circuits, device),
                qucp_allocate(circuits[::-1], device)]
        want = run_batch(jobs, seed=17)
        svc = ExecutionService()
        got = run_batch(jobs, seed=17, execution_service=svc)
        assert svc.stats["batches"] == len(jobs)
        for gj, wj in zip(got, want):
            for g, w in zip(gj, wj):
                assert g.result.counts == w.result.counts
