"""ExecutionService output-distribution memo.

A program's noisy output distribution depends only on its effective
circuit, its partition's calibration values, its crosstalk scales and
``noisy``; seed and shots enter only at sampling.  The service memoizes
the distribution under a digest of those inputs and resamples it with
each program's own seed, so every result here must stay bit-identical
to the unmemoized :func:`repro.sim.executor.run_parallel`.
"""

import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.core import ExecutionService
from repro.core import execution_service as execution_service_mod
from repro.hardware import ibm_toronto
from repro.sim.executor import Program, prepare_parallel, run_parallel

from test_execution_service import assert_identical, random_job


def _cx_program(partition, theta=0.3):
    """A 2-qubit program whose CX drives *partition*'s link."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.rz(theta, 1)
    qc.cx(0, 1)
    qc.measure_all()
    return Program(qc, partition)


def _run_both(svc, programs, device, **kwargs):
    """The service's results, checked against the reference path."""
    got = svc.run_parallel(programs, device, **kwargs)
    assert_identical(got, run_parallel(programs, device, **kwargs))
    return got


class TestRepeatedBatches:
    """Hits resample the stored distribution bit-identically."""

    def test_new_seeds_match_reference(self):
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(3), max_programs=4)
        svc = ExecutionService()
        for seed in (1, 2, 3):
            _run_both(svc, programs, device, shots=211, seed=seed)
        stats = svc.stats
        n = len(programs)
        assert stats["memo_misses"] == n
        assert stats["memo_hits"] == 2 * n

    def test_shot_count_and_seed_sequence_are_not_in_the_key(self):
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(8), max_programs=3)
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=64, seed=5)
        _run_both(svc, programs, device, shots=1000,
                  seed=np.random.SeedSequence(17))
        _run_both(svc, programs, device, shots=0, seed=None)
        assert svc.stats["memo_misses"] == len(programs)
        assert svc.stats["memo_hits"] == 2 * len(programs)


    def test_mixed_hit_and_miss_batch_keeps_batch_order(self):
        # Only the middle program changes (same gate structure, so the
        # crosstalk scales agree): hit, miss, hit, in batch order.
        device = ibm_toronto()
        svc = ExecutionService()
        first = [_cx_program((0, 1), 0.3), _cx_program((19, 20), 0.3),
                 _cx_program((12, 13), 0.3)]
        second = [first[0], _cx_program((19, 20), 0.7), first[2]]
        _, scales_first = prepare_parallel(first, device)
        _, scales_second = prepare_parallel(second, device)
        assert scales_first == scales_second
        _run_both(svc, first, device, shots=99, seed=1)
        _run_both(svc, second, device, shots=99, seed=2)
        assert svc.stats["memo_hits"] == 2
        assert svc.stats["memo_misses"] == 4


class TestForcedMisses:
    """Every input run_circuit reads is part of the key."""

    def test_changed_gate_parameter(self):
        device = ibm_toronto()
        svc = ExecutionService()
        _run_both(svc, [_cx_program((0, 1), 0.3)], device, shots=99,
                  seed=1)
        _run_both(svc, [_cx_program((0, 1), 0.30001)], device,
                  shots=99, seed=1)
        assert svc.stats["memo_hits"] == 0
        assert svc.stats["memo_misses"] == 2

    def test_changed_partition(self):
        device = ibm_toronto()
        svc = ExecutionService()
        _run_both(svc, [_cx_program((0, 1))], device, shots=99, seed=1)
        _run_both(svc, [_cx_program((19, 20))], device, shots=99,
                  seed=1)
        assert svc.stats["memo_hits"] == 0

    def test_in_place_calibration_mutation(self):
        # A private copy: ibm_toronto() is shared by the whole session.
        device = copy.deepcopy(ibm_toronto())
        programs = [_cx_program((0, 1))]
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=99, seed=1)
        for field in ("oneq_error", "t1", "t2"):
            values = getattr(device.calibration, field)
            values[0] = values[0] * 1.5
            _run_both(svc, programs, device, shots=99, seed=1)
        device.calibration.twoq_error[(0, 1)] *= 1.5
        _run_both(svc, programs, device, shots=99, seed=1)
        p01, p10 = device.calibration.readout_error[1]
        device.calibration.readout_error[1] = (p01 * 1.5, p10)
        _run_both(svc, programs, device, shots=99, seed=1)
        device.calibration.detuning[1] = 1e-4
        _run_both(svc, programs, device, shots=99, seed=1)
        assert svc.stats["memo_hits"] == 0
        assert svc.stats["memo_misses"] == 7

    def test_changed_cotenants_change_scales(self):
        device = ibm_toronto()
        alone = [_cx_program((0, 1))]
        crowded = [_cx_program((0, 1)), _cx_program((2, 3))]
        _, scales_alone = prepare_parallel(alone, device)
        _, scales_crowded = prepare_parallel(crowded, device)
        assert scales_alone[0] != scales_crowded[0]
        svc = ExecutionService()
        _run_both(svc, alone, device, shots=99, seed=1)
        _run_both(svc, crowded, device, shots=99, seed=1)
        assert svc.stats["memo_hits"] == 0
        assert svc.stats["memo_misses"] == 3

    def test_asap_padding(self):
        device = ibm_toronto()
        short = QuantumCircuit(1, 1)
        short.x(0)
        short.measure_all()
        programs = [Program(short, (12,)), _cx_program((0, 1))]
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=99, seed=1)
        _run_both(svc, programs, device, shots=99, seed=1,
                  scheduling="asap")
        # The short program is padded with idle time under ASAP.
        assert svc.stats["memo_misses"] >= 3

    def test_changed_clbit_mapping(self):
        device = ibm_toronto()
        straight = _cx_program((0, 1))
        crossed = QuantumCircuit(2, 2)
        crossed.h(0)
        crossed.rz(0.3, 1)
        crossed.cx(0, 1)
        crossed.measure(0, 1)
        crossed.measure(1, 0)
        svc = ExecutionService()
        _run_both(svc, [straight], device, shots=99, seed=1)
        _run_both(svc, [Program(crossed, (0, 1))], device, shots=99,
                  seed=1)
        assert svc.stats["memo_hits"] == 0

    def test_reversed_cx_direction(self):
        device = ibm_toronto()
        reversed_cx = QuantumCircuit(2, 2)
        reversed_cx.h(0)
        reversed_cx.rz(0.3, 1)
        reversed_cx.cx(1, 0)
        reversed_cx.measure_all()
        svc = ExecutionService()
        _run_both(svc, [_cx_program((0, 1))], device, shots=99, seed=1)
        _run_both(svc, [Program(reversed_cx, (0, 1))], device, shots=99,
                  seed=1)
        assert svc.stats["memo_hits"] == 0

    def test_crosstalk_toggle(self):
        device = ibm_toronto()
        crowded = [_cx_program((0, 1)), _cx_program((2, 3))]
        svc = ExecutionService()
        _run_both(svc, crowded, device, shots=99, seed=1)
        _run_both(svc, crowded, device, shots=99, seed=1,
                  include_crosstalk=False)
        assert svc.stats["memo_hits"] == 0
        assert svc.stats["memo_misses"] == 4

    def test_noisy_flag(self):
        device = ibm_toronto()
        programs = [_cx_program((0, 1))]
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=99, seed=1)
        _run_both(svc, programs, device, shots=99, seed=1, noisy=False)
        assert svc.stats["memo_hits"] == 0


class TestMemoBoundaries:
    def test_dynamic_programs_bypass_the_memo(self):
        device = ibm_toronto()
        reuse = QuantumCircuit(1, 2)
        reuse.h(0)
        reuse.measure(0, 0)
        reuse.reset(0)
        reuse.x(0)
        reuse.measure(0, 1)
        branch = QuantumCircuit(2, 2)
        branch.h(0)
        branch.measure(0, 0)
        body = QuantumCircuit(2, 2)
        body.x(1)
        branch.if_test((0, 1), body)
        branch.measure(1, 1)
        programs = [Program(reuse, (12,)), Program(branch, (0, 1))]
        svc = ExecutionService()
        for seed in (1, 2):
            _run_both(svc, programs, device, shots=64, seed=seed)
        assert svc.stats["memo_hits"] == 0
        assert svc.stats["memo_misses"] == 0
        assert len(svc._memo) == 0

    def test_dynamic_and_static_programs_share_a_batch(self):
        device = ibm_toronto()
        reuse = QuantumCircuit(1, 2)
        reuse.h(0)
        reuse.measure(0, 0)
        reuse.x(0)
        reuse.measure(0, 1)
        programs = [_cx_program((0, 1)), Program(reuse, (12,))]
        svc = ExecutionService()
        for seed in (1, 2, 3):
            _run_both(svc, programs, device, shots=64, seed=seed)
        # Only the static program is looked up; it misses once.
        assert svc.stats["memo_misses"] == 1
        assert svc.stats["memo_hits"] == 2
        assert len(svc._memo) == 1

    def test_delay_barrier_and_remeasure_stay_memoized(self):
        # Delays, barriers and a repeated measure after a measurement
        # don't make a program dynamic, in run_circuit or in the key.
        device = ibm_toronto()
        qc = QuantumCircuit(2, 3)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        qc.barrier()
        qc.delay(160, 0)
        qc.measure(0, 2)
        qc.measure(1, 1)
        assert not qc.has_midcircuit_measurement()
        programs = [Program(qc, (0, 1))]
        svc = ExecutionService()
        for seed in (1, 2):
            _run_both(svc, programs, device, shots=99, seed=seed)
        assert svc.stats["memo_misses"] == 1
        assert svc.stats["memo_hits"] == 1

    def test_calibration_outside_the_partition_keeps_the_hit(self):
        device = copy.deepcopy(ibm_toronto())
        programs = [_cx_program((0, 1))]
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=99, seed=1)
        device.calibration.t1[20] *= 0.5
        device.calibration.oneq_error[20] *= 2.0
        device.calibration.twoq_error[(19, 20)] *= 2.0
        _run_both(svc, programs, device, shots=99, seed=2)
        assert svc.stats["memo_hits"] == 1

    def test_noiseless_runs_ignore_calibration(self):
        device = copy.deepcopy(ibm_toronto())
        programs = [_cx_program((0, 1))]
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=99, seed=1, noisy=False)
        device.calibration.t1[0] *= 0.5
        device.calibration.twoq_error[(0, 1)] *= 2.0
        _run_both(svc, programs, device, shots=99, seed=2, noisy=False)
        assert svc.stats["memo_hits"] == 1

    def test_all_hit_batch_runs_no_simulation(self, monkeypatch):
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(12), max_programs=4)
        svc = ExecutionService()
        _run_both(svc, programs, device, shots=64, seed=1)

        def no_simulation(*args, **kwargs):
            raise AssertionError("an all-hit batch simulated a program")

        monkeypatch.setattr(execution_service_mod, "run_circuit",
                            no_simulation)
        _run_both(svc, programs, device, shots=64, seed=2)
        assert svc.stats["memo_hits"] == len(programs)
        assert svc.stats["batches"] == 2

    def test_mutating_a_result_does_not_change_the_next_hit(self):
        device = ibm_toronto()
        programs = [_cx_program((0, 1))]
        svc = ExecutionService()
        first = _run_both(svc, programs, device, shots=99, seed=1)
        first[0].probabilities.clear()
        hit = _run_both(svc, programs, device, shots=99, seed=2)
        hit[0].probabilities["00"] = 2.0
        _run_both(svc, programs, device, shots=99, seed=3)
        assert svc.stats["memo_hits"] == 2

    def test_lru_bound_holds(self, monkeypatch):
        device = ibm_toronto()
        svc = ExecutionService()
        assert svc._memo.max_entries == \
            execution_service_mod._MEMO_MAX_ENTRIES
        monkeypatch.setattr(execution_service_mod, "_MEMO_MAX_ENTRIES", 2)
        svc = ExecutionService()
        thetas = (0.1, 0.2, 0.3)
        for theta in thetas:
            _run_both(svc, [_cx_program((0, 1), theta)], device, shots=50,
                      seed=1)
        assert len(svc._memo) == 2
        # The oldest entry was evicted; the newest is still a hit.
        _run_both(svc, [_cx_program((0, 1), thetas[-1])], device,
                  shots=50, seed=2)
        assert svc.stats["memo_hits"] == 1
        _run_both(svc, [_cx_program((0, 1), thetas[0])], device, shots=50,
                  seed=2)
        assert svc.stats["memo_hits"] == 1
        assert svc.stats["memo_misses"] == 4

    def test_concurrent_callers_share_one_memo(self):
        # Executors may share one service: more caller threads than
        # cores, with a short switch interval, must neither corrupt a
        # result nor lose a memo lookup.
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(4), max_programs=3)
        seeds = list(range(24))
        want = [run_parallel(programs, device, shots=64, seed=s)
                for s in seeds]
        svc = ExecutionService()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(svc.run_parallel, programs, device,
                                       shots=64, seed=s) for s in seeds]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert_identical(g, w)
        stats = svc.stats
        assert stats["memo_hits"] + stats["memo_misses"] == \
            len(seeds) * len(programs)
        assert len(svc._memo) == len(programs)
