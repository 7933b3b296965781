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
import pytest

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

    @pytest.mark.parametrize("mode", ["serial", "thread", "process", "auto"])
    def test_new_seeds_match_reference_on_every_route(self, mode):
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(3), max_programs=4)
        with ExecutionService(max_workers=2, mode=mode) as svc:
            for seed in (1, 2, 3):
                _run_both(svc, programs, device, shots=211, seed=seed)
            stats = svc.stats
        n = len(programs)
        assert stats["memo_misses"] == n
        assert stats["memo_hits"] == 2 * n
        # The first batch shipped its misses through the forced route;
        # the two all-hit batches stayed inline.
        if mode in ("thread", "process"):
            assert stats[f"{mode}_batches"] == 1
            assert stats["serial_batches"] == 2

    def test_shot_count_and_seed_sequence_are_not_in_the_key(self):
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(8), max_programs=3)
        with ExecutionService(mode="serial") as svc:
            _run_both(svc, programs, device, shots=64, seed=5)
            _run_both(svc, programs, device, shots=1000,
                      seed=np.random.SeedSequence(17))
            _run_both(svc, programs, device, shots=0, seed=None)
            assert svc.stats["memo_misses"] == len(programs)
            assert svc.stats["memo_hits"] == 2 * len(programs)


class TestForcedMisses:
    """Every input run_circuit reads is part of the key."""

    def test_changed_gate_parameter(self):
        device = ibm_toronto()
        with ExecutionService(mode="serial") as svc:
            _run_both(svc, [_cx_program((0, 1), 0.3)], device, shots=99,
                      seed=1)
            _run_both(svc, [_cx_program((0, 1), 0.30001)], device,
                      shots=99, seed=1)
            assert svc.stats["memo_hits"] == 0
            assert svc.stats["memo_misses"] == 2

    def test_changed_partition(self):
        device = ibm_toronto()
        with ExecutionService(mode="serial") as svc:
            _run_both(svc, [_cx_program((0, 1))], device, shots=99, seed=1)
            _run_both(svc, [_cx_program((19, 20))], device, shots=99,
                      seed=1)
            assert svc.stats["memo_hits"] == 0

    def test_in_place_calibration_mutation(self):
        # A private copy: ibm_toronto() is shared by the whole session.
        device = copy.deepcopy(ibm_toronto())
        programs = [_cx_program((0, 1))]
        with ExecutionService(mode="serial") as svc:
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
        with ExecutionService(mode="serial") as svc:
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
        with ExecutionService(mode="serial") as svc:
            _run_both(svc, programs, device, shots=99, seed=1)
            _run_both(svc, programs, device, shots=99, seed=1,
                      scheduling="asap")
            # The short program is padded with idle time under ASAP.
            assert svc.stats["memo_misses"] >= 3

    def test_noisy_flag(self):
        device = ibm_toronto()
        programs = [_cx_program((0, 1))]
        with ExecutionService(mode="serial") as svc:
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
        with ExecutionService(mode="serial") as svc:
            for seed in (1, 2):
                _run_both(svc, programs, device, shots=64, seed=seed)
            assert svc.stats["memo_hits"] == 0
            assert svc.stats["memo_misses"] == 0
            assert len(svc._memo) == 0

    def test_mutating_a_result_does_not_change_the_next_hit(self):
        device = ibm_toronto()
        programs = [_cx_program((0, 1))]
        with ExecutionService(mode="serial") as svc:
            first = _run_both(svc, programs, device, shots=99, seed=1)
            first[0].probabilities.clear()
            hit = _run_both(svc, programs, device, shots=99, seed=2)
            hit[0].probabilities["00"] = 2.0
            _run_both(svc, programs, device, shots=99, seed=3)
            assert svc.stats["memo_hits"] == 2

    @pytest.mark.parametrize("mode", ["thread", "process", "auto"])
    def test_all_hit_batch_builds_no_pool(self, mode):
        device = ibm_toronto()
        programs = random_job(np.random.default_rng(11), max_programs=5)
        svc = ExecutionService(max_workers=2, mode=mode)
        _run_both(svc, programs, device, shots=128, seed=1)
        svc.shutdown()
        before = svc.stats
        _run_both(svc, programs, device, shots=128, seed=2)
        after = svc.stats
        assert svc._thread_pool is None
        assert svc._process_pool is None
        assert after["serial_batches"] == before["serial_batches"] + 1
        assert after["chunks"] == before["chunks"]
        assert after["memo_hits"] - before["memo_hits"] == len(programs)

    def test_lru_bound_holds(self, monkeypatch):
        device = ibm_toronto()
        svc = ExecutionService(mode="serial")
        assert svc._memo.max_entries == \
            execution_service_mod._MEMO_MAX_ENTRIES
        monkeypatch.setattr(execution_service_mod, "_MEMO_MAX_ENTRIES", 2)
        svc = ExecutionService(mode="serial")
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
        svc = ExecutionService(mode="serial")
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
