"""Failure-injection tests: the library must fail loudly and precisely
when inputs are broken, not silently mis-simulate — and, for
*infrastructure* faults (device outages, dying worker pools, killed
processes), degrade deterministically instead of failing at all."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.circuits import CircuitError, QuantumCircuit, gate, ghz_circuit
from repro.core import (
    CloudScheduler,
    CompileService,
    FaultPlan,
    SubmittedProgram,
    inject_broken_process_pool,
    qucp_allocate,
)
from repro.hardware import (
    CouplingMap,
    DeviceFleet,
    generate_calibration,
    linear_device,
)
from repro.service import JobError, QuantumProvider
from repro.sim import KrausChannel, NoiseModel, run_circuit
from repro.sim.executor import Program, run_parallel
from repro.transpiler import Layout, transpile
from repro.workloads import synthesize_traffic, workload


class TestBrokenCircuits:
    def test_gate_arity_mismatch(self):
        qc = QuantumCircuit(3)
        with pytest.raises(CircuitError):
            qc.append(gate("cx"), [0, 1, 2])

    def test_measure_without_clbits(self):
        qc = QuantumCircuit(1, 0)
        with pytest.raises(CircuitError):
            qc.measure(0, 0)

    def test_compose_onto_missing_qubits(self):
        small = QuantumCircuit(2)
        big = ghz_circuit(3)
        with pytest.raises(CircuitError):
            small.compose(big)


class TestBrokenDevices:
    def test_disconnected_partition_unroutable(self, toronto):
        """A partition whose induced graph is disconnected cannot host a
        program needing entanglement across the cut."""
        from repro.transpiler import transpile_for_partition
        import networkx as nx

        qc = ghz_circuit(2).measure_all()
        # Qubits 0 and 26 are far apart: induced subgraph has no edge.
        with pytest.raises((nx.NetworkXNoPath, ValueError,
                            nx.NodeNotFound)):
            transpile_for_partition(qc, toronto, (0, 26))

    def test_calibration_missing_link(self):
        coupling = CouplingMap(3, [(0, 1), (1, 2)])
        cal = generate_calibration(coupling, seed=0)
        with pytest.raises(KeyError):
            cal.cx_error(0, 2)

    def test_program_larger_than_device(self, line5):
        with pytest.raises(RuntimeError):
            qucp_allocate([ghz_circuit(6).measure_all()], line5)


class TestBrokenNoise:
    def test_non_cptp_channel_rejected(self):
        bad = (np.eye(2, dtype=complex) * 1.1,)
        with pytest.raises(ValueError):
            KrausChannel(bad)

    def test_negative_error_rates_harmless(self):
        """Negative calibration entries must not produce negative
        probabilities — channel_for treats them as noiseless."""
        nm = NoiseModel(oneq_error={0: -0.5})
        qc = QuantumCircuit(1, 1)
        qc.x(0).measure(0, 0)
        res = run_circuit(qc, noise_model=nm, shots=0)
        assert res.probabilities["1"] == pytest.approx(1.0)

    def test_error_rate_above_one_clipped(self):
        nm = NoiseModel(twoq_error={(0, 1): 5.0})
        qc = ghz_circuit(2).measure_all()
        res = run_circuit(qc, noise_model=nm, shots=0)
        total = sum(res.probabilities.values())
        assert total == pytest.approx(1.0)
        assert all(v >= 0 for v in res.probabilities.values())


class TestBrokenParallelJobs:
    def test_program_with_gate_outside_partition(self, toronto):
        qc = QuantumCircuit(3, 3)
        qc.cx(0, 2)  # local (0, 2) -> physical (0, 2): not a link
        qc.measure_all()
        with pytest.raises(ValueError):
            run_parallel([Program(qc, (0, 1, 2))], toronto)

    def test_zero_shot_run_still_reports_probabilities(self, toronto):
        qc = workload("adder").circuit()
        alloc = qucp_allocate([qc], toronto)
        from repro.core import execute_allocation

        out = execute_allocation(alloc, shots=0)[0]
        assert out.result.counts == {}
        assert sum(out.result.probabilities.values()) == pytest.approx(
            1.0)

    def test_transpile_level_out_of_range(self, line5):
        with pytest.raises(ValueError):
            transpile(ghz_circuit(2), line5.coupling,
                      optimization_level=-1)

    def test_layout_for_wrong_device_size(self, line5):
        qc = ghz_circuit(2)
        bad_layout = Layout({0: 7, 1: 8})  # physical qubits don't exist
        with pytest.raises(Exception):
            transpile(qc, line5.coupling, line5.calibration,
                      initial_layout=bad_layout)


# ----------------------------------------------------------------------
# Infrastructure chaos: deterministic fault injection
# ----------------------------------------------------------------------

def _traffic(n, seed):
    """A small deterministic poisson arrival stream."""
    return synthesize_traffic(n, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="uniform",
                              seed=seed)


class TestDeviceOutageChaos:
    """A committed FaultPlan replays the identical failure sequence."""

    def _fleet(self, toronto, melbourne):
        return DeviceFleet([toronto, melbourne])

    def test_midrun_outage_requeues_and_completes(self, toronto,
                                                  melbourne):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                       duration_ns=2e6)
        sched = CloudScheduler(self._fleet(toronto, melbourne),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(6, seed=5))
        assert out.outages == 1
        # The outage interrupted an in-flight batch: its programs
        # re-queued and still completed on the surviving device.
        assert out.requeued
        assert not out.rejected
        assert set(out.completion_ns) == set(range(6))
        for member in out.requeued:
            assert member in out.completion_ns

    def test_committed_plan_is_replay_identical(self, toronto,
                                                melbourne):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                       duration_ns=2e6)
        runs = []
        for _ in range(2):
            sched = CloudScheduler(self._fleet(toronto, melbourne),
                                   fidelity_threshold=1.0,
                                   fault_plan=plan)
            runs.append(sched.schedule(_traffic(6, seed=5)).to_dict())
        assert runs[0] == runs[1]

    def test_recovered_device_rejoins(self, toronto):
        plan = FaultPlan.device_outage(0, start_ns=5e5, duration_ns=1e6)
        sched = CloudScheduler(DeviceFleet(toronto),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(4, seed=3))
        # Sole device died and came back: everything still completes.
        assert out.outages == 1
        assert not out.rejected
        assert set(out.completion_ns) == set(range(4))

    def test_permanent_outage_rejects_with_reasons(self, toronto):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=1.0)
        sched = CloudScheduler(DeviceFleet(toronto),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(4, seed=3))
        # The only device never comes back: nothing can complete, and
        # every program is rejected with a structured reason instead of
        # stranding the queue.
        assert sorted(out.rejected) == [0, 1, 2, 3]
        assert not out.completion_ns
        assert set(out.rejection_reasons) == {0, 1, 2, 3}
        for reason in out.rejection_reasons.values():
            assert "offline" in reason

    def test_overlapping_outages_require_both_recoveries(self, toronto):
        plan = (FaultPlan.device_outage(0, start_ns=4e5, duration_ns=4e6)
                .with_outage(0, start_ns=5e5, duration_ns=1e6))
        sched = CloudScheduler(DeviceFleet(toronto),
                               fidelity_threshold=1.0, fault_plan=plan)
        out = sched.schedule(_traffic(4, seed=3))
        assert out.outages == 2
        assert not out.rejected
        assert set(out.completion_ns) == set(range(4))

    def test_unknown_device_fails_at_construction(self, toronto):
        plan = FaultPlan.device_outage("ibm_nowhere", start_ns=0.0)
        with pytest.raises(ValueError, match="unknown device"):
            CloudScheduler(DeviceFleet(toronto), fault_plan=plan)

    def test_ambiguous_twin_name_fails_at_construction(self):
        twin_a = linear_device(5, seed=1)
        twin_b = linear_device(5, seed=2)
        assert twin_a.name == twin_b.name
        plan = FaultPlan.device_outage(twin_a.name, start_ns=0.0)
        with pytest.raises(ValueError, match="ambiguous"):
            CloudScheduler(DeviceFleet([twin_a, twin_b]),
                           fault_plan=plan)
        # By index the same twin is addressable.
        CloudScheduler(DeviceFleet([twin_a, twin_b]),
                       fault_plan=FaultPlan.device_outage(1, 0.0))

    def test_fault_plan_through_the_facade(self, toronto, melbourne):
        plan = FaultPlan.device_outage("ibm_toronto", start_ns=5e5,
                                       duration_ns=2e6)
        prov = QuantumProvider(devices=[toronto, melbourne])
        try:
            backend = prov.fleet_backend(
                ["ibm_toronto", "ibm_melbourne"],
                fidelity_threshold=1.0, fault_plan=plan)
            job = backend.run(_traffic(6, seed=5), shots=32, seed=2)
            result = job.result()
        finally:
            prov.shutdown()
        assert result.schedule.outages == 1
        # Every non-rejected program still produced counts.
        assert not result.metadata.rejected
        assert len(result.programs) == 6
        assert all(sum(p.counts.values()) == 32
                   for p in result.programs)


class TestStructuredRejections:
    def test_partial_rejection_reasons_in_metadata(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.backend(line5).run(
                [SubmittedProgram(ghz_circuit(2).measure_all()),
                 SubmittedProgram(ghz_circuit(8).measure_all())],
                shots=16, seed=1)
            result = job.result()
        finally:
            prov.shutdown()
        assert result.metadata.rejected == (1,)
        assert result.metadata.rejection_reasons == (
            (1, "circuit fits no device coupling map in the fleet"),)
        # The JSON payload carries them too.
        payload = result.to_dict()
        assert payload["metadata"]["rejection_reasons"] == {
            "1": "circuit fits no device coupling map in the fleet"}

    def test_total_rejection_is_a_typed_job_error(self, line5):
        prov = QuantumProvider(devices=[line5])
        try:
            job = prov.backend(line5).run(
                [ghz_circuit(8).measure_all()], shots=16, seed=1)
            with pytest.raises(JobError) as info:
                job.result()
        finally:
            prov.shutdown()
        assert info.value.job_id == job.job_id
        assert set(info.value.reasons) == {0}
        assert "program 0" in str(info.value)


class TestBrokenPoolChaos:
    """An injected BrokenProcessPool degrades the compile service to
    inline execution (never a wrong answer, never a crash)."""

    NAMES = ("adder", "bell", "lin", "var")

    def _allocation(self, toronto, names=NAMES):
        return qucp_allocate([workload(n).circuit() for n in names],
                             toronto)

    def _assert_identical(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.circuit == w.circuit
            assert g.initial_layout == w.initial_layout
            assert g.final_layout == w.final_layout
            assert g.num_swaps == w.num_swaps

    def test_pool_broken_at_submit_falls_back_inline(self, toronto):
        allocation = self._allocation(toronto)
        want = CompileService(mode="serial").compile_allocation(allocation)
        svc = CompileService(max_workers=2, mode="process")
        executor = inject_broken_process_pool(svc, break_after=0,
                                              mode="submit")
        got = svc.compile_allocation(allocation)
        self._assert_identical(got, want)
        assert executor.broke
        assert svc.stats["fallbacks"] == len(self.NAMES)

    def test_worker_death_mid_chunk_falls_back_inline(self, toronto):
        allocation = self._allocation(toronto)
        want = CompileService(mode="serial").compile_allocation(allocation)
        svc = CompileService(max_workers=2, mode="process")
        executor = inject_broken_process_pool(svc, break_after=1,
                                              mode="result")
        got = svc.compile_allocation(allocation)
        self._assert_identical(got, want)
        assert executor.broke
        # The first chunk ran on the injected pool, the dead chunk's
        # programs fell back inline.
        assert 0 < svc.stats["fallbacks"] < len(self.NAMES)

    def test_next_batch_gets_a_fresh_pool(self, toronto):
        svc = CompileService(max_workers=1, mode="process")
        try:
            inject_broken_process_pool(svc, break_after=0, mode="submit")
            svc.compile_allocation(self._allocation(toronto))
            # The broken injected pool was dropped compare-and-swap style.
            assert svc._process_pool is None
            allocation = self._allocation(toronto, ("fredkin", "qec_en"))
            want = CompileService(mode="serial").compile_allocation(
                allocation)
            got = svc.compile_allocation(allocation)
            self._assert_identical(got, want)
            # ... and shipped through the fresh pool, with no fallback.
            assert svc._process_pool is not None
            assert svc.stats["chunks"] == 1
            assert svc.stats["fallbacks"] == len(self.NAMES)
        finally:
            svc.shutdown()

    def test_broken_compile_pool_job_still_completes(self, line5):
        prov = QuantumProvider(devices=[line5], compile_mode="process")
        try:
            executor = inject_broken_process_pool(
                prov.compile_service, break_after=0, mode="submit")
            job = prov.backend(line5).run(
                [ghz_circuit(2).measure_all()] * 3, shots=16, seed=1)
            result = job.result()
            assert len(result.programs) == 3
            assert executor.broke
        finally:
            prov.shutdown()


class TestKillAndResume:
    """Kill a provider mid-flight; a fresh one on the same store must
    re-serve finished results bit-identically and drive interrupted
    jobs to DONE."""

    CHILD = textwrap.dedent("""
        import json, os, sys, threading

        from repro.circuits import ghz_circuit
        from repro.hardware import linear_device
        from repro.service import QuantumProvider

        store, out_path = sys.argv[1], sys.argv[2]
        dev = linear_device(5, seed=7)
        prov = QuantumProvider(devices=[dev], store_path=store)
        sim = prov.simulator(dev)

        job1 = sim.run([ghz_circuit(2).measure_all()] * 2, shots=64,
                       seed=3)
        payload = job1.result().to_dict()

        # Occupy the single job worker so the next submission stays
        # QUEUED, then die without any shutdown.
        blocker = prov._submit_job(
            sim, lambda job_id: threading.Event().wait(60))
        job2 = sim.run([ghz_circuit(3).measure_all()], shots=32, seed=4)

        with open(out_path, "w") as fh:
            json.dump({"job1": job1.job_id, "payload": payload,
                       "blocker": blocker.job_id,
                       "job2": job2.job_id}, fh)
        os._exit(1)
    """)

    def test_kill_and_resume(self, tmp_path):
        from repro.service import JobStatus, JobStore

        store = str(tmp_path / "jobs.sqlite")
        out_path = str(tmp_path / "child.json")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, store, out_path],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr
        with open(out_path) as fh:
            child = json.load(fh)

        # The store witnessed the crash: job2 still queued.
        with JobStore(store) as audit:
            assert audit.get(child["job1"]).status == "done"
            assert audit.get(child["job2"]).status == "queued"

        prov = QuantumProvider(devices=[linear_device(5, seed=7)],
                               store_path=store)
        try:
            # Finished work re-serves bit-identically.
            job1 = prov.job(child["job1"])
            assert job1.status() is JobStatus.DONE
            assert job1.result().to_dict() == child["payload"]

            # The interrupted replayable job is driven to DONE.
            job2 = prov.job(child["job2"])
            result = job2.result(timeout=240)
            assert job2.status() is JobStatus.DONE
            assert result.metadata.job_id == child["job2"]
            assert sum(result.counts(0).values()) == 32
            assert prov.store.get(child["job2"]).status == "done"

            # The non-replayable blocker surfaces as a structured error.
            blocker = prov.job(child["blocker"])
            assert blocker.status() is JobStatus.ERROR
            with pytest.raises(RuntimeError, match="replayable"):
                blocker.result()
        finally:
            prov.shutdown()
