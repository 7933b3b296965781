"""Context-cache equivalence: transpiling through the shared
:class:`DeviceContext` layer must be bit-identical to the uncached seed
behaviour, caches must count hits/misses, and mutated calibrations must
invalidate.
"""

import math
import sys
import threading
import time

import networkx as nx
import pytest

from repro.circuits import QuantumCircuit, qft_circuit, random_circuit
from repro.core import CompileService, ExecutionCache, get_allocator
from repro.core.executor import _default_transpiler, execute_allocation
from repro.hardware import CouplingMap, ibm_melbourne, ibm_toronto, linear_device
from repro.transpiler import (
    DeviceContext,
    context_cache_stats,
    decompose_to_basis,
    device_context,
    edge_reliability_weight,
    noise_aware_layout,
    reset_context_cache,
    sabre_route,
    transpile,
    transpile_for_partition,
)
from repro.transpiler.context import UNREACHABLE


def _measured(circuit: QuantumCircuit) -> QuantumCircuit:
    out = circuit.copy()
    if not any(i.name == "measure" for i in out):
        out.measure_all()
    return out


def _seed_reliability_distance(coupling, calibration):
    """The seed implementation's per-call Dijkstra, reproduced inline
    (independent of the context module) as the equivalence oracle."""
    weighted = nx.Graph()
    weighted.add_nodes_from(range(coupling.num_qubits))
    for a, b in coupling.edges:
        if calibration is None:
            w = 1.0
        else:
            err = min(calibration.cx_error(a, b), 0.999)
            w = -math.log(1.0 - err) + 0.01
        weighted.add_edge(a, b, weight=w)
    return {
        src: dists
        for src, dists in nx.all_pairs_dijkstra_path_length(
            weighted, weight="weight")
    }


class TestContextTables:
    def test_reliability_tables_match_seed_computation(self):
        dev = ibm_toronto()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        oracle = _seed_reliability_distance(dev.coupling, dev.calibration)
        assert ctx.reliability_distance == oracle
        mat = ctx.reliability_matrix
        n = dev.num_qubits
        for src in range(n):
            for dst in range(n):
                expected = oracle[src].get(dst, UNREACHABLE)
                assert mat[src, dst] == expected  # bit-identical floats

    def test_edge_weight_single_source_of_truth(self):
        dev = ibm_melbourne()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        for (a, b), w in ctx.edge_weights.items():
            err = min(dev.calibration.cx_error(a, b), 0.999)
            assert w == -math.log(1.0 - err) + 0.01
        assert edge_reliability_weight(None) == 1.0

    def test_hop_matrix_matches_coupling_distance(self):
        dev = ibm_melbourne()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        for a in range(dev.num_qubits):
            for b in range(dev.num_qubits):
                assert ctx.hop_matrix[a, b] == dev.coupling.distance(a, b)

    def test_tables_are_lazy_and_cached(self):
        dev = ibm_melbourne()
        ctx = DeviceContext(dev.coupling, dev.calibration)
        assert ctx.stats["tables_built"] == 0
        first = ctx.reliability_distance
        built = ctx.stats["tables_built"]
        assert built > 0
        assert ctx.reliability_distance is first  # no rebuild
        assert ctx.stats["tables_built"] == built


class TestTranspileEquivalence:
    @pytest.mark.parametrize("router", ["basic", "sabre"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_context_is_bit_identical(self, router, seed):
        """Warm shared context == per-call fresh context, full device."""
        dev = ibm_toronto()
        shared = DeviceContext(dev.coupling, dev.calibration)
        for i in range(3):
            circuit = _measured(
                random_circuit(5, 10, seed=seed * 10 + i))
            cold = transpile(
                circuit, dev.coupling, dev.calibration, seed=seed,
                router=router,
                context=DeviceContext(dev.coupling, dev.calibration))
            warm = transpile(circuit, dev.coupling, dev.calibration,
                             seed=seed, router=router, context=shared)
            via_registry = transpile(circuit, dev.coupling,
                                     dev.calibration, seed=seed,
                                     router=router)
            assert warm.circuit == cold.circuit
            assert via_registry.circuit == cold.circuit
            assert warm.initial_layout == cold.initial_layout
            assert warm.final_layout == cold.final_layout
            assert warm.num_swaps == cold.num_swaps

    @pytest.mark.parametrize("seed", [0, 3])
    def test_partition_path_bit_identical_and_memoized(self, seed):
        dev = ibm_toronto()
        circuit = _measured(qft_circuit(4))
        partition = get_allocator("qucp").best_placement(
            circuit, dev).partition
        ctx = DeviceContext(dev.coupling, dev.calibration)
        first = transpile_for_partition(circuit, dev, partition,
                                        seed=seed, context=ctx)
        assert ctx.stats["partition_misses"] == 1
        again = transpile_for_partition(circuit, dev, partition,
                                        seed=seed, context=ctx)
        assert ctx.stats["partition_hits"] == 1
        fresh = transpile_for_partition(
            circuit, dev, partition, seed=seed,
            context=DeviceContext(dev.coupling, dev.calibration))
        assert again.circuit == first.circuit == fresh.circuit
        assert again.final_layout == first.final_layout
        assert again.num_swaps == first.num_swaps

    def test_sabre_vectorized_matches_scalar_reference(self):
        """The numpy swap scoring reproduces the seed scalar loop
        bit-for-bit across devices, circuits, and seeds."""
        for dev in (ibm_toronto(), linear_device(6, seed=2),
                    ibm_melbourne()):
            for seed in range(4):
                circuit = random_circuit(
                    min(6, dev.num_qubits), 14, seed=seed)
                basis = decompose_to_basis(circuit)
                layout = noise_aware_layout(
                    basis, dev.coupling, dev.calibration, seed=seed)
                vec = sabre_route(basis, dev.coupling, layout,
                                  dev.calibration,
                                  score_mode="vectorized")
                ref = sabre_route(basis, dev.coupling, layout,
                                  dev.calibration,
                                  score_mode="reference")
                assert vec.circuit == ref.circuit
                assert vec.final_layout == ref.final_layout
                assert vec.num_swaps == ref.num_swaps

    def test_unknown_score_mode_rejected(self):
        dev = linear_device(4, seed=0)
        basis = decompose_to_basis(qft_circuit(3))
        layout = noise_aware_layout(basis, dev.coupling, dev.calibration)
        with pytest.raises(ValueError, match="score_mode"):
            sabre_route(basis, dev.coupling, layout, dev.calibration,
                        score_mode="fast")


class TestRegistry:
    def test_registry_hit_miss_counters(self):
        reset_context_cache()
        dev = linear_device(5, seed=4)
        ctx1 = device_context(dev.coupling, dev.calibration)
        ctx2 = device_context(dev.coupling, dev.calibration)
        assert ctx1 is ctx2
        stats = context_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_value_keyed_sharing_across_objects(self):
        """Equal coupling/calibration values share one context even for
        distinct objects (the fleet's twin-device case)."""
        reset_context_cache()
        a = linear_device(5, seed=4)
        b = linear_device(5, seed=4)
        assert a.calibration is not b.calibration
        assert device_context(a.coupling, a.calibration) \
            is device_context(b.coupling, b.calibration)

    def test_mutated_calibration_invalidates(self):
        reset_context_cache()
        dev = linear_device(5, seed=4)
        ctx1 = device_context(dev.coupling, dev.calibration)
        edge = dev.coupling.edges[0]
        w_before = ctx1.edge_weights[edge]
        old = dev.calibration.twoq_error[edge]
        try:
            dev.calibration.twoq_error[edge] = min(old * 5, 0.14)
            ctx2 = device_context(dev.coupling, dev.calibration)
            assert ctx2 is not ctx1
            assert ctx2.edge_weights[edge] != w_before
            assert ctx2.edge_weights[edge] == edge_reliability_weight(
                dev.calibration.twoq_error[edge])
            # The stale context still serves its frozen snapshot.
            assert ctx1.edge_weights[edge] == w_before
        finally:
            dev.calibration.twoq_error[edge] = old

    def test_lazy_tables_pinned_to_registration_snapshot(self):
        """Tables built *after* an in-place mutation must still reflect
        the values the context was fingerprinted under."""
        reset_context_cache()
        dev = linear_device(5, seed=4)
        edge = dev.coupling.edges[0]
        old = dev.calibration.twoq_error[edge]
        ctx = device_context(dev.coupling, dev.calibration)
        assert ctx.stats["tables_built"] == 0  # nothing materialized yet
        try:
            dev.calibration.twoq_error[edge] = min(old * 5, 0.14)
            assert ctx.edge_weights[edge] == edge_reliability_weight(old)
        finally:
            dev.calibration.twoq_error[edge] = old

    def test_none_calibration_contexts(self):
        reset_context_cache()
        cm = CouplingMap(4, [(0, 1), (1, 2), (2, 3)])
        ctx = device_context(cm, None)
        assert all(w == 1.0 for w in ctx.edge_weights.values())
        assert ctx.reliability_distance[0][3] == 3.0


class TestCouplingMapLaziness:
    def test_distance_table_lazy(self):
        cm = CouplingMap(6, [(i, i + 1) for i in range(5)])
        assert cm._dist_cache is None
        assert cm.distance(0, 5) == 5
        assert cm._dist_cache is not None

    def test_one_hop_caches_match_direct_scan(self):
        dev = ibm_melbourne()
        cm = dev.coupling
        pairs = cm.all_one_hop_edge_pairs()
        assert pairs is cm.all_one_hop_edge_pairs()  # cached object
        expected = tuple(
            (e1, e2)
            for i, e1 in enumerate(cm.edges)
            for e2 in cm.edges[i + 1:]
            if cm.pair_distance(e1, e2) == 1
        )
        assert pairs == expected
        for edge in cm.edges:
            direct = tuple(
                other for other in cm.edges
                if other != edge and cm.pair_distance(edge, other) == 1
            )
            assert cm.one_hop_pairs(edge) == direct

    def test_one_hop_pairs_non_link_query(self):
        cm = CouplingMap(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        # (0, 2) is not a device link; the historical scan semantics
        # still apply: only (3, 4) is disjoint from it at hop distance 1.
        assert cm.one_hop_pairs((0, 2)) == ((3, 4),)


class TestCompileService:
    @pytest.fixture()
    def job(self):
        dev = ibm_toronto()
        circuits = [_measured(qft_circuit(3)),
                    _measured(random_circuit(4, 8, seed=1))]
        return get_allocator("qucp").allocate(circuits, dev)

    def test_service_matches_direct_execution(self, job):
        direct = execute_allocation(job, shots=256, seed=5)
        via = execute_allocation(job, shots=256, seed=5,
                                 compile_service=CompileService())
        assert len(via) == len(direct)
        for a, b in zip(via, direct):
            assert a.transpiled.circuit == b.transpiled.circuit
            assert a.result.probabilities == b.result.probabilities

    def test_service_cache_short_circuit_and_counters(self, job):
        svc = CompileService()
        svc.compile_allocation(job)
        assert svc.stats["submitted"] == 2
        assert svc.cache.transpile_misses == 2
        svc.compile_allocation(job)
        assert svc.stats["submitted"] == 2  # all cache hits
        assert svc.stats["short_circuits"] == 2
        assert svc.cache.transpile_hits == 2

    def test_results_do_not_alias(self, job):
        svc = CompileService()
        first = svc.compile_allocation(job)
        second = svc.compile_allocation(job)
        assert first[0].circuit == second[0].circuit
        assert first[0].circuit is not second[0].circuit
        assert first[0].final_layout is not second[0].final_layout

    def test_mismatched_cache_rejected(self, job):
        with pytest.raises(ValueError, match="cache"):
            execute_allocation(job, shots=64, cache=ExecutionCache(),
                               compile_service=CompileService())

    def test_compile_errors_propagate(self, job):
        def broken(circuit, device, allocation):
            raise RuntimeError("compiler exploded")

        with pytest.raises(RuntimeError, match="compiler exploded"):
            CompileService().transpile(job.allocations[0].circuit,
                                       job.device, job.allocations[0],
                                       broken)

    def test_default_transpiler_key_stable(self, job):
        """The default hook is module-level, so its cache key is stable
        across calls (id() of a fresh lambda would never hit)."""
        cache = ExecutionCache()
        alloc = job.allocations[0]
        k1 = cache.transpile_key(alloc.circuit, job.device, alloc,
                                 _default_transpiler)
        k2 = cache.transpile_key(alloc.circuit, job.device, alloc,
                                 _default_transpiler)
        assert k1 == k2 and k1 is not None

    def test_owned_request_is_done_when_submit_returns(self, job):
        # Compiles run inline: nothing is left pending on a pool.
        svc = CompileService()
        futures = svc.submit_allocation(job)
        assert all(f.done() for f in futures)
        assert svc._inflight == {}  # noqa: SLF001

    def test_failed_compile_releases_its_key(self, job):
        # A failure must not stay registered in flight: the next request
        # for the key compiles afresh instead of replaying the error.
        calls = []

        def flaky(circuit, device, allocation):
            calls.append(allocation.index)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return _default_transpiler(circuit, device, allocation)

        svc = CompileService()
        alloc = job.allocations[0]
        with pytest.raises(RuntimeError, match="transient"):
            svc.transpile(alloc.circuit, job.device, alloc, flaky)
        got = svc.transpile(alloc.circuit, job.device, alloc, flaky)
        want = _default_transpiler(alloc.circuit, job.device, alloc)
        assert got.circuit == want.circuit
        assert len(calls) == 2
        assert svc.stats["submitted"] == 2
        assert svc._inflight == {}  # noqa: SLF001

    def test_unhashable_requests_compile_every_time(self, job,
                                                    monkeypatch):
        svc = CompileService()
        monkeypatch.setattr(svc.cache, "transpile_key",
                            lambda *args: None)
        svc.compile_allocation(job)
        svc.compile_allocation(job)
        assert svc.stats["submitted"] == 4
        assert svc.stats["short_circuits"] == 0
        assert svc._inflight == {}  # noqa: SLF001

    def test_results_come_back_in_program_order(self, job):
        shuffled = type(job)(method=job.method, device=job.device,
                             allocations=job.allocations[::-1])
        got = CompileService().compile_allocation(shuffled)
        want = [_default_transpiler(a.circuit, job.device, a)
                for a in sorted(job.allocations, key=lambda a: a.index)]
        assert [g.circuit for g in got] == [w.circuit for w in want]

    def test_compiles_publish_into_the_shared_cache(self, job):
        cache = ExecutionCache()
        CompileService(cache=cache).compile_allocation(job)
        for alloc in job.allocations:
            assert cache.lookup_transpile(alloc.circuit, job.device,
                                          alloc,
                                          _default_transpiler) is not None
        assert cache.transpile_hits == len(job.allocations)

    def test_gated_publication_returns_but_does_not_cache(self, job):
        # A fenced writer (an abandoned retry attempt) still gets its
        # result, but later requests cannot hit what it compiled.
        cache = ExecutionCache()
        cache.write_gate = lambda: False
        svc = CompileService(cache=cache)
        first = svc.compile_allocation(job)
        assert len(first) == len(job.allocations)
        svc.compile_allocation(job)
        assert svc.stats["submitted"] == 2 * len(job.allocations)
        assert cache.gated_writes == 2 * len(job.allocations)

    def test_stats_read_by_the_e2e_benchmark(self, job):
        svc = CompileService()
        svc.compile_allocation(job)
        svc.compile_allocation(job)
        stats = svc.stats
        assert {"submitted", "coalesced", "short_circuits",
                "fallbacks"} <= set(stats)
        # No pool is left to break, so nothing ever falls back.
        assert stats["fallbacks"] == 0
        stats["submitted"] = -1
        assert svc.stats["submitted"] == len(job.allocations)


class TestInflightCoalescing:
    """Two threads requesting one key share one compile.

    The owner's compile blocks in its hook until the joiner has joined
    the in-flight future, so the overlap is forced rather than timed.
    """

    @pytest.fixture()
    def job(self):
        circuits = [_measured(qft_circuit(3))]
        return get_allocator("qucp").allocate(circuits, ibm_toronto())

    def _two_requests(self, job, compile_fn):
        alloc = job.allocations[0]
        svc = CompileService()
        entered, release = threading.Event(), threading.Event()
        calls = []

        def hook(circuit, device, allocation):
            calls.append(allocation.index)
            entered.set()
            release.wait(30.0)
            return compile_fn(circuit, device, allocation)

        results, errors = {}, {}

        def request(name):
            try:
                results[name] = svc.transpile(alloc.circuit, job.device,
                                              alloc, hook)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors[name] = exc

        owner = threading.Thread(target=request, args=("owner",))
        owner.start()
        assert entered.wait(30.0)
        joiner = threading.Thread(target=request, args=("joiner",))
        joiner.start()
        deadline = time.monotonic() + 30.0
        while (svc.stats["coalesced"] < 1
               and time.monotonic() < deadline):
            pass
        coalesced = svc.stats["coalesced"]
        release.set()
        owner.join(30.0)
        joiner.join(30.0)
        assert not owner.is_alive() and not joiner.is_alive()
        assert coalesced == 1
        assert calls == [0]
        assert svc.stats["submitted"] == 1
        return results, errors

    def test_joiner_shares_the_owners_compile(self, job):
        results, errors = self._two_requests(job, _default_transpiler)
        assert errors == {}
        owner, joiner = results["owner"], results["joiner"]
        assert owner.circuit == joiner.circuit
        assert owner.initial_layout == joiner.initial_layout
        assert owner.final_layout == joiner.final_layout
        # Both callers get their own copy.
        assert owner.circuit is not joiner.circuit

    def test_joiner_receives_the_owners_compile_error(self, job):
        def broken(circuit, device, allocation):
            raise RuntimeError("compiler exploded")

        results, errors = self._two_requests(job, broken)
        assert results == {}
        assert set(errors) == {"owner", "joiner"}
        assert errors["joiner"] is errors["owner"]
        assert isinstance(errors["joiner"], RuntimeError)

    def test_many_threads_compile_each_key_once(self):
        # More threads than cores and a tiny switch interval: a lost
        # claim would compile a key twice or lose a request.
        dev = ibm_toronto()
        circuits = [_measured(random_circuit(3, 6, seed=s))
                    for s in range(3)]
        job = get_allocator("qucp").allocate(circuits, dev)
        svc = CompileService()
        n_threads = 8
        results = [None] * n_threads
        start = threading.Barrier(n_threads)

        def worker(i):
            start.wait(30.0)
            results[i] = svc.compile_allocation(job)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = svc.stats
        assert stats["submitted"] == len(circuits)
        assert (stats["submitted"] + stats["coalesced"]
                + stats["short_circuits"]) == n_threads * len(circuits)
        for got in results[1:]:
            assert [r.circuit for r in got] == [
                r.circuit for r in results[0]]

    def test_request_after_the_owner_finished_hits_the_cache(self, job):
        svc = CompileService()
        alloc = job.allocations[0]
        first = svc.transpile(alloc.circuit, job.device, alloc)
        second = svc.transpile(alloc.circuit, job.device, alloc)
        assert first.circuit == second.circuit
        assert svc.stats["coalesced"] == 0
        assert svc.stats["short_circuits"] == 1
