"""The allocator strategy layer: registry, engine caching, equivalence.

The JSON goldens in ``tests/data/allocator_golden.json`` were captured
from the pre-refactor per-method implementations; the registry-served
strategies must reproduce them bit-for-bit.
"""

import json
import os

import pytest

from repro.core import (
    Allocator,
    allocation_engine,
    available_allocators,
    get_allocator,
    qucloud_allocate,
)
from repro.workloads import workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "allocator_golden.json")
METHODS = ("qucp", "qumc", "qucloud", "multiqc", "cna")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestRegistry:
    @pytest.mark.parametrize("name", METHODS)
    def test_round_trip(self, name):
        allocator = get_allocator(name)
        assert isinstance(allocator, Allocator)
        assert allocator.name == name

    def test_available_lists_all_methods(self):
        assert set(METHODS) <= set(available_allocators())

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_allocator("definitely-not-a-method")

    def test_parameters_forwarded(self):
        allocator = get_allocator("qucp", sigma=7.5)
        assert allocator.sigma == 7.5
        assert allocator.method_label() == "qucp(sigma=7.5)"

    def test_cna_not_incremental(self):
        assert get_allocator("cna").supports_incremental is False
        assert get_allocator("qucp").supports_incremental is True


class TestGoldenEquivalence:
    """Registry strategies == pre-refactor outputs on the suite."""

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_pre_refactor(self, method, golden, toronto, manhattan):
        devices = {"toronto": toronto, "manhattan": manhattan}
        for mix, entry in golden["allocators"].items():
            if method == "cna" and entry["device"] == "manhattan":
                continue  # full 65q compile; covered on toronto mixes
            device = devices[entry["device"]]
            circuits = [workload(n).circuit() for n in entry["workloads"]]
            alloc = get_allocator(method).allocate(circuits, device)
            assert [list(p) for p in alloc.partitions] == \
                entry[method]["partitions"], (method, mix)
            got_efs = [a.efs for a in
                       sorted(alloc.allocations, key=lambda a: a.index)]
            assert got_efs == pytest.approx(entry[method]["efs"],
                                            abs=1e-9), (method, mix)


class TestEngineCaching:
    def test_engine_is_shared_per_device(self, toronto):
        assert allocation_engine(toronto) is allocation_engine(toronto)

    def test_placement_cache_hits(self, toronto):
        engine = allocation_engine(toronto)
        allocator = get_allocator("qucp")
        circuit = workload("adder").circuit()
        first = engine.solo_best(allocator, circuit)
        size_after_first = engine.cache_sizes["placements"]
        second = engine.solo_best(allocator, circuit)
        assert second is first  # cached object, not a recomputation
        assert engine.cache_sizes["placements"] == size_after_first

    def test_structurally_equal_circuits_share_entries(self, toronto):
        """Placements key on (num_qubits, #2q, #1q), so structural
        twins reuse each other's search."""
        engine = allocation_engine(toronto)
        allocator = get_allocator("qucp")
        a = engine.solo_best(allocator, workload("adder").circuit())
        b = engine.solo_best(allocator, workload("adder").circuit())
        assert b is a

    def test_sigma_isolates_cache_namespaces(self, toronto):
        engine = allocation_engine(toronto)
        circuit = workload("alu-v0_27").circuit()
        four = engine.solo_best(get_allocator("qucp", sigma=4.0), circuit)
        one = engine.solo_best(get_allocator("qucp", sigma=1.0), circuit)
        # Different sigma = different scoring namespace; both cached.
        assert four is not one

    def test_collected_allocator_cannot_alias_cache(self, toronto):
        """Regression: the default cache token is the allocator instance
        itself (pinned by the cache), so a new instance created after a
        ``del`` can never be served the old instance's placements —
        even if CPython recycles the freed id."""
        from repro.core import (AllocationEngine, PlacementContext,
                                QumcAllocator, oracle_characterization,
                                qucp_allocate)

        engine = allocation_engine(toronto)
        circuit = workload("alu-v0_27").circuit()
        # Crowd the chip so every remaining candidate neighbours an
        # allocated link and the ratio map actually steers the choice.
        batch = qucp_allocate(
            [workload("alu-v0_27").circuit() for _ in range(3)], toronto)
        ctx = PlacementContext.from_parts(batch.partitions, toronto)
        inflated = {k: 100.0 for k in oracle_characterization(toronto)}
        a = QumcAllocator(ratio_map=inflated)
        stale = engine.best_placement(a, circuit, ctx)
        del a
        b = QumcAllocator(ratio_map={k: 1.0 for k in inflated})
        got = engine.best_placement(b, circuit, ctx)
        fresh = AllocationEngine(toronto).best_placement(b, circuit, ctx)
        assert got.partition == fresh.partition
        assert got.efs == pytest.approx(fresh.efs)
        assert got.efs < stale.efs  # flat ratios must score better

    def test_oracle_qumc_instances_share_cache(self, toronto):
        """Registry-default (oracle-backed) QuMC is parameter-free per
        device: separate instances must hit one cache namespace."""
        engine = allocation_engine(toronto)
        circuit = workload("bell").circuit()
        first = engine.solo_best(get_allocator("qumc"), circuit)
        second = engine.solo_best(get_allocator("qumc"), circuit)
        assert second is first

    def test_equal_ratio_maps_share_cache(self, toronto):
        """Explicit QuMC ratio maps key the cache by content, so
        repeated qumc_allocate-style calls with the same data reuse
        placements instead of growing an instance-keyed table."""
        from repro.core import QumcAllocator, oracle_characterization

        engine = allocation_engine(toronto)
        circuit = workload("qec_en").circuit()
        base = oracle_characterization(toronto)
        first = engine.solo_best(QumcAllocator(ratio_map=dict(base)),
                                 circuit)
        second = engine.solo_best(QumcAllocator(ratio_map=dict(base)),
                                  circuit)
        assert second is first

    def test_best_placement_honours_blocked_qubits(self, toronto):
        """Qubits blocked beyond the listed parts (e.g. masked broken
        qubits) are never placed on."""
        from repro.core import PlacementContext

        engine = allocation_engine(toronto)
        allocator = get_allocator("qucp")
        circuit = workload("adder").circuit()
        solo = engine.solo_best(allocator, circuit)
        masked = engine.best_placement(
            allocator, circuit,
            PlacementContext(qubits=frozenset(solo.partition)))
        assert masked is not None
        assert not set(masked.partition) & set(solo.partition)

    def test_engine_registry_does_not_pin_devices(self):
        """Regression: dropping a device releases its engine and caches
        instead of leaking them for process lifetime."""
        import gc
        import weakref

        from repro.core import allocators as allocators_module
        from repro.hardware import linear_device

        device = linear_device(6, seed=99)
        engine = allocation_engine(device)
        engine.solo_best(get_allocator("qucp"), workload("lin").circuit())
        key = id(device)
        ref = weakref.ref(device)
        del device, engine
        gc.collect()
        assert ref() is None
        assert key not in allocators_module._ENGINES


class TestQucloudDegenerateDevice:
    def test_disconnected_device_no_division_by_zero(self):
        """A chip whose best fidelity degree is 0 (no couplings at all)
        must not crash the CDAP degree normalization."""
        from repro.circuits import QuantumCircuit
        from repro.hardware import Calibration, Device
        from repro.hardware.crosstalk import CrosstalkModel
        from repro.hardware.topology import CouplingMap

        coupling = CouplingMap(3, ())
        calibration = Calibration(
            oneq_error={q: 1e-3 for q in range(3)},
            readout_error={q: (0.02, 0.02) for q in range(3)},
            t1={q: 80_000.0 for q in range(3)},
            t2={q: 70_000.0 for q in range(3)},
        )
        device = Device("disconnected3", coupling, calibration,
                        CrosstalkModel())
        qc = QuantumCircuit(1, name="oneq")
        qc.x(0)
        qc.measure_all()
        alloc = qucloud_allocate([qc], device)
        assert len(alloc.partitions) == 1
        assert len(alloc.partitions[0]) == 1
