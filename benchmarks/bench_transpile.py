"""Compile-latency benchmark: cold vs warm-context vs parallel service.

The multi-programming service transpiles every incoming program onto its
allocated partition.  This bench quantifies the three compile paths on
fleet-scale traffic (:mod:`repro.workloads.traffic`, heavy-tail mix —
small repeated programs dominate, exactly the cloud profile):

- **cold** — the seed behaviour: every call rebuilds the
  partition-induced coupling/calibration and re-runs the Dijkstra
  distance tables (a fresh :class:`DeviceContext` per call, no result
  cache);
- **warm** — one shared :class:`DeviceContext` (memoized partition
  sub-contexts, cached tables) plus the shared
  :class:`~repro.core.ExecutionCache`, so repeated (program, partition)
  pairs are cache hits;
- **service** — :class:`~repro.core.CompileService` batch submission
  over its persistent worker pool, same shared caches.

Two cold-path sections ride along: a process-pool shard of unique
programs on a wide (65q) device — chunked tasks, fingerprint-rehydrated
contexts — against the same compile run serially, and a scheduler-dedup
check driving :class:`~repro.core.CloudScheduler` with repeated
programs at distinct queue indices through a compile service, gating on
**zero re-transpiles** (the structural cache key dedups across
submissions).

A persistent-store section exercises the layered cache across process
boundaries: one process compiles the full mix into a SQLite WAL store,
then a **fresh spawned process** (empty in-memory tiers) replays the
identical mix against that store.  The gate: the cold process must
compile **zero** programs — every request is served by promoting the
stored equivalence-class artifact.

The acceptance gate (also run in CI via ``--smoke``): warm-context
service compilation must beat cold per-call transpilation by >= 5x on
the repeated-program mix.  Timings land in ``BENCH_transpile.json`` so
the compile-latency trajectory accumulates across PRs.

Run:  PYTHONPATH=../src python bench_transpile.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from conftest import connected_subset, host_info, print_table

from repro.cache import circuit_key
from repro.circuits import QuantumCircuit, random_circuit
from repro.core import AllocationResult, CloudScheduler, CompileService, \
    ExecutionCache, ProgramAllocation, SubmittedProgram, \
    allocation_engine, get_allocator
from repro.hardware import Device, ibm_manhattan, ibm_toronto
from repro.transpiler import DeviceContext, transpile_for_partition
from repro.workloads import synthesize_traffic

#: CI override knob (mirrors KERNEL_SPEEDUP_FLOOR/SCHEDULER_SPEEDUP_FLOOR).
SPEEDUP_FLOOR = float(os.environ.get("TRANSPILE_SPEEDUP_FLOOR", "5.0"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_transpile.json")


def placed_traffic(device: Device, num_programs: int, seed: int
                   ) -> List[Tuple[QuantumCircuit, Tuple[int, ...]]]:
    """(circuit, solo-best partition) pairs for a synthetic stream."""
    subs = synthesize_traffic(num_programs, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="heavy_tail",
                              seed=seed)
    engine = allocation_engine(device)
    allocator = get_allocator("qucp")
    out = []
    for sub in subs:
        placement = engine.solo_best(allocator, sub.circuit)
        if placement is not None:
            out.append((sub.circuit, placement.partition))
    return out


def allocations(device: Device,
                traffic: Sequence[Tuple[QuantumCircuit, Tuple[int, ...]]]
                ) -> List[ProgramAllocation]:
    """Service-style compile requests: one per submission.

    Requests carry their real queue indices: the structural cache key
    ignores ``index`` for index-insensitive hooks, so identical
    (program, partition) requests dedup without the old index-0
    normalization workaround.
    """
    return [ProgramAllocation(i, circuit, partition, 0.0)
            for i, (circuit, partition) in enumerate(traffic)]


def bench_cold(device: Device, traffic) -> float:
    """Seed behaviour: fresh context per call, no result cache."""
    start = time.perf_counter()
    for circuit, partition in traffic:
        transpile_for_partition(
            circuit, device, partition,
            context=DeviceContext(device.coupling, device.calibration))
    return time.perf_counter() - start


def bench_warm(device: Device, traffic) -> Tuple[float, ExecutionCache]:
    """Shared DeviceContext + shared ExecutionCache, serial."""
    svc = CompileService(mode="serial")
    context = DeviceContext(device.coupling, device.calibration)

    def hook(circuit, dev, alloc):
        return transpile_for_partition(circuit, dev, alloc.partition,
                                       context=context)

    allocs = allocations(device, traffic)
    start = time.perf_counter()
    for alloc in allocs:
        svc.transpile(alloc.circuit, device, alloc, hook)
    return time.perf_counter() - start, svc.cache


def bench_warm_context_only(device: Device, traffic) -> float:
    """Shared DeviceContext, but no result cache (every call compiles)."""
    context = DeviceContext(device.coupling, device.calibration)
    start = time.perf_counter()
    for circuit, partition in traffic:
        transpile_for_partition(circuit, device, partition,
                                context=context)
    return time.perf_counter() - start


def bench_service(device: Device, traffic, workers: int) -> float:
    """Parallel batch compile through the persistent worker pool."""
    context = DeviceContext(device.coupling, device.calibration)

    def hook(circuit, dev, alloc):
        return transpile_for_partition(circuit, dev, alloc.partition,
                                       context=context)

    allocs = allocations(device, traffic)
    with CompileService(max_workers=workers, mode="thread") as svc:
        start = time.perf_counter()
        futures = [svc.submit(a.circuit, device, a, hook) for a in allocs]
        for fut in futures:
            fut.result()
        return time.perf_counter() - start


def unique_cold_job(device: Device, num_programs: int, seed: int
                    ) -> AllocationResult:
    """*Unique* heavy programs on BFS-grown partitions: a pure cold-miss
    batch (no result-cache dedup possible), the process-pool's target
    load — per-program compile time must dominate chunk pickling."""
    import numpy as np

    rng = np.random.default_rng(seed)
    job = AllocationResult(method="bench-cold", device=device)
    for i in range(num_programs):
        size = int(rng.integers(5, 8))
        circuit = random_circuit(size - 1,
                                 int(rng.integers(25, 40)),
                                 seed=seed * 7919 + i)
        circuit.measure_all()
        start = int(rng.integers(device.num_qubits))
        partition = connected_subset(device.coupling, start, size)
        job.allocations.append(ProgramAllocation(
            i, circuit, partition, 0.0))
    return job


def bench_cold_process(device: Device, num_programs: int, workers: int,
                       seed: int) -> Tuple[float, float, float, int]:
    """Serial vs chunk-sharded process-pool vs measured-auto compile.

    Returns ``(serial_s, process_s, auto_s, chunks)`` for the timed
    runs only.  All paths start from an empty result cache; the process
    pool is warmed (fork + per-worker context tables) before timing,
    matching its persistent-service usage.  On single-core runners the
    explicit process path measures the sharding overhead (a known
    loss), and the ``auto`` path must *route around it* — that is the
    tuned :meth:`CompileService.choose_route` gate.
    """
    job = unique_cold_job(device, num_programs, seed)
    with CompileService(mode="serial") as ser:
        start = time.perf_counter()
        ser.compile_allocation(job)
        serial_s = time.perf_counter() - start
    with CompileService(max_workers=workers, mode="process") as svc:
        warm = unique_cold_job(device, workers, seed + 1)
        svc.compile_allocation(warm)  # spin up workers, warm contexts
        chunks_before = svc.stats["chunks"]
        start = time.perf_counter()
        svc.compile_allocation(job)
        process_s = time.perf_counter() - start
        chunks = svc.stats["chunks"] - chunks_before
    with CompileService(max_workers=workers, mode="auto") as auto:
        if CompileService.choose_route(num_programs,
                                       device.num_qubits) == "process":
            auto.compile_allocation(unique_cold_job(device, workers,
                                                    seed + 1))
        start = time.perf_counter()
        auto.compile_allocation(job)
        auto_s = time.perf_counter() - start
    return serial_s, process_s, auto_s, chunks


def request_payload_bytes(device: Device, num_programs: int,
                          workers: int, seed: int) -> Tuple[int, int]:
    """Pickled request bytes shipped to workers: per-task vs chunked.

    CPU-noise-free view of what fingerprint sharding removes — the
    per-task path pickles the full device (with its warmed distance
    caches) for every program; a chunk ships one plain-data fingerprint
    per shard.
    """
    import pickle

    from repro.core.compile_service import _device_fingerprint_spec

    job = unique_cold_job(device, num_programs, seed)
    # Warm the lazy coupling caches the way a long-running service has
    # them (they ride along in the Device pickle).
    device.coupling.distance(0, 1)
    device.coupling.all_one_hop_edge_pairs()
    per_task = sum(
        len(pickle.dumps((a.circuit, device, a)))
        for a in job.allocations)
    spec = _device_fingerprint_spec(device)
    shards = [job.allocations[i::workers] for i in range(workers)]
    chunked = sum(
        len(pickle.dumps((spec, [(a.circuit, a.partition)
                                 for a in shard])))
        for shard in shards if shard)
    return per_task, chunked


def bench_cold_process_per_task(device: Device, num_programs: int,
                                workers: int, seed: int) -> float:
    """The pre-sharding process path: one pool task per program, each
    pickling the full device — what chunked fingerprints replace."""
    from repro.core.executor import _default_transpiler

    job = unique_cold_job(device, num_programs, seed)
    with CompileService(max_workers=workers, mode="process") as svc:
        svc.compile_allocation(unique_cold_job(device, workers, seed + 1))
        start = time.perf_counter()
        futures = [
            svc.submit(a.circuit, device, a, _default_transpiler,
                       route="process")
            for a in job.allocations
        ]
        for fut in futures:
            fut.result()
        return time.perf_counter() - start


def _store_compile_pass(store_path: str, num_programs: int, seed: int
                        ) -> Tuple[int, int, float]:
    """Compile the standard traffic mix through a store-backed cache.

    Top-level so it doubles as a ``spawn`` target: the cold phase runs
    this exact function in a fresh interpreter whose only shared state
    with the warm phase is the on-disk store.  Returns
    ``(submitted, promotions, elapsed_s)``.
    """
    device = ibm_toronto()
    traffic = placed_traffic(device, num_programs, seed)
    job = AllocationResult(method="bench-store", device=device)
    job.allocations.extend(allocations(device, traffic))
    cache = ExecutionCache(store_path=store_path)
    with CompileService(mode="serial", cache=cache) as svc:
        start = time.perf_counter()
        svc.compile_allocation(job)
        elapsed = time.perf_counter() - start
        stats = svc.stats
    return stats["submitted"], stats["promotions"], elapsed


def bench_cold_process_warm_store(num_programs: int, seed: int,
                                  store_dir: str) -> Dict[str, float]:
    """Warm a persistent store in-process, then replay the identical
    mix from a spawned cold process (empty L1 tiers, shared store)."""
    store_path = os.path.join(store_dir, "bench_store.db")
    warm_compiled, _, warm_s = _store_compile_pass(
        store_path, num_programs, seed)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        cold_compiled, cold_promotions, cold_s = pool.apply(
            _store_compile_pass, (store_path, num_programs, seed))
    return {
        "warm_compiled": warm_compiled,
        "warm_s": warm_s,
        "cold_compiled": cold_compiled,
        "cold_promotions": cold_promotions,
        "cold_s": cold_s,
        "speedup": warm_s / cold_s if cold_s else float("inf"),
    }


def scheduler_dedup(device: Device, num_programs: int, seed: int
                    ) -> Tuple[int, int, int]:
    """Drive the cloud scheduler through a compile service and count
    re-transpiles of structurally identical submissions.

    Serial service (one program per job) over a heavy-tail mix: every
    repeated circuit arrives at a distinct queue index and must hit the
    structural cache instead of re-compiling.  Returns
    ``(requests, compiled, unique_structural)``.
    """
    subs = synthesize_traffic(num_programs, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="heavy_tail",
                              seed=seed)
    with CompileService(mode="serial") as svc:
        scheduler = CloudScheduler(device, max_batch_size=1,
                                   fidelity_threshold=0.0,
                                   compile_service=svc)
        outcome = scheduler.schedule(subs)
        compiled = svc.stats["submitted"]
    unique = len({
        (circuit_key(a.circuit), a.partition)
        for job in outcome.jobs for a in job.allocation.allocations
    })
    return outcome.compile_requests, compiled, unique


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the >=5x gate")
    parser.add_argument("--programs", type=int, default=None,
                        help="number of submissions (default 150; 60 "
                             "with --smoke)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    num_programs = args.programs or (60 if args.smoke else 150)
    device = ibm_toronto()
    traffic = placed_traffic(device, num_programs, args.seed)
    unique = len({(circuit_key(c), p) for c, p in traffic})

    # Untimed warm-up pass: the first timed path in a process otherwise
    # wins from interpreter/allocator warm-up regardless of merit.
    bench_cold(device, traffic)

    cold_s = bench_cold(device, traffic)
    warm_ctx_s = bench_warm_context_only(device, traffic)
    warm_s, cache = bench_warm(device, traffic)
    service_s = bench_service(device, traffic, args.workers)

    n = len(traffic)
    rows = [
        ["cold (per-call rebuild)", n, f"{cold_s * 1e3:.1f}",
         f"{cold_s / n * 1e3:.2f}", "1.00x"],
        ["warm context only", n, f"{warm_ctx_s * 1e3:.1f}",
         f"{warm_ctx_s / n * 1e3:.2f}", f"{cold_s / warm_ctx_s:.2f}x"],
        ["warm (context + result cache)", n, f"{warm_s * 1e3:.1f}",
         f"{warm_s / n * 1e3:.2f}", f"{cold_s / warm_s:.2f}x"],
        [f"service ({args.workers} workers)", n, f"{service_s * 1e3:.1f}",
         f"{service_s / n * 1e3:.2f}", f"{cold_s / service_s:.2f}x"],
    ]
    print_table(
        f"Compile latency, {n} programs ({unique} unique placements), "
        f"heavy-tail Poisson mix on {device.name}",
        ["path", "programs", "total(ms)", "per-program(ms)", "vs cold"],
        rows)
    print(f"result cache on warm pass: {cache.transpile_hits} hits / "
          f"{cache.transpile_misses} misses")

    # --- cold path: process-pool sharding on a wide device -------------
    wide = ibm_manhattan()
    n_cold = 12 if args.smoke else 48
    serial_s, process_s, auto_s, chunks = bench_cold_process(
        wide, n_cold, args.workers, args.seed)
    per_task_s = bench_cold_process_per_task(
        wide, n_cold, args.workers, args.seed)
    process_speedup = serial_s / process_s
    auto_speedup = serial_s / auto_s
    chunking_speedup = per_task_s / process_s
    cores = os.cpu_count() or 1
    auto_route = CompileService.choose_route(n_cold, wide.num_qubits)
    print_table(
        f"Cold-miss compile of {n_cold} unique programs on {wide.name} "
        f"({wide.num_qubits}q, {cores} cores)",
        ["path", "total(ms)", "per-program(ms)", "vs serial"],
        [
            ["serial (one process)", f"{serial_s * 1e3:.1f}",
             f"{serial_s / n_cold * 1e3:.2f}", "1.00x"],
            ["process, per-task (full device pickled per program)",
             f"{per_task_s * 1e3:.1f}", f"{per_task_s / n_cold * 1e3:.2f}",
             f"{serial_s / per_task_s:.2f}x"],
            [f"process, chunked ({args.workers} workers, {chunks} "
             f"chunks, fingerprint rehydration)",
             f"{process_s * 1e3:.1f}", f"{process_s / n_cold * 1e3:.2f}",
             f"{process_speedup:.2f}x"],
            [f"auto (measured route: {auto_route})",
             f"{auto_s * 1e3:.1f}", f"{auto_s / n_cold * 1e3:.2f}",
             f"{auto_speedup:.2f}x"],
        ])
    per_task_bytes, chunked_bytes = request_payload_bytes(
        wide, n_cold, args.workers, args.seed)
    print(f"chunked sharding vs per-task process submission: "
          f"{chunking_speedup:.2f}x wall-clock, "
          f"{per_task_bytes / 1e6:.2f} MB -> {chunked_bytes / 1e6:.2f} MB "
          f"request payload ({per_task_bytes / chunked_bytes:.1f}x fewer "
          f"bytes shipped)")

    # --- cold process on a warm persistent store -----------------------
    with tempfile.TemporaryDirectory(prefix="bench-store-") as store_dir:
        store = bench_cold_process_warm_store(
            num_programs, args.seed, store_dir)
    print(f"cold process on warm store: warm pass compiled "
          f"{store['warm_compiled']} programs in "
          f"{store['warm_s'] * 1e3:.1f} ms; spawned cold process "
          f"compiled {store['cold_compiled']} "
          f"({store['cold_promotions']} store promotions) in "
          f"{store['cold_s'] * 1e3:.1f} ms "
          f"({store['speedup']:.2f}x vs warm compile pass)")

    # --- scheduler-path structural dedup -------------------------------
    requests, compiled, unique_structural = scheduler_dedup(
        device, num_programs, args.seed)
    retranspiles = compiled - unique_structural
    print(f"scheduler dedup: {requests} compile requests at distinct "
          f"queue indices -> {compiled} compiled "
          f"({unique_structural} unique programs, "
          f"{retranspiles} re-transpiles)")

    warm_speedup = cold_s / warm_s
    payload = {
        "bench": "bench_transpile",
        "device": device.name,
        "programs": n,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "host": host_info(),
        "workers": args.workers,
        "cold_s": cold_s,
        "warm_context_only_s": warm_ctx_s,
        "warm_s": warm_s,
        "service_s": service_s,
        "warm_speedup": warm_speedup,
        "warm_context_only_speedup": cold_s / warm_ctx_s,
        "service_speedup": cold_s / service_s,
        "floor": SPEEDUP_FLOOR,
        "cold_process": {
            "device": wide.name,
            "programs": n_cold,
            "cores": cores,
            "serial_s": serial_s,
            "per_task_s": per_task_s,
            "process_s": process_s,
            "auto_s": auto_s,
            "auto_route": auto_route,
            "chunks": chunks,
            "speedup": process_speedup,
            "auto_speedup": auto_speedup,
            "chunking_speedup": chunking_speedup,
            "per_task_request_bytes": per_task_bytes,
            "chunked_request_bytes": chunked_bytes,
        },
        "scheduler_dedup": {
            "compile_requests": requests,
            "compiled": compiled,
            "unique_structural": unique_structural,
            "retranspiles": retranspiles,
        },
        "cold_process_warm_store": store,
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ARTIFACT}")

    if store["cold_compiled"] != 0:
        print(f"FAIL: cold process on warm store compiled "
              f"{store['cold_compiled']} programs (expected 0: every "
              "equivalence class was already in the persistent store)",
              file=sys.stderr)
        return 1
    print("OK: cold process on warm store compiled 0 programs "
          f"({store['cold_promotions']} artifacts promoted from the "
          "persistent store)")

    if retranspiles != 0:
        print(f"FAIL: {retranspiles} re-transpiles of structurally "
              "identical submissions at distinct queue indices "
              "(expected 0)", file=sys.stderr)
        return 1
    print("OK: warm-equivalent submissions at distinct queue indices "
          "hit the cache (0 re-transpiles)")

    # The retuned-routing gate: whatever the measured table picked, the
    # auto route must never *lose* to serial (15% noise margin) — on a
    # 1-core host that means routing around the 0.47x process-pool
    # regression this bench used to record.
    if auto_s > serial_s * 1.15:
        print(f"FAIL: auto route ({auto_route}) ran at "
              f"{auto_speedup:.2f}x serial — choose_route picked a "
              "losing worker kind", file=sys.stderr)
        return 1
    print(f"OK: auto route ({auto_route}) at {auto_speedup:.2f}x serial "
          "on the cold-miss batch (never loses)")

    print(f"\nwarm-context speedup over cold per-call transpile: "
          f"{warm_speedup:.2f}x (floor {SPEEDUP_FLOOR:g}x)")
    if warm_speedup < SPEEDUP_FLOOR:
        print("FAIL: warm-context compilation did not reach the "
              f"{SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        return 1
    print(f"OK: warm-context compilation beats cold per-call "
          f"transpilation by >= {SPEEDUP_FLOOR:g}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
