"""Execution-scaling benchmark: serial vs process-sharded simulation.

The multi-programming service spends its steady-state cycles *running*
programs: every dispatched hardware job is one
:func:`repro.sim.executor.run_parallel` batch.  This bench quantifies
the :class:`~repro.core.ExecutionService` over that unit of work — a
wide co-tenant batch on a 65q device, per-program cost in the tens of
milliseconds, exactly the load the measured route table sends to the
process pool:

- **serial** — the seed behaviour, one interpreter simulating every
  program in turn;
- **thread** — pool entry without escaping the GIL (the sims are pure
  Python/NumPy, so this measures dispatch overhead, not a win);
- **process, chunked** — contiguous per-worker chunks carrying the
  plain-data device fingerprint plus pre-spawned seeds; workers
  rebuild the noise model once and keep it for the pool's lifetime;
- **auto** — the measured route table (``choose_route``); on a 1-core
  host this must collapse to serial rather than pay pool overhead for
  nothing.

Every timed repetition runs a fresh co-tenant batch (seed
``--seed + r``, the same batch for the baseline and every route), so
the service's output-distribution memo never turns a repetition into
a replay of stored distributions.

Two gates, both CI-run via ``--smoke``:

- sharded execution is **bit-identical** to serial — counts,
  probabilities, clbit records — on every route (hard gate, any host);
- the auto route's speedup over serial is >=
  ``EXECUTION_SPEEDUP_FLOOR`` (default 0.85: conservative, CI runners
  may be 1-2 cores where the honest answer is ~1.0x; a 4-core host
  sees the process route win — the artifact records ``cores`` so every
  committed number is interpretable).

Timings land in ``BENCH_execution.json``.

Run:  PYTHONPATH=../src python bench_execution.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from conftest import connected_subset, print_table

from repro.circuits import QuantumCircuit
from repro.core import ExecutionService
from repro.hardware import Device, ibm_manhattan, ibm_toronto
from repro.sim.executor import Program, run_parallel

#: CI override knob (mirrors TRANSPILE_SPEEDUP_FLOOR and friends).
SPEEDUP_FLOOR = float(os.environ.get("EXECUTION_SPEEDUP_FLOOR", "0.85"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_execution.json")


def disjoint_partitions(device: Device, sizes: Sequence[int],
                        rng: np.random.Generator) -> List[Tuple[int, ...]]:
    """Disjoint BFS-grown connected partitions covering the device."""
    partitions: List[Tuple[int, ...]] = []
    used: set = set()
    starts = list(rng.permutation(device.num_qubits))
    for size in sizes:
        for start in starts:
            if start in used:
                continue
            part = connected_subset(device.coupling, int(start), size)
            if len(part) == size and used.isdisjoint(part):
                partitions.append(part)
                used.update(part)
                break
    return partitions


def random_program(device: Device, partition: Tuple[int, ...],
                   rng: np.random.Generator, depth: int) -> Program:
    """A random program whose 2q gates respect *partition*'s links."""
    links = {frozenset(edge) for edge in device.coupling.edges}
    local_edges = [
        (i, j)
        for i in range(len(partition)) for j in range(i + 1, len(partition))
        if frozenset((partition[i], partition[j])) in links
    ]
    n = len(partition)
    circuit = QuantumCircuit(n, n)
    for _ in range(depth):
        r = rng.random()
        if local_edges and r < 0.4:
            i, j = local_edges[int(rng.integers(len(local_edges)))]
            circuit.cx(i, j)
        elif r < 0.6:
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)),
                       int(rng.integers(0, n)))
        elif r < 0.8:
            circuit.h(int(rng.integers(0, n)))
        else:
            circuit.x(int(rng.integers(0, n)))
    circuit.measure_all()
    return Program(circuit, partition)


def cotenant_batch(device: Device, sizes: Sequence[int], seed: int,
                   depth: int) -> List[Program]:
    rng = np.random.default_rng(seed)
    partitions = disjoint_partitions(device, sizes, rng)
    return [random_program(device, part, rng, depth)
            for part in partitions]


def identical(got, want) -> bool:
    return all(
        g.counts == w.counts
        and g.probabilities == w.probabilities
        and g.shots == w.shots
        and g.measured_clbits == w.measured_clbits
        for g, w in zip(got, want)) and len(got) == len(want)


def timed_mode(mode: str, workers: int, warmup, batches, device,
               shots: int, seeds: Sequence[int]) -> Tuple[float, list]:
    """Best-of wall clock for one route over fresh batches.

    The pool is warmed on its own batch, and every timed repetition
    simulates a batch the service has not seen, so the timing measures
    simulation rather than the service's output-distribution memo.
    """
    with ExecutionService(max_workers=workers, mode=mode) as svc:
        svc.run_parallel(warmup, device, shots=shots, seed=seeds[0])
        best = float("inf")
        results = []
        for programs, seed in zip(batches, seeds):
            start = time.perf_counter()
            results.append(svc.run_parallel(programs, device, shots=shots,
                                            seed=seed))
            best = min(best, time.perf_counter() - start)
        if svc.stats["fallbacks"]:
            print(f"warning: {svc.stats['fallbacks']} inline fallbacks "
                  f"in {mode} mode", file=sys.stderr)
    return best, results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the identity "
                             "and floor gates")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per route (best-of)")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    repeats = args.repeats or 3
    if args.smoke:
        device = ibm_toronto()
        sizes = [5, 5, 4, 4, 3]
        depth = 16
    else:
        # Depth matches the route table's measurement basis (transpiled
        # service workloads); shallow NN circuits undershoot it.
        device = ibm_manhattan()
        sizes = [7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3]
        depth = 72
    # Repetition r simulates its own co-tenant batch under seed
    # args.seed + r, shared by the baseline and every route; the
    # warm-up batch is a further, untimed one.
    seeds = [args.seed + r for r in range(repeats)]
    batches = [cotenant_batch(device, sizes, s, depth) for s in seeds]
    warmup = cotenant_batch(device, sizes, args.seed + repeats, depth)
    programs = batches[0]
    widths = [len(p.partition) for p in programs]

    # An untimed pass computes the reference results and warms this
    # process's gate-matrix caches for every batch, then best-of like
    # every service route — the baseline must not pay cold-start the
    # in-process routes are spared.
    want = [run_parallel(batch, device, shots=args.shots, seed=seed)
            for batch, seed in zip(batches, seeds)]
    baseline_s = float("inf")
    for batch, seed in zip(batches, seeds):
        start = time.perf_counter()
        run_parallel(batch, device, shots=args.shots, seed=seed)
        baseline_s = min(baseline_s, time.perf_counter() - start)

    auto_route = ExecutionService.choose_route(
        len(programs), max(widths), args.shots)
    est_ms = ExecutionService.estimate_batch_ms(
        len(programs), max(widths), args.shots)

    rows = [["run_parallel (seed baseline)", f"{baseline_s * 1e3:.1f}",
             "1.00x", "yes"]]
    timings: Dict[str, float] = {"baseline_s": baseline_s}
    identical_everywhere = True
    for mode in ("serial", "thread", "process", "auto"):
        mode_s, results = timed_mode(mode, args.workers, warmup, batches,
                                     device, args.shots, seeds)
        same = all(identical(got, ref) for got, ref in zip(results, want))
        identical_everywhere = identical_everywhere and same
        label = mode if mode != "auto" else f"auto (route: {auto_route})"
        rows.append([f"service {label}", f"{mode_s * 1e3:.1f}",
                     f"{baseline_s / mode_s:.2f}x",
                     "yes" if same else "NO"])
        timings[f"{mode}_s"] = mode_s
    print_table(
        f"Co-tenant batch of {len(programs)} programs "
        f"(widths {min(widths)}-{max(widths)}) on {device.name}, "
        f"{args.shots} shots, {cores} cores, {args.workers} workers, "
        f"estimated {est_ms:.0f} ms",
        ["path", "best-of-%d(ms)" % repeats, "vs baseline",
         "bit-identical"],
        rows)

    auto_speedup = baseline_s / timings["auto_s"]
    process_speedup = baseline_s / timings["process_s"]
    payload = {
        "bench": "bench_execution",
        "device": device.name,
        "programs": len(programs),
        "widths": widths,
        "shots": args.shots,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "host": {"cores": cores, "python": platform.python_version(),
                 "numpy": np.__version__},
        "workers": args.workers,
        "repeats": repeats,
        "estimated_batch_ms": est_ms,
        "auto_route": auto_route,
        "auto_speedup": auto_speedup,
        "process_speedup": process_speedup,
        "bit_identical": identical_everywhere,
        "floor": SPEEDUP_FLOOR,
        **timings,
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ARTIFACT}")

    if not identical_everywhere:
        print("FAIL: a sharded route diverged from the serial baseline "
              "(bit-identity is the tentpole invariant)", file=sys.stderr)
        return 1
    print("OK: every route is bit-identical to the serial baseline")

    print(f"auto route ({auto_route}) speedup over baseline: "
          f"{auto_speedup:.2f}x (floor {SPEEDUP_FLOOR:g}x, "
          f"{cores} cores); explicit process: {process_speedup:.2f}x")
    if auto_speedup < SPEEDUP_FLOOR:
        print(f"FAIL: auto execution route at {auto_speedup:.2f}x did "
              f"not reach the {SPEEDUP_FLOOR:g}x floor — the measured "
              "route table picked a losing worker kind", file=sys.stderr)
        return 1
    print(f"OK: auto execution route >= {SPEEDUP_FLOOR:g}x of serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
