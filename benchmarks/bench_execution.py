"""Execution benchmark: ExecutionService vs the reference run_parallel.

The multi-programming service spends its steady-state cycles *running*
programs: every dispatched hardware job is one
:func:`repro.sim.executor.run_parallel` batch.  This bench times the
:class:`~repro.core.ExecutionService` over that unit of work — a wide
co-tenant batch on a 65q device, per-program cost in the tens of
milliseconds — against the reference function:

- **run_parallel** — the reference, one interpreter simulating every
  program in turn;
- **service** — ``ExecutionService().run_parallel`` on the same batch:
  the same joint half and per-program loop, plus the memo key of every
  program and the memo stores of its misses.

Every timed repetition runs a fresh co-tenant batch (seed
``--seed + r``, shared by both paths), so the service's
output-distribution memo never turns a repetition into a replay of
stored distributions: the timing is the service's miss path, key cost
included.

Two gates, both CI-run via ``--smoke``:

- the service is **bit-identical** to the reference — counts,
  probabilities, clbit records (hard gate, any host);
- its speedup over the reference is >= ``EXECUTION_SPEEDUP_FLOOR``
  (default 0.85; the miss path does the reference's work plus one key
  hash per program, so the expected ratio is about 1.0x whatever the
  core count — the artifact records the host so every committed
  number is interpretable).

Timings land in ``BENCH_execution.json``.

Run:  PYTHONPATH=../src python bench_execution.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

from conftest import connected_subset, host_info, print_table

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


def timed(run, batch, device, shots: int, seed: int) -> Tuple[float, list]:
    """Wall clock and results of one ``run(batch, device, ...)`` call."""
    start = time.perf_counter()
    results = run(batch, device, shots=shots, seed=seed)
    return time.perf_counter() - start, results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the identity "
                             "and floor gates")
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per path (best-of)")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    repeats = args.repeats or 3
    if args.smoke:
        device = ibm_toronto()
        sizes = [5, 5, 4, 4, 3]
        depth = 16
    else:
        # Deep enough to match transpiled service workloads; shallow NN
        # circuits undershoot their per-program cost.
        device = ibm_manhattan()
        sizes = [7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3]
        depth = 72
    # Repetition r simulates its own co-tenant batch under seed
    # args.seed + r, shared by both paths; the service's warm-up batch
    # is a further, untimed one.
    seeds = [args.seed + r for r in range(repeats)]
    batches = [cotenant_batch(device, sizes, s, depth) for s in seeds]
    warmup = cotenant_batch(device, sizes, args.seed + repeats, depth)
    widths = [len(p.partition) for p in batches[0]]

    # An untimed pass computes the reference results and warms this
    # process's gate-matrix caches for every batch, so neither timed
    # path pays cold start.
    want = [run_parallel(batch, device, shots=args.shots, seed=seed)
            for batch, seed in zip(batches, seeds)]
    svc = ExecutionService()
    svc.run_parallel(warmup, device, shots=args.shots, seed=seeds[0])
    # Alternate the two paths on each batch so host drift hits both.
    baseline_s = service_s = float("inf")
    got: List[list] = []
    for batch, seed in zip(batches, seeds):
        elapsed, _ = timed(run_parallel, batch, device, args.shots, seed)
        baseline_s = min(baseline_s, elapsed)
        elapsed, results = timed(svc.run_parallel, batch, device,
                                 args.shots, seed)
        service_s = min(service_s, elapsed)
        got.append(results)
    same = all(identical(g, w) for g, w in zip(got, want))
    memo_hits = svc.stats["memo_hits"]
    speedup = baseline_s / service_s

    print_table(
        f"Co-tenant batch of {len(widths)} programs "
        f"(widths {min(widths)}-{max(widths)}) on {device.name}, "
        f"{args.shots} shots, {cores} cores",
        ["path", "best-of-%d(ms)" % repeats, "vs reference",
         "bit-identical"],
        [["run_parallel (reference)", f"{baseline_s * 1e3:.1f}", "1.00x",
          "yes"],
         ["ExecutionService (misses)", f"{service_s * 1e3:.1f}",
          f"{speedup:.2f}x", "yes" if same else "NO"]])

    payload = {
        "bench": "bench_execution",
        "device": device.name,
        "programs": len(widths),
        "widths": widths,
        "shots": args.shots,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "host": host_info(),
        "repeats": repeats,
        "baseline_s": baseline_s,
        "service_s": service_s,
        "speedup": speedup,
        "memo_hits": memo_hits,
        "bit_identical": same,
        "floor": SPEEDUP_FLOOR,
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ARTIFACT}")

    if not same:
        print("FAIL: the service diverged from the reference run_parallel "
              "(bit-identity is the service's contract)", file=sys.stderr)
        return 1
    print("OK: the service is bit-identical to the reference")

    print(f"service speedup over reference: {speedup:.2f}x (floor "
          f"{SPEEDUP_FLOOR:g}x, {cores} cores)")
    if speedup < SPEEDUP_FLOOR:
        print(f"FAIL: the service's miss path at {speedup:.2f}x did not "
              f"reach the {SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        return 1
    print(f"OK: the service's miss path is >= {SPEEDUP_FLOOR:g}x of the "
          "reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
