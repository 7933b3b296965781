"""Dynamic-circuit benchmark: unroll-then-cache vs per-shot branching.

Prices the two execution strategies for control-flow programs and gates
the properties the subsystem promises:

1. **Unroll vs feed-forward** — statically-resolvable loop programs run
   through ``run_dynamic`` twice: ``allow_unroll=True`` (expand, then
   the ordinary distribution-sampling simulator — one density-matrix
   evolution total) and ``allow_unroll=False`` (forced trajectories —
   one evolution per distinct measurement history, plus a per-shot walk
   of the instructions and an RNG draw per measurement).  Gate: the
   unrolled path is bit-identical to simulating the expanded flat
   circuit under the same seed, so caching unrolled artifacts is sound.

2. **Feed-forward accuracy** — every dynamic-suite workload's empirical
   distribution is checked against the exact tree walk
   (:func:`repro.sim.dynamic_probabilities`) by total-variation
   distance.  Gate: TV below a sampling-noise threshold.

3. **Scheduler cache** — the dynamic suite is submitted twice (freshly
   rebuilt circuits each time) through the provider's fleet backend.
   Gate: the second job reports **0 transpile misses** — repeated
   dynamic programs re-use cached artifacts end to end.

4. **Mixed traffic** — scheduler turnaround as the dynamic fraction of
   a Poisson stream grows (shape only, no gate).

Outcomes land in ``BENCH_dynamic.json``.

Run:  PYTHONPATH=../src python bench_dynamic.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Sequence

from conftest import host_info, print_table

import repro
from repro.circuits import QuantumCircuit
from repro.core import SubmittedProgram
from repro.hardware import linear_device
from repro.sim import dynamic_probabilities, run_circuit, run_dynamic
from repro.transpiler import expand_control_flow
from repro.workloads import (
    dynamic_circuit,
    dynamic_workload_names,
    synthesize_traffic,
)

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_dynamic.json")


def nested_echo() -> QuantumCircuit:
    """A larger statically-resolvable program for honest timing: an
    8-round echo loop over a 4-qubit entangler, unrolling to ~100
    instructions."""
    qc = QuantumCircuit(4, 4, name="nested_echo")
    qc.h(0)
    body = QuantumCircuit(4, 4)
    for q in range(3):
        body.cx(q, q + 1)
    for q in range(4):
        body.x(q)
        body.x(q)
    for q in reversed(range(3)):
        body.cx(q, q + 1)
    qc.for_loop(range(8), body)
    for q in range(4):
        qc.measure(q, q)
    return qc


def tv_distance(p: Dict[str, float], q: Dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def time_run(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the same gates")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    timing_shots = 64 if args.smoke else 256
    accuracy_shots = 1500 if args.smoke else 4000
    tv_threshold = 0.12 if args.smoke else 0.08
    repeats = 1 if args.smoke else 3
    failures: List[str] = []

    # --- 1. unroll-then-cache vs per-shot branching --------------------
    # Noisy execution: the trajectory engine evolves each distinct
    # measurement history once but still walks the program and draws
    # per shot; the unrolled path pays one evolution plus a multinomial
    # draw — that gap is what expand_control_flow buys on resolvable
    # programs.
    resolvable = [("echo_loop", dynamic_circuit("echo_loop"), 2),
                  ("nested_echo", nested_echo(), 4)]
    unroll_rows: List[List[object]] = []
    unroll_artifact: Dict[str, Dict] = {}
    for name, circ, width in resolvable:
        noise = linear_device(width, seed=3).noise_model()
        unrolled_s = time_run(
            lambda c=circ, nm=noise: run_dynamic(
                c, noise_model=nm, shots=timing_shots, seed=args.seed,
                allow_unroll=True),
            repeats)
        branching_s = time_run(
            lambda c=circ, nm=noise: run_dynamic(
                c, noise_model=nm, shots=timing_shots, seed=args.seed,
                allow_unroll=False),
            repeats)
        speedup = branching_s / unrolled_s
        via_dynamic = run_dynamic(circ, noise_model=noise,
                                  shots=timing_shots, seed=args.seed)
        via_flat = run_circuit(expand_control_flow(circ),
                               noise_model=noise, shots=timing_shots,
                               seed=args.seed)
        identical = via_dynamic.counts == via_flat.counts
        if not identical:
            failures.append(
                f"{name}: unrolled run_dynamic diverged from the "
                "expanded flat circuit under the same seed")
        unroll_rows.append([name, timing_shots, f"{unrolled_s * 1e3:.1f}",
                            f"{branching_s * 1e3:.1f}",
                            f"{speedup:.1f}x", identical])
        unroll_artifact[name] = {
            "shots": timing_shots,
            "unrolled_s": unrolled_s,
            "branching_s": branching_s,
            "speedup": speedup,
            "bit_identical": identical,
        }
    print_table(
        f"Unroll-then-cache vs per-shot branching (noisy, "
        f"{timing_shots} shots)",
        ["circuit", "shots", "unrolled(ms)", "branching(ms)",
         "branch/unroll", "bit-identical"],
        unroll_rows)

    # --- 2. feed-forward accuracy vs the exact tree walk ---------------
    accuracy_rows: List[List[object]] = []
    accuracy_artifact: Dict[str, Dict] = {}
    for name in dynamic_workload_names():
        circ = dynamic_circuit(name)
        exact = dynamic_probabilities(circ)
        empirical = run_dynamic(circ, shots=accuracy_shots,
                                seed=args.seed).probabilities
        tv = tv_distance(exact, empirical)
        ok = tv <= tv_threshold
        if not ok:
            failures.append(
                f"{name}: TV distance {tv:.3f} above the "
                f"{tv_threshold:g} sampling-noise threshold")
        accuracy_rows.append([name, accuracy_shots, len(exact),
                              f"{tv:.4f}", ok])
        accuracy_artifact[name] = {
            "shots": accuracy_shots,
            "outcomes": len(exact),
            "tv_distance": tv,
            "within_threshold": ok,
        }
    print_table(
        f"Feed-forward empirical vs exact tree walk "
        f"(noiseless, {accuracy_shots} shots, TV <= {tv_threshold:g})",
        ["workload", "shots", "outcomes", "TV", "ok"],
        accuracy_rows)

    # --- 3. repeated dynamic programs through the scheduler ------------
    # Two jobs submit the same dynamic suite, *rebuilt from scratch* the
    # second time (fresh circuit objects — key canonicalization must see
    # through that).  The second job's transpile-miss delta must be 0.
    provider = repro.provider(job_workers=1)
    devices = [linear_device(5, seed=21), linear_device(5, seed=22)]
    backend = provider.fleet_backend(devices, policy="least_loaded",
                                     allocator="qucp",
                                     fidelity_threshold=1.0)

    def suite_submissions() -> List[SubmittedProgram]:
        return [
            SubmittedProgram(circuit=dynamic_circuit(name),
                             arrival_ns=float(i) * 1e5, user=f"user{i}")
            for i, name in enumerate(dynamic_workload_names())
        ]

    cold = backend.run(suite_submissions(), shots=timing_shots,
                       seed=args.seed).result().metadata
    warm = backend.run(suite_submissions(), shots=timing_shots,
                       seed=args.seed).result().metadata
    if warm.transpile_misses != 0:
        failures.append(
            f"warm scheduler job re-transpiled "
            f"{warm.transpile_misses} dynamic program(s); expected 0")
    print_table(
        "Repeated dynamic suite through the fleet scheduler "
        "(cold vs warm job)",
        ["job", "programs", "dynamic", "transpile hits", "misses"],
        [["cold", cold.num_programs, cold.dynamic_programs,
          cold.transpile_hits, cold.transpile_misses],
         ["warm", warm.num_programs, warm.dynamic_programs,
          warm.transpile_hits, warm.transpile_misses]])
    cache_artifact = {
        "cold": {"transpile_hits": cold.transpile_hits,
                 "transpile_misses": cold.transpile_misses,
                 "dynamic_programs": cold.dynamic_programs},
        "warm": {"transpile_hits": warm.transpile_hits,
                 "transpile_misses": warm.transpile_misses,
                 "dynamic_programs": warm.dynamic_programs},
    }

    # --- 4. mixed static/dynamic traffic turnaround --------------------
    traffic_programs = 16 if args.smoke else 32
    fractions = [0.0, 0.3] if args.smoke else [0.0, 0.25, 0.5]
    traffic_rows: List[List[object]] = []
    traffic_artifact: Dict[str, Dict] = {}
    for fraction in fractions:
        subs = synthesize_traffic(
            traffic_programs, pattern="poisson",
            mean_interarrival_ns=2e5, mix="heavy_tail", seed=args.seed,
            dynamic_fraction=fraction)
        num_dynamic = sum(1 for s in subs
                          if s.circuit.has_control_flow()
                          or s.circuit.has_midcircuit_measurement())
        out = backend.run(subs, execute=False).result().schedule
        traffic_rows.append([
            f"{fraction:.2f}", traffic_programs, num_dynamic,
            out.num_jobs, f"{out.mean_turnaround_ns / 1e6:.2f}",
            f"{out.turnaround_p99_ns / 1e6:.2f}"])
        traffic_artifact[f"{fraction:.2f}"] = {
            "programs": traffic_programs,
            "dynamic_programs": num_dynamic,
            "num_jobs": out.num_jobs,
            "mean_turnaround_ns": out.mean_turnaround_ns,
            "p99_turnaround_ns": out.turnaround_p99_ns,
        }
    print_table(
        f"Mixed traffic turnaround vs dynamic fraction "
        f"({traffic_programs} programs, 0.2 ms interarrival)",
        ["dynamic fraction", "programs", "dynamic", "jobs",
         "turnaround(ms)", "p99(ms)"],
        traffic_rows)

    with open(ARTIFACT, "w") as fh:
        json.dump({"smoke": bool(args.smoke), "seed": args.seed,
                   "host": host_info(),
                   "unroll_vs_branching": unroll_artifact,
                   "feedforward_accuracy": accuracy_artifact,
                   "scheduler_cache": cache_artifact,
                   "mixed_traffic": traffic_artifact},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {ARTIFACT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\nOK: unrolled execution bit-identical to the flat circuit, "
          "feed-forward within sampling noise of the exact tree walk, "
          "and 0 re-transpiles on the repeated dynamic suite")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
