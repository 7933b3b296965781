"""Overload-protection benchmark: the gateway past the saturation knee.

Drives synthetic multi-user traffic (three users across the three
priority classes) through the :class:`repro.service.Gateway` at a
sustained past-knee arrival rate and gates the properties the
admission-control subsystem promises:

1. **Accounting invariant** — every submission is accepted, shed, or
   rejected (``accepted + shed + rejected == submitted``); every
   accepted program completes exactly once; every refusal is stored
   terminally.  Nothing is lost, nothing double-served.
2. **Deterministic refusal** — the accept/shed/reject partition (and
   every decision payload) replays bit-identically on a second run of
   the same trace through a fresh provider.
3. **Bounded interactive tail** — backpressure sheds enough load that
   the p99 turnaround of *accepted* interactive traffic stays within
   ``P99_FACTOR`` (default 2x) of its uncontended value.
4. **Unscripted degradation** — a scripted device-failure burst trips
   the per-device circuit breaker, re-queues in-flight work to the
   surviving device, and readmits the failed device after half-open
   probes; the breaker trajectory also replays bit-identically.

Results land in ``BENCH_overload.json`` (accept rate and accepted-
traffic p99 per priority class, plus the breaker scenario summary).

Run:  PYTHONPATH=../src python bench_overload.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Sequence

import numpy as np

from conftest import host_info, print_table

from repro.core import CloudScheduler, DeviceFailurePlan, HealthPolicy
from repro.hardware import DeviceFleet, linear_device
from repro.service import (
    AdmissionPolicy,
    Gateway,
    QuantumProvider,
    UserQuota,
)
from repro.workloads import synthesize_traffic

#: CI override knob: accepted-interactive p99 must stay within this
#: factor of its uncontended value.
P99_FACTOR = float(os.environ.get("OVERLOAD_P99_FACTOR", "2.0"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_overload.json")

TOKENS = {"tok-int": "iris", "tok-bat": "bram", "tok-eff": "ezra"}
CLASSES = {"iris": "interactive", "bram": "batch", "ezra": "best_effort"}
BY_USER = {user: token for token, user in TOKENS.items()}


def fleet_devices():
    """Two small seeded devices: quick to simulate, distinct names."""
    return [linear_device(5, seed=0), linear_device(6, seed=1)]


def make_policy(max_queue_depth: int) -> AdmissionPolicy:
    return AdmissionPolicy(
        quotas={
            "iris": UserQuota(4000.0, 6, "interactive"),
            "bram": UserQuota(4000.0, 6, "batch"),
            "ezra": UserQuota(4000.0, 6, "best_effort"),
        },
        max_queue_depth=max_queue_depth,
    )


def make_gateway(provider: QuantumProvider,
                 max_queue_depth: int) -> Gateway:
    backend = provider.fleet_backend(
        fleet_devices(), name="overload-fleet",
        batch_window_ns=0.0, max_batch_size=1, priority_aging_ns=2e5)
    return Gateway(backend, make_policy(max_queue_depth), TOKENS,
                   shots=0, execute=False)


def drive(gateway: Gateway, stream, only_user: str | None = None):
    """Submit the stream round-robin over the three users; returns the
    (response, priority_class) rows in submission order."""
    users = list(CLASSES)
    rows = []
    for i, sub in enumerate(stream):
        user = users[i % len(users)]
        if only_user is not None and user != only_user:
            continue
        response = gateway.submit(BY_USER[user], sub.circuit,
                                  sub.arrival_ns)
        rows.append((response, CLASSES[user]))
    return rows


def collect_turnarounds(gateway: Gateway, rows) -> Dict[str, List[float]]:
    """Per-class turnarounds of every accepted program (post-flush)."""
    per_class: Dict[str, List[float]] = {c: [] for c in CLASSES.values()}
    for response, cls in rows:
        if not response["ok"]:
            continue
        ticket = gateway.ticket(response["job_id"])
        result = gateway.result(BY_USER[ticket.user], response["job_id"])
        assert result["ok"], result
        for turnaround in result["turnaround_ns"]:
            assert turnaround is not None and turnaround > 0
            per_class[cls].append(float(turnaround))
    return per_class


def p99(values: Sequence[float]) -> float:
    return float(np.percentile(np.asarray(values), 99)) if values else 0.0


def run_trace(num_programs: int, interarrival_ns: float, seed: int,
              max_queue_depth: int):
    """One full gateway run; returns everything the gates consume."""
    with QuantumProvider() as provider:
        gateway = make_gateway(provider, max_queue_depth)
        stream = synthesize_traffic(
            num_programs, pattern="poisson",
            mean_interarrival_ns=interarrival_ns, mix="heavy_tail",
            seed=seed, num_users=1)
        rows = drive(gateway, stream)
        gateway.flush(seed=seed)
        partition = [
            (resp["job_id"], resp["ok"],
             resp.get("status") or resp.get("error"), cls)
            for resp, cls in rows]
        decisions = [gateway.ticket(job_id).decision.to_dict()
                     for job_id, _, _, _ in partition]
        turnarounds = collect_turnarounds(gateway, rows)
        counts = gateway.summary()["counts"]
        per_class = gateway.controller.summary()["per_class"]
        # Completion accounting: every accepted program appears exactly
        # once in the carrier schedule.
        accepted_programs = sum(
            len(gateway.ticket(job_id).circuits)
            for job_id, ok, _, _ in partition if ok)
        carriers = gateway.carriers
        served = sum(len(job.result().schedule.completion_ns)
                     for job in carriers)
    return {
        "partition": partition,
        "decisions": decisions,
        "turnarounds": turnarounds,
        "counts": counts,
        "per_class": per_class,
        "accepted_programs": accepted_programs,
        "served_programs": served,
    }


def breaker_scenario(num_programs: int):
    """Scripted failure burst -> trip -> re-queue -> readmission."""
    # The burst ends well inside the arrival span (num_programs x 1 ms),
    # so post-burst traffic feeds the half-open probes and the breaker
    # earns readmission before the queue drains.
    scheduler_kwargs = dict(
        batch_window_ns=0.0, max_batch_size=1,
        failure_plan=DeviceFailurePlan.burst(0, 0.0, 8e6),
        health_policy=HealthPolicy(failure_threshold=2, cooldown_ns=3e6,
                                   probe_successes=2),
    )
    subs = synthesize_traffic(num_programs, pattern="poisson",
                              mean_interarrival_ns=1e6, seed=3,
                              num_users=3)

    def run():
        scheduler = CloudScheduler(DeviceFleet(fleet_devices()),
                                   **scheduler_kwargs)
        return scheduler.schedule(subs)

    first, second = run(), run()
    return first, second.to_dict() == first.to_dict()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration")
    parser.add_argument("--programs", type=int, default=None,
                        help="submissions in the overload trace "
                             "(default 90; 45 with --smoke)")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    num_programs = args.programs or (45 if args.smoke else 90)
    # Service time per program is ~1.1 ms virtual (1 ms job overhead +
    # circuit duration) on each of 2 devices => capacity ~1 program per
    # 0.55 ms.  A 0.25 ms mean interarrival offers ~2.2x saturation.
    interarrival_ns = 2.5e5
    max_queue_depth = 6
    failures: List[str] = []

    # --- 1+2: overloaded run, accounting + bit-identical replay -------
    first = run_trace(num_programs, interarrival_ns, args.seed,
                      max_queue_depth)
    second = run_trace(num_programs, interarrival_ns, args.seed,
                       max_queue_depth)
    counts = first["counts"]
    accounted = (counts["accepted"] + counts["shed"] + counts["rejected"]
                 == counts["submitted"] == num_programs)
    if not accounted:
        failures.append(f"accounting invariant violated: {counts}")
    if first["served_programs"] != first["accepted_programs"]:
        failures.append(
            f"served {first['served_programs']} != accepted "
            f"{first['accepted_programs']} (lost or double-served work)")
    replay_ok = (first["partition"] == second["partition"]
                 and first["decisions"] == second["decisions"])
    if not replay_ok:
        failures.append("accept/shed partition did not replay "
                        "bit-identically")
    if not (counts["shed"] > 0 or counts["rejected"] > 0):
        failures.append("trace never saturated admission: no refusals "
                        "(raise the arrival rate)")

    # --- 3: accepted-interactive p99 vs uncontended -------------------
    # Uncontended reference: only the interactive user's submissions
    # (same arrival instants) through an otherwise idle gateway.
    with QuantumProvider() as provider:
        gateway = make_gateway(provider, max_queue_depth)
        stream = synthesize_traffic(
            num_programs, pattern="poisson",
            mean_interarrival_ns=interarrival_ns, mix="heavy_tail",
            seed=args.seed, num_users=1)
        solo_rows = drive(gateway, stream, only_user="iris")
        gateway.flush(seed=args.seed)
        solo = collect_turnarounds(gateway, solo_rows)
    solo_p99 = p99(solo["interactive"])
    loaded_p99 = p99(first["turnarounds"]["interactive"])
    tail_ok = (loaded_p99 <= P99_FACTOR * solo_p99
               and first["turnarounds"]["interactive"])
    if not tail_ok:
        failures.append(
            f"accepted interactive p99 {loaded_p99 / 1e6:.2f} ms exceeds "
            f"{P99_FACTOR:g}x uncontended {solo_p99 / 1e6:.2f} ms")

    rows = []
    artifact_classes: Dict[str, Dict[str, object]] = {}
    for cls in ("interactive", "batch", "best_effort"):
        tally = first["per_class"][cls]
        submitted = sum(tally.values())
        accept_rate = tally["accepted"] / submitted if submitted else 0.0
        cls_p99 = p99(first["turnarounds"][cls])
        rows.append([cls, submitted, tally["accepted"], tally["shed"],
                     tally["rejected"], f"{accept_rate:.0%}",
                     f"{cls_p99 / 1e6:.2f}"])
        artifact_classes[cls] = {
            "submitted": submitted,
            "accepted": tally["accepted"],
            "shed": tally["shed"],
            "rejected": tally["rejected"],
            "accept_rate": accept_rate,
            "accepted_p99_ns": cls_p99,
        }
    print_table(
        f"Gateway overload: {num_programs} programs at "
        f"{interarrival_ns / 1e6:g} ms interarrival (~2x saturation), "
        f"queue-depth limit {max_queue_depth}",
        ["class", "submitted", "accepted", "shed", "rejected",
         "accept rate", "p99(ms)"],
        rows)
    print(f"interactive p99: loaded {loaded_p99 / 1e6:.2f} ms vs "
          f"uncontended {solo_p99 / 1e6:.2f} ms "
          f"(factor {loaded_p99 / solo_p99 if solo_p99 else 0:.2f}, "
          f"limit {P99_FACTOR:g}x); partition replay identical: "
          f"{replay_ok}")

    # --- 4: breaker trip -> re-queue -> readmission -------------------
    outcome, breaker_replay_ok = breaker_scenario(
        20 if args.smoke else 30)
    breaker = outcome.breakers.get("0", {})
    completions_ok = (len(outcome.completion_ns)
                      == (20 if args.smoke else 30))
    if not (outcome.batch_failures > 0 and outcome.breaker_trips >= 1):
        failures.append("failure burst never tripped the breaker")
    if outcome.breaker_readmissions < 1:
        failures.append("breaker was never readmitted after half-open "
                        "probes")
    if not completions_ok:
        failures.append(
            f"breaker scenario lost work: {len(outcome.completion_ns)} "
            f"completions of {20 if args.smoke else 30}")
    if not breaker_replay_ok:
        failures.append("breaker trajectory did not replay "
                        "bit-identically")
    print(f"breaker scenario: {outcome.batch_failures} failed batches, "
          f"{outcome.breaker_trips} trips, "
          f"{outcome.breaker_readmissions} readmissions, "
          f"{len(outcome.completion_ns)} completions, state "
          f"{breaker.get('state')!r}, replay identical: "
          f"{breaker_replay_ok}")

    with open(ARTIFACT, "w") as fh:
        json.dump({
            "programs": num_programs,
            "interarrival_ns": interarrival_ns,
            "max_queue_depth": max_queue_depth,
            "seed": args.seed,
            "host": host_info(),
            "counts": counts,
            "per_class": artifact_classes,
            "interactive_p99": {
                "uncontended_ns": solo_p99,
                "loaded_ns": loaded_p99,
                "factor": (loaded_p99 / solo_p99 if solo_p99 else None),
                "limit": P99_FACTOR,
            },
            "replay_identical": replay_ok,
            "breaker": {
                "summary": breaker.copy() if breaker else {},
                "batch_failures": outcome.batch_failures,
                "trips": outcome.breaker_trips,
                "readmissions": outcome.breaker_readmissions,
                "replay_identical": breaker_replay_ok,
            },
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {ARTIFACT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\nOK: accounting invariant holds, the accept/shed partition "
          "replays bit-identically, the accepted interactive tail is "
          f"within {P99_FACTOR:g}x of uncontended, and the breaker "
          "trips, re-queues, and readmits deterministically")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
