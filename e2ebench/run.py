"""End-to-end benchmark of the gateway request path.

One client thread drives ``Gateway.handle`` in a closed loop: each
round submits a fixed number of tickets, issues one ``flush`` (one
carrier job on the provider's default job pool), then one ``result``
per ticket; the next round starts once the last result is decoded.
The provider runs at its defaults, so the benchmark measures the
routes users get.

Run from the repository root::

    python3 e2ebench/run.py --workload suite_hot --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced timed
phase.  ``--trace 1`` instead serves a fixed number of rounds with
every layer wrapped in spans, prints the per-layer table sorted by
self time, writes the spans to ``e2ebench/out/`` and reports the
per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"no repro sources under {SRC}: run from a repository checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro.service import (  # noqa: E402
    AdmissionPolicy,
    Gateway,
    QuantumProvider,
    UserQuota,
)

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Reference,
    Ticket,
    TicketStream,
    Workload,
    check_ticket,
)

OUT_DIR = os.path.join(HERE, "out")
TOKEN = "bench-token"
USER = "bench"
#: Quotas far above any rate the stream reaches: nothing is refused.
POLICY = AdmissionPolicy(
    quotas={USER: UserQuota(1e12, 1_000_000, "interactive")})
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds every run serves first.  The modelled metrics and the counts
#: digest cover exactly these, so they repeat under one seed whatever
#: the host speed; a traced run serves exactly these.
PREFIX_ROUNDS = 20
#: Seconds a single result envelope may block before it counts failed.
RESULT_TIMEOUT_S = 120.0
#: Seed-sequence entropy of the timed stream is ``(seed, TIMED)``.  The
#: warm-up round is the same on every run, so set-up does the same work
#: whatever the seed, and its entropy never equals a timed one.
TIMED = 0
WARMUP = (0, 1)


@dataclass
class Served:
    """One ticket's trip through the gateway."""

    ticket: Ticket
    latency_s: float
    programs: List[Dict[str, object]] = field(default_factory=list)
    carrier: Optional[str] = None
    error: Optional[str] = None


class Service:
    """Provider, backend and gateway for one workload, plus the temp
    directory of its durable job store."""

    def __init__(self, workload: Workload) -> None:
        self.tmpdir = None
        store_path = None
        if workload.durable:
            os.makedirs(OUT_DIR, exist_ok=True)
            self.tmpdir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
            store_path = os.path.join(self.tmpdir, "jobs.db")
        self.provider = QuantumProvider(store_path=store_path)
        self.backend = workload.backend(self.provider)
        self.gateway = Gateway(self.backend, POLICY, {TOKEN: USER},
                               shots=workload.shots)
        self.qubits = {d.name: d.num_qubits for d in self.backend.devices}

    def close(self) -> None:
        self.provider.shutdown(wait=True)
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


def serve_round(gateway: Gateway, tickets: List[Ticket],
                flush_seed: int) -> List[Served]:
    """Submit every ticket, flush once, then fetch each result."""
    sent = []
    for ticket in tickets:
        start = time.perf_counter()
        reply = gateway.handle({
            "op": "submit", "token": TOKEN,
            "circuits": list(ticket.circuits),
            "arrival_ns": ticket.arrival_ns})
        sent.append((ticket, start, reply))
    gateway.handle({"op": "flush", "seed": flush_seed})
    served = []
    for ticket, start, reply in sent:
        if not reply.get("ok"):
            served.append(Served(ticket, time.perf_counter() - start,
                                 error=f"refused: {reply.get('error')}"))
            continue
        envelope = gateway.handle({
            "op": "result", "token": TOKEN, "job_id": reply["job_id"],
            "timeout": RESULT_TIMEOUT_S})
        latency = time.perf_counter() - start
        if not envelope.get("ok"):
            served.append(Served(ticket, latency, error=(
                f"{envelope.get('error')}: {envelope.get('reason')}")))
            continue
        served.append(Served(ticket, latency, list(envelope["programs"]),
                             envelope["carrier_job_id"]))
    return served


def run_rounds(service: Service, stream: TicketStream, min_rounds: int,
               seconds: float = 0.0) -> Tuple[List[Served], float, int]:
    """Closed loop: at least *min_rounds* rounds, and until *seconds*
    of serving have passed.  Returns (served tickets, seconds spent
    serving, rounds).  Drawing the next round's circuits is client
    think time and stays outside the measured seconds."""
    served: List[Served] = []
    rounds = 0
    wall_s = 0.0
    while rounds < min_rounds or wall_s < seconds:
        tickets, flush_seed = stream.next_round()
        start = time.perf_counter()
        served += serve_round(service.gateway, tickets, flush_seed)
        wall_s += time.perf_counter() - start
        rounds += 1
    return served, wall_s, rounds


def verify(served: List[Served], shots: int,
           reference: Reference) -> Tuple[int, List[str]]:
    """Every ticket served exactly once and every output correct.
    Returns the number of failed tickets and why each failed."""
    errors = []
    failed = 0
    seen = set()
    for i, item in enumerate(served):
        problems = [] if item.error is None else [item.error]
        for prog in item.programs:
            slot = (item.carrier, prog["index"])
            if slot in seen:
                problems.append(f"program {slot} served twice")
            seen.add(slot)
        if item.error is None:
            problems += check_ticket(item.ticket, item.programs, shots,
                                     reference)
        failed += bool(problems)
        errors += [f"ticket {i}: {e}" for e in problems]
    return failed, errors


def modelled(served: List[Served], qubits: Dict[str, int]
             ) -> Tuple[Dict[str, float], str]:
    """The simulated hardware's outcome and a digest of every count.

    Both depend only on the seed: a host-only change must leave them
    bit-identical.
    """
    programs = [p for item in served for p in item.programs]
    jobs: Dict[Tuple[str, int], List[int]] = {}
    for item in served:
        for p in item.programs:
            key = (item.carrier, p["hardware_job"])
            used = jobs.setdefault(key, [0, qubits[p["device_name"]]])
            used[0] += len(p["partition"])
    turnaround_us = [p["turnaround_ns"] / 1e3 for p in programs]
    metrics = {
        "pst_mean": float(np.mean([p["pst"] for p in programs])),
        "jsd_mean": float(np.mean([p["jsd"] for p in programs])),
        "hw_throughput": float(np.mean([u / n for u, n in jobs.values()])),
        "turnaround_p50_us": float(np.percentile(turnaround_us, 50)),
        "turnaround_p95_us": float(np.percentile(turnaround_us, 95)),
    }
    digest = hashlib.sha256()
    for p in programs:
        digest.update(json.dumps(
            [sorted(p["counts"].items()), p["partition"], p["device_name"],
             p["hardware_job"], p["turnaround_ns"]]).encode())
    digest.update(json.dumps(metrics, sort_keys=True).encode())
    return metrics, digest.hexdigest()


def set_up(workload: Workload) -> Tuple[Service, float, str]:
    """Construct the service, warm it, and serve one warm-up round on
    a seed no timed phase uses.  Returns the service, the
    set-up seconds and the warm-up round's counts digest."""
    start = time.perf_counter()
    service = Service(workload)
    try:
        service.backend.warm()
        served, _, _ = run_rounds(service, TicketStream(workload, WARMUP), 1)
        elapsed = time.perf_counter() - start
        if any(item.error for item in served):
            raise RuntimeError("warm-up round failed: " + "; ".join(
                item.error for item in served if item.error))
        return service, elapsed, modelled(served, service.qubits)[1]
    except BaseException:
        service.close()
        raise


def host_info(seed: int) -> Dict[str, object]:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def programs_per_s(served: List[Served], wall_s: float) -> float:
    return sum(len(s.programs) for s in served if s.error is None) / wall_s


def end_to_end(workload: Workload, seed: int, service: Service,
               reference: Reference, seconds: float,
               setup_s: List[float]) -> Tuple[Dict, Dict, int, List[str]]:
    stream = TicketStream(workload, (seed, TIMED))
    prefix, wall_s, rounds = run_rounds(service, stream, PREFIX_ROUNDS)
    # Peak memory after a fixed amount of work: a faster program serves
    # more rounds in the same seconds, which must not read as a leak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rest, rest_s, rest_rounds = run_rounds(service, stream, 0,
                                           seconds - wall_s)
    served = prefix + rest
    wall_s += rest_s
    rounds += rest_rounds
    failed, errors = verify(served, workload.shots, reference)
    model, digest = modelled(prefix, service.qubits)
    ok = [s for s in served if s.error is None]
    latency_ms = [s.latency_s * 1e3 for s in served]
    metrics = {
        "programs_per_s": metric(programs_per_s(served, wall_s),
                                 "programs/s"),
        "latency_p50_ms": metric(float(np.percentile(latency_ms, 50)),
                                 "ms"),
        "latency_p95_ms": metric(float(np.percentile(latency_ms, 95)),
                                 "ms"),
        "served_frac": metric(len(ok) / len(served), "ratio"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "pst_mean": metric(model["pst_mean"], "ratio"),
        "jsd_mean": metric(model["jsd_mean"], "ratio"),
        "hw_throughput": metric(model["hw_throughput"], "ratio"),
        "turnaround_p50_us": metric(model["turnaround_p50_us"], "us"),
        "turnaround_p95_us": metric(model["turnaround_p95_us"], "us"),
    }
    detail = {
        "tickets": len(served),
        "programs": sum(len(s.ticket.circuits) for s in served),
        "rounds": rounds,
        "wall_s": wall_s,
        "latency_samples": len(latency_ms),
        "setup_s_each": setup_s,
        "prefix_tickets": len(prefix),
        "counts_digest": digest,
    }
    return metrics, detail, failed, errors


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _counters(service: Service) -> Dict[str, int]:
    out = {f"compile.{k}": v for k, v in service.provider.cache_stats()
           .items()}
    out.update({f"exec.{k}": v for k, v in
                service.provider.execution_service.stats.items()})
    store = service.provider.store
    if store is not None:
        out.update({f"store.{k}": v for k, v in store.stats.items()})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: Workload, seed: int, service: Service,
              reference: Reference) -> Tuple[Dict, Dict, int, List[str]]:
    stream = TicketStream(workload, (seed, TIMED))
    before = _counters(service)
    tracer = Tracer().install()
    try:
        traced, traced_s, _ = run_rounds(service, stream,
                                         PREFIX_ROUNDS)
    finally:
        tracer.uninstall()
    after = _counters(service)
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    failed, errors = verify(traced, workload.shots, reference)

    layers = tracer.layers()
    programs = sum(len(s.programs) for s in traced)
    tickets = len(traced)
    carriers = len({s.carrier for s in traced if s.carrier})
    hw_jobs = len({(s.carrier, p["hardware_job"])
                   for s in traced for p in s.programs})

    def self_ms(name: str, per: float) -> float:
        """Self time of *name* summed over every thread, per unit."""
        own = sum(layers.get(n, {}).get("self_s", 0.0)
                  for n in (name, f"{name} [pool]"))
        return _ratio(own * 1e3, per)

    key_calls = layers.get("cache.key", {}).get("calls", 0)
    hits = delta["compile.transpile_hits"]
    misses = delta["compile.transpile_misses"]
    ideal_hits = delta["compile.ideal_hits"]
    ideal_misses = delta["compile.ideal_misses"]
    waits = tracer.queue_waits()
    spans_s = len(tracer.spans) * tracer.span_cost_s()
    per_prog = "ms/program"
    metrics = {
        "gateway.submit_ms": metric(self_ms("gateway.submit", tickets),
                                    "ms/envelope"),
        "admission.decide_ms": metric(
            self_ms("admission.decide", tickets), "ms/envelope"),
        "gateway.result_ms": metric(self_ms("gateway.result", tickets),
                                    "ms/envelope"),
        "job.queue_wait_ms": metric(
            _ratio(sum(waits) * 1e3, len(waits)), "ms/carrier"),
        "scheduler.self_ms": metric(
            self_ms("scheduler.schedule", programs), per_prog),
        "scheduler.hw_jobs": metric(_ratio(hw_jobs, carriers),
                                    "count/carrier"),
        "scheduler.programs_per_hw_job": metric(
            _ratio(programs, hw_jobs), "count"),
        "cache.key_ms": metric(self_ms("cache.key", programs), per_prog),
        "cache.key_calls_per_program": metric(
            _ratio(key_calls, programs), "count"),
        "cache.transpile_hit_ratio": metric(
            _ratio(hits, hits + misses), "ratio"),
        "cache.ideal_hit_ratio": metric(
            _ratio(ideal_hits, ideal_hits + ideal_misses), "ratio"),
        "compile.transpiles_per_program": metric(
            _ratio(delta["compile.submitted"], programs), "count"),
        "compile.transpile_ms": metric(
            self_ms("compile.transpile", programs), per_prog),
        "compile.wait_ms": metric(self_ms("compile.wait", programs),
                                  per_prog),
        "compile.fallbacks": metric(delta["compile.fallbacks"], "count"),
        "sim.run_batch_self_ms": metric(
            self_ms("exec.run_batch", programs), per_prog),
        "sim.dm_ms": metric(self_ms("sim.dm", programs), per_prog),
        "sim.feedforward_ms": metric(self_ms("sim.feedforward", programs),
                                     per_prog),
        "exec.wait_ms": metric(self_ms("exec.wait", programs), per_prog),
        "exec.serial_batches": metric(delta["exec.serial_batches"],
                                      "count"),
        "exec.thread_batches": metric(delta["exec.thread_batches"],
                                      "count"),
        "exec.process_batches": metric(delta["exec.process_batches"],
                                       "count"),
        "exec.fallbacks": metric(delta["exec.fallbacks"], "count"),
        "store.write_ms": metric(self_ms("store.write", programs),
                                 per_prog),
        "store.writes": metric(delta.get("store.writes", 0), "count"),
        "result.build_ms": metric(self_ms("result.build", programs),
                                  per_prog),
        "trace.attributed_frac": metric(
            _ratio(tracer.attributed_s(), traced_s), "ratio"),
        "trace.overhead_frac": metric(
            _ratio(spans_s, traced_s - spans_s), "ratio"),
    }
    detail = {
        "tickets": tickets, "programs": programs, "carriers": carriers,
        "spans": len(tracer.spans), "traced_wall_s": traced_s,
        "traced_programs_per_s": programs_per_s(traced, traced_s),
        # The untraced run's prefix on this seed; equal digests show the
        # wrappers leave every count unchanged.
        "counts_digest": modelled(traced, service.qubits)[1],
        "counter_deltas": delta, "skipped_targets": tracer.skipped,
    }
    layers["job.queue_wait"] = {"calls": len(waits), "total_s": sum(waits),
                                "self_s": sum(waits)}
    table = dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]))
    print_layer_table(table, traced_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json")
    tracer.export(path, {"workload": workload.name,
                         "host": host_info(seed), "layers": table,
                         "metrics": metrics})
    print(f"spans written to {os.path.relpath(path)}")
    return metrics, detail, failed, errors


def print_layer_table(table: Dict[str, Dict[str, float]],
                      wall_s: float) -> None:
    print(f"{'layer span':<26}{'calls':>8}{'total ms':>12}{'self ms':>12}"
          f"{'self %':>8}")
    for name, row in table.items():
        own = row["self_s"] * 1e3
        print(f"{name:<26}{int(row['calls']):>8}{row['total_s'] * 1e3:>12.1f}"
              f"{own:>12.1f}{100 * own / (wall_s * 1e3):>8.1f}")
    print(f"{'traced wall':<26}{'':>8}{wall_s * 1e3:>12.1f}")


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setups: List[float] = []
    digests: List[str] = []
    service = None
    try:
        for _ in range(SETUPS):
            if service is not None:
                service.close()
            service, elapsed, digest = set_up(workload)
            setups.append(elapsed)
            digests.append(digest)
        if args.trace:
            metrics, detail, failed, errors = per_layer(
                workload, args.seed, service, Reference())
        else:
            metrics, detail, failed, errors = end_to_end(
                workload, args.seed, service, Reference(), args.seconds,
                setups)
    finally:
        if service is not None:
            service.close()
    if len(set(digests)) != 1:
        errors.append("warm-up rounds on one seed produced different "
                      f"counts across fresh providers: {digests}")
    detail.update(workload=workload.name, host=host_info(args.seed),
                  warmup_digest=digests[0], errors=errors[:20])
    print(json.dumps(detail))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": detail["tickets"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
