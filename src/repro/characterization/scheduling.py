"""SRB experiment scheduling and overhead accounting (paper Table I).

Terminology, following the paper:

- a **CNOT pair** is a device link (a pair of coupled qubits);
- two links are a **one-hop pair** when they are disjoint and one extra
  edge connects them — the crosstalk-prone configuration;
- an **SRB experiment** characterizes one one-hop link pair and consists
  of three job types: RB on the first link alone, RB on the second link
  alone, and simultaneous RB on both.

Experiments whose links are all mutually separated by more than one hop
can share a job (Murali et al.'s optimization); the greedy grouping below
computes that packing.  Total jobs = 3 job types x seeds x groups —
the paper's 135 (Toronto) and 165 (Manhattan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..hardware.topology import CouplingMap, Edge

__all__ = [
    "SRBExperiment",
    "srb_experiments",
    "group_experiments",
    "srb_job_count",
    "SRBOverheadReport",
    "srb_overhead_report",
]


@dataclass(frozen=True)
class SRBExperiment:
    """One crosstalk characterization target: a one-hop link pair."""

    link_a: Edge
    link_b: Edge

    @property
    def qubits(self) -> Tuple[int, ...]:
        """All four qubits involved."""
        return tuple(sorted(set(self.link_a) | set(self.link_b)))


def srb_experiments(coupling: CouplingMap) -> Tuple[SRBExperiment, ...]:
    """All one-hop link pairs of the device, as SRB experiments."""
    return tuple(
        SRBExperiment(e1, e2)
        for e1, e2 in coupling.all_one_hop_edge_pairs()
    )


def _conflict(coupling: CouplingMap, a: SRBExperiment,
              b: SRBExperiment) -> bool:
    """Experiments conflict when any of their links are within one hop."""
    for e1 in (a.link_a, a.link_b):
        for e2 in (b.link_a, b.link_b):
            if coupling.pair_distance(e1, e2) <= 1:
                return True
    return False


def group_experiments(
    coupling: CouplingMap,
    experiments: Sequence[SRBExperiment] = (),
) -> List[List[SRBExperiment]]:
    """Pack experiments into a minimal number of conflict-free groups.

    Greedy graph colouring (DSATUR plus random-restart greedy, keeping the
    best).  Note: under this *strict* separation criterion the Toronto
    conflict graph contains a 13-clique, so fewer than 13 groups is
    impossible — the paper's reported 9/11 groups must rest on a weaker
    (unpublished) criterion; see the Table I rows of the README's
    "Reproduced vs paper" table.
    """
    if not experiments:
        experiments = srb_experiments(coupling)
    n = len(experiments)
    conflicts: Dict[int, set] = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if _conflict(coupling, experiments[i], experiments[j]):
                conflicts[i].add(j)
                conflicts[j].add(i)

    def greedy(order: Sequence[int]) -> Dict[int, int]:
        color: Dict[int, int] = {}
        for i in order:
            used = {color[j] for j in conflicts[i] if j in color}
            c = 0
            while c in used:
                c += 1
            color[i] = c
        return color

    # DSATUR-ish baseline: descending degree, then random restarts.
    best = greedy(sorted(range(n), key=lambda i: -len(conflicts[i])))
    rng = np.random.default_rng(0)
    for _ in range(200):
        candidate = greedy(list(rng.permutation(n)))
        if max(candidate.values(), default=-1) < max(best.values(),
                                                     default=-1):
            best = candidate

    num_groups = max(best.values(), default=-1) + 1
    groups: List[List[SRBExperiment]] = [[] for _ in range(num_groups)]
    for i, c in best.items():
        groups[c].append(experiments[i])
    return groups


def srb_job_count(num_groups: int, seeds: int = 5,
                  jobs_per_group: int = 3) -> int:
    """Total jobs: (RB link A + RB link B + simultaneous) x seeds x groups."""
    return jobs_per_group * seeds * num_groups


@dataclass(frozen=True)
class SRBOverheadReport:
    """The row of Table I for one chip."""

    chip: str
    num_qubits: int
    one_hop_pairs: int
    groups: int
    seeds: int
    jobs: int


def srb_overhead_report(chip_name: str, coupling: CouplingMap,
                        seeds: int = 5) -> SRBOverheadReport:
    """Compute the Table I row for a device.

    The paper's "1-hop pairs" row counts the device's CNOT pairs (links),
    which is what must be characterized; grouping is over the one-hop
    *pairs of links*.
    """
    groups = group_experiments(coupling)
    return SRBOverheadReport(
        chip=chip_name,
        num_qubits=coupling.num_qubits,
        one_hop_pairs=len(coupling.edges),
        groups=len(groups),
        seeds=seeds,
        jobs=srb_job_count(len(groups), seeds=seeds),
    )
