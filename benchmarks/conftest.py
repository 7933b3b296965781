"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports.  Shape assertions (who
wins, where crossovers fall) are enforced; absolute values differ because
the substrate is a seeded noise-model simulator, not the 2021 IBM fleet.
"""

from __future__ import annotations

import os
import platform

import numpy as np
import pytest

from repro.hardware import ibm_manhattan, ibm_melbourne, ibm_toronto


@pytest.fixture(scope="session")
def toronto():
    """IBM Q 27 Toronto."""
    return ibm_toronto()


@pytest.fixture(scope="session")
def manhattan():
    """IBM Q 65 Manhattan."""
    return ibm_manhattan()


@pytest.fixture(scope="session")
def melbourne():
    """IBM Q 16 Melbourne."""
    return ibm_melbourne()


def host_info() -> dict:
    """The ``host`` block every ``BENCH_*.json`` records: timings only
    compare across artifacts from the same cores/Python/numpy class."""
    return {"cores": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__}


def connected_subset(coupling, start: int, size: int) -> tuple:
    """A deterministic BFS-grown connected qubit subset of *size*."""
    seen = [start]
    frontier = [start]
    while frontier and len(seen) < size:
        nxt = frontier.pop(0)
        for nb in coupling.neighbors(nxt):
            if nb not in seen and len(seen) < size:
                seen.append(nb)
                frontier.append(nb)
    return tuple(sorted(seen))


def print_table(title: str, header: list, rows: list) -> None:
    """Render a fixed-width table to stdout (shown with pytest -s)."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    line = " | ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print(" | ".join(str(c).rjust(w) for c, w in zip(row, widths)))
