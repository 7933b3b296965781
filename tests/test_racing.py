"""Best-of strategy racing: determinism and error handling.

The edge cases that make racing safe to leave on in production:

- equal scores resolve by candidate order, so the winner is
  deterministic and reproducible under a fixed seed;
- a raising strategy loses the race instead of poisoning it
  (:class:`~repro.core.RaceError` only when *every* candidate fails).
"""

import pytest

from repro.core import (
    CloudScheduler,
    RaceError,
    SubmittedProgram,
    best_of,
)
from repro.core import scheduler as scheduler_mod
from repro.workloads import synthesize_traffic, workload


def _stream(names, spacing_ns=0.0):
    return [
        SubmittedProgram(workload(n).circuit(), arrival_ns=i * spacing_ns,
                         user=f"user{i}")
        for i, n in enumerate(names)
    ]


def _identity(value):
    return value


class TestBestOf:
    def test_lowest_score_wins(self):
        winner, value = best_of([("a", lambda: 30), ("b", lambda: 10),
                                 ("c", lambda: 20)], _identity)
        assert (winner, value) == ("b", 10)

    def test_equal_scores_resolve_to_candidate_order(self):
        # The deterministic tie-break: every rerun commits the earliest
        # candidate, never an arbitrary dict/set ordering.
        candidates = [("late", lambda: 7), ("early", lambda: 7)]
        for _ in range(5):
            assert best_of(candidates, _identity)[0] == "late"
        assert best_of(candidates[::-1], _identity)[0] == "early"

    def test_score_orders_values_and_args_reach_every_candidate(self):
        seen = []

        def make(name, size):
            def pack(*args):
                seen.append((name, args))
                return name, size
            return pack

        winner, value = best_of(
            [("small", make("small", 1)), ("big", make("big", 3))],
            lambda v: -v[1], "head", 4)
        assert (winner, value) == ("big", ("big", 3))
        assert seen == [("small", ("head", 4)), ("big", ("head", 4))]

    def test_raising_candidate_does_not_poison_the_race(self):
        def explode():
            raise ValueError("no placement")

        assert best_of([("broken", explode), ("ok", lambda: 4)],
                       _identity) == ("ok", 4)

    def test_single_candidate_wins_alone(self):
        assert best_of([("only", lambda: 5)], _identity) == ("only", 5)

    def test_score_is_taken_once_per_surviving_candidate(self):
        scored = []

        def score(value):
            scored.append(value)
            return value

        def explode():
            raise ValueError("no placement")

        best_of([("a", lambda: 2), ("b", explode), ("c", lambda: 1)],
                score)
        assert scored == [2, 1]

    def test_interrupts_are_not_absorbed(self):
        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            best_of([("a", interrupt), ("b", lambda: 1)], _identity)

    def test_race_error_names_every_failure(self):
        def fail(message):
            def fn():
                raise RuntimeError(message)
            return fn

        with pytest.raises(RaceError) as info:
            best_of([("first", fail("disk")), ("second", fail("net"))],
                    _identity)
        assert "first: RuntimeError('disk')" in str(info.value)
        assert "second: RuntimeError('net')" in str(info.value)

    def test_all_candidates_failing_raises_race_error(self):
        def explode():
            raise ValueError("boom")

        with pytest.raises(RaceError, match="all 2 race candidates") as info:
            best_of([("a", explode), ("b", explode)], _identity)
        assert set(info.value.errors) == {"a", "b"}
        assert isinstance(info.value.errors["a"], ValueError)


def _sorted_best_of(candidates, score, *args):
    """The former evaluate-all-then-sort selection, kept as the
    reference the in-order loop must reproduce."""
    evaluated = []
    for order, (name, fn) in enumerate(candidates):
        try:
            value = fn(*args)
        except Exception:  # noqa: BLE001 - a raising candidate loses
            continue
        evaluated.append((score(value), order, name, value))
    evaluated.sort(key=lambda item: (item[0], item[1]))
    _, _, name, value = evaluated[0]
    return name, value


def _racing_traffic(seed):
    # The bench_scheduler racing point: heavy-tail mix, 0.2 ms
    # interarrival, threshold 0.5 — where challengers win dispatches.
    return synthesize_traffic(20, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="heavy_tail",
                              seed=seed)


class TestSchedulerRacing:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_raced_schedule_matches_the_sorted_reference(
            self, toronto, seed, monkeypatch):
        subs = _racing_traffic(seed)

        def run():
            return CloudScheduler(
                toronto, fidelity_threshold=0.5,
                race_allocators=("qumc", "qucloud")).schedule(subs)

        got = run()
        monkeypatch.setattr(scheduler_mod, "best_of", _sorted_best_of)
        want = run()
        assert got.to_dict() == want.to_dict()

    def test_challenger_wins_are_recorded_under_its_name(self, toronto):
        out = CloudScheduler(
            toronto, fidelity_threshold=0.5,
            race_allocators=("qumc", "qucloud")).schedule(
                _racing_traffic(7))
        assert sum(out.race_wins.values()) == out.num_jobs
        assert set(out.race_wins) - {"qucp"}

    def test_raising_challenger_never_changes_the_schedule(self, toronto):
        subs = _racing_traffic(7)
        plain = CloudScheduler(toronto,
                               fidelity_threshold=0.5).schedule(subs)
        scheduler = CloudScheduler(toronto, fidelity_threshold=0.5,
                                   race_allocators=("qumc",))
        pack = scheduler._pack_batch  # noqa: SLF001

        def pack_or_fail(allocator, *args):
            if allocator.name == "qumc":
                raise RuntimeError("challenger crashed")
            return pack(allocator, *args)

        scheduler._pack_batch = pack_or_fail  # noqa: SLF001
        raced = scheduler.schedule(subs)
        assert raced.race_wins == {"qucp": raced.num_jobs}
        assert ([j.members for j in raced.jobs]
                == [j.members for j in plain.jobs])
        assert raced.makespan_ns == plain.makespan_ns

    def test_every_candidate_raising_fails_the_schedule(self, toronto):
        scheduler = CloudScheduler(toronto,
                                   race_allocators=("qumc", "qucloud"))

        def fail(*args):
            raise RuntimeError("no pack")

        scheduler._pack_batch = fail  # noqa: SLF001
        with pytest.raises(RaceError, match="all 3 race candidates"):
            scheduler.schedule(_stream(["adder", "bell"]))

    def test_pack_score_prefers_more_programs_then_lower_efs(self):
        class _Alloc:
            def __init__(self, efs):
                self.efs = efs

        class _Batch:
            def __init__(self, *efs):
                self.allocations = [_Alloc(e) for e in efs]

        score = CloudScheduler._pack_score  # noqa: SLF001
        two = score((_Batch(0.4, 0.6), [0, 1]))
        two_better = score((_Batch(0.1, 0.3), [0, 1]))
        one = score((_Batch(0.0), [0]))
        empty = score((_Batch(), []))
        assert two_better < two < one < empty

    def test_race_wins_recorded_and_reproducible(self, toronto):
        subs = _stream(["adder", "bell", "lin", "fredkin"], spacing_ns=1e5)
        scheduler = CloudScheduler(toronto,
                                   race_allocators=("qumc", "qucloud"))
        out = scheduler.schedule(subs)
        assert sum(out.race_wins.values()) == out.num_jobs
        again = CloudScheduler(
            toronto,
            race_allocators=("qumc", "qucloud")).schedule(subs)
        assert again.race_wins == out.race_wins
        assert [j.members for j in again.jobs] == [j.members
                                                   for j in out.jobs]
        assert again.makespan_ns == out.makespan_ns

    def test_racing_never_admits_fewer_than_the_primary(self, toronto):
        subs = _stream(["adder", "bell", "lin", "fredkin", "adder"],
                       spacing_ns=5e4)
        plain = CloudScheduler(toronto).schedule(subs)
        raced = CloudScheduler(
            toronto, race_allocators=("qumc", "qucloud")).schedule(subs)
        assert len(raced.rejected) <= len(plain.rejected)

    def test_non_incremental_challenger_rejected_at_construction(
            self, toronto):
        with pytest.raises(ValueError, match="incremental"):
            CloudScheduler(toronto, race_allocators=("cna",))

    def test_race_executor_knob_is_gone(self, toronto):
        # Candidates pack inline, in order; there is no pool to pass.
        with pytest.raises(TypeError):
            CloudScheduler(toronto, race_allocators=("qumc",),
                           race_executor=None)

    def test_duplicate_challenger_is_dropped(self, toronto):
        # Racing the primary against itself is a no-op; the scheduler
        # must fold it away rather than burn a duplicate evaluation.
        scheduler = CloudScheduler(toronto, race_allocators=("qucp",))
        assert scheduler.race is None
