"""Fault-tolerant execution fabric tests: chaos plans, retry policy,
supervised recovery, and graceful degradation.

The core contract under test: a sharded soak sweep disturbed by
injected worker faults (crash / hang / corrupt / poisoned chunks)
recovers to reports **bit-identical** to an undisturbed ``jobs=1``
run, with every intervention accounted in
``SoakCampaignReport.fault_tolerance``.
"""

import multiprocessing
import random

import pytest

from repro.analysis.coverage import compare_flow, run_campaign
from repro.analysis.soak import render_soak_campaign
from repro.core.twm import twm_transform
from repro.engine import (
    ChaosEvent,
    ChunkExhaustedError,
    FaultPlan,
    FaultToleranceStats,
    RetryPolicy,
    SupervisedRunner,
)
from repro.engine import parallel as parallel_module
from repro.library import catalog
from repro.memory.injection import standard_fault_universe
from repro.soak import run_soak_campaign, scenario_matrix

# Fast per-attempt deadline for hang tests: long enough that a healthy
# chunk (tens of milliseconds) never trips it on a loaded CI host,
# short enough to keep the suite quick.
TIMEOUT = 2.0


def soak_matrix():
    """Four short scenarios: one batch, two chunks (chunk 0 and chunk 1
    of label ``soak``) at ``jobs=2``."""
    return scenario_matrix(
        geometries=((8, 8), (16, 8)), rates=(2.0, 4.0), cycles=4_000, seed=1
    )


def squares(values, start, stop):
    """A module-level chunk function for direct ``map`` tests."""
    return [value * value for value in values[start:stop]]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=-1.0)
        # Boundary values are legal: no retries, instant expiry.
        RetryPolicy(max_attempts=1, base_delay=0.0, timeout=0.0)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_attempts=64, base_delay=0.5)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(40) == 30.0  # capped

    def test_max_retries(self):
        assert RetryPolicy(max_attempts=3).max_retries == 2
        assert RetryPolicy(max_attempts=1).max_retries == 0


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosEvent("explode")
        with pytest.raises(ValueError, match="chunk"):
            ChaosEvent("crash", chunk=-1)
        with pytest.raises(ValueError, match="attempt"):
            ChaosEvent("crash", attempt=0)

    def test_explicit_events_match_fields(self):
        plan = FaultPlan([ChaosEvent("crash", "SAF", 2)])
        assert plan.action_for("SAF", 2, 1) == "crash"
        assert plan.action_for("SAF", 2, 2) is None  # attempt 1 only
        assert plan.action_for("TF", 2, 1) is None
        assert plan.action_for("SAF", 3, 1) is None

    def test_poisoned_event_matches_every_attempt(self):
        plan = FaultPlan([ChaosEvent("error", "SAF", 0, attempt=None)])
        for attempt in (1, 2, 5):
            assert plan.action_for("SAF", 0, attempt) == "error"

    def test_wildcard_class(self):
        plan = FaultPlan([ChaosEvent("hang", None, 1)])
        assert plan.action_for("SAF", 1, 1) == "hang"
        assert plan.action_for("TF", 1, 1) == "hang"

    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.seeded(7, rate=0.5, kinds=("crash", "error"))
        b = FaultPlan.seeded(7, rate=0.5, kinds=("crash", "error"))
        decisions = [a.action_for("SAF", i, 1) for i in range(64)]
        assert decisions == [b.action_for("SAF", i, 1) for i in range(64)]
        assert any(decisions)  # rate 0.5 over 64 chunks disturbs some
        assert not all(decisions)  # ... and spares some
        # Retries are never disturbed by the seeded rate.
        assert all(a.action_for("SAF", i, 2) is None for i in range(64))

    def test_seeded_plans_differ_by_seed(self):
        a = [FaultPlan.seeded(1, 0.5).action_for("TF", i, 1) for i in range(64)]
        b = [FaultPlan.seeded(2, 0.5).action_for("TF", i, 1) for i in range(64)]
        assert a != b

    def test_parse_events(self):
        plan = FaultPlan.parse("crash:SAF:0,hang:TF:1:2,error:CF:3:*")
        assert plan.events == (
            ChaosEvent("crash", "SAF", 0),
            ChaosEvent("hang", "TF", 1, attempt=2),
            ChaosEvent("error", "CF", 3, attempt=None),
        )

    def test_parse_seeded(self):
        plan = FaultPlan.parse("seeded:42:0.25:crash|hang")
        assert plan.seed == 42
        assert plan.rate == 0.25
        assert plan.kinds == ("crash", "hang")

    def test_parse_rejects_bad_specs(self):
        for spec in ("", "crash", "crash:SAF", "explode:SAF:0",
                     "seeded:x:0.5", "seeded:1:2.0", "crash:SAF:zero"):
            with pytest.raises(ValueError):
                FaultPlan.parse(spec)


class TestFaultToleranceStats:
    def test_merge_and_any(self):
        stats = FaultToleranceStats()
        assert not stats.any
        stats.merge({"retries": 2, "crashes": 1, "respawns": 1,
                     "degraded_chunks": 0, "lost_seconds": 0.5,
                     "timeouts": 0, "corrupt_chunks": 0, "chunk_errors": 0,
                     "pool_failures": 0, "chaos_injected": 1})
        stats.merge(FaultToleranceStats(retries=1))
        assert stats.retries == 3 and stats.crashes == 1
        assert stats.lost_seconds == 0.5
        assert stats.any

    def test_reset_preserves_identity(self):
        stats = FaultToleranceStats(retries=3, lost_seconds=1.0)
        alias = stats
        stats.reset()
        assert alias.retries == 0 and alias.lost_seconds == 0.0
        assert not alias.any

    def test_render_breakdown(self):
        text = FaultToleranceStats(
            retries=2, respawns=1, crashes=1, timeouts=1, chaos_injected=2
        ).render()
        assert "2 retries" in text and "1 respawns" in text
        assert "1 crashes" in text and "1 timeouts" in text
        assert "2 chaos" in text


class TestChaosRecovery:
    """Disturbed sharded soak sweeps recover bit-identically."""

    def run_pair(self, chaos, retry, degrade=True):
        matrix = soak_matrix()
        baseline = run_soak_campaign(matrix, jobs=1)
        disturbed = run_soak_campaign(
            matrix, jobs=2, retry=retry, chaos=chaos, degrade=degrade
        )
        assert disturbed.reports == baseline.reports
        return disturbed.fault_tolerance, disturbed

    def test_crash_and_hang_recover_bit_identical(self):
        # One injected worker crash AND one injected chunk hang at
        # jobs=2, recovered to reports bit-identical to the
        # undisturbed jobs=1 run.
        chaos = FaultPlan.parse("crash:soak:0,hang:soak:1")
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, timeout=TIMEOUT)
        ft, disturbed = self.run_pair(chaos, retry)
        assert ft.crashes >= 1
        assert ft.timeouts >= 1
        assert ft.retries >= 2
        assert ft.respawns >= 2
        assert ft.chaos_injected == 2
        assert ft.degraded_chunks == 0
        assert ft.lost_seconds > 0
        assert "retries" in render_soak_campaign(disturbed)  # faults: line

    def test_corrupt_chunk_is_detected_and_retried(self):
        chaos = FaultPlan.parse("corrupt:soak:1")
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        ft, _ = self.run_pair(chaos, retry)
        assert ft.corrupt_chunks == 1
        assert ft.retries == 1

    def test_worker_error_is_retried(self):
        chaos = FaultPlan.parse("error:soak:1")
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        ft, _ = self.run_pair(chaos, retry)
        assert ft.chunk_errors == 1

    def test_poisoned_chunk_degrades_in_process(self):
        # attempt=* fails on every dispatch; only in-process
        # degradation can complete the sweep.
        chaos = FaultPlan.parse("error:soak:0:*")
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        ft, _ = self.run_pair(chaos, retry)
        assert ft.degraded_chunks == 1
        assert ft.retries == 2  # attempts 1..3, then degraded
        assert ft.chunk_errors == 3

    def test_zero_retries_degrades_on_first_failure(self):
        chaos = FaultPlan.parse("crash:soak:0")
        retry = RetryPolicy(max_attempts=1, base_delay=0.0)
        ft, _ = self.run_pair(chaos, retry)
        assert ft.retries == 0
        assert ft.degraded_chunks == 1

    def test_instant_timeout_degrades_everything(self):
        # timeout=0 expires every attempt immediately: the degenerate
        # policy that forces the whole batch through the in-process
        # rung — still bit-identical.
        retry = RetryPolicy(max_attempts=1, base_delay=0.0, timeout=0.0)
        ft, _ = self.run_pair(None, retry)
        assert ft.degraded_chunks > 0
        assert ft.timeouts > 0

    def test_no_degrade_raises_chunk_exhausted(self):
        chaos = FaultPlan.parse("error:soak:0:*")
        with pytest.raises(ChunkExhaustedError, match="2 attempt"):
            run_soak_campaign(
                soak_matrix(),
                jobs=2,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                chaos=chaos,
                degrade=False,
            )

    def test_seeded_chaos_campaign_recovers(self):
        # Seed 6 disturbs both first dispatches (a crash and an error);
        # seeded plans never touch retries, so both recover.
        chaos = FaultPlan.seeded(6, rate=0.4, kinds=("crash", "error"))
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        ft, _ = self.run_pair(chaos, retry)
        assert ft.chaos_injected == 2
        assert ft.degraded_chunks == 0


class TestDegradationLadder:
    def test_pool_build_failure_falls_back_inline(self, monkeypatch):
        class Unbuildable:
            def __init__(self, *args, **kwargs):
                raise OSError("no more processes")

        monkeypatch.setattr(parallel_module, "_SupervisedPool", Unbuildable)
        matrix = soak_matrix()
        baseline = run_soak_campaign(matrix, jobs=1)
        # Two batches: the breakage is remembered for the runner's
        # lifetime, so the second batch does not try to rebuild.
        report = run_soak_campaign(matrix, jobs=2, batch_size=2)
        assert report.reports == baseline.reports
        assert report.fault_tolerance.pool_failures == 1

    def test_runner_close_is_idempotent(self):
        runner = SupervisedRunner(2)
        values = list(range(8))
        assert runner.map(squares, values, [(0, 4), (4, 8)]) == [
            [0, 1, 4, 9],
            [16, 25, 36, 49],
        ]
        runner.close()
        runner.close()  # second close is a no-op, not an error
        assert runner._pool is None

    def test_close_survives_dead_pool(self):
        runner = SupervisedRunner(2)
        runner.map(squares, list(range(8)), [(0, 4), (4, 8)])
        # Kill the workers behind the supervisor's back; close() must
        # still succeed (a dead pool never masks the original error).
        for worker in runner._pool._workers:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        runner.close()
        runner.close()


def test_spawn_platform_runs_campaigns_inline_and_shards_soak(monkeypatch):
    # Campaigns never start a worker process; soak chunks carry their
    # scenarios by value and shard under spawn too (the injected crash
    # proves a worker ran chunk 0).
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(parallel_module, "_pool_context", lambda: spawn)
    twm = twm_transform(catalog.get("March C-"), 4)
    flow = compare_flow(twm.twmarch, 4, 4, initial=None, seed=7)
    universe = standard_fault_universe(4, 4, max_inter_pairs=4, rng=random.Random(7))
    report = run_campaign(flow, universe, engine="batch")
    assert report.total == sum(len(faults) for faults in universe.values())
    assert multiprocessing.active_children() == []

    matrix = scenario_matrix(
        geometries=((8, 8),), rates=(2.0, 4.0), cycles=4_000, seed=1
    )
    inline = run_soak_campaign(matrix, jobs=1)
    sharded = run_soak_campaign(
        matrix,
        jobs=2,
        chaos=FaultPlan.parse("crash:soak:0"),
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
    )
    assert sharded.reports == inline.reports
    assert sharded.fault_tolerance.crashes == 1
    assert sharded.fault_tolerance.degraded_chunks == 0
