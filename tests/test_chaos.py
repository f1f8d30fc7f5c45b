"""Fault-tolerant campaign runtime tests: chaos plans, retry policy,
supervised recovery, and graceful degradation.

The core contract under test: a sharded campaign disturbed by injected
worker faults (crash / hang / corrupt / poisoned chunks) recovers to a
report **bit-identical** to an undisturbed ``jobs=1`` run, with every
intervention accounted in ``CampaignReport.fault_tolerance``.
"""

import multiprocessing
import random

import pytest

from repro.analysis.coverage import compare_flow, run_campaign
from repro.core.twm import twm_transform
from repro.engine import (
    CampaignRunner,
    ChaosEvent,
    ChunkExhaustedError,
    FaultPlan,
    FaultToleranceStats,
    RetryPolicy,
    get_engine,
)
from repro.engine import parallel as parallel_module
from repro.library import catalog
from repro.memory.injection import standard_fault_universe
from repro.soak import run_soak_campaign, scenario_matrix

# Fast per-attempt deadline for hang tests: long enough that a healthy
# chunk (milliseconds) never trips it on a loaded CI host, short
# enough to keep the suite quick.
TIMEOUT = 2.0


def materialized_universe(n_words=4, width=4, seed=7, classes=("SAF", "TF")):
    """Concrete fault lists (streaming descriptors never shard, so
    chaos tests need materialized classes)."""
    universe = standard_fault_universe(
        n_words, width, max_inter_pairs=4, rng=random.Random(seed)
    )
    return {name: list(universe[name]) for name in classes}


def make_flow(width=4, n_words=4, seed=7):
    twm = twm_transform(catalog.get("March C-"), width)
    return compare_flow(twm.twmarch, n_words, width, initial=None, seed=seed)


def sharded_runner(**kwargs):
    """A jobs=2 runner with chunks small enough that every test class
    really shards (32 SAF faults / min_chunk 4 -> 8 chunks)."""
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("min_chunk", 4)
    return CampaignRunner("batch", **kwargs)


def reports_equal(a, b):
    assert a.coverage_vector() == b.coverage_vector()
    assert list(a.classes) == list(b.classes)
    assert a.undetected == b.undetected


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
    """Disturbed sharded campaigns recover bit-identically."""

    def run_pair(self, chaos, retry, classes=("SAF", "TF"), degrade=True):
        universe = materialized_universe(classes=classes)
        flow = make_flow()
        baseline = run_campaign(flow, universe, engine="batch", jobs=1)
        runner = sharded_runner(retry=retry, chaos=chaos, degrade=degrade)
        try:
            disturbed = run_campaign(flow, universe, runner=runner)
        finally:
            runner.close()
        return baseline, disturbed

    def test_crash_and_hang_recover_bit_identical(self):
        # The issue's acceptance scenario: one injected worker crash
        # AND one injected chunk hang at jobs=2, recovered to a report
        # bit-identical to the undisturbed jobs=1 run.
        chaos = FaultPlan.parse("crash:SAF:0,hang:TF:0")
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, timeout=TIMEOUT)
        baseline, disturbed = self.run_pair(chaos, retry)
        reports_equal(baseline, disturbed)
        ft = disturbed.fault_tolerance
        assert ft.crashes >= 1
        assert ft.timeouts >= 1
        assert ft.retries >= 2
        assert ft.respawns >= 2
        assert ft.chaos_injected == 2
        assert ft.degraded_chunks == 0
        assert ft.lost_seconds > 0
        assert "retries" in disturbed.render()  # faults: line surfaced

    def test_corrupt_chunk_is_detected_and_retried(self):
        chaos = FaultPlan.parse("corrupt:SAF:1")
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        baseline, disturbed = self.run_pair(chaos, retry, classes=("SAF",))
        reports_equal(baseline, disturbed)
        assert disturbed.fault_tolerance.corrupt_chunks == 1
        assert disturbed.fault_tolerance.retries == 1

    def test_worker_error_is_retried(self):
        chaos = FaultPlan.parse("error:TF:2")
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        baseline, disturbed = self.run_pair(chaos, retry, classes=("TF",))
        reports_equal(baseline, disturbed)
        assert disturbed.fault_tolerance.chunk_errors == 1

    def test_poisoned_chunk_degrades_in_process(self):
        # attempt=* fails on every dispatch; only in-process
        # degradation can complete the campaign.
        chaos = FaultPlan.parse("error:SAF:0:*")
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        baseline, disturbed = self.run_pair(chaos, retry, classes=("SAF",))
        reports_equal(baseline, disturbed)
        ft = disturbed.fault_tolerance
        assert ft.degraded_chunks == 1
        assert ft.retries == 2  # attempts 1..3, then degraded
        assert ft.chunk_errors == 3

    def test_zero_retries_degrades_on_first_failure(self):
        chaos = FaultPlan.parse("crash:SAF:0")
        retry = RetryPolicy(max_attempts=1, base_delay=0.0)
        baseline, disturbed = self.run_pair(chaos, retry, classes=("SAF",))
        reports_equal(baseline, disturbed)
        ft = disturbed.fault_tolerance
        assert ft.retries == 0
        assert ft.degraded_chunks == 1

    def test_instant_timeout_degrades_everything(self):
        # timeout=0 expires every attempt immediately: the degenerate
        # policy that forces the whole class through the in-process
        # rung — still bit-identical.
        retry = RetryPolicy(max_attempts=1, base_delay=0.0, timeout=0.0)
        baseline, disturbed = self.run_pair(None, retry, classes=("SAF",))
        reports_equal(baseline, disturbed)
        ft = disturbed.fault_tolerance
        assert ft.degraded_chunks > 0
        assert ft.timeouts > 0

    def test_no_degrade_raises_chunk_exhausted(self):
        universe = materialized_universe(classes=("SAF",))
        flow = make_flow()
        chaos = FaultPlan.parse("error:SAF:0:*")
        runner = sharded_runner(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            chaos=chaos,
            degrade=False,
        )
        try:
            with pytest.raises(ChunkExhaustedError, match="2 attempt"):
                run_campaign(flow, universe, runner=runner)
        finally:
            runner.close()

    def test_seeded_chaos_campaign_recovers(self):
        chaos = FaultPlan.seeded(3, rate=0.4, kinds=("crash", "error"))
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        baseline, disturbed = self.run_pair(chaos, retry)
        reports_equal(baseline, disturbed)
        assert disturbed.fault_tolerance.chaos_injected > 0


class TestDegradationLadder:
    def test_pool_build_failure_falls_back_inline(self, monkeypatch):
        class Unbuildable:
            def __init__(self, *args, **kwargs):
                raise OSError("no more processes")

        monkeypatch.setattr(parallel_module, "_SupervisedPool", Unbuildable)
        universe = materialized_universe(classes=("SAF",))
        flow = make_flow()
        baseline = run_campaign(flow, universe, engine="batch", jobs=1)
        runner = sharded_runner()
        try:
            report = run_campaign(flow, universe, runner=runner)
            # The breakage is remembered for the runner's lifetime: no
            # rebuild storm on later classes (close() resets it).
            assert runner._pool_broken
        finally:
            runner.close()
        reports_equal(baseline, report)
        assert report.fault_tolerance.pool_failures == 1

    def test_runner_close_is_idempotent(self):
        runner = sharded_runner()
        universe = materialized_universe(classes=("SAF",))
        flow = make_flow()
        runner.bind(flow, universe)
        runner.detect_class_packed(flow, universe["SAF"], class_name="SAF")
        runner.close()
        runner.close()  # second close is a no-op, not an error
        assert runner._pool is None

    def test_close_survives_dead_pool(self):
        runner = sharded_runner()
        universe = materialized_universe(classes=("SAF",))
        flow = make_flow()
        runner.bind(flow, universe)
        runner.detect_class_packed(flow, universe["SAF"], class_name="SAF")
        # Kill the workers behind the supervisor's back; close() must
        # still succeed (a dead pool never masks the original error).
        for worker in runner._pool._workers:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        runner.close()
        runner.close()


def per_fault(flow, faults):
    """The batch engine's per-fault compare verdicts: the list sharded
    classes must reproduce."""
    return get_engine("batch").detect_batch(
        flow.test, flow.n_words, flow.width, flow.words, faults
    )


class TestIncrementalBind:
    def test_rebinding_different_universe_keeps_pool(self):
        if parallel_module._pool_context().get_start_method() != "fork":
            pytest.skip("zero-copy binding requires fork")
        flow = make_flow()
        first = materialized_universe(classes=("SAF", "TF"))
        second = {"SAF": first["SAF"][:16]}  # changed class + dropped one
        with sharded_runner() as runner:
            runner.bind(flow, first)
            assert runner.detect_class_packed(
                flow, first["SAF"], class_name="SAF"
            ).tolist() == per_fault(flow, first["SAF"])
            runner.bind(flow, second)
            assert runner.detect_class_packed(
                flow, second["SAF"], class_name="SAF"
            ).tolist() == per_fault(flow, second["SAF"])

    def test_rebinding_same_universe_is_noop(self):
        flow = make_flow()
        universe = materialized_universe(classes=("SAF",))
        with sharded_runner() as runner:
            runner.bind(flow, universe)
            runner.detect_class_packed(flow, universe["SAF"], class_name="SAF")
            pids = runner._pool.worker_pids()
            runner.bind(flow, universe)  # same object: identity match
            runner.detect_class_packed(flow, universe["SAF"], class_name="SAF")
            assert runner._pool.worker_pids() == pids

    def test_mixed_campaigns_after_rebind_stay_correct(self):
        flow = make_flow()
        first = materialized_universe(classes=("SAF", "TF"))
        with sharded_runner() as runner:
            runner.bind(flow, first)
            for name in first:
                assert runner.detect_class_packed(
                    flow, first[name], class_name=name
                ).tolist() == per_fault(flow, first[name]), name
            second = materialized_universe(seed=23, classes=("SAF", "TF"))
            runner.bind(flow, second)
            for name in second:
                assert runner.detect_class_packed(
                    flow, second[name], class_name=name
                ).tolist() == per_fault(flow, second[name]), name


def test_spawn_platform_runs_campaigns_inline_and_shards_soak(monkeypatch):
    # Without fork, workers cannot inherit bound fault classes, so
    # campaigns run inline; soak chunks carry their scenarios by value
    # and still shard (the injected crash proves a worker ran chunk 0).
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(parallel_module, "_pool_context", lambda: spawn)
    universe = materialized_universe(classes=("SAF", "TF"))
    flow = make_flow()
    with sharded_runner() as runner:
        assert runner.jobs == 1
        report = run_campaign(flow, universe, runner=runner)
    assert report.jobs == 1
    reports_equal(run_campaign(flow, universe, engine="batch", jobs=1), report)

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
