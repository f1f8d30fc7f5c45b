"""Tests for the soak runtime: arrivals, streaming workload, the
degradation-aware scheduler, and the supervised campaign layer."""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.soak import (
    latency_stats,
    render_soak_campaign,
    render_soak_report,
)
from repro.bist.scheduler import SessionStepper
from repro.cli import main as cli_main
from repro.core.twm import twm_transform
from repro.engine import FaultPlan, RetryPolicy
from repro.library import catalog
from repro.memory.faults import Cell, StuckAtFault
from repro.memory.injection import FaultyMemory
from repro.soak import (
    ArrivalSpec,
    FaultTimeline,
    LfsrWorkload,
    SoakScenario,
    SoakSchedule,
    run_scenario,
    run_soak_campaign,
    scenario_matrix,
)
from repro.soak.arrivals import FaultEpisode
from repro.soak.campaign import matrix_fingerprint
from repro.soak.scheduler import SoakReport


def timeline_key(timeline):
    return [
        (e.index, e.flavor, e.start, e.end, e.fault.describe())
        for e in timeline
    ]


class TestArrivals:
    def test_timeline_is_pure_in_spec_and_seed(self):
        spec = ArrivalSpec(rate=4.0)
        a = FaultTimeline.generate(spec, 8, 8, 50_000, seed=5)
        b = FaultTimeline.generate(spec, 8, 8, 50_000, seed=5)
        assert len(a) > 0
        assert timeline_key(a) == timeline_key(b)

    def test_different_seeds_differ(self):
        spec = ArrivalSpec(rate=4.0)
        a = FaultTimeline.generate(spec, 8, 8, 50_000, seed=5)
        b = FaultTimeline.generate(spec, 8, 8, 50_000, seed=6)
        assert timeline_key(a) != timeline_key(b)

    def test_rate_scales_arrivals(self):
        lo = FaultTimeline.generate(
            ArrivalSpec(rate=0.5), 8, 8, 100_000, seed=1
        )
        hi = FaultTimeline.generate(
            ArrivalSpec(rate=8.0), 8, 8, 100_000, seed=1
        )
        assert len(hi) > len(lo)

    def test_burst_process_supported(self):
        spec = ArrivalSpec(rate=4.0, process="burst")
        timeline = FaultTimeline.generate(spec, 8, 8, 100_000, seed=2)
        assert len(timeline) > 0
        starts = [e.start for e in timeline]
        assert starts == sorted(starts)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(process="weibull")
        with pytest.raises(ValueError):
            ArrivalSpec(mix=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            FaultTimeline.generate(
                ArrivalSpec(classes=("bogus",)), 8, 8, 1000, seed=0
            )

    def test_spec_round_trips_through_json(self):
        spec = ArrivalSpec(rate=2.5, process="burst", classes=("SAF",))
        clone = ArrivalSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone == spec

    def test_intermittent_duty_cycle_windows(self):
        fault = StuckAtFault(Cell(0, 0), 1)
        episode = FaultEpisode(
            0, "intermittent", fault, start=100, end=1000,
            duty_on=50, duty_off=150,
        )
        assert not episode.active_at(99)
        assert episode.active_at(100)
        assert episode.active_at(149)
        assert not episode.active_at(150)  # quiet part of the duty cycle
        assert episode.active_at(300)  # next period
        assert not episode.active_at(1000)  # lifetime over
        # overlaps() must see through a quiet window into the next burst.
        assert episode.overlaps(150, 320)
        assert not episode.overlaps(150, 299)
        assert not episode.overlaps(0, 99)

    def test_transient_toggles_in_and_out(self):
        fault = StuckAtFault(Cell(0, 0), 1)
        episode = FaultEpisode(0, "transient", fault, start=10, end=40)
        assert episode.toggles(100) == [(10, True), (40, False)]
        assert episode.toggles(30) == [(10, True)]


class TestLfsrWorkload:
    def events(self, workload, cycles):
        return [workload(cycle, None) for cycle in range(cycles)]

    def test_stream_is_pure_in_seed(self):
        a = LfsrWorkload(8, 8, seed=7)
        b = LfsrWorkload(8, 8, seed=7)
        assert self.events(a, 2000) == self.events(b, 2000)

    def test_stream_mix_follows_thresholds(self):
        workload = LfsrWorkload(8, 8, idle_permille=700, write_permille=40,
                                seed=1)
        events = self.events(workload, 30_000)
        idle = sum(1 for e in events if e is None)
        busy = [e for e in events if e is not None]
        writes = sum(1 for e in busy if e.kind == "w")
        assert 0.6 < idle / len(events) < 0.8
        assert 0.01 < writes / len(busy) < 0.08
        assert all(0 <= e.addr < 8 for e in busy)

    def test_degenerate_thresholds(self):
        always_idle = LfsrWorkload(8, 8, idle_permille=1000, seed=3)
        assert self.events(always_idle, 500) == [None] * 500
        all_writes = LfsrWorkload(
            8, 8, idle_permille=0, write_permille=1000, seed=3
        )
        assert all(e.kind == "w" for e in self.events(all_writes, 500))

    def test_state_restore_resumes_bit_identically(self):
        # The whole generator state is the LFSR register: a workload
        # seeded with a captured state replays the rest of the stream.
        workload = LfsrWorkload(8, 8, seed=11)
        self.events(workload, 1000)
        mark = workload.state
        tail = self.events(workload, 1000)
        resumed = LfsrWorkload(8, 8, seed=mark)
        assert self.events(resumed, 1000) == tail

    def test_validation(self):
        with pytest.raises(ValueError):
            LfsrWorkload(8, 8, idle_permille=1001)
        with pytest.raises(ValueError):
            LfsrWorkload(8, 8, write_permille=-1)


class TestTimeVaryingInjection:
    def test_remove_withdraws_one_injection(self):
        fault = StuckAtFault(Cell(2, 0), 1)
        memory = FaultyMemory(4, 8)
        memory.fill(0)
        memory.inject(fault)
        assert memory.read(2) & 1 == 1
        memory.remove(fault)
        # The stored content keeps what the fault last forced.
        assert memory.read(2) & 1 == 1
        memory.write(2, 0)
        assert memory.read(2) == 0

    def test_remove_absent_fault_fails_loudly(self):
        memory = FaultyMemory(4, 8)
        with pytest.raises(ValueError, match="fault not injected"):
            memory.remove(StuckAtFault(Cell(0, 0), 1))


class TestStreamingChecker:
    def test_stream_checker_is_alias_free_ground_truth(self):
        result = twm_transform(catalog.get("March C-"), 8)
        aliased = 0
        for addr in range(8):
            for bit in range(8):
                memory = FaultyMemory(
                    8, 8, [StuckAtFault(Cell(addr, bit), 1)]
                )
                memory.randomize(random.Random(addr * 8 + bit))
                stepper = SessionStepper(
                    memory, result.twmarch, result.prediction, 1,
                    track_stream=True,
                )
                while not stepper.finished:
                    stepper.step(64)
                # The elementwise compare never misses a SAF...
                assert stepper.stream_detected
                if not stepper.detected:
                    aliased += 1
        # ...but a 1-bit MISR pair aliases some of them away.
        assert aliased > 0

    def test_fault_free_session_stays_silent(self):
        result = twm_transform(catalog.get("March C-"), 8)
        memory = FaultyMemory(8, 8)
        memory.randomize(random.Random(0))
        stepper = SessionStepper(
            memory, result.twmarch, result.prediction, 16, track_stream=True
        )
        while not stepper.finished:
            stepper.step(64)
        assert not stepper.detected
        assert not stepper.stream_detected


def small_scenario(**overrides):
    defaults = dict(
        name="unit",
        n_words=8,
        width=8,
        cycles=12_000,
        arrival=ArrivalSpec(rate=4.0),
        schedule=SoakSchedule(period=1000),
        seed=1,
    )
    defaults.update(overrides)
    return SoakScenario(**defaults)


class TestScenario:
    def test_run_scenario_is_pure(self):
        scenario = small_scenario()
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a == b
        assert a.arrivals > 0
        assert a.sessions_completed > 0

    def test_detection_latency_contract(self):
        report = run_scenario(small_scenario())
        assert report.arrivals == report.detections + report.missed
        for episode in report.episodes:
            if episode.detected_cycle is not None:
                assert episode.detected_cycle >= episode.start
                assert episode.attribution in ("suspects", "window")
        assert all(lat >= 0 for lat in report.detection_latencies)
        assert report.missed_transient_windows <= report.missed

    def test_report_round_trips_through_json(self):
        report = run_scenario(small_scenario())
        clone = SoakReport.from_dict(json.loads(json.dumps(report.as_dict())))
        assert clone == report

    def test_sub_seeds_are_role_disjoint(self):
        scenario = small_scenario()
        roles = ("content", "arrivals", "workload", "protocol")
        seeds = {scenario.sub_seed(role) for role in roles}
        assert len(seeds) == len(roles)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_scenario(n_words=1)
        with pytest.raises(ValueError):
            small_scenario(cycles=0)

    def test_matrix_names_unique_and_sized(self):
        matrix = scenario_matrix(
            tests=("March C-", "MATS+"),
            geometries=((8, 8), (16, 8)),
            rates=(1.0, 4.0),
            mixes=("mixed", "permanent"),
            periods=(1000,),
        )
        assert len(matrix) == 2 * 2 * 2 * 2
        names = [s.name for s in matrix]
        assert len(set(names)) == len(names)

    def test_matrix_rejects_unknown_mix(self):
        with pytest.raises(ValueError, match="unknown mix"):
            scenario_matrix(mixes=("sometimes",))


class TestDegradationLadder:
    def test_hostile_budget_degrades_and_accounts_starvation(self):
        scenario = small_scenario(
            cycles=15_000,
            schedule=SoakSchedule(
                period=1000, budget=30, starvation_window=2,
                recovery_window=4,
            ),
        )
        report = run_scenario(scenario)
        # A 30-op budget cannot fit any full session: the ladder must
        # walk down and the bottom rung must count starved periods.
        assert report.degradations >= 1
        assert report.starved_periods >= 1
        assert report.final_step != "March C-"

    def test_generous_budget_stays_on_primary(self):
        report = run_scenario(small_scenario())
        assert report.degradations == 0
        assert report.starved_periods == 0
        assert report.final_step == "March C-"

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SoakSchedule(period=0)
        with pytest.raises(ValueError):
            SoakSchedule(budget=0)
        with pytest.raises(ValueError):
            SoakSchedule(starvation_window=0)


def small_matrix(seed=1):
    return scenario_matrix(
        geometries=((8, 8),),
        rates=(2.0, 4.0),
        mixes=("mixed", "permanent"),
        cycles=8_000,
        seed=seed,
    )


class TestSoakCampaign:
    def test_sharded_run_is_bit_identical(self):
        matrix = small_matrix()
        base = run_soak_campaign(matrix, jobs=1)
        par = run_soak_campaign(matrix, jobs=2)
        assert base.completed and par.completed
        assert par.reports == base.reports

    def test_chaos_crash_and_corrupt_recover_bit_identically(self):
        matrix = small_matrix()
        base = run_soak_campaign(matrix, jobs=1)
        chaos = run_soak_campaign(
            matrix,
            jobs=2,
            chaos=FaultPlan.parse("crash:soak:0,corrupt:soak:1"),
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        assert chaos.reports == base.reports
        stats = chaos.fault_tolerance
        assert stats is not None
        assert stats.crashes >= 1
        assert stats.corrupt_chunks >= 1
        assert stats.degraded_chunks == 0

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        matrix = small_matrix()
        base = run_soak_campaign(matrix, jobs=1)
        bank = tmp_path / "bank.json"
        partial = run_soak_campaign(
            matrix, checkpoint=bank, batch_size=1, max_batches=1
        )
        assert not partial.completed
        assert partial.scenarios == 1
        resumed = run_soak_campaign(matrix, checkpoint=bank, batch_size=1)
        assert resumed.completed
        assert resumed.resumed_scenarios == 1
        assert resumed.reports == base.reports

    def test_checkpoint_rejects_foreign_matrix(self, tmp_path):
        bank = tmp_path / "bank.json"
        run_soak_campaign(small_matrix(seed=1), checkpoint=bank)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            run_soak_campaign(small_matrix(seed=2), checkpoint=bank)

    def test_duplicate_scenario_names_rejected(self):
        scenario = small_scenario()
        with pytest.raises(ValueError, match="unique"):
            run_soak_campaign([scenario, scenario])

    def test_fingerprint_tracks_matrix_content(self):
        assert matrix_fingerprint(small_matrix(seed=1)) != matrix_fingerprint(
            small_matrix(seed=2)
        )


class TestRendering:
    def test_latency_stats_nearest_rank(self):
        stats = latency_stats([30, 10, 20, 40])
        assert stats == {
            "count": 4, "min": 10, "p50": 20, "p90": 40, "max": 40,
            "mean": 25.0,
        }
        assert latency_stats([]) == {"count": 0}

    def test_render_report_lines(self):
        report = run_scenario(small_scenario())
        text = render_soak_report(report)
        assert "episodes:" in text
        assert "latency:" in text
        assert "schedule:" in text

    def test_render_campaign_aggregates(self):
        campaign = run_soak_campaign(small_matrix())
        text = render_soak_campaign(campaign)
        assert "Soak scenario matrix" in text
        assert "aggregate episodes:" in text


class TestSoakCli:
    def test_soak_subcommand_smoke(self, capsys):
        rc = cli_main(
            [
                "soak", "--geometries", "8x8", "--rates", "4",
                "--cycles", "6000", "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario " in out
        assert "aggregate episodes:" in out
        assert "ran 1/1 scenario(s)" in out


SOAK_ARGS = [
    "soak", "--geometries", "8x8", "--rates", "4",
    "--cycles", "6000", "--seed", "1",
]


@pytest.fixture(scope="module")
def banked(tmp_path_factory):
    """A valid checkpoint of the SOAK_ARGS matrix, as parsed JSON."""
    path = tmp_path_factory.mktemp("soak") / "bank.json"
    assert cli_main(SOAK_ARGS + ["--checkpoint", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def _without_episodes(payload):
    for report in payload["reports"].values():
        del report["episodes"]
    return json.dumps(payload)


def _with_report(edit):
    """A checkpoint text whose every report went through *edit*."""

    def make(payload):
        for report in payload["reports"].values():
            edit(report)
        return json.dumps(payload)

    return make


# case -> (malformed file content from a valid payload, expected fault)
MALFORMED_CHECKPOINTS = {
    "cycles-str": (
        _with_report(lambda r: r.update(cycles="x")),
        "'cycles' is str, expected int",
    ),
    "counter-bool": (
        _with_report(lambda r: r.update(periods=True)),
        "'periods' is bool, expected int",
    ),
    "no-bist-ops": (
        _with_report(lambda r: r.pop("bist_ops")),
        "missing field 'bist_ops'",
    ),
    "final-step-int": (
        _with_report(lambda r: r.update(final_step=3)),
        "'final_step' is int, expected str",
    ),
    "episode-cycle-str": (
        _with_report(
            lambda r: r["episodes"][0].update(detected_cycle="soon")
        ),
        "'detected_cycle' is str, expected int | None",
    ),
    "episode-not-object": (
        _with_report(lambda r: r["episodes"].__setitem__(0, 7)),
        "EpisodeOutcome is int, expected object",
    ),
    "top-level-list": (lambda payload: "[]", "top level is a list"),
    "reports-list": (
        lambda payload: json.dumps(
            {"fingerprint": payload["fingerprint"], "reports": []}
        ),
        "'reports' is a list",
    ),
    "no-reports": (
        lambda payload: json.dumps({"fingerprint": payload["fingerprint"]}),
        "'reports' is missing",
    ),
    "no-episodes": (_without_episodes, "missing field 'episodes'"),
    "truncated": (
        lambda payload: json.dumps(payload)[:40],
        "not readable JSON",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_fails_with_one_line(
    case, banked, tmp_path, capsys
):
    make, fault = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bank.json"
    path.write_text(make(json.loads(json.dumps(banked))), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(SOAK_ARGS + ["--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0, err
    assert err.startswith(f"error: checkpoint {path} is malformed: ")
    assert fault in err


def _children(pid):
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return path.read_text().split() if path.exists() else []


def _wait_until(predicate, seconds=30.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def _signal_sharded_soak(tmp_path, signum, group=True):
    """Start a sharded, checkpointing ``repro soak``, send *signum* to
    its whole process group (or to the parent alone) once the workers
    run, and return ``(returncode, stderr, worker pids)``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    checkpoint = tmp_path / "bank.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "soak",
            "--geometries", "8x8,16x8,8x4,16x4", "--rates", "4",
            "--cycles", "400000", "--seed", "1", "--jobs", "2",
            "--checkpoint", str(checkpoint), "--batch-size", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        assert _wait_until(lambda: len(_children(proc.pid)) >= 2)
        workers = _children(proc.pid)
        time.sleep(0.3)  # let the workers pick up their leases
        if group:
            os.killpg(proc.pid, signum)
        else:
            os.kill(proc.pid, signum)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert _wait_until(
        lambda: not any(Path(f"/proc/{pid}").exists() for pid in workers),
        seconds=10.0,
    ), workers
    assert not list(tmp_path.glob("*.tmp"))
    return proc.returncode, err


_NEEDS_PROC = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
    or not hasattr(os, "killpg"),
    reason="needs /proc child lists and process groups",
)


@_NEEDS_PROC
def test_interrupted_sharded_soak_exits_cleanly(tmp_path):
    # A terminal Ctrl-C signals the whole process group, workers too.
    returncode, err = _signal_sharded_soak(tmp_path, signal.SIGINT)
    assert returncode == 130, err
    assert err == "error: interrupted\n"


@_NEEDS_PROC
@pytest.mark.parametrize("group", [True, False], ids=["group", "parent"])
def test_terminated_sharded_soak_exits_cleanly(tmp_path, group):
    # SIGTERM from a service manager (whole group) or `kill PID`
    # (parent only): one line, exit 143, no survivor, no *.tmp file.
    returncode, err = _signal_sharded_soak(tmp_path, signal.SIGTERM, group)
    assert returncode == 143, err
    assert err == "error: terminated\n"
