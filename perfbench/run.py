"""The repository benchmark: one workload per invocation, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compare_full --seed 1 --seconds 15 --trace 0

``--trace 0`` times untraced operations for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` splits ``--seconds`` between an
untraced and a traced loop and reports the per-layer metrics (see
README.md).  Every operation's simulated outputs are checked (goldens
at the default seed, invariants and a reference-engine replay at any
seed, exact repetition always).  The last stdout line is the JSON
result; a failed check makes the exit code 1, a program that cannot be
imported 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("compare_full", "compare_wide", "session", "soak")
ORACLES = ("compare", "signature", "aliasing")
CLASSES = (
    "SAF", "TF", "CFst-intra", "CFst-inter", "CFid-intra", "CFid-inter",
    "CFin-intra", "CFin-inter", "RDF", "DRDF", "AF",
)
# Fresh processes timing the cold set-up layers; the last one also runs
# one operation group for peak memory.
SETUP_PROBES = 3
# setup_s is the lower quartile of in-process set-ups, repeated for
# SETUP_SLICE seconds before the warm-up and after every timed operation
# group, so they sample the host's speed over the whole run as wall_s
# does.  One set-up takes 1-50 ms, too little to time once.  Cold
# fresh-process set-ups drifted 28-38% between sets of runs on a shared
# host.
SETUP_SLICE = 0.1
MIN_ITERATIONS = 3

END_TO_END = {
    "wall_s": ("s", "lower"),
    "faults_per_s": ("1/s", "higher"),
    "cycles_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    layers = {
        "core.transform_s": ("s", "lower"),
        "core.compile_s": ("s", "lower"),
        "memory.universe_s": ("s", "lower"),
        "memory.universe_faults": ("count", "higher"),
        "engine.context.build_s": ("s", "lower"),
        "engine.context.builds": ("count", "lower"),
        "engine.context.hits": ("count", "higher"),
        "engine.context.hit_ratio": ("ratio", "higher"),
    }
    for oracle in ORACLES:
        for name in CLASSES:
            layers[f"engine.kernel.{oracle}.{name}.s"] = ("s", "lower")
            layers[f"engine.kernel.{oracle}.{name}.faults"] = ("count", "higher")
    layers.update(
        {
            "analysis.campaign.self_s": ("s", "lower"),
            "engine.parallel.efficiency": ("ratio", "higher"),
            "engine.parallel.retries": ("count", "lower"),
            "engine.parallel.respawns": ("count", "lower"),
            "engine.parallel.degraded_chunks": ("count", "lower"),
            "soak.arrivals_s": ("s", "lower"),
            "soak.workload_s": ("s", "lower"),
            "soak.workload_calls": ("count", "lower"),
            "bist.session_step_s": ("s", "lower"),
            "bist.ops": ("count", "lower"),
            "soak.diagnosis_s": ("s", "lower"),
            "soak.diagnoses": ("count", "lower"),
            "soak.scheduler_self_s": ("s", "lower"),
            "soak.session_completion_ratio": ("ratio", "higher"),
            "soak.detection_ratio": ("ratio", "higher"),
            "trace.overhead_s": ("s", "lower"),
        }
    )
    return layers


PER_LAYER = _per_layer()


def host_metadata(args, state) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sizes": state.sizes,
    }


def probe(workload: str, seed: int, run: bool) -> dict:
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    if run:
        command.append("--run")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs operation groups, checks every one, counts operations."""

    def __init__(self, workloads, checks, state, goldens: dict) -> None:
        self.workloads = workloads
        self.checks = checks
        self.state = state
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_digest = None

    def n_ops(self) -> int:
        if self.state.workload == "soak":
            return len(self.state.inputs["matrix"])
        return len(self.state.inputs["flows"])

    def once(self, trace=None, jobs=1):
        """One checked operation group; (seconds, outcome) or None."""
        self.attempted += self.n_ops()
        started = time.perf_counter()
        try:
            outcome = self.workloads.run_once(self.state, trace, jobs)
        except Exception:
            self.failed += self.n_ops()
            self.errors.append(traceback.format_exc(limit=4))
            return None
        seconds = time.perf_counter() - started
        errors = self.verify(outcome)
        if errors:
            self.failed += self.n_ops()
            self.errors.extend(errors)
        return seconds, outcome

    def verify(self, outcome) -> list[str]:
        records = outcome.records
        record_digest = self.workloads.digest(records)
        if self.first_digest is not None:
            if record_digest != self.first_digest:
                return ["an operation did not reproduce the first one's outputs"]
            return []
        self.first_digest = record_digest
        workload = self.state.workload
        errors = self.checks.check_invariants(workload, records)
        errors += self.checks.check_golden(
            workload, self.state.seed, records, self.goldens
        )
        if workload != "soak":
            errors += self.checks.check_reference(
                self.state, outcome.extra["missed"]
            )
        return errors

    def loop(self, seconds: float, trace_factory=None, between=None) -> list:
        """Closed loop for *seconds*, calling *between* after each
        operation group; [(seconds, outcome, trace)]."""
        runs = []
        deadline = time.perf_counter() + seconds
        while not self.failed:
            trace = trace_factory() if trace_factory is not None else None
            result = self.once(trace)
            if result is None:
                break
            runs.append((*result, trace))
            if between is not None:
                between()
            if time.perf_counter() >= deadline and len(runs) >= MIN_ITERATIONS:
                break
        return runs


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def end_to_end(state, runs, setup_times, probes, runner) -> dict:
    # Lower quartiles, not medians: on a 2-CPU host shared with other
    # work, bursts of interference slow some operations of a run by up
    # to 1.5x.  Over ten 20-second session runs the lower quartile
    # spread 5%, the median 8%.
    wall = lower_quartile([seconds for seconds, _o, _t in runs])
    outcome = runs[0][1]
    # faults_per_s is real on campaigns (verdicts), cycles_per_s on soak
    # (simulated cycles).  The other one restates wall_s: soak counts
    # scenarios, campaigns count nominal cycles (README.md).
    per_s = len(outcome.records) if state.workload == "soak" else outcome.faults
    return {
        "wall_s": wall,
        "faults_per_s": per_s / wall,
        "cycles_per_s": outcome.cycles / wall,
        "setup_s": lower_quartile(setup_times),
        "peak_rss_mb": probes[-1]["rss_mb"],
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(state, untraced, traced, probes, sharded) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)

    def span(name):
        return median(trace.seconds.get(name, 0.0) for _s, _o, trace in traced)

    def count(name):
        return median(trace.counts.get(name, 0) for _s, _o, trace in traced)

    for name in ("core.transform", "core.compile", "memory.universe"):
        values[f"{name}_s"] = median(p["spans"].get(name, 0.0) for p in probes)
    values["memory.universe_faults"] = state.sizes.get("faults", 0)
    untraced_wall = median(seconds for seconds, _o, _t in untraced)
    traced_wall = median(seconds for seconds, _o, _t in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall

    if state.workload == "soak":
        values["engine.parallel.efficiency"] = untraced_wall / (
            state.sizes["jobs"] * median(seconds for seconds, _o in sharded)
        )
        for key in ("retries", "respawns", "degraded_chunks"):
            values[f"engine.parallel.{key}"] = median(
                o.extra["fault_tolerance"][key] for _s, o in sharded
            )
        values["soak.arrivals_s"] = span("soak.arrivals")
        values["soak.workload_s"] = span("soak.workload")
        values["soak.workload_calls"] = count("soak.workload")
        values["bist.session_step_s"] = span("bist.session_step")
        values["bist.ops"] = count("bist.session_step")
        values["soak.diagnosis_s"] = span("soak.diagnosis")
        values["soak.diagnoses"] = count("soak.diagnosis")
        values["soak.scheduler_self_s"] = median(
            trace.seconds["soak.scheduler"]
            - trace.seconds["soak.workload"]
            - trace.seconds["bist.session_step"]
            - trace.seconds["soak.diagnosis"]
            for _s, _o, trace in traced
        )
        reports = traced[0][1].records
        completed = sum(r["sessions_completed"] for r in reports)
        aborted = sum(r["sessions_aborted"] for r in reports)
        episodes = [e for r in reports for e in r["episodes"]]
        detections = sum(1 for e in episodes if e["detected_cycle"] is not None)
        values["soak.session_completion_ratio"] = completed / max(
            1, completed + aborted
        )
        values["soak.detection_ratio"] = detections / max(1, len(episodes))
        return values

    kernels = [name for name in PER_LAYER if name.startswith("engine.kernel.")]
    for name in kernels:
        layer = name.rsplit(".", 1)[0]
        values[name] = span(layer) if name.endswith(".s") else count(layer)
    # The program's own context counters; the span only gives seconds.
    builds, hits = (
        sum(column)
        for column in zip(*(record["contexts"] for record in traced[0][1].records))
    )
    values["engine.context.build_s"] = span("engine.context.build")
    values["engine.context.builds"] = builds
    values["engine.context.hits"] = hits
    values["engine.context.hit_ratio"] = hits / max(1, builds + hits)
    values["analysis.campaign.self_s"] = median(
        seconds
        - sum(v for k, v in trace.seconds.items() if k.startswith("engine."))
        for seconds, _o, trace in traced
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import checks
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from layers import LayerTrace

    probes = [
        probe(args.workload, args.seed, run=i == SETUP_PROBES - 1)
        for i in range(SETUP_PROBES)
    ]
    setup_times = []

    def time_setups():
        """Repeat set-ups for SETUP_SLICE seconds, at least once."""
        deadline = time.perf_counter() + SETUP_SLICE
        while True:
            started = time.perf_counter()
            state = workloads.setup(args.workload, args.seed)
            setup_times.append(time.perf_counter() - started)
            if time.perf_counter() >= deadline:
                return state

    state = time_setups()
    runner = Runner(workloads, checks, state, checks.load_goldens("full"))

    # Warm-up: lazy caches fill before timing.
    warm_up = runner.once()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = runner.loop(budget, between=time_setups) if warm_up else []
    traced = runner.loop(budget, LayerTrace) if args.trace and untraced else []
    sharded = []
    if args.workload == "soak" and untraced:
        # The timed soak passes run inline: the sharded wall clock swings
        # with the host's load.  Sharded passes are checked against them
        # and, with --trace, give the fabric's efficiency (the first one
        # in a process pays extra start-up, hence a median of three);
        # without --trace a traced inline pass is checked as well.
        for _ in range(3 if args.trace else 1):
            sharded.append(runner.once(jobs=state.sizes["jobs"]))
        if not args.trace:
            runner.once(LayerTrace())

    print("host: " + json.dumps(host_metadata(args, state), sort_keys=True))
    print("operation_s: " + json.dumps([round(s, 6) for s, _o, _t in untraced]))
    print(f"set-ups timed: {len(setup_times)}")
    for error in runner.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    ok = not runner.failed and untraced and (traced or not args.trace)
    if ok and args.trace:
        values = per_layer(state, untraced, traced, probes, sharded)
        units = PER_LAYER
    elif ok:
        values = end_to_end(state, untraced, setup_times, probes, runner)
        units = END_TO_END
    else:
        values, units = {}, {}
    metrics = {
        name: {"value": values[name], "unit": units[name][0]} for name in units
    }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(ok),
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
