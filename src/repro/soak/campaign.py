"""Soak scenario matrices through the supervised worker map.

Scenario sweeps are a plain client of
:meth:`~repro.engine.parallel.SupervisedRunner.map`: each batch of the
matrix is split into contiguous scenario slices, every slice runs in a
worker through the module-level :func:`_run_scenarios`, and the
reports merge back in matrix order — so soak sweeps are sharded,
lease-supervised (crash/hang/corrupt detection, bounded retries, chaos
injection keyed by ``soak``) and deterministic: ``jobs=N`` is
bit-identical to ``jobs=1``.  Scenarios travel by value, so sweeps
shard on fork and spawn platforms alike.

On top of that sits **checkpoint/resume**: the driver runs the matrix
in batches, writing a JSON checkpoint (scenario-name -> report, plus a
fingerprint of the full matrix) after each batch.  A killed run
re-invoked with the same checkpoint path skips every banked scenario
and produces a final report bit-identical to an undisturbed run —
scenarios are pure functions of their specs, so re-execution and
replay-from-checkpoint are indistinguishable.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..engine.parallel import SupervisedRunner, shard_bounds
from .scenario import SoakReport, SoakScenario, run_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.chaos import FaultPlan
    from ..engine.retry import FaultToleranceStats, RetryPolicy

DEFAULT_BATCH = 4


def _run_scenarios(
    scenarios: Sequence[SoakScenario], start: int, stop: int
) -> list[SoakReport]:
    """One scenario chunk (module-level, so workers receive it by
    reference)."""
    return [run_scenario(scenario) for scenario in scenarios[start:stop]]


def matrix_fingerprint(scenarios: Sequence[SoakScenario]) -> str:
    """A stable identity of the full matrix (checkpoint compatibility)."""
    payload = json.dumps(
        [scenario.as_dict() for scenario in scenarios], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class SoakCampaignReport:
    """A finished (or checkpoint-limited) soak sweep.

    ``reports`` is in matrix order and is the bit-identity surface the
    acceptance tests compare; ``seconds`` and ``fault_tolerance`` are
    run accounting, deliberately outside any equality assertion.
    """

    reports: list[SoakReport] = field(default_factory=list)
    completed: bool = True
    resumed_scenarios: int = 0
    seconds: float = 0.0
    fault_tolerance: "FaultToleranceStats | None" = None

    @property
    def scenarios(self) -> int:
        return len(self.reports)


class SoakCheckpoint:
    """JSON bank of finished scenario reports, keyed by scenario name."""

    def __init__(self, path: Path | str, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.reports: dict[str, SoakReport] = {}

    def load(self) -> int:
        """Read banked reports; returns how many were resumed.

        A checkpoint written for a different matrix is rejected loudly
        — resuming it would silently splice unrelated results — and so
        is a file that does not parse as a checkpoint: either way one
        :class:`ValueError` names the file and what is wrong with it.
        """
        if not self.path.exists():
            return 0
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise self._malformed(f"not readable JSON ({error})") from None
        if not isinstance(payload, dict):
            raise self._malformed(
                f"top level is a {type(payload).__name__}, expected an object"
            )
        if payload.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"checkpoint {self.path} was written for a different "
                "scenario matrix (fingerprint mismatch); delete it or "
                "point --checkpoint elsewhere"
            )
        reports = payload.get("reports")
        if not isinstance(reports, dict):
            found = "missing" if reports is None else f"a {type(reports).__name__}"
            raise self._malformed(f"'reports' is {found}, expected an object")
        self.reports = {}
        for name, report in reports.items():
            try:
                self.reports[name] = SoakReport.from_dict(report)
            except (KeyError, TypeError, ValueError, AttributeError) as error:
                detail = (
                    f"missing field {error}"
                    if isinstance(error, KeyError)
                    else f"{type(error).__name__}: {error}"
                )
                raise self._malformed(f"report {name!r}: {detail}") from None
        return len(self.reports)

    def _malformed(self, detail: str) -> ValueError:
        return ValueError(f"checkpoint {self.path} is malformed: {detail}")

    def bank(self, reports: Sequence[SoakReport]) -> None:
        for report in reports:
            self.reports[report.scenario] = report
        payload = {
            "fingerprint": self.fingerprint,
            "reports": {
                name: report.as_dict()
                for name, report in sorted(self.reports.items())
            },
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
            tmp.replace(self.path)
        except BaseException:  # an interrupt must not leave a half file
            tmp.unlink(missing_ok=True)
            raise


def run_soak_campaign(
    scenarios: Sequence[SoakScenario],
    *,
    jobs: int = 1,
    retry: "RetryPolicy | None" = None,
    chaos: "FaultPlan | None" = None,
    degrade: bool = True,
    checkpoint: Path | str | None = None,
    batch_size: int = DEFAULT_BATCH,
    max_batches: int | None = None,
) -> SoakCampaignReport:
    """Run a scenario matrix, sharded and supervised.

    ``checkpoint`` banks finished batches to a JSON file and resumes
    from it on re-invocation.  ``max_batches`` bounds how many *new*
    batches this invocation runs (a time-boxed soak slice: the
    checkpoint holds whatever finished; re-invoke to continue) —
    ``completed`` is False on a limited run that stopped early.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    scenarios = list(scenarios)
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a matrix")
    started = time.perf_counter()
    bank: SoakCheckpoint | None = None
    resumed = 0
    if checkpoint is not None:
        bank = SoakCheckpoint(checkpoint, matrix_fingerprint(scenarios))
        resumed = bank.load()

    done = dict(bank.reports) if bank is not None else {}
    pending = [s for s in scenarios if s.name not in done]
    batches = [
        tuple(pending[i : i + batch_size])
        for i in range(0, len(pending), batch_size)
    ]

    completed = True
    # One chunk per job: each scenario is a whole simulated uptime, so
    # even a short batch shards profitably.
    with SupervisedRunner(jobs, retry=retry, chaos=chaos, degrade=degrade) as runner:
        for ordinal, batch in enumerate(batches):
            if max_batches is not None and ordinal >= max_batches:
                completed = False
                break
            parts = runner.map(
                _run_scenarios,
                batch,
                shard_bounds(len(batch), jobs),
                label="soak",
            )
            reports = [report for part in parts for report in part]
            for report in reports:
                done[report.scenario] = report
            if bank is not None:
                bank.bank(reports)
        fault_stats = runner.take_fault_stats()

    reports = [done[name] for name in names if name in done]
    return SoakCampaignReport(
        reports=reports,
        completed=completed and len(reports) == len(scenarios),
        resumed_scenarios=resumed,
        seconds=time.perf_counter() - started,
        fault_tolerance=fault_stats,
    )
