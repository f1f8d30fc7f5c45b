"""Pluggable fault-simulation engines over a compiled march-program IR.

Layers (see ``README.md`` in this directory):

* :mod:`repro.engine.program` — the compiler: lower a symbolic
  :class:`~repro.core.march.MarchTest` into an immutable
  :class:`MarchProgram` (resolved masks, address-order descriptors,
  derived-write data-flow links), cached per ``(test, width)``;
* :mod:`repro.engine.base` — run artifacts (:class:`RunResult`,
  :class:`ReadRecord`), the :class:`Engine` interface and the backend
  registry;
* :mod:`repro.engine.reference` — exact op-by-op interpretation, the
  semantic baseline;
* :mod:`repro.engine.batch` — word-parallel campaign evaluation
  (bit-plane passes for single-cell faults, subset simulation for
  coupling and address-decoder faults, linear-MISR signature and
  pair-verdict aliasing batching, reference fallback otherwise);
* :mod:`repro.engine.parallel` — a supervised, lease-based map over
  worker processes (:class:`SupervisedRunner`) and its fault-campaign
  client (:class:`CampaignRunner`): chunks dispatched as retryable
  leases onto respawnable workers, merged back into the deterministic
  sequential order (with :mod:`repro.engine.retry` bounding recovery
  and :mod:`repro.engine.chaos` injecting deterministic worker faults
  for tests and benches).

Select a backend by name wherever an ``engine=`` parameter is accepted
(``run_campaign``, ``TransparentBist``, the ``coverage`` CLI command)::

    from repro.engine import get_engine

    engine = get_engine("batch")
    verdicts = engine.detect_batch(test, n_words, width, words, faults)
"""

from .base import (
    DEFAULT_ENGINE,
    Engine,
    ExecutionError,
    ReadRecord,
    ReadSink,
    RunResult,
    engine_names,
    get_engine,
    register_engine,
)
from .batch import BatchEngine
from .chaos import ChaosEvent, FaultPlan
from .context import CampaignContext, ContextCache, ContextStats
from .parallel import (
    CampaignRunner,
    ChunkExhaustedError,
    ChunkLease,
    SupervisedRunner,
    shard_bounds,
    work_key,
)
from .retry import FaultToleranceStats, RetryPolicy
from .program import (
    MarchProgram,
    ProgramElement,
    ProgramOp,
    SymbolicElement,
    SymbolicProgram,
    compile_march,
    compile_symbolic,
)
from .reference import ReferenceEngine, execute_program
from .verdicts import PlaneVerdicts

# Imported last: the symbolic backend reuses the analysis layer's mask
# tracking, and repro.analysis.coverage imports back from this package
# — by this point every name it needs is already bound.
from .symbolic import (
    CellSymbolicVerdict,
    SymbolicEngine,
    SymbolicVerdict,
    WordSymbolicVerdict,
)

__all__ = [
    "BatchEngine",
    "CampaignContext",
    "CampaignRunner",
    "CellSymbolicVerdict",
    "ChaosEvent",
    "ChunkExhaustedError",
    "ChunkLease",
    "ContextCache",
    "ContextStats",
    "DEFAULT_ENGINE",
    "Engine",
    "ExecutionError",
    "FaultPlan",
    "FaultToleranceStats",
    "MarchProgram",
    "PlaneVerdicts",
    "ProgramElement",
    "ProgramOp",
    "ReadRecord",
    "ReadSink",
    "ReferenceEngine",
    "RetryPolicy",
    "RunResult",
    "SupervisedRunner",
    "SymbolicElement",
    "SymbolicEngine",
    "SymbolicProgram",
    "SymbolicVerdict",
    "WordSymbolicVerdict",
    "compile_march",
    "compile_symbolic",
    "engine_names",
    "execute_program",
    "get_engine",
    "register_engine",
    "shard_bounds",
    "work_key",
]
