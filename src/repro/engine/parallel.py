"""Supervised, lease-based parallel execution.

A compare- or signature-oracle campaign slice is embarrassingly
parallel: every fault is simulated alone against the same immutable
``(test, content)`` context, so a per-class fault list can be split
into contiguous chunks and evaluated on separate processes with no
shared state.  Soak scenario sweeps are the same shape — each scenario
is a pure function of its spec.  This module provides

* :class:`SupervisedRunner` — a lazily built pool of supervised worker
  processes with one generic operation, :meth:`SupervisedRunner.map`:
  apply a module-level function ``fn(task, start, stop)`` to the
  ``[start, stop)`` chunks of one picklable task, surviving worker
  faults, and return the chunk results in order;
* :class:`CampaignRunner` — the fault-campaign client of that map:
  it evaluates fault classes through a flow (a frozen
  :class:`~repro.analysis.coverage.CompareFlow`,
  :class:`~repro.analysis.coverage.SignatureFlow` or
  :class:`~repro.analysis.coverage.AliasingFlow`, which is its own work
  unit), sharding large materialized classes and merging the packed
  verdicts deterministically.

Fault-tolerant execution fabric
-------------------------------

Every dispatched chunk is a :class:`ChunkLease` ``(task, label, start,
stop, attempt, deadline)`` tracked by the parent.  Workers are plain
``multiprocessing`` processes supervised over per-worker duplex pipes
— no shared queues a dying worker could corrupt — and the supervisor
loop detects three fault families:

* **crash** — the worker's pipe hits EOF (or the process stops being
  alive): its lease is unacked, the worker is respawned, the lease
  re-dispatched;
* **hang** — the lease's deadline (``RetryPolicy.timeout``) passes:
  the worker is terminated and respawned, the lease re-dispatched;
* **corruption / poison** — the chunk result has the wrong length, or
  the chunk raised in the worker: the attempt is discarded and the
  lease re-dispatched.

Re-dispatch is bounded by :class:`~repro.engine.retry.RetryPolicy`
(attempt count, per-attempt deadline, exponential backoff).  A lease
that exhausts its attempts **degrades gracefully**: the chunk runs
in-process (and when the pool cannot be built at all, every chunk
does) instead of aborting the run; pass ``degrade=False`` to make
exhaustion raise instead.  Everything the supervisor did is accounted
in :class:`~repro.engine.retry.FaultToleranceStats`
(``CampaignReport.fault_tolerance``, the CLI ``faults:`` line).

An injectable chaos layer (:mod:`repro.engine.chaos`) disturbs
dispatches deterministically — chunk M of label L crashes, hangs,
corrupts or raises — keyed by the fault-class name for campaigns and
by ``soak`` for scenario chunks, so tests, CI and the benchmark can
prove the recovery paths produce bit-identical reports.

Amortized campaign contexts
---------------------------

The expensive part of a campaign chunk is not the fault verdicts — it
is the *context*: packed bit-planes, MISR weight tables, fault-free
baselines.  That context depends only on ``(test, geometry, words,
mode, engine)``, so every worker process keeps a
:class:`~repro.engine.context.ContextCache` per engine for its
lifetime: the first chunk a worker sees for a key builds the context,
every later chunk — across classes, campaigns and oracles — replays
it (signature and aliasing flows share one ``"session"`` key on
purpose).  Chunk results carry the worker caches' counter deltas back
to the parent, where :meth:`CampaignRunner.take_stats` aggregates them
with the in-process cache so ``CampaignReport.context_stats`` can
prove the amortization.

Determinism contract
--------------------

``jobs=1`` and ``jobs=N`` produce bit-identical results — *with or
without faults in the fabric* — by construction:

* all randomness (initial memory content, fault-universe sampling,
  scenario seeds) is resolved *before* sharding;
* chunk boundaries depend only on ``(len(items), jobs)``, never on
  timing; because the enumerators emit faults in address order,
  contiguous chunks are address-range shards;
* results are merged back in lease order, recovering the exact
  sequential order regardless of completion order, retries or
  degradation;
* a chunk is a pure function of ``(fn, task, start, stop)`` — a
  retried attempt, a chunk evaluated on a respawned worker and a
  degraded in-process run all produce the same result bit for bit;
* cached contexts are pure precomputations of the flow — a warm
  replay and a cold build produce the same verdicts (only the cache
  *counters* differ between runs).

Fork-time snapshot
------------------

Fault classes are not shipped with their chunks.
:meth:`CampaignRunner.bind` records the flows and materialized fault
classes of a campaign (or of a whole mixed-mode run) as a read-only
snapshot that each worker inherits when it is forked, so a chunk
travels as a bare ``((flow key, class), start, stop)`` message.
Re-binding flows and classes the snapshot already holds (the same
class objects) is a no-op that keeps the pool and its warm context
caches; a bind that changes the snapshot closes the pool, and the next
sharded class forks fresh workers from the new one.  Each runner owns
its snapshot, so interleaved runners never see each other's
campaigns.  Without fork, campaigns run inline (``jobs`` reports 1);
soak scenario chunks carry their scenarios by value and still shard.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Callable, Sequence

from ..memory.injection import FaultClass
from .base import Engine, ExecutionError, engine_names, get_engine
from .chaos import FaultPlan, perform as perform_chaos
from .context import ContextCache, ContextStats
from .retry import FaultToleranceStats, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.faults import Fault
    from .verdicts import PlaneVerdicts


def work_key(flow) -> tuple:
    """Dispatch identity of a flow: its class plus its context key.
    Two flows may *share* a context (signature + aliasing share the
    session state) yet run different oracles, so bound-flow lookup
    must key on both."""
    return (type(flow).__name__, flow.context_key())


class ChunkExhaustedError(ExecutionError):
    """A chunk lease failed on every allowed attempt and degradation
    was disabled (``degrade=False`` / ``--no-degrade``)."""


@dataclass
class ChunkLease:
    """One dispatched (and re-dispatchable) chunk of a map.

    The parent tracks every lease until its result is acked; an
    unacked lease — worker crash, deadline passed, corrupt or raising
    chunk — is re-dispatched with bounded backoff, and chunk purity
    makes the retry bit-identical.  ``index`` is the merge position;
    ``label`` and ``chunk`` are what the chaos plan keys on (the fault
    class or ``soak``, and the chunk ordinal within that map).
    """

    index: int
    task: object
    label: str | None
    chunk: int
    start: int
    stop: int
    attempt: int = 0
    not_before: float = 0.0
    deadline: float | None = None
    dispatched_at: float = 0.0
    last_error: str | None = None

    @property
    def size(self) -> int:
        return self.stop - self.start

    def describe(self) -> str:
        return f"chunk {self.chunk} of {self.label} [{self.start}:{self.stop}]"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

# Per-process campaign-context caches, one per engine name, alive for
# the worker process's lifetime.  The parent process never touches
# these (its inline path uses the runner's own cache), so forked
# children start empty.
_WORKER_CACHES: dict[str, ContextCache] = {}

# The spawning runner's read-only snapshot, installed once at worker
# start (inherited without pickling under fork).
_WORKER_STATE: object = None


def _worker_cache(engine_name: str) -> ContextCache:
    cache = _WORKER_CACHES.get(engine_name)
    if cache is None:
        cache = ContextCache(get_engine(engine_name))
        _WORKER_CACHES[engine_name] = cache
    return cache


def _run_fault_chunk(task, start: int, stop: int):
    """Worker chunk of a fault campaign: evaluate ``[start, stop)`` of
    a bound class through a bound flow, against the worker's
    persistent context cache."""
    key, class_name = task
    engine_name, flows, classes = _WORKER_STATE
    flow = flows[key]
    cache = _worker_cache(engine_name)
    ctx = cache.get(flow)
    faults = classes[class_name][start:stop]
    return flow.run_class(cache.engine, faults, context=ctx.payload)


def _worker_main(conn, state) -> None:
    """Worker process loop: evaluate chunk leases and ship results (or
    failure descriptions) back over the worker's private pipe.
    Module-level so it pickles under both fork and spawn.  A terminal
    interrupt reaches the whole process group; the parent owns it and
    tears the pool down, so workers ignore SIGINT rather than each
    printing a traceback.  SIGTERM keeps its default action (a forked
    worker may inherit the CLI's handler): the pool's ``terminate()``
    must kill a worker outright."""
    global _WORKER_STATE
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_STATE = state
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            conn.close()
            return
        index, attempt, fn, task, start, stop, action = message
        try:
            perform_chaos(action)
            if action == "corrupt":
                # A well-formed result for the wrong number of items:
                # exactly what the parent's integrity check must catch.
                stop -= 1
            if action == "error":
                raise RuntimeError("chaos: injected chunk failure")
            result = fn(task, start, stop)
            stats = ContextStats()
            for cache in _WORKER_CACHES.values():
                stats.merge(cache.take_stats())
            reply = ("ok", index, attempt, result, stats.as_dict())
        except Exception as error:  # noqa: BLE001 - shipped to the parent
            reply = ("err", index, attempt, f"{type(error).__name__}: {error}")
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return  # parent is gone; nothing left to report to


def shard_bounds(n_faults: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` chunk bounds.

    Sizes differ by at most one, larger chunks first; depends only on
    the arguments, so the shard layout is reproducible.
    """
    n_chunks = max(1, min(n_chunks, n_faults)) if n_faults else 0
    bounds = []
    start = 0
    for i in range(n_chunks):
        size = n_faults // n_chunks + (1 if i < n_faults % n_chunks else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _pool_context():
    """Prefer fork (cheap, inherits the engine registry and the
    runner's snapshot); fall back to the platform default where fork
    does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _Worker:
    """Parent-side handle of one supervised worker process: its
    process, its private duplex pipe, and the lease it currently
    holds (at most one — the supervisor is the scheduler)."""

    process: object
    conn: object
    lease: "ChunkLease | None" = None


class _SupervisedPool:
    """A fixed-size set of supervised worker processes.

    One duplex pipe per worker and at most one outstanding lease per
    worker, so the lease→worker mapping is exact and worker loss maps
    to a precise set of unacked leases.  :meth:`run_leases` is the
    supervisor loop: dispatch, wait on the busy pipes, collect, reap
    crashed and hung workers, re-dispatch with backoff, degrade what
    exhausts.
    """

    # Idle poll cap: pipe EOF wakes the wait() immediately on crashes,
    # so this only bounds how late a liveness edge case is noticed.
    _POLL_SECONDS = 0.2

    def __init__(
        self,
        jobs: int,
        mp_context,
        state,
        stats: FaultToleranceStats,
        retry: RetryPolicy,
        chaos: "FaultPlan | None",
        degrade: bool,
    ) -> None:
        self._jobs = jobs
        self._context = mp_context
        self._state = state
        self._stats = stats
        self._retry = retry
        self._chaos = chaos
        self._degrade_ok = degrade
        self._workers: list[_Worker] = []
        # Per-map state of run_leases.
        self._fn: Callable | None = None
        self._run_inline: Callable | None = None
        self._results: dict[int, tuple] = {}
        self._pending: deque[ChunkLease] = deque()
        try:
            for _ in range(jobs):
                self._workers.append(self._spawn())
        except Exception:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn, self._state), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _respawn(self) -> None:
        """Replace a lost worker; a failed respawn shrinks the pool
        (counted, and survivable down to in-process degradation)."""
        if len(self._workers) >= self._jobs:
            return
        try:
            self._workers.append(self._spawn())
            self._stats.respawns += 1
        except Exception:
            self._stats.pool_failures += 1

    def _discard(self, worker: _Worker, *, terminate: bool) -> None:
        self._workers = [w for w in self._workers if w is not worker]
        try:
            worker.conn.close()
        except Exception:
            pass
        try:
            if terminate and worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn child
                worker.process.kill()
                worker.process.join(timeout=1.0)
        except Exception:
            pass

    def _replace(self, worker: _Worker) -> None:
        self._discard(worker, terminate=True)
        self._respawn()

    def close(self) -> None:
        """Stop every worker; never raises (teardown must not mask a
        campaign error or an interpreter-shutdown sequence)."""
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except Exception:
                pass
            self._discard(worker, terminate=True)
        self._workers = []

    @property
    def alive(self) -> bool:
        return bool(self._workers)

    def worker_pids(self) -> list[int]:
        """Live worker process ids."""
        return [w.process.pid for w in self._workers]

    # -- supervision ---------------------------------------------------
    def run_leases(
        self,
        fn: Callable,
        leases: "list[ChunkLease]",
        run_inline: "Callable[[ChunkLease], object]",
    ) -> list:
        """Execute every lease to acknowledgement and return
        ``[(result, stats_delta_or_None), ...]`` in lease order.

        Completion order never matters: results are keyed by lease
        index, so retries, respawns and degradations cannot perturb
        the deterministic merge.
        """
        self._fn, self._run_inline = fn, run_inline
        self._results = results = {}
        self._pending = pending = deque(leases)
        interrupted = False
        try:
            while len(results) < len(leases):
                now = time.monotonic()
                self._dispatch(now)
                if len(results) >= len(leases):
                    break
                busy = [w for w in self._workers if w.lease is not None]
                if not busy:
                    if not pending:  # pragma: no cover - accounting guard
                        raise RuntimeError(
                            "lease accounting error: leases outstanding "
                            "but neither pending nor dispatched"
                        )
                    # Every pending lease is backing off (or the pool
                    # is gone, which _dispatch degrades next pass).
                    wait = min(lease.not_before for lease in pending) - now
                    if wait > 0:
                        time.sleep(min(wait, self._POLL_SECONDS))
                    continue
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=self._poll_timeout(busy, now)
                )
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker)
                self._reap()
        except BaseException as exc:
            interrupted = not isinstance(exc, Exception)
            raise
        finally:
            # A raising run (degrade=False, or a genuine error
            # resurfacing from an in-process degraded chunk) must not
            # leave workers computing abandoned leases: their late
            # results could collide with a future dispatch's
            # (index, attempt) tag, so replace those workers outright
            # (an interrupt abandons the pool: no replacement is forked
            # only to be killed).  On the success path every lease was
            # acked and this is a no-op.
            for worker in list(self._workers):
                if worker.lease is not None:
                    worker.lease = None
                    if interrupted:
                        self._discard(worker, terminate=True)
                    else:
                        self._replace(worker)
            self._fn = self._run_inline = None
        return [results[lease.index] for lease in leases]

    def _dispatch(self, now: float) -> None:
        pending = self._pending
        while pending:
            if not self._workers:
                # No pool left at all: the remaining leases can only
                # run in-process (the jobs=1 degradation ladder rung).
                lease = pending.popleft()
                lease.last_error = lease.last_error or "worker pool lost"
                self._degrade(lease)
                continue
            idle = next((w for w in self._workers if w.lease is None), None)
            if idle is None:
                return
            lease = self._next_ready(now)
            if lease is None:
                return
            lease.attempt += 1
            action = (
                self._chaos.action_for(lease.label, lease.chunk, lease.attempt)
                if self._chaos is not None
                else None
            )
            if action is not None:
                self._stats.chaos_injected += 1
            lease.dispatched_at = now
            timeout = self._retry.timeout
            lease.deadline = now + timeout if timeout is not None else None
            try:
                idle.conn.send(
                    (
                        lease.index,
                        lease.attempt,
                        self._fn,
                        lease.task,
                        lease.start,
                        lease.stop,
                        action,
                    )
                )
            except (OSError, ValueError):
                # Died while idle: undo the attempt (it never ran),
                # replace the worker and let the loop re-dispatch.
                lease.attempt -= 1
                pending.appendleft(lease)
                self._stats.crashes += 1
                self._replace(idle)
                continue
            idle.lease = lease

    def _next_ready(self, now: float) -> "ChunkLease | None":
        pending = self._pending
        for _ in range(len(pending)):
            if pending[0].not_before <= now:
                return pending.popleft()
            pending.rotate(-1)
        return None

    def _poll_timeout(self, busy, now: float) -> float:
        timeout = self._POLL_SECONDS
        for lease in self._pending:
            timeout = min(timeout, lease.not_before - now)
        for worker in busy:
            if worker.lease is not None and worker.lease.deadline is not None:
                timeout = min(timeout, worker.lease.deadline - now)
        return max(0.0, timeout)

    def _collect(self, worker: _Worker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_death(worker)
            return
        kind, index, attempt = message[:3]
        lease = worker.lease
        if lease is None or lease.index != index or lease.attempt != attempt:
            return  # stale result from a superseded attempt; drop it
        worker.lease = None
        if kind == "err":
            self._stats.chunk_errors += 1
            self._retry_or_degrade(lease, message[3])
            return
        result, stats = message[3:]
        if len(result) != lease.size:
            self._stats.corrupt_chunks += 1
            self._retry_or_degrade(
                lease,
                f"corrupt chunk: {len(result)} results for {lease.size} items",
            )
            return
        self._results[lease.index] = (result, stats)

    def _reap(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            lease = worker.lease
            if not worker.process.is_alive():
                self._on_death(worker)
            elif (
                lease is not None
                and lease.deadline is not None
                and now > lease.deadline
            ):
                # Hung worker: only termination can reclaim the lease.
                self._stats.timeouts += 1
                worker.lease = None
                self._replace(worker)
                self._retry_or_degrade(
                    lease,
                    f"chunk deadline exceeded ({self._retry.timeout:.3f}s)",
                )

    def _on_death(self, worker: _Worker) -> None:
        self._stats.crashes += 1
        lease = worker.lease
        worker.lease = None
        self._discard(worker, terminate=False)
        self._respawn()
        if lease is not None:
            self._retry_or_degrade(
                lease, f"worker crashed (exit code {worker.process.exitcode})"
            )

    def _retry_or_degrade(self, lease: ChunkLease, reason: str) -> None:
        now = time.monotonic()
        if lease.dispatched_at:
            self._stats.lost_seconds += max(0.0, now - lease.dispatched_at)
        lease.last_error = reason
        if lease.attempt >= self._retry.max_attempts:
            self._degrade(lease)
            return
        self._stats.retries += 1
        lease.not_before = now + self._retry.backoff(lease.attempt)
        self._pending.append(lease)

    def _degrade(self, lease: ChunkLease) -> None:
        if not self._degrade_ok:
            raise ChunkExhaustedError(
                f"{lease.describe()} failed after {lease.attempt} "
                f"attempt(s) with degradation disabled: {lease.last_error} "
                "(drop --no-degrade / pass degrade=True to run exhausted "
                "chunks in-process, or raise --max-retries)"
            )
        self._stats.degraded_chunks += 1
        self._results[lease.index] = (self._run_inline(lease), None)


class SupervisedRunner:
    """A lazily built, supervised worker pool behind one generic map.

    :meth:`map` applies a module-level function to the chunks of a
    picklable task on up to ``jobs`` worker processes.  Dispatched
    chunks are supervised leases: worker crashes, hangs past
    ``retry.timeout``, corrupt results and raising chunks are retried
    up to ``retry.max_attempts`` times with exponential backoff on
    respawned workers, then degraded to in-process execution (set
    ``degrade=False`` to raise instead); the accounting is drained via
    :meth:`take_fault_stats`.  An optional *chaos* plan
    (:class:`~repro.engine.chaos.FaultPlan`) injects deterministic
    worker faults for tests and benchmarks.

    The pool is built on the first map with at least two chunks and
    reused until :meth:`close`; if it cannot be built at all, the
    runner latches to in-process execution for its remaining lifetime.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        retry: "RetryPolicy | None" = None,
        chaos: "FaultPlan | None" = None,
        degrade: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.degrade = degrade
        self._context = _pool_context()
        self._state: object = None
        self._pool: "_SupervisedPool | None" = None
        self._pool_broken = False
        self._fault_stats = FaultToleranceStats()
        self._worker_stats = ContextStats()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the pool (counters survive for a final drain).

        Idempotent and exception-safe: teardown failures — a pool
        whose workers already died, an interpreter mid-shutdown — are
        swallowed so ``close()`` in a ``finally`` (or ``__exit__``)
        never masks the error that got us here.
        """
        try:
            if self._pool is not None:
                self._pool.close()
        except Exception:
            pass
        finally:
            self._pool = None
            self._pool_broken = False

    def take_fault_stats(self) -> FaultToleranceStats:
        """Fault-tolerance counter increments since the previous call
        (retries, respawns, degradations, lost wall-clock)."""
        stats = self._fault_stats.copy()
        # Reset in place: the live pool keeps accounting into the same
        # object, so the drain must not swap it out from under it.
        self._fault_stats.reset()
        return stats

    # -- execution -----------------------------------------------------
    def map(
        self,
        fn: "Callable[[object, int, int], Sequence]",
        task: object,
        bounds: "Sequence[tuple[int, int]]",
        *,
        label: str | None = None,
        run_inline: "Callable[[int, int], Sequence] | None" = None,
    ) -> list:
        """``[fn(task, start, stop) for start, stop in bounds]``,
        evaluated on the supervised pool.

        *fn* must be a module-level function (it pickles by reference)
        returning one result per item of its range — the integrity
        check compares ``len()`` — and *task* must pickle under spawn.
        *run_inline* evaluates a range in-process for degraded chunks
        (default: *fn* itself); *label* keys the chaos plan.  With
        ``jobs=1`` or fewer than two chunks everything runs inline.
        """
        inline = run_inline or (lambda start, stop: fn(task, start, stop))
        pool = self._ensure_pool() if self.jobs > 1 and len(bounds) > 1 else None
        if pool is None:
            return [inline(start, stop) for start, stop in bounds]
        leases = [
            ChunkLease(index, task, label, index, start, stop)
            for index, (start, stop) in enumerate(bounds)
        ]
        parts = []
        for result, stats in pool.run_leases(
            fn, leases, lambda lease: inline(lease.start, lease.stop)
        ):
            parts.append(result)
            if stats is not None:
                self._worker_stats.merge(stats)
        return parts

    def _ensure_pool(self) -> "_SupervisedPool | None":
        if self._pool is not None:
            if self._pool.alive:
                return self._pool
            # All workers lost and respawns failed mid-run: retire the
            # dead pool and try to build a fresh one below.
            self._pool.close()
            self._pool = None
        if self._pool_broken:
            return None
        try:
            self._pool = _SupervisedPool(
                self.jobs,
                self._context,
                self._state,
                self._fault_stats,
                self.retry,
                self.chaos,
                self.degrade,
            )
        except Exception:
            # The fabric itself cannot come up (fork failures, fd
            # exhaustion): degrade this runner to inline execution for
            # its remaining lifetime instead of aborting the run.
            self._pool = None
            self._pool_broken = True
            self._fault_stats.pool_failures += 1
        return self._pool


class CampaignRunner(SupervisedRunner):
    """Evaluates fault classes through flows, sharding large ones.

    Materialized classes of at least ``min_chunk * 2`` faults that a
    prior :meth:`bind` snapshotted are split into contiguous chunks and
    mapped over the supervised pool; everything else — small classes,
    streaming :class:`~repro.memory.injection.FaultClass` descriptors
    (whose packed class kernels answer the whole class in a few passes
    over state each worker would have to rebuild), unbound classes —
    runs inline through the runner's own context cache.

    A runner is reusable: pass it to several ``run_campaign`` calls
    (e.g. one per oracle mode) via ``run_campaign(..., runner=...)``.
    Bind every mode's flow up front — ``runner.bind([f1, f2, f3],
    universe)`` — and the pool, its workers and their warm context
    caches survive across the whole mixed-mode run.
    """

    def __init__(
        self,
        engine: "str | Engine | None" = None,
        jobs: int = 1,
        *,
        chunks_per_job: int = 4,
        min_chunk: int = 64,
        max_contexts: int = 16,
        retry: "RetryPolicy | None" = None,
        chaos: "FaultPlan | None" = None,
        degrade: bool = True,
    ) -> None:
        super().__init__(jobs, retry=retry, chaos=chaos, degrade=degrade)
        self.engine = get_engine(engine)
        # Workers rehydrate the engine by name and inherit the bound
        # classes at fork: an unregistered engine instance, or a
        # platform without fork, runs inline instead.
        if (
            self.engine.name not in engine_names()
            or self._context.get_start_method() != "fork"
        ):
            self.jobs = 1
        self.chunks_per_job = chunks_per_job
        self.min_chunk = min_chunk
        self._cache = ContextCache(self.engine, max_contexts)
        self._state = (self.engine.name, {}, {})

    def close(self) -> None:
        """Shut down the pool, drop the snapshot and the runner's own
        cached contexts (counters survive for a final take_stats)."""
        super().close()
        self._state = (self.engine.name, {}, {})
        self._cache.clear()

    def take_stats(self) -> ContextStats:
        """Context-cache counter increments since the previous call:
        the runner's inline cache plus every worker delta returned with
        the chunks in between.  ``run_campaign`` calls this once per
        campaign, so shared runners report per-campaign stats."""
        stats = self._worker_stats
        self._worker_stats = ContextStats()
        return stats.merge(self._cache.take_stats())

    def bind(self, flows, universe: "dict[str, Sequence[Fault]]") -> None:
        """Snapshot a campaign's flow — or, given a sequence of flows,
        a whole mixed-mode run — and its materialized fault classes
        for the workers to inherit at fork.

        A no-op when the snapshot already holds every flow and the
        very same class objects (so a shared runner keeps its pool and
        warm caches across campaigns); otherwise the snapshot is
        replaced and the pool closed, to be re-forked lazily.
        Streaming class descriptors never shard and are not recorded.
        """
        if self.jobs == 1:
            return
        flows = list(flows) if isinstance(flows, (list, tuple)) else [flows]
        engine_name, bound_flows, bound_classes = self._state
        classes = {
            name: faults
            for name, faults in universe.items()
            if not isinstance(faults, FaultClass)
        }
        if all(work_key(flow) in bound_flows for flow in flows) and all(
            bound_classes.get(name) is faults for name, faults in classes.items()
        ):
            return
        self._state = (
            engine_name,
            {work_key(flow): flow for flow in flows},
            classes,
        )
        super().close()

    def detect_class_packed(
        self,
        flow,
        faults: "Sequence[Fault]",
        *,
        class_name: str | None = None,
    ) -> "PlaneVerdicts":
        """Packed verdict bitset for one fault class, bit-identical to
        ``flow.run_class(engine, faults)`` executed inline."""
        if (
            self.jobs == 1
            or isinstance(faults, FaultClass)
            or len(faults) < 2 * self.min_chunk
        ):
            return self._run_inline(flow, faults)
        _, bound_flows, bound_classes = self._state
        key = work_key(flow)
        if key not in bound_flows or bound_classes.get(class_name) is not faults:
            return self._run_inline(flow, faults)
        bounds = shard_bounds(
            len(faults),
            min(self.jobs * self.chunks_per_job, len(faults) // self.min_chunk),
        )
        parts = self.map(
            _run_fault_chunk,
            (key, class_name),
            bounds,
            label=class_name,
            run_inline=lambda start, stop: self._run_inline(
                flow, faults[start:stop]
            ),
        )
        return type(parts[0]).concat(parts)

    def _run_inline(self, flow, faults):
        ctx = self._cache.get(flow)
        return flow.run_class(self.engine, faults, context=ctx.payload)
