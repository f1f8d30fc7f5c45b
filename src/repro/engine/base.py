"""Engine abstraction: run artifacts, the backend interface, registry.

A *fault-simulation engine* executes compiled
:class:`~repro.engine.program.MarchProgram` IR against a memory model.
Every engine must reproduce the operational
semantics of the original interpreter bit-for-bit (see
``src/repro/engine/README.md`` for the exactness contract); engines are
free to take shortcuts only where the shortcut is provably equivalent.

Two run granularities exist:

* :meth:`Engine.run` — one march execution on one memory, producing a
  full :class:`RunResult` (read records, MISR sinks, early stop);
* :meth:`Engine.detect_batch` — a whole single-fault campaign slice:
  given the shared initial content and a list of faults, return the
  per-fault detection verdicts of the alias-free compare oracle.  The
  base implementation loops :meth:`Engine.run`; vectorized backends
  override it.  :meth:`Engine.detect_signature_batch` and
  :meth:`Engine.detect_aliasing_batch` are the same granularity under
  the two-phase MISR oracle — the aliasing variant reports ``(stream
  detected, signature detected)`` *pair verdicts* so campaigns can
  count aliasing events (stream-detected but signature-missed)
  directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.march import MarchTest
    from ..memory.faults import Fault
    from ..memory.model import Memory
    from .program import MarchProgram
    from .verdicts import PlaneVerdicts


class ExecutionError(RuntimeError):
    """Raised when a test is not executable on the given memory."""


@dataclass(frozen=True)
class ReadRecord:
    """One read observation during a march run."""

    op_index: int
    element_index: int
    addr: int
    raw: int
    expected: int
    mask_value: int

    @property
    def mismatch(self) -> bool:
        return self.raw != self.expected


@dataclass
class RunResult:
    """Outcome of executing a march test."""

    ops_executed: int = 0
    n_reads: int = 0
    n_mismatches: int = 0
    records: list[ReadRecord] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def detected(self) -> bool:
        """True when at least one read disagreed with the fault-free value."""
        return self.n_mismatches > 0


ReadSink = Callable[[ReadRecord], None]


class Engine:
    """A fault-simulation backend over compiled march programs."""

    name: str = "base"

    def run(
        self,
        test: "MarchTest | MarchProgram",
        memory: "Memory",
        *,
        snapshot: Sequence[int] | None = None,
        collect: bool = False,
        stop_on_mismatch: bool = False,
        read_sink: ReadSink | None = None,
        derive_writes: bool = True,
    ) -> RunResult:
        """Execute *test* on *memory* (semantics of the classic
        ``run_march``; see :func:`repro.bist.executor.run_march`)."""
        raise NotImplementedError

    def build_compare_context(
        self,
        test: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        derive_writes: bool = True,
    ) -> object:
        """Reusable compare-oracle campaign state for this engine, or
        ``None`` when the engine has nothing to amortize beyond the
        (already cached) compiled program.  What comes back is opaque:
        hand it to :meth:`detect_batch` via ``context=`` unchanged.
        The base/reference per-fault loop precomputes nothing."""
        return None

    def build_session_context(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
    ) -> object:
        """Reusable two-phase-session state (shared by the signature
        *and* aliasing oracles — both read the same session), or
        ``None`` when the engine has nothing to amortize."""
        return None

    def detect_batch(
        self,
        test: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        derive_writes: bool = True,
        context: object = None,
    ) -> list[bool]:
        """Compare-oracle detection verdict for every fault in *faults*.

        Each fault is simulated alone on a fresh memory loaded with
        *words* (the campaign's shared initial content); the verdict is
        ``RunResult.detected`` of a ``stop_on_mismatch`` run.
        ``context`` accepts a prebuilt :meth:`build_compare_context`
        payload; the per-fault base loop has none and ignores it.
        """
        from ..memory.injection import FaultyMemory

        program = self._program(test, width)
        out = []
        for fault in faults:
            memory = FaultyMemory(n_words, width, [fault])
            memory.load(words)
            out.append(
                self.run(
                    program,
                    memory,
                    stop_on_mismatch=True,
                    derive_writes=derive_writes,
                ).detected
            )
        return out

    def detect_signature_batch(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: object = None,
    ) -> list[bool]:
        """Signature-oracle detection verdict for every fault in *faults*.

        Each fault is simulated alone on a fresh memory loaded with
        *words*; a two-phase transparent BIST session (prediction phase
        feeding one MISR with pattern-corrected reads, test phase
        feeding a second MISR with raw reads — the semantics of
        :class:`repro.bist.controller.TransparentBist`) runs through
        this engine, and the verdict is whether the two signatures
        differ.  Aliasing is possible, exactly as in hardware.  The base
        implementation loops :meth:`run`; vectorized backends override.
        ``context`` accepts a prebuilt :meth:`build_session_context`
        payload.
        """
        return [
            signature
            for _stream, signature in self.detect_aliasing_batch(
                test,
                prediction,
                n_words,
                width,
                words,
                faults,
                misr_width=misr_width,
                misr_seed=misr_seed,
                context=context,
            )
        ]

    def detect_aliasing_batch(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: object = None,
    ) -> list[tuple[bool, bool]]:
        """``(stream_detected, signature_detected)`` pair verdict for
        every fault in *faults*.

        The session is the same two-phase transparent BIST run as
        :meth:`detect_signature_batch`; on top of the signature verdict,
        each pair records whether the ideal alias-free compare oracle
        saw the fault in the test phase's read stream (the semantics of
        :attr:`repro.bist.controller.BistOutcome.stream_detected`).  A
        fault with ``(True, False)`` *aliased*: the read stream was
        wrong but the signatures collided.  The base implementation
        loops :meth:`run`; vectorized backends override.
        """
        from ..bist.misr import Misr
        from ..memory.injection import FaultyMemory

        test_program = self._program(test, width)
        prediction_program = self._program(prediction, width)
        out = []
        for fault in faults:
            memory = FaultyMemory(n_words, width, [fault])
            memory.load(words)
            snapshot = memory.snapshot()
            predict_misr = Misr(misr_width, misr_seed)
            self.run(
                prediction_program,
                memory,
                snapshot=snapshot,
                read_sink=lambda rec: predict_misr.absorb(
                    rec.raw ^ rec.mask_value
                ),
            )
            test_misr = Misr(misr_width, misr_seed)
            test_run = self.run(
                test_program,
                memory,
                snapshot=snapshot,
                read_sink=lambda rec: test_misr.absorb(rec.raw),
            )
            out.append(
                (
                    test_run.n_mismatches > 0,
                    predict_misr.signature != test_misr.signature,
                )
            )
        return out

    def detect_class_batch(
        self,
        test: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        derive_writes: bool = True,
        context: object = None,
    ) -> "PlaneVerdicts":
        """Compare-oracle verdicts for a whole fault class, packed.

        Same oracle as :meth:`detect_batch`, but the result is a
        :class:`~repro.engine.verdicts.PlaneVerdicts` bitset —
        campaigns count, transport, and sample undetected faults from
        the packed form without building per-fault bool lists.  The
        base implementation packs the per-fault loop's output; the
        batch backend overrides it with one-pass class kernels over
        streaming :class:`~repro.memory.injection.FaultClass`
        descriptors.
        """
        from .verdicts import PlaneVerdicts

        return PlaneVerdicts.from_bools(
            self.detect_batch(
                test,
                n_words,
                width,
                words,
                faults,
                derive_writes=derive_writes,
                context=context,
            )
        )

    def detect_class_signature_batch(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: object = None,
    ) -> "PlaneVerdicts":
        """Signature-oracle verdicts for a whole fault class, packed
        (:meth:`detect_signature_batch` lifted to bitsets)."""
        from .verdicts import PlaneVerdicts

        return PlaneVerdicts.from_bools(
            self.detect_signature_batch(
                test,
                prediction,
                n_words,
                width,
                words,
                faults,
                misr_width=misr_width,
                misr_seed=misr_seed,
                context=context,
            )
        )

    def detect_class_aliasing_batch(
        self,
        test: "MarchTest | MarchProgram",
        prediction: "MarchTest | MarchProgram",
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: "Sequence[Fault]",
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: object = None,
    ) -> "PlaneVerdicts":
        """Aliasing-oracle pair verdicts for a whole fault class, packed
        (:meth:`detect_aliasing_batch` lifted to paired bitsets)."""
        from .verdicts import PlaneVerdicts

        return PlaneVerdicts.from_pairs(
            self.detect_aliasing_batch(
                test,
                prediction,
                n_words,
                width,
                words,
                faults,
                misr_width=misr_width,
                misr_seed=misr_seed,
                context=context,
            )
        )

    def detect_symbolic(
        self,
        test: "MarchTest",
        n_words: int,
        faults: "Sequence[Fault]",
        *,
        derive_writes: bool = True,
    ) -> list:
        """Width-generic verdict objects for every fault in *faults*.

        Only backends with a symbolic state model can answer this (the
        registered ``symbolic`` engine); concrete backends raise
        :class:`ExecutionError`.
        """
        raise ExecutionError(
            f"engine {self.name!r} evaluates faults at a concrete width "
            "and has no width-generic symbolic verdicts; use "
            "get_engine('symbolic')"
        )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _program(test: "MarchTest | MarchProgram", width: int) -> "MarchProgram":
        from .program import MarchProgram, compile_march

        if isinstance(test, MarchProgram):
            if test.width != width:
                raise ExecutionError(
                    f"program {test.name} compiled for width {test.width}, "
                    f"memory width is {width}"
                )
            return test
        return compile_march(test, width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Engine] = {}

DEFAULT_ENGINE = "reference"


def register_engine(engine: Engine) -> Engine:
    """Register *engine* under its ``name`` (last registration wins)."""
    _REGISTRY[engine.name] = engine
    return engine


def engine_names() -> tuple[str, ...]:
    """Names of all registered engines."""
    return tuple(sorted(_REGISTRY))


def get_engine(spec: "str | Engine | None" = None) -> Engine:
    """Resolve an engine: an instance passes through, a name looks up
    the registry, ``None`` yields the default (reference) engine."""
    if isinstance(spec, Engine):
        return spec
    name = DEFAULT_ENGINE if spec is None else spec
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(engine_names()) or "<none registered>"
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None
