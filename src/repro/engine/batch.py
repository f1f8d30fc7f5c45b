"""Batch engine: word-parallel single-fault campaign evaluation.

The campaign cost model of the interpretive path is
``n_faults x op_count x n_words`` memory operations, each a Python-level
``Memory.read``/``Memory.write`` with fault-list scans.  This backend
exploits two structural facts of the compare-oracle campaign
(one fault per run, shared initial content):

* **Fault confinement** — every classic fault involves one or two word
  addresses; reads anywhere else return fault-free data.  The fault-free
  mismatch behaviour is precomputed *once* per (program, content) as a
  packed bit-plane (the reused fault-free read stream), so each fault
  only needs its own cells evaluated.

* **Bit-plane parallelism** — word operations are bitwise, so the state
  of cell ``(addr, bit)`` under a single-cell fault hypothesis *at that
  cell* evolves independently of every other bit.  Packing all
  ``n_words * width`` hypotheses into one big Python integer evaluates
  an entire fault class (all SAFs, all TFs of one direction, all RDFs of
  one flavour) in a single O(op_count) pass of big-int arithmetic.

Per fault class (compare oracle / two-phase session oracles):

``SAF``
    compare: closed form: the stuck cell always reads back its forced
    value and the reference snapshot already contains it, so a relative
    read mismatches iff its mask selects the bit, an absolute read iff
    its mask disagrees with the stuck value.  Two width-bit
    OR-accumulators answer the whole class.  Session: one packed pass
    per stuck value.
``TF`` / ``RDF`` / ``DRDF``
    one packed-plane pass per variant (rising/falling, plain/deceptive),
    in both oracles; compare passes run over content lanes (one lane
    per distinct initial word value, :meth:`_CampaignContext._content`).
``CFst`` / ``CFid`` / ``CFin`` intra-word
    one packed pass per (aggressor bit, variant) with every word (in
    the compare oracle, every distinct word value) as a lane and every
    other bit of the word a victim, in both oracles.
``CFst`` / ``CFid`` / ``CFin`` inter-word
    one *pair-lane* pass in both oracles — every fault gets its own
    lane holding its aggressor and victim words, visited in address
    order.  A pass takes pairs of one bit offset (victim bit minus
    aggressor bit), so a same-bit class is one pass.
``AF``
    the decoder fault's support is the addressed word plus its aliased
    partner: accesses to the faulty address are lost, redirected or
    wired together exactly as in
    :class:`~repro.memory.injection.FaultyMemory`, and no other word is
    ever influenced.  AF-none is stateless word lanes (compare: one OR
    over the expected values of the reads), AF-other/AF-multi one
    pair-lane pass over (faulty word, other word) lanes, in both
    oracles.

Every fault sequence goes through those lanes.  A streaming
:class:`~repro.memory.injection.FaultClass` descriptor at the
campaign's geometry (compare SAF classes may also be narrower, and AF
classes only need the campaign's ``n_words``) takes its class kernel
whole.  Anything else — materialized lists, chunk slices, classes of
another geometry, cross-bit inter-word classes, single faults — is
grouped by lane shape: single-cell and intra-word faults are bit
lookups in their class's verdicts at the campaign's geometry, AF and
inter-word CF faults take pair lanes built from the sequence.  The
reference interpreter is the one fallback, for underivable programs,
ill-formed tests (a fault-free run that already mismatches) and fault
kinds no lane pass models (user-defined ones, AF-none floating to a
non-zero word).

The *signature* oracle (two-phase transparent BIST, MISR compare) rests
on the MISR's GF(2) linearity: the fault-free read streams of both
phases are recorded once per ``(programs, content)``, and every read
bit gets a precomputed signature weight, so a fault's signature is the
fault-free one XOR the weights of the read bits it corrupts.
Single-cell and intra-word classes find those bits lane-parallel: one
packed pass per fault hypothesis through both phases XOR-accumulates
``misr_width`` delta planes (``acc[m] ^= err & weight_plane[read][m]``,
with ``err`` the read's packed difference from the fault-free raw
plane), and the test-phase leg ORs the compare-style mismatch against
the session snapshot, which is the alias-free stream verdict of
:meth:`BatchEngine.detect_aliasing_batch`.  The signature verdict is
the pair's second half.  AF and inter-word CF faults run the
compare kernels' pair lanes through both phases, each read's
fault-free raw and weight values gathered into every lane's two words.

Single executions (:meth:`BatchEngine.run`) use the reference
interpreter unchanged: the batch acceleration is campaign-level.
"""

from __future__ import annotations

import functools
from array import array
from typing import Callable, NamedTuple, Sequence

from ..memory.faults import (
    AddressDecoderFault,
    CouplingFault,
    Fault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from ..memory.injection import (
    AddressFaultClass,
    FaultClass,
    InterWordCFClass,
    IntraWordCFClass,
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
)
from .base import Engine, ExecutionError, ReadSink, RunResult, register_engine
from .program import MarchProgram, pack_words, replicate_mask
from .reference import ReferenceEngine, execute_program
from .verdicts import PlaneVerdicts

# Streaming classes whose faults never leave one word, so the packed
# session kernels simulate every fault of the class in word lanes (AF
# and same-bit inter-word CF classes take pair lanes instead).
_LANE_CLASSES = (StuckAtClass, TransitionClass, ReadDisturbClass, IntraWordCFClass)
_CF_TYPES = (StateCouplingFault, IdempotentCouplingFault, InversionCouplingFault)


class BatchEngine(Engine):
    """Vectorized campaign backend over the compiled IR."""

    name = "batch"

    def run(
        self,
        test,
        memory,
        *,
        snapshot: Sequence[int] | None = None,
        collect: bool = False,
        stop_on_mismatch: bool = False,
        read_sink: ReadSink | None = None,
        derive_writes: bool = True,
    ) -> RunResult:
        program = self._program(test, memory.width)
        return execute_program(
            program,
            memory,
            snapshot=snapshot,
            collect=collect,
            stop_on_mismatch=stop_on_mismatch,
            read_sink=read_sink,
            derive_writes=derive_writes,
        )

    # -- campaign contexts (the amortizable per-campaign state) --------
    def build_compare_context(
        self,
        test,
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        derive_writes: bool = True,
    ) -> "_CampaignContext | None":
        """The compare oracle's whole reusable state — compiled
        program, masked words, packed planes and fault-free baseline
        (built lazily inside).  ``None`` for underivable programs,
        whose campaigns must take the per-fault interpreter path."""
        program = self._program(test, width)
        if derive_writes and not program.derivable:
            return None
        return _CampaignContext(program, n_words, words, derive_writes)

    def build_session_context(
        self,
        test,
        prediction,
        n_words: int,
        width: int,
        words: Sequence[int],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
    ) -> "_SignatureContext | None":
        """The two-phase session's reusable state — fault-free read
        streams of both phases, MISR weight/fold tables, fault-free
        signature gap and mismatch set.  One context serves both the
        signature and the pair-verdict aliasing oracle.  ``None`` for
        underivable programs (per-fault interpreter path)."""
        return self._session_context(
            test, prediction, n_words, width, words, misr_width, misr_seed,
            None,
        )

    @staticmethod
    def _check_context(context, kind, program, n_words, words) -> None:
        """Guard against a context built for a different campaign being
        replayed here — the cache keys prevent it, but a silent
        mismatch would mean silently wrong verdicts.  *program* is the
        context's primary program (the compare program, or the test
        phase of a session).  The very list the context was built from
        matches at once (the flows pass the same one every call);
        otherwise ``context.words`` is already masked, so an equal
        *words* matches without building a masked copy."""
        if not isinstance(context, kind):
            raise ExecutionError(
                f"prebuilt context has type {type(context).__name__}, "
                f"expected {kind.__name__}"
            )
        own_program = (
            context.program if kind is _CampaignContext else context.test
        )
        if (
            context.n_words != n_words
            or context.width != program.width
            or own_program != program
            or (
                context.source is not words
                and context.words != words
                and context.words != [w & program.word_mask for w in words]
            )
        ):
            raise ExecutionError(
                "prebuilt campaign context does not match this campaign's "
                "(program, geometry, words); rebuild it through the "
                "context cache"
            )

    def detect_batch(
        self,
        test,
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: Sequence[Fault],
        *,
        derive_writes: bool = True,
        context: "_CampaignContext | None" = None,
    ) -> list[bool]:
        return self.detect_class_batch(
            test, n_words, width, words, faults,
            derive_writes=derive_writes, context=context,
        ).tolist()

    def detect_class_batch(
        self,
        test,
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: Sequence[Fault],
        *,
        derive_writes: bool = True,
        context: "_CampaignContext | None" = None,
    ) -> PlaneVerdicts:
        """Compare-oracle verdicts of any fault sequence through the
        lanes (:meth:`_CampaignContext.detect_class`): a streaming
        :class:`~repro.memory.injection.FaultClass` at the campaign's
        geometry in one class kernel, anything else (lists, chunk
        slices, other geometries, single faults) in one lane pass per
        group of faults.  Underivable programs, ill-formed tests and
        unknown fault kinds take the reference engine."""
        program = self._program(test, width)
        verdicts = None
        # An underivable program may still detect (or raise) fault by
        # fault, depending on whether a mismatch stops the run before
        # the first underivable write executes; only the interpreter
        # reproduces that exactly.
        if program.derivable or not derive_writes:
            if context is None:
                ctx = _CampaignContext(program, n_words, words, derive_writes)
            else:
                self._check_context(
                    context, _CampaignContext, program, n_words, words
                )
                if context.derive != derive_writes:
                    raise ExecutionError(
                        "prebuilt campaign context was built for the other "
                        "derived-write datapath"
                    )
                ctx = context
            verdicts = ctx.detect_class(faults)
        if verdicts is None:
            verdicts = PlaneVerdicts.from_bools(
                _reference_verdicts(
                    "detect_batch", program, n_words, width, words, faults,
                    derive_writes=derive_writes,
                )
            )
        return verdicts

    def detect_aliasing_batch(
        self,
        test,
        prediction,
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: Sequence[Fault],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: "_SignatureContext | None" = None,
    ) -> list[tuple[bool, bool]]:
        return self.detect_class_aliasing_batch(
            test, prediction, n_words, width, words, faults,
            misr_width=misr_width, misr_seed=misr_seed, context=context,
        ).tolist()

    def detect_class_signature_batch(
        self,
        test,
        prediction,
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: Sequence[Fault],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: "_SignatureContext | None" = None,
    ) -> PlaneVerdicts:
        """Signature verdicts: the signature half of
        :meth:`detect_class_aliasing_batch`."""
        return self.detect_class_aliasing_batch(
            test, prediction, n_words, width, words, faults,
            misr_width=misr_width, misr_seed=misr_seed, context=context,
        ).signature

    def detect_class_aliasing_batch(
        self,
        test,
        prediction,
        n_words: int,
        width: int,
        words: Sequence[int],
        faults: Sequence[Fault],
        *,
        misr_width: int = 16,
        misr_seed: int = 0,
        context: "_SignatureContext | None" = None,
    ) -> PlaneVerdicts:
        """Pair verdicts of any fault sequence through the session lanes
        (:meth:`_SignatureContext.detect_class`).  Underivable programs
        (whose sessions raise at the first underivable write), ill-formed
        tests and unknown fault kinds take the reference engine."""
        ctx = self._session_context(
            test, prediction, n_words, width, words, misr_width, misr_seed,
            context,
        )
        verdicts = None if ctx is None else ctx.detect_class(faults)
        if verdicts is None:
            verdicts = PlaneVerdicts.from_pairs(
                _reference_verdicts(
                    "detect_aliasing_batch",
                    self._program(test, width),
                    self._program(prediction, width),
                    n_words, width, words, faults,
                    misr_width=misr_width, misr_seed=misr_seed,
                )
            )
        return verdicts

    def _session_context(
        self, test, prediction, n_words, width, words, misr_width, misr_seed,
        context,
    ) -> "_SignatureContext | None":
        """Resolve the session context for one signature/aliasing call:
        the validated prebuilt one, a fresh build, or ``None`` when the
        programs are underivable (per-fault interpreter path)."""
        test_program = self._program(test, width)
        prediction_program = self._program(prediction, width)
        if not (test_program.derivable and prediction_program.derivable):
            return None
        if context is not None:
            self._check_context(
                context, _SignatureContext, test_program, n_words, words
            )
            if (
                context.prediction != prediction_program
                or context.misr_width != misr_width
                or context.misr_seed != misr_seed
            ):
                raise ExecutionError(
                    "prebuilt session context was built for a different "
                    "prediction program or MISR configuration"
                )
            return context
        return _SignatureContext(
            prediction_program, test_program, n_words, words,
            misr_width, misr_seed,
        )


class _WordLanes:
    """The packed bit-plane layout shared by the compare and session
    contexts: the masked initial content, packed address-major (bit
    ``addr*width + bit``, on first use), plus cached per-lane masks.
    ``source`` is the caller's word list itself, which
    :meth:`BatchEngine._check_context` recognizes without a compare."""

    def __init__(self, n_words: int, width: int, words: Sequence[int]) -> None:
        if len(words) != n_words:
            raise ExecutionError("initial content length does not match memory size")
        self.n_words = n_words
        self.width = width
        word_mask = (1 << width) - 1
        self.source = words
        self.words = [w & word_mask for w in words]
        self._full = (1 << (n_words * width)) - 1
        self._lane_cache: dict[int, int] = {}
        self._fold_cache: dict[tuple[int, int, int], int] = {}

    @functools.cached_property
    def _packed(self) -> int:
        return pack_words(self.words, self.width)

    def _replicate(self, program: MarchProgram) -> list[list[int]]:
        """Every step mask of *program* replicated across all lanes."""
        n, w = self.n_words, self.width
        return [
            [replicate_mask(mask, n, w) for _, _, mask, _ in element.steps]
            for element in program.elements
        ]

    def _bit_lane(self, bit: int) -> int:
        """``1 << bit`` replicated across every word lane (cached)."""
        lane = self._lane_cache.get(bit)
        if lane is None:
            lane = replicate_mask(1 << bit, self.n_words, self.width)
            self._lane_cache[bit] = lane
        return lane

    def _cf_rules(self, cf_kind: str, variant: int, a_bit: int):
        """``(load, store)`` of an intra-word coupling fault (*cf_kind*
        parameter *variant*) from aggressor bit *a_bit* onto every other
        bit of every word lane: ``load(state)`` is the loaded content
        expressing the defect, ``store(state, value)`` the content after
        writing *value* (continuous CFst forcing, CFid/CFin triggered by
        aggressor transitions).  The aggressor's condition or transition
        is read at bit *a_bit* and spread over the lane's other bits;
        the aggressor itself is never written."""
        aggr = self._bit_lane(a_bit)
        # One lane's victim bits: times a lane's bit 0, a copy on each.
        victims = ((1 << self.width) - 1) ^ (1 << a_bit)
        rising, x, y = _cf_params(cf_kind, variant)

        def onto_victims(bits: int) -> int:
            return ((bits & aggr) >> a_bit) * victims

        def forced(state: int, value: int) -> int:
            cond = onto_victims(value if y else ~value)
            return (value | cond) if x else (value & ~cond)

        def triggered(state: int, value: int) -> int:
            trig = onto_victims((state ^ value) & (value if rising else ~value))
            if cf_kind == "CFid":
                return (value | trig) if x else (value & ~trig)
            return value ^ trig

        if cf_kind == "CFst":
            return (lambda state: forced(state, state)), forced
        return (lambda state: state), triggered

    def _lane_any(
        self, det: int, n_lanes: int, stride: int = 0, parity: bool = False
    ) -> int:
        """OR-fold (XOR-fold with *parity*) each *stride*-bit lane
        (default: *width*) of a packed plane with *n_lanes* lanes down
        to the lane's bit 0.  Every shifted term is masked to the low
        ``stride - shift`` bits of its lane so no bit crosses into the
        neighbouring lane (which matters for non-power-of-two widths);
        the terms a step folds in are disjoint, so the XOR fold counts
        every bit once."""
        stride = stride or self.width
        shift = 1
        while shift < stride:
            fold = self._fold_cache.get((n_lanes, stride, shift))
            if fold is None:
                fold = replicate_mask((1 << (stride - shift)) - 1, n_lanes, stride)
                self._fold_cache[(n_lanes, stride, shift)] = fold
            if parity:
                det ^= (det >> shift) & fold
            else:
                det |= (det >> shift) & fold
            shift <<= 1
        return det & self._lane_ones(n_lanes, stride)

    def _lane_ones(self, n_lanes: int, stride: int = 0) -> int:
        """Bit 0 of each of *n_lanes* packed *stride*-bit lanes (cached)."""
        stride = stride or self.width
        ones = self._fold_cache.get((n_lanes, stride, 0))
        if ones is None:
            ones = self._fold_cache[(n_lanes, stride, 0)] = replicate_mask(
                1, n_lanes, stride
            )
        return ones

    def _fault_list(self, faults: Sequence[Fault]) -> "list | None":
        """Verdicts of any fault sequence, in order, from one lane pass
        per group of :func:`_lane_groups`: single-cell and intra-word
        faults are bit lookups in their whole class's verdicts at this
        geometry (:meth:`_lookup`), AF-none faults in the AF-none word
        lanes, and AF-other/AF-multi and inter-word CF faults take pair
        lanes built from the sequence itself (or, when a list holds
        much of the AF class, lookups in its verdicts).  ``None`` when
        a fault has no lane semantics."""
        n = self.n_words
        groups = _lane_groups(faults, n, self.width)
        if groups is None:
            return None
        out = [None] * len(faults)
        for group, (positions, items) in groups.items():
            if isinstance(group, FaultClass):
                verdicts = self._lookup(group)
            elif group == "AF-none":
                verdicts = self._af_none()
            elif group[0] == "AF" and 2 * n * (n - 1) <= 16 * len(items):
                # A list holding at least 1/16 of the class's pair
                # faults (a chunk of a materialized universe) looks them
                # up in the class's lanes, computed once per context:
                # list lanes gather their words lane by lane at every
                # session read, which costs more per fault.
                verdicts = self._lookup(AddressFaultClass(n, wired_or=group[1]))
                items = [_af_index(fault, n) for fault in items]
            elif group[0] == "AF":
                lanes = _af_list_lanes(items, self._packed, self.width, group[1])
                verdicts = self._af_pairs(lanes)
                items = range(len(items))
            else:
                verdicts = self._inter_cf(group[1], items, (group[3],))
                items = range(len(items))
            for i, verdict in zip(positions, verdicts.select(items)):
                out[i] = verdict
        return out


class _CampaignContext(_WordLanes):
    """Shared per-(program, content) state of one campaign slice.

    Planes are computed lazily, at most once each, and reused for every
    fault of the matching class.

    The single-word passes — the fault-free baseline, TF, RDF/DRDF and
    the intra-word CF broadcasts — run over *content lanes*
    (:meth:`_content`): one lane per distinct initial word value, not
    one per address.  Under the compare oracle a fault inside one word
    sees only that word: every read elsewhere returns fault-free data,
    every write is a function of the program and the word's own reads,
    so the word's verdict is a function of (program, initial value).  A
    pass over lanes is lane-wise, so each address's verdict is its
    value's lane, which the verdicts reach through a slot→lane map.
    SAF (content-independent), AF and inter-word CF pair lanes, whose
    words interact, stay on address lanes.
    """

    def __init__(
        self,
        program: MarchProgram,
        n_words: int,
        words: Sequence[int],
        derive_writes: bool,
    ) -> None:
        super().__init__(n_words, program.width, words)
        self.program = program
        self.derive = derive_writes
        self._rep: list[list[int]] | None = None
        self._planes: dict[tuple, int] = {}
        self._saf: tuple[int, int] | None = None
        self._lookups: dict[FaultClass, PlaneVerdicts] = {}
        self._lanes: "tuple[_CampaignContext, array | None] | None" = None

    def _content(self) -> "tuple[_CampaignContext, array | None]":
        """``(lanes, map)``: a context over the sorted distinct initial
        words, and per address the index of its word's lane (``None``
        for a context whose words are already sorted and distinct,
        which is its own content lanes).  Built on first use."""
        if self._lanes is None:
            values = sorted(set(self.words))
            if values == self.words:
                self._lanes = (self, None)
                return self._lanes
            if values[-1] < 256:
                # Byte-sized words map through one table lookup.
                table = bytearray(256)
                for lane, value in enumerate(values):
                    table[value] = lane
                lane_of = array("B", bytes(self.words).translate(table))
            else:
                index = {value: lane for lane, value in enumerate(values)}
                code = next(
                    c for c in "BHIL" if len(values) <= 256 ** array(c).itemsize
                )
                lane_of = array(code, map(index.__getitem__, self.words))
            lanes = _CampaignContext(self.program, len(values), values, self.derive)
            self._lanes = (lanes, lane_of)
        return self._lanes

    def detect_class(self, faults: Sequence[Fault]) -> PlaneVerdicts | None:
        """Verdicts of any fault sequence through the lanes.

        A streaming class at this campaign's geometry (for AF classes,
        whose width is always 1, only ``n_words``; SAF classes may also
        be narrower) takes its class kernel: lane-per-cell passes for
        single-cell and intra-word classes, pair-lane passes for AF and
        same-bit inter-word CF classes.  Anything else goes through
        :meth:`_fault_list`.  ``None`` when the lanes cannot answer
        exactly: the fault-free baseline already mismatches (an
        ill-formed test), or a fault has no lane semantics.
        """
        if self._plane(None, False):
            return None
        if isinstance(faults, FaultClass):
            verdicts = self._kernel(faults)
            if verdicts is not None:
                return verdicts
        out = self._fault_list(faults)
        return None if out is None else PlaneVerdicts.from_bools(out)

    def _kernel(self, fault_class: FaultClass) -> PlaneVerdicts | None:
        """The class kernel answering *fault_class* whole, or ``None``
        when its geometry has none."""
        n, w = self.n_words, self.width
        exact = fault_class.n_words == n and fault_class.width == w
        if (
            isinstance(fault_class, StuckAtClass)
            and fault_class.n_words == n
            and fault_class.width <= w
        ):
            # The SAF verdict is address- and content-independent (see
            # _saf_planes), so a narrower class just replicates the
            # truncated accumulators at its own lane width.
            cw = fault_class.width
            saf0, saf1 = self._saf_planes()
            cmask = (1 << cw) - 1
            return PlaneVerdicts(
                len(fault_class),
                (
                    replicate_mask(saf0 & cmask, n, cw),
                    replicate_mask(saf1 & cmask, n, cw),
                ),
            )
        if exact and isinstance(fault_class, TransitionClass):
            # Fault 2*(addr*w + bit) + falling: slot addr, (variant, bit).
            return PlaneVerdicts(
                len(fault_class),
                (self._plane("TF", True), self._plane("TF", False)),
                tuple((falling, bit) for bit in range(w) for falling in (0, 1)),
                w,
                lanes=self._content()[1],
            )
        if exact and isinstance(fault_class, ReadDisturbClass):
            return PlaneVerdicts(
                len(fault_class),
                (self._plane("RDF", fault_class.deceptive),),
                tuple((0, bit) for bit in range(w)),
                w,
                lanes=self._content()[1],
            )
        if exact and isinstance(fault_class, IntraWordCFClass) and w > 1:
            return self._intra_cf_class(fault_class)
        if isinstance(fault_class, AddressFaultClass) and fault_class.n_words == n:
            return self._af_class(fault_class)
        if (
            exact
            and isinstance(fault_class, InterWordCFClass)
            and fault_class.same_bit_only
        ):
            return self._inter_cf_class(fault_class)
        return None

    def _lookup(self, fault_class: FaultClass) -> PlaneVerdicts:
        """Class-kernel verdicts of an exact-geometry class, cached for
        the bit lookups of :meth:`_fault_list`."""
        verdicts = self._lookups.get(fault_class)
        if verdicts is None:
            verdicts = self._lookups[fault_class] = self._kernel(fault_class)
        return verdicts

    def _intra_cf_class(self, fault_class: IntraWordCFClass) -> PlaneVerdicts:
        """All intra-word coupling faults of one kind: ``width *
        variants`` broadcast passes (:meth:`_packed_run`) over the
        content lanes answer the whole class for every address at once.
        Over a clean baseline a pass never mismatches at its aggressor
        bit, so its plane is handed over as it is
        (:func:`_intra_cf_places`)."""
        kind = fault_class.cf_kind
        lanes, lane_of = self._content()
        planes = [
            lanes._packed_run(kind, variant, a_bit)
            for a_bit in range(self.width)
            for variant in range(fault_class.variants)
        ]
        return PlaneVerdicts(
            len(fault_class), planes, _intra_cf_places(fault_class), self.width,
            lanes=lane_of,
        )

    def _af_class(self, fault_class: AddressFaultClass) -> PlaneVerdicts:
        """All address-decoder faults of the class: the AF-none word
        lanes (the first ``n`` faults), then one pair lane per AF-other
        and AF-multi fault (:func:`_af_lanes`)."""
        n, w = self.n_words, self.width
        verdicts = self._af_none().planes[0]
        if n > 1:
            lanes = _af_lanes(self._packed, n, w, fault_class.wired_or)
            verdicts |= self._pair_lane_run(lanes).planes[0] << (n * w)
        return PlaneVerdicts(len(fault_class), (verdicts,), slot_stride=w)

    def _af_none(self) -> PlaneVerdicts:
        """AF-none at every address, one word lane each.  It keeps no
        state: a read of the dead address returns the floating value 0,
        so the lane is detected iff some read there expects a non-zero
        word."""
        none = 0
        for element, rep_masks in zip(self.program.elements, self._replicated()):
            for (is_read, relative, _mask, _ok), mrep in zip(
                element.steps, rep_masks
            ):
                if is_read:
                    none |= (self._packed ^ mrep) if relative else mrep
        return PlaneVerdicts(
            self.n_words, (self._lane_any(none, self.n_words),),
            slot_stride=self.width,
        )

    def _af_pairs(self, lanes: _PairLanes) -> PlaneVerdicts:
        """AF-other/AF-multi pair lanes in one pass."""
        return self._pair_lane_run(lanes)

    def _inter_cf_class(self, fault_class: InterWordCFClass) -> PlaneVerdicts:
        """All same-bit inter-word coupling faults of one kind in one
        pair-lane pass, lane ``pair_pos * variants + variant``."""
        if not len(fault_class):
            return PlaneVerdicts(0, (0,))
        return self._inter_cf(
            fault_class.cf_kind, fault_class.cells, range(fault_class.variants)
        )

    def _inter_cf(
        self, cf_kind: str, cells: Sequence, variants: Sequence[int]
    ) -> PlaneVerdicts:
        """Every (cell pair, variant) of *cf_kind* as a pair lane
        (:func:`_inter_cf_lanes`), all pairs with one bit offset."""
        return self._pair_lane_run(
            _inter_cf_lanes(
                cf_kind, cells, variants, self.words, self.width,
                self.program.word_mask,
            )
        )

    def _pair_lane_run(self, lanes: _PairLanes) -> PlaneVerdicts:
        """One pass over the program in which every *w*-bit lane
        replays one two-word fault (:class:`_PairLanes`).

        Each element visits a lane's two words in address order (lo
        then hi ascending, hi then lo descending), as the interpreter
        does, accumulating every read's mismatch; a lane's verdict is
        their OR (detection is monotone), at the lane's bit 0."""
        fetch, store, lower = lanes.fetch, lanes.store, lanes.lower
        snap_a, snap_b = lanes.snap_a, lanes.snap_b
        upper = ((1 << (lanes.n_lanes * self.width)) - 1) ^ lower
        ones = self._lane_ones(lanes.n_lanes)
        derive = self.derive
        det = 0
        for element in self.program.elements:
            steps = [
                (is_read, relative, mask * ones)
                for is_read, relative, mask, _ok in element.steps
            ]
            for sel in (upper, lower) if element.descending else (lower, upper):
                snap = (snap_a & sel) | (snap_b & ~sel)
                last_raw = 0
                last_mask = 0
                for is_read, relative, mrep in steps:
                    if is_read:
                        raw = fetch(sel)
                        det |= raw ^ ((snap ^ mrep) if relative else mrep)
                        last_raw, last_mask = raw, mrep
                    else:
                        if relative and derive:
                            value = last_raw ^ last_mask ^ mrep
                        elif relative:
                            value = snap ^ mrep
                        else:
                            value = mrep
                        store(sel, value)
        return PlaneVerdicts(
            lanes.n_lanes,
            (self._lane_any(det, lanes.n_lanes),),
            slot_stride=self.width,
        )

    # -- packed bit-plane passes ---------------------------------------
    def _replicated(self) -> list[list[int]]:
        if self._rep is None:
            self._rep = self._replicate(self.program)
        return self._rep

    def _packed_run(self, kind: str | None, variant, a_bit: int = 0) -> int:
        """One word-parallel pass over the program.

        ``kind`` selects the per-column fault hypothesis: ``None`` is
        the fault-free baseline, ``"TF"`` a transition fault at every
        column (``variant`` = rising), ``"RDF"`` a read-disturb fault at
        every column (``variant`` = deceptive), ``"CFst"``/``"CFid"``/
        ``"CFin"`` the coupling fault (parameter ``variant``) from bit
        *a_bit* of every word onto each other bit of the word
        (:meth:`_cf_rules`).  Runs over this context's own words (the
        content lanes run it over the distinct values).
        Returns the accumulated mismatch plane for the hypothesised
        cell itself; it keeps accumulating after a first mismatch, which
        is harmless because detection is monotone.
        """
        snap = self._packed
        full = self._full
        det = 0
        derive = self.derive
        is_tf = kind == "TF"
        is_rdf = kind == "RDF"
        is_cf = kind in ("CFst", "CFid", "CFin")
        if is_cf:
            load, store = self._cf_rules(kind, variant, a_bit)
            snap = load(snap)  # loaded content expresses the defect
        state = snap
        for element, rep_masks in zip(self.program.elements, self._replicated()):
            last_raw = 0
            last_mask = 0
            for (is_read, relative, _mask, _ok), mrep in zip(
                element.steps, rep_masks
            ):
                if is_read:
                    if is_rdf:
                        raw = state if variant else state ^ full
                        state ^= full
                    else:
                        raw = state
                    det |= raw ^ ((snap ^ mrep) if relative else mrep)
                    last_raw, last_mask = raw, mrep
                else:
                    if relative and derive:
                        value = last_raw ^ last_mask ^ mrep
                    elif relative:
                        value = snap ^ mrep
                    else:
                        value = mrep
                    if is_tf:
                        state = (state & value) if variant else (state | value)
                    elif is_cf:
                        state = store(state, value)
                    else:
                        state = value
        return det

    def _plane(self, kind: str | None, variant) -> int:
        """:meth:`_packed_run` of a single-cell hypothesis over the
        content lanes (``None``: the fault-free baseline, whose mismatch
        plane is zero for every well-formed march test), computed
        once."""
        key = (kind, variant)
        plane = self._planes.get(key)
        if plane is None:
            lanes, _ = self._content()
            plane = self._planes[key] = lanes._packed_run(kind, variant)
        return plane

    def _saf_planes(self) -> tuple[int, int]:
        """``(detects_saf0, detects_saf1)`` width-bit accumulators.

        The stuck cell reads back its forced value and the reference
        snapshot (taken after static enforcement) already holds it, so
        relative reads mismatch exactly where their mask selects the
        bit, absolute reads exactly where their mask disagrees with the
        stuck value — independent of address and initial content.
        """
        if self._saf is None:
            det0 = det1 = 0
            wm = self.program.word_mask
            for element in self.program.elements:
                for is_read, relative, mask, _ok in element.steps:
                    if not is_read:
                        continue
                    if relative:
                        det0 |= mask
                        det1 |= mask
                    else:
                        det0 |= mask
                        det1 |= ~mask & wm
            self._saf = (det0, det1)
        return self._saf

# ---------------------------------------------------------------------------
# Batched signature oracle
# ---------------------------------------------------------------------------


class _SignatureContext(_WordLanes):
    """Shared per-(programs, content) state of one signature-mode slice.

    The two-phase session's verdict is ``predicted_signature !=
    test_signature``.  Both signatures are GF(2)-linear in the absorbed
    read streams, and a confined fault only perturbs reads of its
    support words, so:

    ``sig_faulty == sig_fault_free XOR delta`` where ``delta`` XORs the
    precomputed linear weight of every read *bit* the fault corrupts
    (:func:`repro.bist.misr.absorb_weight_table`).  The fault-free
    streams and weights are computed once.

    Single-cell, intra-word, same-bit inter-word CF and AF classes are
    answered a whole class at a time (:meth:`detect_class`): packed
    word-lane or pair-lane passes through both phases, XOR-accumulating
    per-read weights over the corrupted read bits.  Any other fault
    sequence takes the same passes group by group
    (:meth:`_fault_list`).  The test-phase leg of every pass ORs the
    compare-style mismatch against the session snapshot, which is the
    *aliasing* oracle's stream verdict, so a pair costs no second pass.
    """

    def __init__(
        self,
        prediction: MarchProgram,
        test: MarchProgram,
        n_words: int,
        words: Sequence[int],
        misr_width: int,
        misr_seed: int,
    ) -> None:
        from ..bist.misr import (
            absorb_weight_table,
            fold_table,
            signature_of_stream,
        )
        from ..memory.model import Memory

        super().__init__(n_words, test.width, words)
        self.prediction = prediction
        self.test = test
        self.misr_width = misr_width
        self.misr_seed = misr_seed
        self._schedule: "tuple[tuple, tuple] | None" = None
        self._class_verdicts: dict[FaultClass, PlaneVerdicts] = {}

        # Fault-free read streams of both phases, run back to back on
        # one memory (a read-only prediction leaves it untouched, but a
        # user-supplied prediction with writes carries state over — the
        # controller does the same).
        memory = Memory(n_words, self.width)
        memory.load(self.words)
        prediction_raw: list[int] = []
        prediction_absorbed: list[int] = []

        def _sink_prediction(rec) -> None:
            prediction_raw.append(rec.raw)
            prediction_absorbed.append(rec.raw ^ rec.mask_value)

        execute_program(
            prediction, memory, snapshot=self.words, read_sink=_sink_prediction
        )
        test_raw: list[int] = []
        test_mismatch_addrs: set[int] = set()

        def _sink_test(rec) -> None:
            test_raw.append(rec.raw)
            if rec.mismatch:
                test_mismatch_addrs.add(rec.addr)

        execute_program(
            test, memory, snapshot=self.words, read_sink=_sink_test
        )
        self.prediction_raw = prediction_raw
        self.test_raw = test_raw
        # Addresses whose fault-free test-phase reads already mismatch
        # their expected values (empty for well-formed tests).  A fault
        # cannot influence reads outside its support, so these are its
        # stream verdict's contribution from everywhere else.
        self.test_mismatch_addrs = frozenset(test_mismatch_addrs)
        prediction_sig, n_pred = signature_of_stream(
            prediction_absorbed, width=misr_width, seed=misr_seed
        )
        test_sig, n_test = signature_of_stream(
            test_raw, width=misr_width, seed=misr_seed
        )
        # A fault is detected iff its two signature deltas differ by
        # something other than the fault-free signature gap (zero for a
        # well-formed transparent pair).
        self.fault_free_gap = prediction_sig ^ test_sig
        self.prediction_weights = absorb_weight_table(n_pred, misr_width)
        self.test_weights = absorb_weight_table(n_test, misr_width)
        self.fold_positions = fold_table(self.width, misr_width)

    # -- class-level dispatch ------------------------------------------
    def has_class_kernel(self, faults: Sequence[Fault]) -> bool:
        """True when a class kernel answers *faults* whole: a non-empty
        streaming single-cell, intra-word or same-bit inter-word CF
        class at this session's geometry, or AF class at its
        ``n_words``."""
        if not isinstance(faults, FaultClass) or not len(faults):
            return False
        if isinstance(faults, AddressFaultClass):
            return faults.n_words == self.n_words
        return (faults.n_words, faults.width) == (self.n_words, self.width) and (
            isinstance(faults, _LANE_CLASSES)
            or (isinstance(faults, InterWordCFClass) and faults.same_bit_only)
        )

    def detect_class(self, faults: Sequence[Fault]) -> PlaneVerdicts | None:
        """``(stream, signature)`` pair verdicts of any fault sequence:
        a class :meth:`has_class_kernel` accepts in its class kernel,
        anything else through :meth:`_fault_list`.  ``None`` when the
        lanes cannot answer exactly: the fault-free test stream already
        mismatches (an ill-formed test), so every fault's stream
        verdict depends on words outside its lane, or a fault has no
        lane semantics."""
        if self.test_mismatch_addrs:
            return None
        if self.has_class_kernel(faults):
            return self._lookup(faults)
        out = self._fault_list(faults)
        return None if out is None else PlaneVerdicts.from_pairs(out)

    def _lookup(self, fault_class: FaultClass) -> PlaneVerdicts:
        """Class-kernel verdicts of a class :meth:`has_class_kernel`
        accepts, cached per class, so the signature and aliasing oracles
        of one session (and list lookups) share one evaluation."""
        verdicts = self._class_verdicts.get(fault_class)
        if verdicts is None:
            if isinstance(fault_class, IntraWordCFClass):
                verdicts = self._intra_cf_class(fault_class)
            elif isinstance(fault_class, AddressFaultClass):
                verdicts = self._af_class(fault_class)
            elif isinstance(fault_class, InterWordCFClass):
                verdicts = self._inter_cf_class(fault_class)
            else:
                verdicts = self._single_cell_class(fault_class)
            self._class_verdicts[fault_class] = verdicts
        return verdicts

    def _single_cell_class(self, fault_class: FaultClass) -> PlaneVerdicts:
        """Every cell is its own fault: one pass per variant, with the
        verdict of cell ``(addr, bit)`` at bit ``addr*width + bit``."""
        if isinstance(fault_class, StuckAtClass):
            kind, variants = "SAF", (0, 1)
        elif isinstance(fault_class, TransitionClass):
            kind, variants = "TF", (True, False)
        else:
            kind, variants = "RDF", (fault_class.deceptive,)
        stream = []
        signature = []
        for variant in variants:
            det, acc = self._packed_session(kind, variant)
            stream.append(det)
            signature.append(self._gap_differs(acc, self._full))
        return PlaneVerdicts(len(fault_class), signature, streams=stream)

    def _intra_cf_class(self, fault_class: IntraWordCFClass) -> PlaneVerdicts:
        """One broadcast pass per (aggressor bit, variant), as in the
        compare kernel.  A coupling fault only changes its victim cell
        and the kernel applies only over a clean fault-free stream, so
        every victim bit is its own hypothesis, observed like a single
        cell (:meth:`_single_cell_class`).  The aggressor bit never
        differs from the fault-free run, so only the signature plane,
        whose gap test would set it, is cut to the victim bits."""
        kind = fault_class.cf_kind
        stream = []
        signature = []
        for a_bit in range(self.width):
            victims = self._full ^ self._bit_lane(a_bit)
            for variant in range(fault_class.variants):
                det, acc = self._packed_session(kind, variant, a_bit)
                stream.append(det)
                signature.append(self._gap_differs(acc, victims))
        return PlaneVerdicts(
            len(fault_class), signature, _intra_cf_places(fault_class),
            self.width, stream,
        )

    def _af_class(self, fault_class: AddressFaultClass) -> PlaneVerdicts:
        """The AF-none word lanes (the first ``n`` faults), then the
        AF-other/AF-multi pair lanes (:func:`_af_lanes`)."""
        n, w = self.n_words, self.width
        none = self._af_none()
        pairs = self._af_pairs(_af_lanes(self._packed, n, w, fault_class.wired_or))
        return PlaneVerdicts(
            len(fault_class),
            (none.planes[0] | (pairs.planes[0] << (n * w)),),
            None,
            w,
            (none.streams[0] | (pairs.streams[0] << (n * w)),),
        )

    def _af_none(self) -> PlaneVerdicts:
        """AF-none at every address: stateless word lanes.  Every read of
        the dead address returns 0, so its error is the fault-free raw
        word and the weight planes apply as they are.  AF errors span
        the word, so a lane's signature delta bit *m* is the parity (XOR
        fold) of its ``acc[m]`` bits."""
        n, w = self.n_words, self.width
        det = 0
        acc = [0] * self.misr_width
        for check, phase in zip((False, True), self._session_schedule()):
            for steps in phase:
                for is_read, relative, mrep, fault_free, weights in steps:
                    if not is_read:
                        continue
                    if check:
                        det |= (self._packed ^ mrep) if relative else mrep
                    acc = [a ^ (fault_free & wt) for a, wt in zip(acc, weights)]
        return PlaneVerdicts(
            n, (self._parity_gap_differs(acc, n, w),), None, w,
            (self._lane_any(det, n),),
        )

    def _af_pairs(self, lanes: _PairLanes) -> PlaneVerdicts:
        """AF-other/AF-multi pair lanes through both phases, each read's
        fault-free raw and weight planes gathered into the lanes' A and
        B words; lane signature deltas are parities as in
        :meth:`_af_none`."""
        w = self.width
        det, reads = self._pair_lane_session(lanes, w)
        gather = lanes.gather
        acc = [0] * self.misr_width
        reads = iter(reads)
        for phase in self._session_schedule():
            for steps in phase:
                for is_read, _relative, _mrep, fault_free, weights in steps:
                    if not is_read:
                        continue
                    raw_a, raw_b = next(reads)
                    ff_a, ff_b = gather(fault_free)
                    err_a, err_b = raw_a ^ ff_a, raw_b ^ ff_b
                    if err_a | err_b:
                        for m, plane in enumerate(weights):
                            w_a, w_b = gather(plane)
                            acc[m] ^= (err_a & w_a) ^ (err_b & w_b)
        return PlaneVerdicts(
            lanes.n_lanes,
            (self._parity_gap_differs(acc, lanes.n_lanes, w),),
            None,
            w,
            (self._lane_any(det, lanes.n_lanes),),
        )

    def _inter_cf_class(self, fault_class: InterWordCFClass) -> PlaneVerdicts:
        """All same-bit inter-word coupling faults of one kind, lane
        ``pair_pos * variants + variant``."""
        return self._inter_cf(
            fault_class.cf_kind, fault_class.cells, range(fault_class.variants)
        )

    def _inter_cf(
        self, cf_kind: str, cells: Sequence, variants: Sequence[int]
    ) -> PlaneVerdicts:
        """Every (cell pair, variant) of *cf_kind* as a pair lane
        (:func:`_inter_cf_lanes`), all pairs with one bit offset,
        through both phases at lane stride ``S = max(width + 1,
        misr_width)``.

        A coupling fault only corrupts its victim bit, and every store
        to the victim word is absolute or derived from a read of that
        word, so the victim word never differs from the fault-free run
        elsewhere: a lane's error at a victim visit is at most that
        bit.  ``hit`` (``err + word_mask`` carries into bit *width*)
        flags it at the lane's bit 0, and ``acc`` XORs in that read
        bit's whole *misr_width*-bit weight row, gathered per pair from
        the victim address's stream index ``base_e + position(v) *
        reads_e + j`` (the :func:`_read_slices` order).  Each lane of
        ``acc`` is then its signature delta."""
        w, mw, n = self.width, self.misr_width, self.n_words
        stride = max(w + 1, mw)
        lanes = _inter_cf_lanes(
            cf_kind, cells, variants, self.words, stride, self.test.word_mask
        )
        det, reads = self._pair_lane_session(lanes, stride)
        ones = self._lane_ones(lanes.n_lanes, stride)
        carry = ones * self.test.word_mask
        row_mask = (1 << mw) - 1
        victims = [v.addr for _, v in cells]
        folds = [self.fold_positions[v.bit] for _, v in cells]
        acc = 0
        reads = iter(reads)
        for program, raw, weights in (
            (self.prediction, self.prediction_raw, self.prediction_weights),
            (self.test, self.test_raw, self.test_weights),
        ):
            for ks in _read_slices(_layout(program), n):
                _, raw_b = next(reads)
                kv = [ks[v] for v in victims]
                err = raw_b ^ lanes.gather([raw[k] for k in kv])
                if err:
                    hit = ((err + carry) >> w) & ones
                    rows = lanes.gather([weights[k][f] for k, f in zip(kv, folds)])
                    acc ^= (hit * row_mask) & rows
        signature = self._lane_any(
            acc ^ (ones * self.fault_free_gap), lanes.n_lanes, stride
        )
        stream = self._lane_any(det, lanes.n_lanes, stride)
        return PlaneVerdicts(lanes.n_lanes, (signature,), None, stride, (stream,))

    def _pair_lane_session(
        self, lanes: _PairLanes, stride: int
    ) -> tuple[int, list[tuple[int, int]]]:
        """Both session phases over pair lanes of *stride* bits, state
        carried from prediction into test, each element visiting a
        lane's two words in address order (as
        :meth:`_CampaignContext._pair_lane_run`).

        Returns ``(det, reads)``: ``det`` marks test-phase reads that
        disagree with the session snapshot (the stream verdict), and
        ``reads`` holds, per read of both phases in program order, the
        raw planes its A visits and its B visits returned."""
        fetch, store, lower = lanes.fetch, lanes.store, lanes.lower
        snap_a, snap_b = lanes.snap_a, lanes.snap_b
        upper = ((1 << (lanes.n_lanes * stride)) - 1) ^ lower
        ones = self._lane_ones(lanes.n_lanes, stride)
        det = 0
        reads = []
        # The phase is picked by position: a test run as its own
        # prediction is the very same program object.
        for check, program in ((False, self.prediction), (True, self.test)):
            for element in program.elements:
                steps = [
                    (is_read, relative, mask * ones)
                    for is_read, relative, mask, _ok in element.steps
                ]
                first, second = (upper, lower) if element.descending else (lower, upper)
                raws = []
                for sel in (first, second):
                    snap = (snap_a & sel) | (snap_b & ~sel)
                    last_raw = 0
                    last_mask = 0
                    for is_read, relative, mrep in steps:
                        if is_read:
                            raw = fetch(sel)
                            raws.append(raw)
                            if check:
                                det |= raw ^ ((snap ^ mrep) if relative else mrep)
                            last_raw, last_mask = raw, mrep
                        elif relative:
                            store(sel, last_raw ^ last_mask ^ mrep)
                        else:
                            store(sel, mrep)
                n_reads = element.n_reads
                for one, two in zip(raws[:n_reads], raws[n_reads:]):
                    reads.append(
                        ((one & first) | (two & second), (one & second) | (two & first))
                    )
        return det, reads

    def _parity_gap_differs(self, acc: Sequence[int], n_lanes: int, stride: int) -> int:
        """:meth:`_gap_differs` of delta planes whose lane delta bit is
        the parity of the lane's bits."""
        return self._gap_differs(
            [self._lane_any(a, n_lanes, stride, parity=True) for a in acc],
            self._lane_ones(n_lanes, stride),
        )

    def _gap_differs(self, deltas: Sequence[int], ones: int) -> int:
        """Lanes whose signature delta (bit *m* of every lane in
        ``deltas[m]``) differs from the fault-free signature gap; *ones*
        sets every lane's verdict bit."""
        gap = self.fault_free_gap
        out = 0
        for m, delta in enumerate(deltas):
            out |= (delta ^ ones) if (gap >> m) & 1 else delta
        return out

    def _packed_session(
        self, kind: str, variant, a_bit: int = 0
    ) -> tuple[int, list[int]]:
        """One word-parallel pass through both session phases
        hypothesising the same fault in every lane at once, with the
        fault semantics of the compare kernels (``SAF``: variant = stuck
        value, ``TF``: rising, ``RDF``: deceptive, ``CFst``/``CFid``/
        ``CFin``: parameter variant, aggressor *a_bit*, every other bit
        of the lane a victim).

        State carries from the prediction phase into the test phase.
        Returns ``(det, acc)``: ``det`` marks test-phase reads that
        disagree with the session snapshot's expected values (the
        stream verdict), ``acc[m]`` is bit *m* of every lane bit's
        signature delta — the XOR over corrupted read bits of their
        weight planes.
        """
        full = self._full
        is_saf = kind == "SAF"
        is_tf = kind == "TF"
        is_rdf = kind == "RDF"
        is_cf = kind in ("CFst", "CFid", "CFin")
        state = self._packed
        if is_saf:
            state = full if variant else 0
        elif is_cf:
            load, store = self._cf_rules(kind, variant, a_bit)
            state = load(state)  # loaded content expresses the defect
        snap = state  # the controller's session snapshot
        det = 0
        acc = [0] * self.misr_width
        for check, phase in zip((False, True), self._session_schedule()):
            for steps in phase:
                last_raw = 0
                last_mask = 0
                for is_read, relative, mrep, fault_free, weights in steps:
                    if is_read:
                        if is_rdf:
                            raw = state if variant else state ^ full
                            state ^= full
                        else:
                            raw = state
                        err = raw ^ fault_free
                        if err:
                            acc = [a ^ (err & wt) for a, wt in zip(acc, weights)]
                        if check:
                            det |= raw ^ ((snap ^ mrep) if relative else mrep)
                        last_raw, last_mask = raw, mrep
                        continue
                    value = (last_raw ^ last_mask ^ mrep) if relative else mrep
                    if is_saf:
                        continue
                    if is_tf:
                        state = (state & value) if variant else (state | value)
                    elif is_cf:
                        state = store(state, value)
                    else:
                        state = value
        return det, acc

    def _session_schedule(self) -> "tuple[tuple, tuple]":
        """Both phases as packed step tuples (built once, lazily)."""
        if self._schedule is None:
            self._schedule = self._build_schedule()
        return self._schedule

    def _build_schedule(self) -> "tuple[tuple, tuple]":
        """Per phase, per element, one ``(is_read, relative, mask plane,
        fault-free raw plane, weight planes)`` tuple per step.

        The fault-free raw plane of a read packs every address's
        recorded raw value at that read; the weight planes come from
        :func:`_weight_planes` (content-independent, cached across
        contexts of one geometry).
        """
        n, w = self.n_words, self.width
        phases = []
        for program, raw in (
            (self.prediction, self.prediction_raw),
            (self.test, self.test_raw),
        ):
            layout = _layout(program)
            reads = zip(
                [
                    pack_words([raw[k] for k in ks], w)
                    for ks in _read_slices(layout, n)
                ],
                _weight_planes(layout, n, w, self.misr_width),
            )
            elements = []
            for element, masks in zip(program.elements, self._replicate(program)):
                steps = []
                for (is_read, relative, _mask, _ok), mrep in zip(
                    element.steps, masks
                ):
                    fault_free, weights = next(reads) if is_read else (0, ())
                    steps.append((is_read, relative, mrep, fault_free, weights))
                elements.append(tuple(steps))
            phases.append(tuple(elements))
        return phases[0], phases[1]


class _PairLanes(NamedTuple):
    """One two-word fault per lane: the layout and fault semantics a
    pair-lane replay needs, shared by the compare and session kernels.

    Word A (the faulty or aggressor address, snapshot plane *snap_a*)
    and word B (*snap_b*); *lower* marks the lanes whose A address is
    the lower one.  ``fetch(sel)``/``store(sel, value)`` carry the fault
    semantics, with *sel* the lanes visiting A.  ``gather`` spreads a
    packed per-address plane (AF) or per-pair values (CF) into the lane
    layout."""

    n_lanes: int
    lower: int
    snap_a: int
    snap_b: int
    fetch: Callable[[int], int]
    store: Callable[[int, int], None]
    gather: Callable


def _af_lanes(packed: int, n: int, width: int, wired_or: bool) -> _PairLanes:
    """AF-other and AF-multi faults of an *n*-word memory with content
    *packed* (none for ``n = 1``) as *width*-bit pair lanes
    (:func:`_af_pair_lanes`), lane ``2*perm + which`` in class order.

    ``gather(plane)`` returns the (A, B) planes of a packed per-address
    plane from shifts of packed values, not per-lane lists: block ``a``
    (the ``2*(n-1)`` lanes of faulty address ``a``) of the A plane
    repeats word ``a``; of the B plane it is the doubled words with
    address ``a`` cut out.
    """
    word_mask = (1 << width) - 1
    pair = 2 * width  # the (other, multi) lanes of one address pair
    block = pair * (n - 1)
    ones = (1 << block) - 1
    # Lanes whose faulty address is the lower one: in block a, every
    # other address past the first a.
    lower = pack_words([(ones >> (pair * a)) << (pair * a) for a in range(n)], block)
    block_lanes = replicate_mask(1, 2 * (n - 1), width)

    def gather(plane: int) -> tuple[int, int]:
        values = [(plane >> (a * width)) & word_mask for a in range(n)]
        doubled = pack_words([x | (x << width) for x in values], pair)
        other = pack_words(
            [
                (doubled & ((1 << (pair * a)) - 1))
                | ((doubled >> (pair * (a + 1))) << (pair * a))
                for a in range(n)
            ],
            block,
        )
        return pack_words(values, block) * block_lanes, other

    multi = replicate_mask(word_mask << width, n * (n - 1), pair)
    return _af_pair_lanes(2 * n * (n - 1), lower, multi, wired_or, gather, packed)


def _af_list_lanes(
    faults: Sequence[AddressDecoderFault], packed: int, width: int, wired_or: bool
) -> _PairLanes:
    """AF-other and AF-multi faults of a fault sequence as *width*-bit
    pair lanes (:func:`_af_pair_lanes`), one per fault in order;
    ``gather(plane)`` reads only the words the faults name."""
    word_mask = (1 << width) - 1
    addrs = [f.addr for f in faults]
    others = [f.other_addr for f in faults]
    used = set(addrs) | set(others)

    def gather(plane: int) -> tuple[int, int]:
        word = {a: (plane >> (a * width)) & word_mask for a in used}
        return (
            pack_words([word[a] for a in addrs], width),
            pack_words([word[o] for o in others], width),
        )

    lower = pack_words([word_mask * (a < o) for a, o in zip(addrs, others)], width)
    multi = pack_words([word_mask * (f.kind_code == "multi") for f in faults], width)
    return _af_pair_lanes(len(faults), lower, multi, wired_or, gather, packed)


def _af_pair_lanes(
    n_lanes: int,
    lower: int,
    multi: int,
    wired_or: bool,
    gather: Callable,
    packed: int,
) -> _PairLanes:
    """Address-decoder faults as pair lanes, ``FaultyMemory``'s AF
    semantics lane-parallel: word B is the other address's cell
    ``X_o`` (which every store to either address writes), word A the
    faulty address's own cell ``X_a`` (kept by the *multi* lanes only,
    and wired with ``X_o`` on reads of the faulty address)."""
    x_a, x_o = snap_a, snap_b = gather(packed)

    def fetch(sel: int) -> int:
        wired = multi & sel
        if wired_or:
            return x_o | (x_a & wired)
        return x_o & (x_a | ~wired)

    def store(sel: int, value: int) -> None:
        nonlocal x_o, x_a
        wired = multi & sel
        x_o = value
        x_a = (x_a & ~wired) | (value & wired)

    return _PairLanes(n_lanes, lower, snap_a, snap_b, fetch, store, gather)


def _inter_cf_lanes(
    cf_kind: str,
    cells: Sequence,
    variants: Sequence[int],
    words: Sequence[int],
    stride: int,
    word_mask: int,
) -> _PairLanes:
    """Inter-word coupling faults of *cf_kind* as pair lanes of
    *stride* bits: every ``(aggressor, victim)`` cell pair of *cells*
    (all with one bit offset ``victim.bit - aggressor.bit``) gets one
    lane per variant of *variants*, lane ``pair_pos * len(variants) +
    k``, holding its aggressor (A) and victim (B) words, with per-lane
    masks for the aggressor bit and the variant's ``x``/``y``/``rising``
    parameters — ``FaultyMemory``'s coupling semantics lane-parallel:
    CFst enforced after the load and every store, CFid/CFin triggered
    by aggressor transitions.  A condition or trigger read at the
    aggressor bit moves to the victim bit by the offset (none for
    same-bit pairs).  ``gather(values)`` copies one value per pair into
    each of its variant lanes."""
    span = len(variants) * stride
    spread = replicate_mask(1, len(variants), stride)

    def per_pair(values: list[int]) -> int:
        return pack_words(values, span) * spread

    aggr = per_pair([words[a.addr] for a, _ in cells])
    victim = per_pair([words[v.addr] for _, v in cells])
    bit = per_pair([1 << a.bit for a, _ in cells])
    lower = per_pair([word_mask if a.addr < v.addr else 0 for a, v in cells])
    params = [_cf_params(cf_kind, k) for k in variants]
    offset = cells[0][1].bit - cells[0][0].bit if cells else 0

    def onto_victim(plane: int) -> int:
        return plane << offset if offset > 0 else plane >> -offset

    def lanes_where(index: int) -> int:
        pattern = sum(
            word_mask << (k * stride) for k, p in enumerate(params) if p[index]
        )
        return replicate_mask(pattern, len(cells), span) & bit

    rising, x_bit, y_bit = (lanes_where(i) for i in range(3))
    x_bit = onto_victim(x_bit)

    def enforce() -> None:
        nonlocal victim
        cond = ~(aggr ^ y_bit) & bit
        if offset:
            cond = onto_victim(cond)
        victim = (victim & ~cond) | (cond & x_bit)

    if cf_kind == "CFst":
        enforce()  # the loaded content already expresses the defect

    def fetch(sel: int) -> int:
        return (aggr & sel) | (victim & ~sel)

    def store(sel: int, value: int) -> None:
        nonlocal aggr, victim
        old = aggr
        aggr = (aggr & ~sel) | (value & sel)
        victim = (victim & sel) | (value & ~sel)
        if cf_kind == "CFst":
            enforce()
            return
        trig = (old ^ aggr) & ~(aggr ^ rising) & bit
        if offset:
            trig = onto_victim(trig)
        if cf_kind == "CFid":
            victim = (victim & ~trig) | (trig & x_bit)
        else:
            victim ^= trig

    n_lanes = len(cells) * len(variants)
    return _PairLanes(n_lanes, lower, aggr, victim, fetch, store, per_pair)


def _intra_cf_places(fault_class: IntraWordCFClass) -> tuple[tuple[int, int], ...]:
    """:class:`PlaneVerdicts` layout of an intra-word CF class over its
    broadcast planes, one per (aggressor bit ``a``, variant) in that
    order: in ``pair_bits`` order, fault ``(a, v, variant)`` of address
    ``addr`` is bit ``addr*width + v`` of plane ``a*variants +
    variant``."""
    variants = fault_class.variants
    return tuple(
        (a_bit * variants + variant, v_bit)
        for a_bit, v_bit in map(fault_class.pair_bits, range(fault_class.n_pairs))
        for variant in range(variants)
    )


def _cf_params(cf_kind: str, variant: int) -> tuple[bool, int, int]:
    """``(rising, x, y)`` of coupling variant *variant* of *cf_kind*, in
    the enumeration order of :func:`~repro.memory.injection._cf_variant`
    (CFst: aggressor value y, forced value x; CFid: rising, forced
    value x; CFin: rising)."""
    if cf_kind == "CFst":
        y, x = divmod(variant, 2)
        return False, x, y
    if cf_kind == "CFid":
        half, x = divmod(variant, 2)
        return half == 0, x, 0
    return variant == 0, 0, 0


def _cf_variant_index(fault: CouplingFault) -> int:
    """The variant of a coupling fault in :func:`_cf_params` order."""
    if isinstance(fault, StateCouplingFault):
        return 2 * fault.aggressor_value + fault.forced_value
    if isinstance(fault, IdempotentCouplingFault):
        return 2 * (not fault.rising) + fault.forced_value
    return int(not fault.rising)


def _af_index(fault: AddressDecoderFault, n_words: int) -> int:
    """An AF-other/AF-multi fault's index in its
    :class:`~repro.memory.injection.AddressFaultClass`."""
    other = fault.other_addr - (fault.other_addr > fault.addr)
    return n_words + 2 * (fault.addr * (n_words - 1) + other) + (
        fault.kind_code == "multi"
    )


def _lane_groups(
    faults: Sequence[Fault], n_words: int, width: int
) -> "dict[object, tuple[list[int], list]] | None":
    """*faults* grouped by the lane pass that answers them, as ``group
    -> (positions in faults, items)``; ``None`` when some fault has no
    lane semantics (user-defined kinds, AF-none floating to a non-zero
    word).

    * single-cell and intra-word faults: group = their whole class at
      this geometry, item = the fault's index in it;
    * AF-none: group ``"AF-none"``, item = the dead address;
    * AF-other/AF-multi: group ``("AF", wired_or)``, item = the fault;
    * inter-word CF: group ``("CF", kind, victim.bit - aggressor.bit,
      variant)``, item = the ``(aggressor, victim)`` cells.
    """
    groups: dict = {}
    for i, fault in enumerate(faults):
        fault.validate(n_words, width)
        if isinstance(fault, (StuckAtFault, TransitionFault, ReadDisturbFault)):
            pos = fault.cell.addr * width + fault.cell.bit
            if isinstance(fault, StuckAtFault):
                group, item = StuckAtClass(n_words, width), 2 * pos + fault.value
            elif isinstance(fault, TransitionFault):
                group = TransitionClass(n_words, width)
                item = 2 * pos + (not fault.rising)
            else:
                group = ReadDisturbClass(n_words, width, deceptive=fault.deceptive)
                item = pos
        elif isinstance(fault, _CF_TYPES):
            aggressor, victim = fault.aggressor, fault.victim
            variant = _cf_variant_index(fault)
            if fault.intra_word:
                group = IntraWordCFClass(n_words, width, fault.kind)
                a, v = aggressor.bit, victim.bit
                pair = a * (width - 1) + v - (v > a)
                item = (victim.addr * group.n_pairs + pair) * group.variants + variant
            else:
                group = ("CF", fault.kind, victim.bit - aggressor.bit, variant)
                item = (aggressor, victim)
        elif isinstance(fault, AddressDecoderFault):
            if fault.kind_code != "none":
                group, item = ("AF", fault.wired_or), fault
            elif fault.float_value & ((1 << width) - 1):
                return None
            else:
                group, item = "AF-none", fault.addr
        else:
            return None
        positions, items = groups.setdefault(group, ([], []))
        positions.append(i)
        items.append(item)
    return groups


def _reference_verdicts(oracle: str, *args, **kwargs) -> list:
    """The batch engine's one way out of the lanes: the reference
    interpreter's per-fault loop behind the :class:`Engine` entry point
    *oracle*, for underivable programs, ill-formed tests and fault
    kinds without lane semantics."""
    return getattr(_REFERENCE, oracle)(*args, **kwargs)


def _layout(program: MarchProgram) -> tuple:
    """``(descending, n_reads)`` per element: all a phase's read stream
    order depends on (and the weight-plane cache key)."""
    return tuple((e.descending, e.n_reads) for e in program.elements)


def _read_slices(layout, n_words: int):
    """Stream indices of every read of a phase, one ``range`` per
    (element, read) in program order, indexed by address; *layout* is
    ``(descending, n_reads)`` per element.

    The *j*-th read of address *a* in element *e* sits at stream index
    ``base_e + position(a) * reads_e + j`` — the order the interpreter
    emits reads in, with ``position(a) = n_words - 1 - a`` on
    descending sweeps.
    """
    base = 0
    for descending, n_reads in layout:
        span = n_reads * n_words
        for j in range(n_reads):
            ks = range(base + j, base + span, n_reads)
            yield ks[::-1] if descending else ks
        base += span


@functools.lru_cache(maxsize=8)
def _weight_planes(
    layout, n_words: int, width: int, misr_width: int
) -> tuple[tuple[int, ...], ...]:
    """Per read of a phase (program order), *misr_width* packed planes:
    plane *m* holds, at bit ``addr*width + bit``, bit *m* of the
    signature weight of that read bit.

    Input bit *b* folds into MISR input bit ``b % misr_width``, so each
    lane is a row of :func:`~repro.bist.misr.absorb_row_table` repeated
    across the word.  Content-independent: cached per geometry, like
    the weight table itself.
    """
    from ..bist.misr import absorb_row_table

    n_inputs = n_words * sum(n_reads for _, n_reads in layout)
    spread = replicate_mask(1, -(-width // misr_width), misr_width)
    word_mask = (1 << width) - 1
    lane_rows = [
        [(row * spread) & word_mask for row in rows]
        for rows in absorb_row_table(n_inputs, misr_width)
    ]
    return tuple(
        tuple(
            pack_words([lane_rows[k][m] for k in ks], width)
            for m in range(misr_width)
        )
        for ks in _read_slices(layout, n_words)
    )


_REFERENCE = ReferenceEngine()
register_engine(BatchEngine())
