"""Symbolic engine: width-generic single-fault campaign evaluation.

The paper's Table 2 argues fault coverage *symbolically*: a transparent
test's data is ``c ^ mask`` for width-polymorphic masks, and the bit of
every mask at a fixed position ``j`` is the same for all word widths
greater than ``j`` (:meth:`repro.core.ops.Mask.bit_at`).  Word
operations are bitwise and every classic fault couples at most two bit
positions, so the detection verdict of a fault decomposes into
independent per-position behaviours that never mention the width.  This
backend exploits that:

* the state of a word is the Mask-algebra expression
  ``(c if relative else 0) ^ mask`` of
  :mod:`repro.analysis.symbolic` — *not* a concrete integer — and the
  fault-free evolution of the whole address space is one symbolic
  trace;
* a fault is evaluated by an exact per-bit replay of the program over
  its support slots (the ``(addr, bit)`` cells it can influence),
  enumerated over the 2 or 4 possible initial values of those bits —
  yielding a :class:`SymbolicVerdict` that holds for **every** word
  width the fault fits in;
* replays are shared through a *shape cache*: two faults whose support
  positions have equal :meth:`~repro.engine.program.SymbolicProgram.
  bit_signature` and equal parameters provably behave identically, so
  a whole campaign costs one replay per distinct shape;
* :meth:`SymbolicVerdict.concretize` projects a verdict back to any
  concrete ``(width, words)`` for cross-checking against the
  ``reference``/``batch`` engines (``python -m repro table2``).

Address-decoder faults are the one word-wide class: their routing is
still bitwise, so the verdict is evaluated per position and
concretization ORs the positions of the target width — width-generic
evaluation, width-dependent projection.

The MISR signature/aliasing oracles are *not* offered: signature
folding maps word bit ``j`` to register position ``j mod misr_width``,
which is irreducibly width-concrete, so those entry points raise
:class:`ExecutionError` pointing at the concrete engines.

Single executions (:meth:`SymbolicEngine.run`) use the reference
interpreter unchanged: the symbolic acceleration is campaign-level.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..analysis.symbolic import symbolic_trace
from ..core.march import MarchTest
from ..memory.faults import (
    AddressDecoderFault,
    Cell,
    CouplingFault,
    Fault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from .base import Engine, ExecutionError, ReadSink, RunResult, register_engine
from .program import SymbolicProgram, compile_symbolic
from .reference import execute_program


class SymbolicEngine(Engine):
    """Width-generic campaign backend over the symbolic IR."""

    name = "symbolic"

    def __init__(self, max_contexts: int = 8) -> None:
        self._contexts: dict = {}
        self._max_contexts = max_contexts

    # -- single runs (concrete, via the interpreter) -------------------
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
        if isinstance(test, SymbolicProgram):
            test = test.test
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

    # -- campaign entry points -----------------------------------------
    def detect_batch(
        self,
        test,
        n_words: int,
        width: "int | str | None",
        words: Sequence[int] | None,
        faults: Sequence[Fault],
        *,
        derive_writes: bool = True,
        context: object = None,
    ) -> list:
        """Compare-oracle verdicts through one symbolic evaluation.

        With a concrete *width* the verdicts are plain bools — each
        fault is evaluated once, width-generically, then concretized at
        ``(width, words)`` — so the engine drops into ``run_campaign``
        / ``CampaignRunner`` wherever ``reference``/``batch`` do.  With
        ``width=None`` (or ``"symbolic"``) the *words* are ignored and
        the raw :class:`SymbolicVerdict` objects are returned instead.
        ``context`` is accepted for interface compatibility and
        ignored: the engine amortizes through its own internal
        shape-cached ``_SymbolicCampaign`` contexts, which are keyed by
        ``(program, datapath)`` and already shared across widths,
        words and campaigns.
        """
        program = self._symbolic(test)
        if width is None or width == "symbolic":
            return self.detect_symbolic(
                program, n_words, faults, derive_writes=derive_writes
            )
        program.at_width(width)  # surface unresolvable-mask errors early
        if words is None or len(words) != n_words:
            raise ExecutionError(
                "initial content length does not match memory size"
            )
        if derive_writes and not program.derivable:
            # An underivable program may still detect (or raise) fault
            # by fault depending on where the first mismatch stops the
            # run; only the interpreter reproduces that exactly.
            return super().detect_batch(
                program.test,
                n_words,
                width,
                words,
                faults,
                derive_writes=derive_writes,
            )
        ctx = self._context(program, derive_writes)
        words = [w & ((1 << width) - 1) for w in words]
        out = []
        for fault in faults:
            fault.validate(n_words, width)
            try:
                verdict = ctx.verdict(fault)
            except _NoSymbolicSemantics:
                out.append(self._interpret(program, width, words, fault, derive_writes))
                continue
            out.append(verdict.concretize(width, words))
        return out

    def detect_symbolic(
        self,
        test,
        n_words: int,
        faults: Sequence[Fault],
        *,
        derive_writes: bool = True,
    ) -> "list[SymbolicVerdict]":
        """Width-generic verdicts for every fault in *faults*.

        Each verdict holds simultaneously for every word width the
        fault fits in (``verdict.min_width``); project one back to a
        concrete memory with :meth:`SymbolicVerdict.concretize`.
        """
        program = self._symbolic(test)
        if derive_writes and not program.derivable:
            raise ExecutionError(
                f"{program.name}: an underivable program has no "
                "width-generic verdicts (the interpreter may raise or "
                "detect depending on concrete content); use the "
                "reference engine"
            )
        ctx = self._context(program, derive_writes)
        verdicts = []
        for fault in faults:
            _validate_addresses(fault, n_words)
            try:
                verdicts.append(ctx.verdict(fault))
            except _NoSymbolicSemantics:
                raise ExecutionError(
                    f"no symbolic semantics for fault kind {fault.kind!r}; "
                    "evaluate it through a concrete engine"
                ) from None
        return verdicts

    def detect_signature_batch(self, *args, **kwargs):
        raise ExecutionError(
            "the symbolic engine has no MISR signature oracle: signature "
            "folding maps word bit j to register position j mod "
            "misr_width, which is width-concrete; run signature-mode "
            "campaigns through engine='reference' or engine='batch'"
        )

    def detect_aliasing_batch(self, *args, **kwargs):
        raise ExecutionError(
            "the symbolic engine has no MISR aliasing oracle: signature "
            "folding is width-concrete; run aliasing-mode campaigns "
            "through engine='reference' or engine='batch'"
        )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _symbolic(test) -> SymbolicProgram:
        if isinstance(test, SymbolicProgram):
            return test
        if isinstance(test, MarchTest):
            return compile_symbolic(test)
        raise ExecutionError(
            "the symbolic engine needs the symbolic march test, not a "
            f"width-lowered program ({test!r})"
        )

    def _context(
        self, program: SymbolicProgram, derive_writes: bool
    ) -> "_SymbolicCampaign":
        key = (program, derive_writes)
        ctx = self._contexts.get(key)
        if ctx is None:
            if len(self._contexts) >= self._max_contexts:
                self._contexts.pop(next(iter(self._contexts)))
            ctx = _SymbolicCampaign(program, derive_writes)
            self._contexts[key] = ctx
        return ctx

    @staticmethod
    def _interpret(program, width, words, fault, derive_writes) -> bool:
        """Full-fidelity interpretation for fault kinds without
        symbolic semantics (user-defined models)."""
        from ..memory.injection import FaultyMemory

        memory = FaultyMemory(len(words), width, [fault])
        memory.load(words)
        return execute_program(
            program.at_width(width),
            memory,
            stop_on_mismatch=True,
            derive_writes=derive_writes,
        ).detected


class _NoSymbolicSemantics(Exception):
    """Internal: the fault kind has no per-bit replay model."""


def _validate_addresses(fault: Fault, n_words: int) -> None:
    """Address-bounds check without committing to a width (bit fit is
    what ``SymbolicVerdict.min_width`` reports instead)."""
    if isinstance(fault, AddressDecoderFault):
        fault.validate(n_words, 1)
        return
    for cell in fault.cells:
        if not 0 <= cell.addr < n_words:
            raise ValueError(
                f"{fault.describe()}: address {cell.addr} out of range"
            )


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class SymbolicVerdict:
    """A width-generic detection verdict for one fault.

    ``table`` (cell-confined faults) maps each assignment of the
    support cells' initial bits to the detection verdict; the mapping
    is provably identical for every word width the fault fits in.
    :meth:`concretize` projects the verdict onto a concrete memory.
    """

    __slots__ = ("ctx", "fault")

    def __init__(self, ctx: "_SymbolicCampaign", fault: Fault) -> None:
        self.ctx = ctx
        self.fault = fault

    @property
    def min_width(self) -> int:
        """Smallest word width the fault fits in (computed on demand —
        campaign-scale verdict construction stays allocation-only)."""
        return 1 + max((c.bit for c in self.fault.cells), default=0)

    @property
    def width_independent(self) -> bool:
        """True when the support verdict cannot change with the width
        (concretization still adds the fault-free baseline of
        ill-formed tests, which scans every position)."""
        raise NotImplementedError

    @property
    def constant(self) -> "bool | None":
        """``True`` when the verdict is *detected* for every width and
        every initial content — the common case for a well-formed
        transparent test, where most classes detect all assignments.
        ``None`` means the verdict genuinely depends on ``(width,
        words)`` and must be :meth:`concretize`-d.  (``False`` is never
        returned: an all-miss support table can still be overridden by
        the fault-free baseline of an ill-formed test, which is
        width-and content-dependent.)  Width sweeps use this to skip
        per-width concretization for the constant majority."""
        raise NotImplementedError

    def concretize(self, width: int, words: Sequence[int]) -> bool:
        """The concrete verdict at *width* for initial content *words*
        — bit-identical to the reference engine's campaign verdict."""
        raise NotImplementedError

    def _baseline_outside(
        self,
        width: int,
        words: Sequence[int],
        excluded_cells: tuple[Cell, ...] = (),
        excluded_addrs: frozenset = frozenset(),
    ) -> bool:
        """Fault-free mismatches anywhere the fault cannot reach
        (non-empty only for ill-formed tests)."""
        baseline = self.ctx.baseline_map(width, words)
        if not baseline:
            return False
        for addr, positions in baseline.items():
            if addr in excluded_addrs:
                continue
            for cell in excluded_cells:
                if cell.addr == addr:
                    positions &= ~(1 << cell.bit)
            if positions:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.fault.describe()}>"


class AssignmentTable:
    """Assignment → verdict mapping of one fault shape.

    The constant cases are precomputed: for a well-formed transparent
    test most classes detect *every* initial assignment (``always``),
    so campaign-scale concretization skips the per-fault assignment
    extraction entirely.
    """

    __slots__ = ("data", "always", "never")

    def __init__(self, data: dict) -> None:
        self.data = data
        self.always = all(data.values())
        self.never = not any(data.values())

    def __getitem__(self, assignment):
        return self.data[assignment]

    def __eq__(self, other) -> bool:
        if isinstance(other, AssignmentTable):
            return self.data == other.data
        return self.data == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AssignmentTable({self.data!r})"


class CellSymbolicVerdict(SymbolicVerdict):
    """Verdict of a cell-confined fault (SAF/TF/RDF/DRDF/CF*): one
    assignment table over the initial bits of the fault's cells."""

    __slots__ = ("cells", "table")

    def __init__(self, ctx, fault, cells, table) -> None:
        super().__init__(ctx, fault)
        self.cells = cells
        self.table = table

    @property
    def width_independent(self) -> bool:
        return True

    @property
    def constant(self) -> "bool | None":
        return True if self.table.always else None

    def concretize(self, width: int, words: Sequence[int]) -> bool:
        self.fault.validate(len(words), width)
        table = self.table
        if table.always:
            return True
        if not table.never:
            cells = self.cells
            if len(cells) == 2:  # the CF common case, sans genexpr
                a, b = cells
                assignment = (
                    (words[a.addr] >> a.bit) & 1,
                    (words[b.addr] >> b.bit) & 1,
                )
            else:
                assignment = tuple(
                    (words[cell.addr] >> cell.bit) & 1 for cell in cells
                )
            if table.data[assignment]:
                return True
        return self._baseline_outside(width, words, excluded_cells=self.cells)


class WordSymbolicVerdict(SymbolicVerdict):
    """Verdict of an address-decoder fault: evaluated per bit position
    (lazily, shape-cached), concretization ORs the positions of the
    target width."""

    __slots__ = ()

    @property
    def support(self) -> frozenset:
        """Word addresses the decoder fault can influence (on demand —
        only the rare all-miss baseline path needs it)."""
        fault = self.fault
        addrs = {fault.addr}
        if fault.other_addr is not None:
            addrs.add(fault.other_addr)
        return frozenset(addrs)

    @property
    def width_independent(self) -> bool:
        return False

    @property
    def constant(self) -> "bool | None":
        # Every width >= 1 evaluates position 0, so an all-assignment
        # detection there decides the verdict for the whole sweep.
        return True if self.position_table(0).always else None

    def position_table(self, position: int) -> "AssignmentTable":
        """Assignment table of the support words' bits at *position*."""
        return self.ctx.af_table(self.fault, position)

    def concretize(self, width: int, words: Sequence[int]) -> bool:
        fault = self.fault
        fault.validate(len(words), width)
        for j in range(width):
            table = self.position_table(j)
            if table.always:
                return True
            if table.never:
                continue
            assignment = ((words[fault.addr] >> j) & 1,)
            if fault.other_addr is not None:
                assignment += ((words[fault.other_addr] >> j) & 1,)
            if table.data[assignment]:
                return True
        return self._baseline_outside(width, words, excluded_addrs=self.support)


# ---------------------------------------------------------------------------
# Campaign context: shape-cached per-bit replays
# ---------------------------------------------------------------------------


class _SymbolicCampaign:
    """Shared per-(program, datapath) state of symbolic campaigns.

    Holds the fault-free symbolic trace (the address-space state
    model), the shape-keyed assignment tables, and the per-(width,
    words) fault-free baseline of the most recent concretization.
    """

    def __init__(self, program: SymbolicProgram, derive_writes: bool) -> None:
        self.program = program
        self.derive = derive_writes
        self.trace = symbolic_trace(program.test, derive_writes=derive_writes)
        self._tables: dict = {}
        self._fault_free: dict = {}
        self._fault_free_by_position: dict = {}
        self._baseline_key = None
        self._baseline_value: dict = {}
        # Position-signature interning: shape keys embed bit signatures,
        # which are long tuples whose hashing (and the program hashing
        # behind the bit_signature/bit_plan lru_caches) dominates
        # campaign dispatch if repeated per fault.  Each position
        # resolves to a small interned id exactly once per context.
        self._sig_ids: dict[int, int] = {}
        self._sig_intern: dict[tuple, int] = {}
        self._plans: dict[int, tuple] = {}
        self._clean: dict[int, bool] = {}

    def _sig_id(self, position: int) -> int:
        """Small interned id of ``program.bit_signature(position)`` —
        equal ids iff equal signatures, cheap to hash in shape keys."""
        sid = self._sig_ids.get(position)
        if sid is None:
            signature = self.program.bit_signature(position)
            sid = self._sig_intern.setdefault(
                signature, len(self._sig_intern)
            )
            self._sig_ids[position] = sid
        return sid

    def _bit_plan(self, position: int) -> tuple:
        """Per-context memo of ``program.bit_plan(position)`` (the
        lru_cache behind it re-hashes the whole program per call)."""
        plan = self._plans.get(position)
        if plan is None:
            plan = self.program.bit_plan(position)
            self._plans[position] = plan
        return plan

    # -- verdict construction ------------------------------------------
    def verdict(self, fault: Fault) -> SymbolicVerdict:
        if isinstance(fault, AddressDecoderFault):
            return WordSymbolicVerdict(self, fault)
        key = self._shape_key(fault)
        if key is None:
            raise _NoSymbolicSemantics(fault.kind)
        table = self._tables.get(key)
        if table is None:
            table = self._build_family(fault, key)
            if table is None:  # pragma: no cover - known kinds only
                table = self._cell_table(fault)
                self._tables[key] = table
        return CellSymbolicVerdict(self, fault, fault.cells, table)

    def _shape_key(self, fault: Fault):
        """Everything besides the initial support bits that the per-bit
        replay can depend on; ``None`` for unknown fault kinds.  Bit
        signatures appear as interned ids (:meth:`_sig_id`), so keys
        stay cheap to hash at campaign scale."""
        if isinstance(fault, StuckAtFault):
            return ("SAF", fault.value, self._sig_id(fault.cell.bit))
        if isinstance(fault, TransitionFault):
            return ("TF", fault.rising, self._sig_id(fault.cell.bit))
        if isinstance(fault, ReadDisturbFault):
            return (
                "RDF",
                fault.deceptive,
                self._sig_id(fault.cell.bit),
            )
        if isinstance(fault, CouplingFault):
            aggr, vict = fault.aggressor, fault.victim
            order = "intra" if fault.intra_word else aggr.addr < vict.addr
            if isinstance(fault, StateCouplingFault):
                params = (fault.aggressor_value, fault.forced_value)
            elif isinstance(fault, IdempotentCouplingFault):
                params = (fault.rising, fault.forced_value)
            elif isinstance(fault, InversionCouplingFault):
                params = (fault.rising,)
            else:  # pragma: no cover - no other coupling kinds exist
                return None
            return (
                fault.kind,
                params,
                order,
                self._sig_id(aggr.bit),
                self._sig_id(vict.bit),
            )
        return None

    def _cell_table(self, fault: Fault) -> AssignmentTable:
        """Scalar shape table: one :meth:`_replay` per assignment.

        Kept as the semantic reference for :meth:`_build_family` (the
        packed path that :meth:`verdict` actually uses); the
        equivalence tests compare the two entry for entry."""
        cells = fault.cells
        slots = tuple((cell.addr, cell.bit) for cell in cells)
        table = {}
        for assignment in itertools.product((0, 1), repeat=len(slots)):
            table[assignment] = self._replay(fault, slots, assignment)
        return AssignmentTable(table)

    def _build_family(self, fault: Fault, key) -> "AssignmentTable | None":
        """Evaluate *fault*'s whole shape family — every parameter
        variant times every initial assignment — as bit lanes of a
        single packed replay, populating all sibling ``_tables``
        entries at once.

        Faults sharing support-bit signatures differ only in their
        scalar parameters (stuck value, rising edge, forced value, …),
        and the per-bit replay is bitwise in those parameters, so the
        2–4 assignments of all 2–4 parameter combinations fit in one
        4–16-lane integer pass: lane ``p * n_assign + a`` carries
        parameter combination ``p`` under initial assignment ``a``.
        One program walk therefore prices the entire family where the
        scalar path would run ``n_params * n_assign`` walks.  Returns
        the table for *key* (``None`` for unknown kinds)."""
        cells = fault.cells
        slots = tuple((cell.addr, cell.bit) for cell in cells)
        assignments = list(itertools.product((0, 1), repeat=len(slots)))
        n_assign = len(assignments)

        if isinstance(fault, StuckAtFault):
            sig = self._sig_id(fault.cell.bit)
            members = [({"value": v}, ("SAF", v, sig)) for v in (0, 1)]
        elif isinstance(fault, TransitionFault):
            sig = self._sig_id(fault.cell.bit)
            members = [
                ({"rising": r}, ("TF", r, sig)) for r in (True, False)
            ]
        elif isinstance(fault, ReadDisturbFault):
            sig = self._sig_id(fault.cell.bit)
            members = [
                ({"deceptive": d}, ("RDF", d, sig)) for d in (True, False)
            ]
        elif isinstance(fault, CouplingFault):
            aggr, vict = fault.aggressor, fault.victim
            order = "intra" if fault.intra_word else aggr.addr < vict.addr
            siga = self._sig_id(aggr.bit)
            sigv = self._sig_id(vict.bit)
            kind = fault.kind
            if isinstance(fault, StateCouplingFault):
                members = [
                    (
                        {"aggressor": av, "value": fv},
                        (kind, (av, fv), order, siga, sigv),
                    )
                    for av in (0, 1)
                    for fv in (0, 1)
                ]
            elif isinstance(fault, IdempotentCouplingFault):
                members = [
                    (
                        {"rising": r, "value": fv},
                        (kind, (r, fv), order, siga, sigv),
                    )
                    for r in (True, False)
                    for fv in (0, 1)
                ]
            elif isinstance(fault, InversionCouplingFault):
                members = [
                    ({"rising": r}, (kind, (r,), order, siga, sigv))
                    for r in (True, False)
                ]
            else:  # pragma: no cover - no other coupling kinds exist
                return None
        else:  # pragma: no cover - filtered by _shape_key
            return None

        n_params = len(members)
        lanes = n_params * n_assign
        # Bit at the start of every parameter block: multiplying a
        # per-block pattern by it replicates the pattern across blocks.
        block_starts = sum(1 << (pi * n_assign) for pi in range(n_params))
        masks: dict[str, int] = {}
        for pi, (params, _) in enumerate(members):
            blk = ((1 << n_assign) - 1) << (pi * n_assign)
            for name, val in params.items():
                if val:
                    masks[name] = masks.get(name, 0) | blk
        init = []
        for s in range(len(slots)):
            pattern = 0
            for ai, assignment in enumerate(assignments):
                if assignment[s]:
                    pattern |= 1 << ai
            init.append(pattern * block_starts)

        det = self._family_replay(fault, slots, init, masks, lanes)

        result = None
        for pi, (_, fkey) in enumerate(members):
            base = pi * n_assign
            table = AssignmentTable(
                {
                    assignment: bool((det >> (base + ai)) & 1)
                    for ai, assignment in enumerate(assignments)
                }
            )
            self._tables[fkey] = table
            if fkey == key:
                result = table
        return result

    def _family_replay(
        self,
        fault: Fault,
        slots: tuple[tuple[int, int], ...],
        init: list[int],
        masks: dict[str, int],
        lanes: int,
    ) -> int:
        """Lane-parallel :meth:`_replay`: every slot's state is an
        integer whose bit ``l`` is that slot's value in lane ``l``, and
        the fault-model rules are applied through the per-parameter
        lane masks in *masks*.  Returns the lane vector of detections
        (bit ``l`` set iff lane ``l``'s run observed a mismatch)."""
        derive = self.derive
        full = (1 << lanes) - 1
        state = list(init)

        is_saf = isinstance(fault, StuckAtFault)
        is_tf = isinstance(fault, TransitionFault)
        is_rdf = isinstance(fault, ReadDisturbFault)
        is_cfst = isinstance(fault, StateCouplingFault)
        is_cfid = isinstance(fault, IdempotentCouplingFault)
        is_cfin = isinstance(fault, InversionCouplingFault)

        slot_index = {slot: i for i, slot in enumerate(slots)}
        fault_slot = aggr_slot = vict_slot = None
        if is_saf or is_tf or is_rdf:
            cell = fault.cells[0]
            fault_slot = slot_index[(cell.addr, cell.bit)]
        if is_cfst or is_cfid or is_cfin:
            aggr_slot = slot_index[(fault.aggressor.addr, fault.aggressor.bit)]
            vict_slot = slot_index[(fault.victim.addr, fault.victim.bit)]

        # Lanes where: the stuck/forced value is 1; the edge parameter
        # is rising; the read disturb is deceptive; the CFst aggressor
        # state is 1.
        val = masks.get("value", 0)
        rising = masks.get("rising", 0)
        deceptive = masks.get("deceptive", 0)
        aggr_one = masks.get("aggressor", 0)

        def enforce() -> None:
            if is_saf:
                state[fault_slot] = val
            if is_cfst:
                cond = ~(state[aggr_slot] ^ aggr_one) & full
                state[vict_slot] = (state[vict_slot] & ~cond) | (val & cond)

        enforce()  # the loaded content already expresses the defect
        snap = tuple(state)

        ascending = sorted({addr for addr, _ in slots})
        descending = ascending[::-1]
        by_addr = {
            addr: tuple(i for i, (a, _) in enumerate(slots) if a == addr)
            for addr in ascending
        }
        plans = [self._bit_plan(pos) for _, pos in slots]

        det = 0
        last_raw = [0] * len(slots)
        last_mask = [0] * len(slots)
        for ei, element in enumerate(self.program.elements):
            ordered = descending if element.descending else ascending
            n_steps = len(element.steps)
            for addr in ordered:
                here = by_addr[addr]
                for si in range(n_steps):
                    is_read, relative, _, _ = element.steps[si]
                    if is_read:
                        for i in here:
                            mvec = -plans[i][ei][si][2] & full
                            if is_rdf and i == fault_slot:
                                value = state[i]
                                state[i] = value ^ full
                                raw = value ^ (full & ~deceptive)
                            else:
                                raw = state[i]
                            expected = (snap[i] ^ mvec) if relative else mvec
                            det |= raw ^ expected
                            last_raw[i] = raw
                            last_mask[i] = mvec
                    else:
                        old = list(state)
                        for i in here:
                            mvec = -plans[i][ei][si][2] & full
                            if relative and derive:
                                value = last_raw[i] ^ last_mask[i] ^ mvec
                            elif relative:
                                value = snap[i] ^ mvec
                            else:
                                value = mvec
                            if is_saf and i == fault_slot:
                                value = val
                            elif is_tf and i == fault_slot:
                                blocked = (
                                    (rising & ~old[i] & value)
                                    | (~rising & old[i] & ~value)
                                ) & full
                                value = (value & ~blocked) | (
                                    old[i] & blocked
                                )
                            state[i] = value
                        if (is_cfid or is_cfin) and aggr_slot in here:
                            a_old = old[aggr_slot]
                            a_new = state[aggr_slot]
                            trig = (a_old ^ a_new) & ~(a_new ^ rising) & full
                            if is_cfid:
                                state[vict_slot] = (
                                    state[vict_slot] & ~trig
                                ) | (val & trig)
                            else:
                                state[vict_slot] ^= trig
                        if is_cfst or is_saf:
                            enforce()
        return det

    def af_table(self, fault: AddressDecoderFault, position: int) -> AssignmentTable:
        """Assignment table of one AF at one bit position (cached by
        routing shape and position signature)."""
        float_bit = (fault.float_value >> position) & 1
        order = None if fault.other_addr is None else fault.addr < fault.other_addr
        key = (
            "AF",
            fault.kind_code,
            fault.wired_or,
            float_bit,
            order,
            self._sig_id(position),
        )
        table = self._tables.get(key)
        if table is not None:
            return table
        slots = ((fault.addr, position),)
        if fault.other_addr is not None:
            slots += ((fault.other_addr, position),)
        table = {}
        for assignment in itertools.product((0, 1), repeat=len(slots)):
            table[assignment] = self._replay(fault, slots, assignment)
        table = AssignmentTable(table)
        self._tables[key] = table
        return table

    # -- the per-bit replay --------------------------------------------
    def _replay(
        self,
        fault: Fault,
        slots: tuple[tuple[int, int], ...],
        init_bits: tuple[int, ...],
    ) -> bool:
        """Exact replay of the program over the fault's support slots.

        Mirrors :class:`~repro.memory.injection.FaultyMemory` at bit
        granularity: every semantic rule of the classic fault models is
        per-cell, and march data is bitwise, so the slots evolve
        exactly as the corresponding bits of a full concrete run — for
        every word width at once.
        """
        derive = self.derive
        n_slots = len(slots)
        state = list(init_bits)

        saf = fault if isinstance(fault, StuckAtFault) else None
        tf = fault if isinstance(fault, TransitionFault) else None
        rdf = fault if isinstance(fault, ReadDisturbFault) else None
        cfst = fault if isinstance(fault, StateCouplingFault) else None
        cfid = fault if isinstance(fault, IdempotentCouplingFault) else None
        cfin = fault if isinstance(fault, InversionCouplingFault) else None
        af = fault if isinstance(fault, AddressDecoderFault) else None

        slot_index = {slot: i for i, slot in enumerate(slots)}
        fault_slot = aggr_slot = vict_slot = None
        if saf is not None or tf is not None or rdf is not None:
            cell = fault.cells[0]
            fault_slot = slot_index[(cell.addr, cell.bit)]
        trigger = cfid if cfid is not None else cfin
        if cfst is not None or trigger is not None:
            aggr_slot = slot_index[(fault.aggressor.addr, fault.aggressor.bit)]
            vict_slot = slot_index[(fault.victim.addr, fault.victim.bit)]
        af_slot = af_partner = None
        if af is not None:
            af_slot = slot_index[(af.addr, slots[0][1])]
            if af.other_addr is not None:
                af_partner = slot_index[(af.other_addr, slots[0][1])]
            af_float = (af.float_value >> slots[0][1]) & 1

        def enforce() -> None:
            if saf is not None:
                state[fault_slot] = saf.value
            if cfst is not None:
                if state[aggr_slot] == cfst.aggressor_value:
                    state[vict_slot] = cfst.forced_value

        enforce()  # the loaded content already expresses the defect
        snap = tuple(state)

        ascending = sorted({addr for addr, _ in slots})
        descending = ascending[::-1]
        by_addr = {
            addr: tuple(i for i, (a, _) in enumerate(slots) if a == addr)
            for addr in ascending
        }
        plans = [self._bit_plan(pos) for _, pos in slots]

        detected = False
        last_raw = [0] * n_slots
        last_mask = [0] * n_slots
        for ei, element in enumerate(self.program.elements):
            ordered = descending if element.descending else ascending
            n_steps = len(element.steps)
            for addr in ordered:
                here = by_addr[addr]
                for si in range(n_steps):
                    is_read, relative, _, _ = element.steps[si]
                    if is_read:
                        for i in here:
                            mbit = plans[i][ei][si][2]
                            if af is not None and addr == af.addr:
                                if af.kind_code == "none":
                                    raw = af_float
                                elif af.kind_code == "other":
                                    raw = state[af_partner]
                                elif af.wired_or:
                                    raw = state[af_slot] | state[af_partner]
                                else:
                                    raw = state[af_slot] & state[af_partner]
                            elif rdf is not None and i == fault_slot:
                                value = state[i]
                                state[i] = value ^ 1
                                raw = value if rdf.deceptive else value ^ 1
                            else:
                                raw = state[i]
                            expected = (snap[i] ^ mbit) if relative else mbit
                            if raw != expected:
                                detected = True
                            last_raw[i] = raw
                            last_mask[i] = mbit
                    else:
                        old = list(state)
                        for i in here:
                            mbit = plans[i][ei][si][2]
                            if relative and derive:
                                value = last_raw[i] ^ last_mask[i] ^ mbit
                            elif relative:
                                value = snap[i] ^ mbit
                            else:
                                value = mbit
                            if af is not None:
                                if addr == af.addr:
                                    if af.kind_code == "other":
                                        state[af_partner] = value
                                    elif af.kind_code == "multi":
                                        state[af_slot] = value
                                        state[af_partner] = value
                                    # "none": write lost
                                else:
                                    state[i] = value
                                continue
                            if saf is not None and i == fault_slot:
                                value = saf.value
                            elif tf is not None and i == fault_slot:
                                blocked = (
                                    tf.rising and old[i] == 0 and value == 1
                                ) or (
                                    not tf.rising and old[i] == 1 and value == 0
                                )
                                if blocked:
                                    value = old[i]
                            state[i] = value
                        if trigger is not None and aggr_slot in here:
                            a_old = old[aggr_slot]
                            a_new = state[aggr_slot]
                            if a_old != a_new and (a_new == 1) == trigger.rising:
                                if cfid is not None:
                                    state[vict_slot] = cfid.forced_value
                                else:
                                    state[vict_slot] ^= 1
                        if cfst is not None or saf is not None:
                            enforce()
        return detected

    # -- fault-free baseline (from the symbolic trace) -----------------
    def fault_free_table(self, position: int) -> tuple[bool, bool]:
        """``(mismatch if c_bit=0, mismatch if c_bit=1)`` of a
        fault-free word at *position* — all-False for well-formed
        tests; derived from the symbolic mask trace, cached by position
        signature."""
        cached = self._fault_free_by_position.get(position)
        if cached is not None:
            return cached
        signature = self._sig_id(position)
        table = self._fault_free.get(signature)
        if table is None:
            hit0 = hit1 = False
            for step in self.trace.read_steps:
                if not hit0 and step.read_mismatch_bit(position, 0):
                    hit0 = True
                if not hit1 and step.read_mismatch_bit(position, 1):
                    hit1 = True
                if hit0 and hit1:
                    break
            table = (hit0, hit1)
            self._fault_free[signature] = table
        self._fault_free_by_position[position] = table
        return table

    def _clean_up_to(self, width: int) -> bool:
        """True when no position below *width* can ever mismatch fault
        free (every well-formed test) — the baseline is then empty for
        *any* content, without touching the words at all."""
        cached = self._clean.get(width)
        if cached is None:
            cached = all(
                self.fault_free_table(j) == (False, False)
                for j in range(width)
            )
            self._clean[width] = cached
        return cached

    def baseline_map(self, width: int, words: Sequence[int]) -> dict[int, int]:
        """Per-address bitmask of positions where the fault-free run
        mismatches for this concrete content (empty for well-formed
        tests; cached for the most recent ``(width, words)``)."""
        if self._clean_up_to(width):
            return {}
        key = (width, tuple(words))
        if self._baseline_key == key:
            return self._baseline_value
        tables = [self.fault_free_table(j) for j in range(width)]
        result: dict[int, int] = {}
        if any(t[0] or t[1] for t in tables):
            for addr, word in enumerate(words):
                positions = 0
                for j, table in enumerate(tables):
                    if table[(word >> j) & 1]:
                        positions |= 1 << j
                if positions:
                    result[addr] = positions
        self._baseline_key = key
        self._baseline_value = result
        return result


register_engine(SymbolicEngine())
