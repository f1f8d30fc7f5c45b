"""Bounded-exhaustive equivalence of the intra-word CF class kernels.

The batch engine answers a whole intra-word coupling-fault class in one
packed pass per (aggressor bit, variant), with every other bit of every
word a victim at once.  That is exact only because a single CF never
writes its aggressor and every write is bitwise, so this slice checks it
against the ``reference`` interpreter over a whole bounded space of
march tests, with no sampling:

* every test of at most 2 elements of at most 2 operations each, over
  ``{r0, r1, w0, w1}`` and over ``{rc, r~c, wc, w~c}``, with orders
  ⇑ and ⇓;
* widths 2 and 3 (3 is not a power of two), 1 and 2 words, derived
  writes on and off;
* the compare oracle (:meth:`detect_class_batch`) and the session
  oracle with each test as its own prediction
  (:meth:`detect_class_aliasing_batch`) at MISR widths 1 and 3.

Configurations the class kernels do not serve (a fault-free run that
already mismatches, or an underivable program on the derived-write
datapath) are skipped.  To stay inside the tier-1 budget, the
(width, words, datapath) and (width, words, MISR width) grids are
covered pairwise rather than as full cross products; every march test
of the space runs in every listed configuration.  Tests are enumerated
smallest first, so the first disagreement reported is a minimal one.
"""

import functools
import itertools

import pytest

from repro.core import parse_march
from repro.engine import ExecutionError, compile_march, get_engine
from repro.memory.injection import IntraWordCFClass
from repro.memory.model import Memory

ALPHABETS = (("r0", "r1", "w0", "w1"), ("rc", "r~c", "wc", "w~c"))
KINDS = ("CFst", "CFid", "CFin")
# Initial content per (width, n_words): mixed bits, so aggressor and
# victim bits start out both equal and unequal.
WORDS = {(2, 1): [0b10], (2, 2): [0b10, 0b01], (3, 1): [0b101], (3, 2): [0b101, 0b011]}
# (width, n_words, derive_writes) for the compare oracle.
COMPARE_CONFIGS = [(3, 2, False), (3, 1, True), (2, 2, True), (2, 1, False)]
# (width, n_words, misr_width) for the self-prediction session oracle.
SESSION_CONFIGS = [(3, 1, 3), (2, 2, 1)]

REFERENCE = get_engine("reference")
BATCH = get_engine("batch")


@functools.cache
def march_space() -> tuple:
    """Every march test of the bounded space, smallest first."""
    tests = []
    for alphabet in ALPHABETS:
        seqs = [
            seq for n_ops in (1, 2) for seq in itertools.product(alphabet, repeat=n_ops)
        ]
        elements = [
            f"{order}({','.join(seq)})" for order in ("up", "down") for seq in seqs
        ]
        for count in (1, 2):
            for combo in itertools.product(elements, repeat=count):
                tests.append(parse_march("; ".join(combo), name="space"))
    return tuple(tests)


def _clean(program, words, derive, prediction=None) -> bool:
    """True when the fault-free run (after *prediction*, if given, on
    the same memory) reads back every expected value."""
    memory = Memory(len(words), program.width)
    memory.load(words)
    try:
        if prediction is not None:
            REFERENCE.run(prediction, memory, snapshot=words)
        run = REFERENCE.run(program, memory, snapshot=words, derive_writes=derive)
    except ExecutionError:  # underivable on the derived-write datapath
        return False
    return not run.detected


def _first_disagreement(got, expected) -> int:
    return next(i for i, (g, e) in enumerate(zip(got, expected)) if g != e)


def test_space_size():
    # 2 orders x (4 + 16) op sequences = 40 elements per alphabet;
    # 40 one-element + 1600 two-element tests.
    assert len(march_space()) == 2 * (40 + 40 * 40)


@pytest.mark.parametrize("width,n_words,derive", COMPARE_CONFIGS)
def test_compare_kernel_matches_interpreter(width, n_words, derive):
    words = WORDS[(width, n_words)]
    classes = [IntraWordCFClass(n_words, width, kind) for kind in KINDS]
    checked = 0
    for test in march_space():
        program = compile_march(test, width)
        if not _clean(program, words, derive):
            continue
        for fault_class in classes:
            got = BATCH.detect_class_batch(
                program, n_words, width, words, fault_class, derive_writes=derive
            ).tolist()
            expected = REFERENCE.detect_batch(
                program, n_words, width, words, list(fault_class),
                derive_writes=derive,
            )
            if got != expected:
                index = _first_disagreement(got, expected)
                pytest.fail(
                    f"{test.describe()} width={width} words={words} "
                    f"derive_writes={derive}: {fault_class[index]} batch "
                    f"{got[index]} vs reference {expected[index]}"
                )
        checked += 1
    assert checked >= 400


@pytest.mark.parametrize("width,n_words,misr_width", SESSION_CONFIGS)
def test_self_prediction_session_matches_interpreter(width, n_words, misr_width):
    words = WORDS[(width, n_words)]
    classes = [IntraWordCFClass(n_words, width, kind) for kind in KINDS]
    checked = 0
    aliased = 0
    for test in march_space():
        program = compile_march(test, width)
        if not program.derivable or not _clean(program, words, True, program):
            continue
        for fault_class in classes:
            pairs = BATCH.detect_class_aliasing_batch(
                program, program, n_words, width, words, fault_class,
                misr_width=misr_width,
            )
            got = pairs.tolist()
            expected = REFERENCE.detect_aliasing_batch(
                program, program, n_words, width, words, list(fault_class),
                misr_width=misr_width,
            )
            if got != expected:
                index = _first_disagreement(got, expected)
                pytest.fail(
                    f"{test.describe()} (own prediction) width={width} "
                    f"words={words} misr_width={misr_width}: "
                    f"{fault_class[index]} batch {got[index]} vs "
                    f"reference {expected[index]}"
                )
            aliased += pairs.aliased_count()
        checked += 1
    assert checked >= 400
    # Narrow MISRs alias, so the stream and signature halves both count.
    assert aliased > 0
