"""Content lanes: the single-word compare kernels over distinct values.

The compare context runs the fault-free baseline, TF, RDF/DRDF and the
intra-word CF broadcasts once per distinct initial word value, and the
class verdicts reach each address's lane through a slot→lane map.
These tests check, for geometries whose values repeat and geometries
whose values are all distinct, on both derived-write datapaths, that
every class answers exactly what the reference interpreter answers
fault by fault — ``count()``, ``missed_indices`` at several limits,
``select``/``tolist``, one-element list calls and a pickle round trip —
that an ill-formed test still falls back, and that the map's counting
and miss search agree with a per-slot scan over random maps.
"""

import pickle
import random
from array import array

import pytest

from repro.core.notation import parse_march
from repro.core.twm import twm_transform
from repro.engine import PlaneVerdicts, get_engine
from repro.library import catalog
from repro.memory.injection import (
    IntraWordCFClass,
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
)

# (width, n_words, words): values repeat in the first three, are all
# distinct (and not sorted) in the rest.
_REPEATING = (
    (1, 9, None),
    (2, 16, None),
    (3, 20, None),
)
_DISTINCT = (
    (2, 4, [3, 0, 2, 1]),
    (3, 8, [5, 1, 7, 0, 2, 6, 3, 4]),
    (4, 3, [9, 2, 14]),
)


def _words(width, n_words, words):
    if words is not None:
        return words
    rng = random.Random(width * 100 + n_words)
    return [rng.randrange(1 << width) for _ in range(n_words)]


def _classes(n_words, width):
    out = [
        StuckAtClass(n_words, width),
        TransitionClass(n_words, width),
        ReadDisturbClass(n_words, width, deceptive=False),
        ReadDisturbClass(n_words, width, deceptive=True),
    ]
    if width > 1:
        out += [
            IntraWordCFClass(n_words, width, kind)
            for kind in ("CFst", "CFid", "CFin")
        ]
    return out


def _tests(width):
    """A raw test (absolute writes), plus its TWMarch form where the
    transform applies."""
    base = catalog.get("March C-")
    out = [base]
    if width & (width - 1) == 0:
        out.append(twm_transform(base, width).twmarch)
    return out


def _check_class(batch, reference, test, n_words, width, words, fc, derive):
    """One class through the content lanes against the reference."""
    context = batch.build_compare_context(
        test, n_words, width, words, derive_writes=derive
    )
    packed = batch.detect_class_batch(
        test, n_words, width, words, fc, derive_writes=derive, context=context
    )
    expected = reference.detect_batch(
        test, n_words, width, words, list(fc), derive_writes=derive
    )
    where = (fc.kind, test.name, width, n_words, derive)
    assert packed.tolist() == expected, where
    assert packed.count() == sum(expected), where
    naive = [i for i, hit in enumerate(expected) if not hit]
    for limit in (0, 1, 3, 16, None):
        cap = len(naive) if limit is None else limit
        assert packed.missed_indices(limit) == naive[:cap], (where, limit)
    picks = random.Random(len(fc)).sample(range(len(fc)), min(12, len(fc)))
    assert packed.select(picks) == [expected[i] for i in picks], where
    restored = pickle.loads(pickle.dumps(packed))
    assert restored.lanes == packed.lanes, where
    assert restored.tolist() == expected and restored.count() == sum(expected)
    for i in picks:
        # One-element list calls: a bit lookup in the class verdicts.
        assert batch.detect_batch(
            test, n_words, width, words, [fc[i]],
            derive_writes=derive, context=context,
        ) == [expected[i]], (where, i)
    return packed


@pytest.mark.parametrize("width, n_words, words", _REPEATING + _DISTINCT)
@pytest.mark.parametrize("derive", [True, False])
def test_content_lanes_match_reference(width, n_words, words, derive):
    batch = get_engine("batch")
    reference = get_engine("reference")
    repeating = words is None
    words = _words(width, n_words, words)
    distinct = len(set(words))
    assert (distinct < n_words) == repeating and words != sorted(words)
    for test in _tests(width):
        for fc in _classes(n_words, width):
            packed = _check_class(
                batch, reference, test, n_words, width, words, fc, derive
            )
            if isinstance(fc, StuckAtClass):
                assert packed.lanes is None  # content-independent
                continue
            # The planes hold one lane per distinct value, and the map
            # sends every address to its value's lane.
            assert packed.lanes is not None and len(packed.lanes) == n_words
            top = max(plane.bit_length() for plane in packed.planes)
            assert top <= distinct * width
            order = sorted(set(words))
            assert [order[lane] for lane in packed.lanes] == words


def test_ill_formed_test_falls_back():
    # Reads before initializing: the fault-free content lanes already
    # mismatch, so the classes take the reference interpreter.
    raw = parse_march("⇕(r0);⇑(w1,r1)", name="ill-formed")
    batch = get_engine("batch")
    reference = get_engine("reference")
    for width, n_words, words in _REPEATING:
        words = _words(width, n_words, words)
        context = batch.build_compare_context(raw, n_words, width, words)
        for fc in _classes(n_words, width):
            assert context.detect_class(fc) is None, fc.kind
            assert batch.detect_batch(
                raw, n_words, width, words, fc, context=context
            ) == reference.detect_batch(raw, n_words, width, words, list(fc))


def _random_map(rng, slots, typecode):
    n_lanes = rng.randint(1, 6) if typecode == "B" else rng.randint(250, 300)
    lanes = array(typecode, (rng.randrange(n_lanes) for _ in range(slots)))
    # Lanes no slot reads are renumbered away, as the context builds
    # one lane per value present.
    used = sorted(set(lanes))
    return array(typecode, (used.index(lane) for lane in lanes)), len(used)


@pytest.mark.parametrize("typecode", ["B", "H"])
def test_mapped_counting_and_misses_match_per_slot_scan(typecode):
    rng = random.Random(typecode)
    for _ in range(60):
        slot_stride = rng.randint(1, 9)
        n_planes = rng.randint(1, 3)
        cells = [(p, o) for p in range(n_planes) for o in range(slot_stride)]
        places = rng.sample(cells, rng.randint(1, min(5, len(cells))))
        slots = rng.randint(1, 700)
        lanes, n_lanes = _random_map(rng, slots, typecode)
        planes = [0] * n_planes
        for lane in range(n_lanes):
            for p, o in places:
                planes[p] |= (rng.random() < 0.8) << (lane * slot_stride + o)
        stride = len(places)
        packed = PlaneVerdicts(
            slots * stride, planes, places, slot_stride, lanes=lanes
        )
        naive = [
            bool(planes[p] >> (lanes[i // stride] * slot_stride + o) & 1)
            for i in range(slots * stride)
            for p, o in [places[i % stride]]
        ]
        assert packed.tolist() == naive
        assert packed.count() == sum(naive)
        misses = [i for i, hit in enumerate(naive) if not hit]
        for limit in (1, 5, 40, None):
            cap = len(misses) if limit is None else limit
            assert packed.missed_indices(limit) == misses[:cap]
        paired = PlaneVerdicts(
            slots * stride, planes, places, slot_stride, planes, lanes
        )
        assert paired.stream_count() == sum(naive)
        assert paired.aliased_count() == 0


def test_lane_map_must_cover_every_slot():
    with pytest.raises(ValueError, match="lane map"):
        PlaneVerdicts(4, (0b11,), lanes=array("B", [0, 1, 0]))
