"""Plane verdicts straight off the class kernels.

Every kernel family hands its planes to
:class:`~repro.engine.PlaneVerdicts` as they are, with a layout mapping
each fault to one bit.  For small geometries (widths 1, 2, 3 and 8; 1
to 5 words) these tests check, family by family, that the container
answers exactly what the reference interpreter answers fault by fault —
``count()``, ``missed_indices`` at limits 1, 16 and all, indexing,
``tolist()`` and a pickle round trip — and that no kernel plane carries
a bit outside its lanes' layout (nothing re-masks them downstream).

Families: word lanes (SAF/TF/RDF/DRDF; TF/RDF/DRDF on content lanes in
the compare oracle), broadcast intra-word CF, and
pair lanes (AF, same-bit inter-word CF), each in the compare oracle and
in the session (signature + aliasing) oracle.
"""

import pickle
import random

import pytest

from repro.core.twm import twm_transform
from repro.engine import PlaneVerdicts, get_engine
from repro.library import catalog
from repro.memory.injection import (
    AddressFaultClass,
    InterWordCFClass,
    IntraWordCFClass,
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
)

# (width, n_words): every width meets several word counts, 1 to 5.
_GEOMETRIES = ((1, 1), (1, 5), (2, 2), (2, 4), (3, 3), (3, 1), (8, 2), (8, 1))


def _families(n_words, width):
    """Kernel family -> its non-empty fault classes at this geometry."""
    out = {
        "word lanes": [
            StuckAtClass(n_words, width),
            TransitionClass(n_words, width),
            ReadDisturbClass(n_words, width, deceptive=False),
            ReadDisturbClass(n_words, width, deceptive=True),
        ],
        "broadcast intra CF": [
            IntraWordCFClass(n_words, width, kind)
            for kind in ("CFst", "CFid", "CFin")
            if width > 1
        ],
        "pair lanes": [
            AddressFaultClass(n_words),
            AddressFaultClass(n_words, wired_or=True),
            *(
                InterWordCFClass(
                    n_words, width, kind, max_pairs=6, rng=random.Random(kind)
                )
                for kind in ("CFst", "CFid", "CFin")
            ),
        ],
    }
    return {
        family: [fc for fc in classes if len(fc)]
        for family, classes in out.items()
    }


def _tests(width):
    """``(label, test, prediction)``: the TWMarch pair where the
    transform applies, and a raw test as its own prediction (a non-zero
    fault-free signature gap, which the intra CF signature planes must
    not leak onto their aggressor bits)."""
    base = catalog.get("March C-")
    out = [("self", base, base)]
    if width & (width - 1) == 0:
        twm = twm_transform(base, width)
        out.append(("twm", twm.twmarch, twm.prediction))
    return out


def _words(n_words, width, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(n_words)]


@pytest.fixture
def kernels_only(monkeypatch):
    """Fail if a class falls back to the per-fault path (packed on the
    way out by ``from_bools``/``from_pairs``): every class here must
    come straight off a kernel."""

    def refuse(cls, verdicts):
        raise AssertionError("class took the per-fault path")

    monkeypatch.setattr(PlaneVerdicts, "from_bools", classmethod(refuse))
    monkeypatch.setattr(PlaneVerdicts, "from_pairs", classmethod(refuse))


def _cases():
    batch = get_engine("batch")
    for width, n_words in _GEOMETRIES:
        words = _words(n_words, width, seed=width * 10 + n_words)
        for label, test, prediction in _tests(width):
            for family, classes in _families(n_words, width).items():
                for fc in classes:
                    where = (family, fc.kind, label, width, n_words)
                    yield where, batch.detect_class_batch(
                        test, n_words, width, words, fc
                    ), (test, n_words, width, words, fc)
                    for misr_width, misr_seed in ((3, 5), (16, 0)):
                        yield where + ("session", misr_width), (
                            batch.detect_class_aliasing_batch(
                                test, prediction, n_words, width, words, fc,
                                misr_width=misr_width, misr_seed=misr_seed,
                            )
                        ), (
                            test, prediction, n_words, width, words, fc,
                            misr_width, misr_seed,
                        )


def _layout_bits(verdicts):
    """Per plane, the bits the layout places a fault on, through the
    slot→lane map when there is one."""
    allowed = [0] * len(verdicts.planes)
    stride = len(verdicts.places)
    for i in range(len(verdicts)):
        slot, j = divmod(i, stride)
        if verdicts.lanes is not None:
            slot = verdicts.lanes[slot]
        plane, offset = verdicts.places[j]
        allowed[plane] |= 1 << (slot * verdicts.slot_stride + offset)
    return allowed


def _reference(args):
    reference = get_engine("reference")
    if len(args) == 5:
        test, n_words, width, words, fc = args
        return reference.detect_batch(test, n_words, width, words, list(fc))
    test, prediction, n_words, width, words, fc, misr_width, misr_seed = args
    return reference.detect_aliasing_batch(
        test, prediction, n_words, width, words, list(fc),
        misr_width=misr_width, misr_seed=misr_seed,
    )


def test_kernel_families_match_reference(kernels_only):
    seen = set()
    misses = 0
    for where, packed, args in _cases():
        seen.add(where[0] + (" session" if "session" in where else ""))
        expected = _reference(args)
        hits = [e[1] if isinstance(e, tuple) else e for e in expected]
        assert len(packed) == len(expected), where
        assert packed.tolist() == expected, where
        assert [packed[i] for i in range(len(packed))] == expected, where
        assert packed[-1] == expected[-1], where
        assert packed.count() == sum(hits), where
        naive = [i for i, hit in enumerate(hits) if not hit]
        misses += len(naive)
        for limit in (1, 16, None):
            cap = len(naive) if limit is None else limit
            assert packed.missed_indices(limit) == naive[:cap], (where, limit)
        if packed.streams is not None:
            assert packed.stream_count() == sum(s for s, _ in expected), where
            assert packed.aliased_count() == sum(
                s and not g for s, g in expected
            ), where
            assert packed.signature.tolist() == hits, where
        restored = pickle.loads(pickle.dumps(packed))
        assert restored.tolist() == expected, where
        assert (
            restored.planes, restored.places, restored.streams, restored.lanes
        ) == (packed.planes, packed.places, packed.streams, packed.lanes), where
    assert seen == {
        f"{family}{oracle}"
        for family in ("word lanes", "broadcast intra CF", "pair lanes")
        for oracle in ("", " session")
    }
    assert misses > 0


def test_no_plane_bit_outside_layout(kernels_only):
    for where, packed, _ in _cases():
        allowed = _layout_bits(packed)
        for plane_set in (packed.planes, packed.streams or ()):
            for p, plane in enumerate(plane_set):
                assert plane & ~allowed[p] == 0, (where, p)


def test_intra_cf_layout_is_one_plane_per_aggressor_and_variant():
    batch = get_engine("batch")
    width, n_words = 8, 2
    twm = twm_transform(catalog.get("March C-"), width)
    words = _words(n_words, width, seed=3)
    for kind, variants in (("CFst", 4), ("CFid", 4), ("CFin", 2)):
        fc = IntraWordCFClass(n_words, width, kind)
        packed = batch.detect_class_batch(twm.twmarch, n_words, width, words, fc)
        assert len(packed.planes) == width * variants
        assert packed.slot_stride == width
        for j, (plane, offset) in enumerate(packed.places):
            a_bit, v_bit = fc.pair_bits(j // variants)
            assert (plane, offset) == (a_bit * variants + j % variants, v_bit)
