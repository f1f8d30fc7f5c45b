"""Packed class-level verdict passes and streaming fault universes.

The megaword contract has three parts, each tested here:

* **streaming universes** — :class:`~repro.memory.injection.FaultClass`
  descriptors enumerate bit-identically to the legacy eager
  enumerators (including the rng-sampled inter-word coupling classes),
  with O(1) ``len`` and index arithmetic instead of materialized
  ``Fault`` lists;
* **packed verdict bitsets** —
  :class:`~repro.engine.PlaneVerdicts` (bool and pair form) round-trips
  the per-fault verdicts exactly (counts, missed indices, chunk concat,
  pickling);
* **class kernels** — the batch engine's
  :meth:`~repro.engine.BatchEngine.detect_class_batch` one-pass
  kernels are bit-identical to the reference interpreter (and, at
  sizes the interpreter cannot afford, to one-element calls of the
  list path), at small sizes fully and at megaword sizes on strided
  samples, across edge widths (1, non-power-of-two, > 64);
* **one lane path** — materialized lists, chunk slices, cross-bit and
  mismatched-geometry classes take the lanes too; only ill-formed
  tests, underivable programs and unknown fault kinds reach the one
  reference fallback.
"""

import pickle
import random

import pytest

from repro.analysis.coverage import (
    aliasing_flow,
    compare_flow,
    run_campaign,
    signature_flow,
)
from repro.cli import main
from repro.core.twm import twm_transform
from repro.engine import (
    CampaignRunner,
    ExecutionError,
    PlaneVerdicts,
    compile_march,
    get_engine,
)
from repro.engine import batch as batch_module
from repro.engine.program import compile_symbolic, pack_words
from repro.engine.symbolic import _SymbolicCampaign
from repro.library import catalog
from repro.memory.faults import AddressDecoderFault, Fault
from repro.memory.injection import (
    AddressFaultClass,
    FaultClass,
    InterWordCFClass,
    IntraWordCFClass,
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
    enumerate_address_faults,
    enumerate_intra_word_cf,
    enumerate_inter_word_cf,
    enumerate_read_disturb,
    enumerate_stuck_at,
    enumerate_transition,
    standard_fault_universe,
)


def _words(n_words, width, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(n_words)]


class TestStreamingUniverseOrdering:
    """FaultClass descriptors reproduce the eager enumerator orders."""

    def test_single_cell_classes_match_enumerators(self):
        for n, w in [(3, 4), (2, 1), (5, 3), (1, 8)]:
            assert list(StuckAtClass(n, w)) == list(enumerate_stuck_at(n, w))
            assert list(TransitionClass(n, w)) == list(
                enumerate_transition(n, w)
            )
            for deceptive in (False, True):
                assert list(
                    ReadDisturbClass(n, w, deceptive=deceptive)
                ) == list(
                    enumerate_read_disturb(n, w, deceptive=deceptive)
                ), (n, w, deceptive)
            assert list(AddressFaultClass(n)) == list(
                enumerate_address_faults(n)
            )

    def test_intra_cf_classes_match_enumerators(self):
        for n, w in [(3, 4), (2, 2), (4, 3)]:
            for kind in ("CFst", "CFid", "CFin"):
                assert list(IntraWordCFClass(n, w, kind)) == list(
                    enumerate_intra_word_cf(n, w, kind)
                ), (n, w, kind)

    def test_inter_cf_sampling_matches_legacy(self):
        # The shared campaign rng must be consumed identically, so the
        # sampled pair sets agree fault for fault across all kinds.
        for seed in (0, 7, 11):
            for cap in (4, 16, None):
                for kind in ("CFst", "CFid", "CFin"):
                    legacy = list(
                        enumerate_inter_word_cf(
                            4,
                            3,
                            kind,
                            max_pairs=cap,
                            rng=random.Random(seed),
                            same_bit_only=(kind == "CFin"),
                        )
                    )
                    streaming = InterWordCFClass(
                        4,
                        3,
                        kind,
                        max_pairs=cap,
                        rng=random.Random(seed),
                        same_bit_only=(kind == "CFin"),
                    )
                    assert list(streaming) == legacy, (seed, cap, kind)

    def test_standard_universe_streaming_equals_legacy(self):
        for seed in (1, 9):
            streaming = standard_fault_universe(
                4,
                4,
                max_inter_pairs=10,
                rng=random.Random(seed),
                include_rdf=True,
                include_af=True,
            )
            legacy = standard_fault_universe(
                4,
                4,
                max_inter_pairs=10,
                rng=random.Random(seed),
                include_rdf=True,
                include_af=True,
                streaming=False,
            )
            assert list(streaming) == list(legacy)  # key order
            for name in streaming:
                assert isinstance(streaming[name], FaultClass), name
                assert list(streaming[name]) == list(legacy[name]), name

    def test_sequence_protocol(self):
        fc = StuckAtClass(5, 3)
        assert len(fc) == 2 * 5 * 3
        assert fc[0] == next(iter(enumerate_stuck_at(5, 3)))
        assert fc[-1] == list(enumerate_stuck_at(5, 3))[-1]
        assert fc[3:7] == list(enumerate_stuck_at(5, 3))[3:7]
        assert isinstance(fc[3:7], list)
        with pytest.raises(IndexError):
            fc[len(fc)]

    def test_megaword_len_is_lazy(self):
        # Descriptor construction and len never enumerate: instant even
        # at 2^20 words (16.7M stuck-at faults).
        fc = StuckAtClass(1 << 20, 8)
        assert len(fc) == 2 * (1 << 20) * 8
        assert fc[len(fc) - 1].cell.addr == (1 << 20) - 1

    def test_spec_equality_and_pickling(self):
        a = TransitionClass(4, 4)
        b = TransitionClass(4, 4)
        c = TransitionClass(5, 4)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "TF"
        restored = pickle.loads(pickle.dumps(a))
        assert restored == a and list(restored) == list(a)


class TestPackedVerdictContainers:
    def test_from_bools_round_trip(self):
        bools = [True, False, False, True, True]
        packed = PlaneVerdicts.from_bools(bools)
        assert list(packed) == bools
        assert packed.tolist() == bools
        assert packed.count() == 3
        assert packed == bools
        assert len(packed) == 5

    def test_from_bools_rejects_non_bool(self):
        with pytest.raises(TypeError, match="expected a bool verdict"):
            PlaneVerdicts.from_bools([True, (True, False)])

    def test_strided_layout(self):
        # Two planes, one per variant: fault i = bit i//2 of planes[i % 2].
        packed = PlaneVerdicts(6, (0b101, 0b010))
        assert packed.places == ((0, 0), (1, 0))
        assert list(packed) == [True, False, False, True, True, False]
        assert packed.count() == 3
        assert packed.missed_indices(10) == [1, 2, 5]
        assert packed.missed_indices(2) == [1, 2]

    def test_slot_stride_layout(self):
        # slot_stride=3: verdicts live at every third bit.
        packed = PlaneVerdicts(3, (0b001000001,), slot_stride=3)
        assert list(packed) == [True, False, True]
        assert packed.missed_indices(5) == [1]
        # Two variants sharing one plane at offsets 2 and 0; offset 1
        # is outside the layout and never reported missed.
        packed = PlaneVerdicts(4, (0b000100,), ((0, 2), (0, 0)), 3)
        assert list(packed) == [True, False, False, False]
        assert packed.missed_indices() == [1, 2, 3]

    def test_concat_and_pickle(self):
        parts = [
            PlaneVerdicts.from_bools([True, False]),
            PlaneVerdicts.from_bools([False]),
            PlaneVerdicts.from_bools([True, True]),
        ]
        merged = PlaneVerdicts.concat(parts)
        assert list(merged) == [True, False, False, True, True]
        restored = pickle.loads(pickle.dumps(merged))
        assert list(restored) == list(merged)
        with pytest.raises(ValueError, match="flat"):
            PlaneVerdicts.concat([PlaneVerdicts(2, (0, 0))])

    def test_missed_indices_window_matches_naive_scan(self):
        # The windowed scan against a per-index scan of tolist(), over
        # random layouts (planes shared by several variants at distinct
        # offsets, offsets no variant uses), densities and limits.
        # Planes carry layout bits only, as every kernel hands them
        # over (TestPlaneLayoutInvariant checks the kernels).
        rng = random.Random(0)
        for _ in range(3000):
            slot_stride = rng.randint(1, 9)
            n_planes = rng.randint(1, 4)
            cells = [(p, o) for p in range(n_planes) for o in range(slot_stride)]
            places = rng.sample(cells, rng.randint(1, min(6, len(cells))))
            slots = rng.randint(0, 60)
            density = rng.random()
            limit = rng.choice((None, 0, 1, 2, 5, 16, rng.randint(0, 400)))
            planes = [0] * n_planes
            for s in range(slots):
                for p, o in places:
                    planes[p] |= (rng.random() < density) << (s * slot_stride + o)
            n = slots * len(places)
            packed = PlaneVerdicts(n, planes, places, slot_stride)
            naive = [i for i, hit in enumerate(packed.tolist()) if not hit]
            cap = n if limit is None else limit
            assert packed.missed_indices(limit) == naive[:cap], (
                places, slot_stride, slots, density, limit,
            )

    def test_pair_verdicts(self):
        pairs = [(True, True), (True, False), (False, False)]
        packed = PlaneVerdicts.from_pairs(pairs)
        assert packed.tolist() == pairs
        assert packed.count() == 1  # signature detections
        assert packed.stream_count() == 2
        assert packed.aliased_count() == 1  # stream hit, signature miss
        assert packed.missed_indices(5) == [1, 2]
        assert packed.signature.tolist() == [True, False, False]
        restored = pickle.loads(pickle.dumps(packed))
        assert restored.tolist() == pairs
        merged = PlaneVerdicts.concat([packed, packed])
        assert merged.tolist() == pairs + pairs

    def test_pair_verdicts_reject_malformed(self):
        with pytest.raises(TypeError):
            PlaneVerdicts.from_pairs([(True, False), True])

    def test_pack_words_matches_naive(self):
        for n, w in [(0, 4), (1, 7), (13, 3), (100, 8)]:
            words = [random.Random(n).randrange(1 << w) for _ in range(n)]
            naive = 0
            for i, word in enumerate(words):
                naive |= word << (i * w)
            assert pack_words(words, w) == naive, (n, w)


def _context(test, n_words, width, seed):
    program = compile_march(test, width)
    return batch_module._CampaignContext(
        program, n_words, _words(n_words, width, seed), True
    )


def _one_by_one(ctx, faults):
    """Each fault's verdict from a one-element call of the list path."""
    return [ctx.detect_class([fault])[0] for fault in faults]


def _reference(ctx, faults):
    """The reference engine's verdicts on *ctx*'s compare campaign."""
    return get_engine("reference").detect_batch(
        ctx.program, ctx.n_words, ctx.width, ctx.words, list(faults),
        derive_writes=ctx.derive,
    )


def _classes(n_words, width):
    out = {
        "SAF": StuckAtClass(n_words, width),
        "TF": TransitionClass(n_words, width),
        "RDF": ReadDisturbClass(n_words, width, deceptive=False),
        "DRDF": ReadDisturbClass(n_words, width, deceptive=True),
    }
    if width > 1:
        for kind in ("CFst", "CFid", "CFin"):
            out[kind] = IntraWordCFClass(n_words, width, kind)
    return out


class TestClassKernelEquivalence:
    """Packed class passes == the list path == reference."""

    def test_full_equality_small(self):
        for name in ("March C-", "MATS+"):
            twm = twm_transform(catalog.get(name), 4).twmarch
            ctx = _context(twm, 1 << 10, 4, seed=5)
            for cname, fc in _classes(1 << 10, 4).items():
                if cname not in ("SAF", "TF", "RDF", "DRDF"):
                    continue  # intra kernels covered at smaller n below
                packed = ctx.detect_class(fc)
                assert len(packed) == len(fc)
                assert packed == _one_by_one(ctx, fc), (name, cname)

    def test_intra_cf_kernels_small(self):
        twm = twm_transform(catalog.get("March C-"), 4).twmarch
        ctx = _context(twm, 16, 4, seed=3)
        for cname, fc in _classes(16, 4).items():
            packed = ctx.detect_class(fc)
            assert packed == _reference(ctx, fc), cname

    def test_edge_widths(self):
        # Width 1 (no intra classes), non-power-of-two 3 and 5 (raw
        # march: TWM needs power-of-two widths), and > 64 (beyond any
        # machine-word assumption).
        base = catalog.get("March C-")
        for n, w in [(8, 1), (6, 3), (5, 5), (2, 65)]:
            test = twm_transform(base, w).twmarch if w & (w - 1) == 0 else base
            ctx = _context(test, n, w, seed=n * w)
            for cname, fc in _classes(n, w).items():
                packed = ctx.detect_class(fc)
                assert packed == _reference(ctx, fc), (n, w, cname)

    def test_megaword_sampled(self):
        # 2^16 and 2^20 words: packed bitset vs strided one-element
        # calls of the list path (the reference engine would take
        # hours).
        twm = twm_transform(catalog.get("March C-"), 8).twmarch
        for n in (1 << 16, 1 << 20):
            ctx = _context(twm, n, 8, seed=1)
            for cname, fc in _classes(n, 8).items():
                if cname not in ("SAF", "TF", "RDF", "DRDF"):
                    continue
                packed = ctx.detect_class(fc)
                assert len(packed) == len(fc)
                stride = max(1, len(fc) // 48)
                for i in range(0, len(fc), stride):
                    assert packed[i] == ctx.detect_class([fc[i]])[0], (
                        n, cname, i,
                    )

    def test_matches_reference_engine(self):
        twm = twm_transform(catalog.get("March U"), 4).twmarch
        n, w, seed = 5, 4, 13
        words = _words(n, w, seed)
        batch = get_engine("batch")
        reference = get_engine("reference")
        for cname, fc in _classes(n, w).items():
            packed = batch.detect_class_batch(twm, n, w, words, fc)
            assert isinstance(packed, PlaneVerdicts)
            ref = reference.detect_batch(twm, n, w, words, list(fc))
            assert packed == ref, cname

    def test_ill_formed_baseline_falls_back(self):
        # An ill-formed march (reads before initializing) mismatches
        # fault free on random content, so no lane pass applies; the
        # engine answers through the reference interpreter instead.
        from repro.core.notation import parse_march

        raw = parse_march("⇕(r0);⇑(w1,r1)", name="ill-formed")
        ctx = _context(raw, 6, 4, seed=2)
        batch = get_engine("batch")
        for cname, fc in _classes(6, 4).items():
            assert ctx.detect_class(fc) is None, cname
            packed = batch.detect_class_batch(raw, 6, 4, ctx.words, fc)
            assert packed == _reference(ctx, fc), cname

    def test_geometry_mismatch_streams(self):
        # A class narrower than the campaign is answered fault by fault
        # from the campaign's own planes (except SAF, whose kernel
        # replicates at the class lane width).
        twm = twm_transform(catalog.get("March C-"), 8).twmarch
        ctx = _context(twm, 6, 8, seed=4)
        for fc in (TransitionClass(6, 4), StuckAtClass(6, 4)):
            packed = ctx.detect_class(fc)
            assert packed == _reference(ctx, fc)

    def test_campaign_jobs_deterministic_streaming(self):
        twm = twm_transform(catalog.get("March C-"), 4)
        universe = standard_fault_universe(
            4, 4, max_inter_pairs=8, rng=random.Random(3)
        )
        flow = compare_flow(twm.twmarch, 4, 4, initial=None, seed=3)
        seq = run_campaign(flow, universe, engine="batch", jobs=1)
        par = run_campaign(flow, universe, engine="batch", jobs=2)
        assert seq.coverage_vector() == par.coverage_vector()
        assert seq.undetected == par.undetected


def _pair_lane_classes(n_words, width, seed):
    """AF (both wirings) and same-bit inter-word CF classes, the latter
    unsampled and sampled."""
    out = {
        "AF": AddressFaultClass(n_words),
        "AF-or": AddressFaultClass(n_words, wired_or=True),
    }
    for kind in ("CFst", "CFid", "CFin"):
        out[kind] = InterWordCFClass(n_words, width, kind)
        out[f"{kind}-sampled"] = InterWordCFClass(
            n_words, width, kind, max_pairs=5, rng=random.Random(seed)
        )
    return out


# Beyond the catalog TWMarches: a test whose AF-none verdict depends on
# the content (its only reads expect the snapshot itself), one that is
# clean only on the derived-write datapath (a relative write after an
# absolute read), and one whose state changes under a fault in one run
# are undone by the next (as its own session prediction, a fault flips
# a victim during the prediction phase and back during the test phase,
# so only the test phase's reads may decide the stream verdict).
_HAND_WRITTEN = (
    "⇑(rc,wc);⇓(rc)",
    "⇕(w0);⇑(r0,wc,r0);⇓(r0,w1,r1)",
    "⇑(rc,w~c,r~c,wc)",
)


class TestPairLaneKernels:
    """Packed AF and inter-word CF kernels == reference."""

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_matches_per_fault(self, width):
        from repro.core.notation import parse_march

        tests = [
            twm_transform(catalog.get(name), width).twmarch
            for name in catalog.names()
        ]
        tests += [parse_march(text, name=text) for text in _HAND_WRITTEN]
        batch = get_engine("batch")
        misses = {"AF": 0, "CF": 0}
        for test in tests:
            name = test.name
            program = compile_march(test, width)
            assert program.derivable, name
            for derive in (True, False):
                for n in (1, 2, 3, 5):
                    for seed in (1, 2):
                        ctx = batch_module._CampaignContext(
                            program, n, _words(n, width, seed), derive
                        )
                        classes = _pair_lane_classes(n, width, seed)
                        for cname, fc in classes.items():
                            # A baseline dirty on one datapath (a
                            # hand-written test) takes the reference.
                            packed = batch.detect_class_batch(
                                program, n, width, ctx.words, fc,
                                derive_writes=derive, context=ctx,
                            )
                            assert len(packed) == len(fc)
                            expected = _reference(ctx, fc)
                            assert packed.tolist() == expected, (
                                name, derive, n, seed, cname,
                            )
                            key = "AF" if cname.startswith("AF") else "CF"
                            misses[key] += expected.count(False)
        # Both kernels must reproduce misses, not only hits.
        assert misses["AF"] > 0 and misses["CF"] > 0, misses

    def test_edge_widths(self):
        # Non-power-of-two and > 64-bit lanes (raw march: TWM needs
        # power-of-two widths).
        program_of = {w: compile_march(catalog.get("March U"), w) for w in (3, 5, 65)}
        for n, w in ((5, 3), (4, 5), (3, 65)):
            for derive in (True, False):
                ctx = batch_module._CampaignContext(
                    program_of[w], n, _words(n, w, n * w), derive
                )
                for cname, fc in _pair_lane_classes(n, w, 1).items():
                    packed = ctx.detect_class(fc)
                    assert packed.tolist() == _reference(ctx, fc), (
                        n, w, derive, cname,
                    )

    @pytest.mark.parametrize("name", ["MATS+", "March X", "March Y"])
    def test_af_misses(self, name):
        # At width 1, these three tests miss the two AF-multi(and)
        # faults of address 2 on random.Random(0) content.
        program = compile_march(twm_transform(catalog.get(name), 1).twmarch, 1)
        for n in (3, 4, 8):
            ctx = batch_module._CampaignContext(
                program, n, _words(n, 1, 0), True
            )
            fc = AddressFaultClass(n)
            packed = ctx.detect_class(fc)
            assert [fc[i].describe() for i in packed.missed_indices()] == [
                "AF-multi(and)@2+0",
                "AF-multi(and)@2+1",
            ]
            assert packed.tolist() == _reference(ctx, fc)

    def test_matches_reference_engine(self):
        batch = get_engine("batch")
        reference = get_engine("reference")
        for name, width, n in (
            ("MATS+", 1, 4),
            ("March C-", 2, 3),
            ("March U", 4, 3),
            ("March LR", 8, 2),
        ):
            twm = twm_transform(catalog.get(name), width).twmarch
            words = _words(n, width, seed=n + width)
            for derive in (True, False):
                for cname, fc in _pair_lane_classes(n, width, 3).items():
                    packed = batch.detect_class_batch(
                        twm, n, width, words, fc, derive_writes=derive
                    )
                    assert isinstance(packed, PlaneVerdicts)
                    expected = reference.detect_batch(
                        twm, n, width, words, list(fc), derive_writes=derive
                    )
                    assert packed.tolist() == expected, (name, derive, cname)


class _WeirdFault(Fault):
    """A user-defined fault kind: no lane pass models it."""

    @property
    def cells(self):
        return ()

    @property
    def kind(self):
        return "WEIRD"

    def describe(self):
        return "WEIRD"


@pytest.fixture
def compare_probes(monkeypatch):
    """Counts the batch engine's reference-fallback calls (and the
    faults they carry) and the compare context's pair-lane passes."""
    counts = {"fallback": 0, "fallback_faults": 0, "pair_lane": 0}
    fallback = batch_module._reference_verdicts

    def counting_fallback(oracle, *args, **kwargs):
        counts["fallback"] += 1
        counts["fallback_faults"] += len(args[4])  # the fault sequence
        return fallback(oracle, *args, **kwargs)

    pair_lane_run = batch_module._CampaignContext._pair_lane_run

    def counting_pair_lane_run(self, lanes):
        counts["pair_lane"] += 1
        return pair_lane_run(self, lanes)

    monkeypatch.setattr(batch_module, "_reference_verdicts", counting_fallback)
    monkeypatch.setattr(
        batch_module._CampaignContext, "_pair_lane_run", counting_pair_lane_run
    )
    return counts


class TestPairLaneKernelPaths:
    """Which fault sequences take the lanes and which the one reference
    fallback — with the reference engine's verdicts either way."""

    N, W = 4, 4

    def _universe(self, streaming=True):
        return standard_fault_universe(
            self.N,
            self.W,
            max_inter_pairs=6,
            rng=random.Random(4),
            include_rdf=True,
            include_af=True,
            streaming=streaming,
        )

    def _context(self, test=None, seed=5):
        test = test or twm_transform(catalog.get("March C-"), self.W).twmarch
        return _context(test, self.N, self.W, seed)

    def test_streaming_classes_skip_per_fault_replay(self, compare_probes):
        twm = twm_transform(catalog.get("March C-"), self.W)
        flow = compare_flow(twm.twmarch, self.N, self.W, seed=3)
        fast = run_campaign(flow, self._universe(), engine="batch")
        assert compare_probes["pair_lane"] == 4  # AF + three CF kinds
        # A materialized universe takes pair lanes too: built from the
        # CF lists, and the AF list (the whole class) looks up the
        # class's own lanes.
        slow = run_campaign(flow, self._universe(streaming=False), engine="batch")
        assert compare_probes["pair_lane"] > 4
        assert compare_probes["fallback"] == 0
        assert fast.coverage_vector() == slow.coverage_vector()
        assert fast.undetected == slow.undetected
        ref = run_campaign(flow, self._universe(streaming=False), engine="reference")
        assert slow.coverage_vector() == ref.coverage_vector()
        assert slow.undetected == ref.undetected

    def _lane_path(self, probes, ctx, fc):
        lanes = probes["pair_lane"]
        for faults in (fc, list(fc)):
            packed = ctx.detect_class(faults)
            assert packed.tolist() == _reference(ctx, fc)
        assert probes["pair_lane"] > lanes
        assert probes["fallback"] == 0

    def test_cross_bit_inter_cf_takes_lanes(self, compare_probes):
        ctx = self._context()
        for kind in ("CFst", "CFid", "CFin"):
            fc = InterWordCFClass(
                self.N, self.W, kind, same_bit_only=False,
                max_pairs=8, rng=random.Random(1),
            )
            self._lane_path(compare_probes, ctx, fc)

    def test_mismatched_geometry_takes_lanes(self, compare_probes):
        ctx = self._context()
        for fc in (
            AddressFaultClass(self.N - 1),
            InterWordCFClass(self.N - 1, self.W, "CFid"),
            InterWordCFClass(self.N, self.W // 2, "CFst"),
        ):
            self._lane_path(compare_probes, ctx, fc)

    def test_sparse_af_lists_take_list_lanes(self, compare_probes):
        # A few AF faults of a larger memory take pair lanes built from
        # the list, in both oracles; a list holding much of the class
        # takes lookups in the class's verdicts.  MATS+ at width 1
        # misses the two AF-multi(and) faults of address 2.
        n, width = 8, 1
        words = _words(n, width, 0)
        twm = twm_transform(catalog.get("MATS+"), width)
        test, prediction = (compile_march(t, width) for t in (twm.twmarch, twm.prediction))
        missed = [AddressDecoderFault(2, "multi", other) for other in (0, 1)]
        rng = random.Random(3)
        for wired_or in (False, True):
            pool = AddressFaultClass(n, wired_or=wired_or)[n:]
            faults = [*missed, *rng.sample(pool, 4), AddressDecoderFault(5)]
            for derive in (True, False):
                ctx = batch_module._CampaignContext(test, n, words, derive)
                verdicts = ctx.detect_class(faults).tolist()
                assert verdicts == _reference(ctx, faults)
                assert verdicts[:2] == [False, False]
                assert not ctx._lookups
                assert ctx.detect_class(pool).tolist() == _reference(ctx, pool)
                assert ctx._lookups
            for misr_width, misr_seed in ((3, 0), (1, 5)):
                session = batch_module._SignatureContext(
                    prediction, test, n, words, misr_width, misr_seed
                )
                assert session.detect_class(faults) == _reference_pairs(
                    session, faults
                )
                assert not session._class_verdicts
        assert compare_probes["fallback"] == 0

    def test_ill_formed_test_keeps_per_fault_path(self, compare_probes):
        from repro.core.notation import parse_march

        raw = parse_march("⇕(r0);⇑(w1,r1)", name="ill-formed")
        ctx = self._context(raw, seed=2)
        batch = get_engine("batch")
        for fc in _pair_lane_classes(self.N, self.W, 2).values():
            calls = compare_probes["fallback"]
            packed = batch.detect_class_batch(raw, self.N, self.W, ctx.words, fc)
            assert compare_probes["fallback"] == calls + 1
            assert packed.tolist() == _reference(ctx, fc)
        assert compare_probes["pair_lane"] == 0

    def test_underivable_program_keeps_per_fault_path(self, compare_probes):
        from repro.core.notation import parse_march

        test = parse_march("⇕(wc);⇕(rc)", name="underivable")
        words = _words(self.N, self.W, seed=1)
        args = (test, self.N, self.W, words)
        batch = get_engine("batch")
        reference = get_engine("reference")
        assert batch.build_compare_context(*args) is None
        for fc in _pair_lane_classes(self.N, self.W, 1).values():
            with pytest.raises(ExecutionError):
                reference.detect_batch(*args, list(fc))
            with pytest.raises(ExecutionError):
                batch.detect_class_batch(*args, fc)
        assert compare_probes["fallback"] == len(_pair_lane_classes(self.N, self.W, 1))
        assert compare_probes["pair_lane"] == 0

    def test_user_defined_fault_kind_takes_reference(self, compare_probes):
        # One fault no lane pass models sends its whole sequence to the
        # reference engine, which sees a fault-free memory for it.
        ctx = self._context()
        faults = [*AddressFaultClass(self.N)[:3], _WeirdFault()]
        batch = get_engine("batch")
        verdicts = batch.detect_batch(
            ctx.program, self.N, self.W, ctx.words, faults
        )
        assert compare_probes["fallback"] == 1
        assert compare_probes["fallback_faults"] == len(faults)
        assert verdicts == _reference(ctx, faults)
        assert verdicts[-1] is False

    def test_table2_batch_takes_lanes(self, compare_probes, capsys):
        # The symbolic cross-check through the batch engine prints the
        # reference engine's table, with no per-fault call.
        def rows(engine):
            argv = ["table2", "--widths", "4,8", "--words", "3"]
            assert main([*argv, "--max-inter-pairs", "4", "--engines", engine]) == 0
            return [
                [cell.strip() for cell in line.split("|")[1:-1]]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("| ") and "vs " not in line
            ]

        batch_rows = rows("batch")
        assert compare_probes["fallback"] == 0
        assert batch_rows == rows("reference")
        assert len(batch_rows) == 22

    @pytest.mark.parametrize("n_words", [1, 2])
    def test_edge_geometries(self, compare_probes, n_words):
        twm = twm_transform(catalog.get("March C-"), self.W).twmarch
        ctx = _context(twm, n_words, self.W, seed=7)
        for cname, fc in _pair_lane_classes(n_words, self.W, 7).items():
            if n_words == 1:
                assert len(fc) == (1 if cname.startswith("AF") else 0)
            packed = ctx.detect_class(fc)
            assert len(packed) == len(fc)
            assert packed.tolist() == _reference(ctx, fc), cname
        assert compare_probes["pair_lane"] == (0 if n_words == 1 else 8)
        assert compare_probes["fallback"] == 0


def _session(name, width, n_words, seed, misr_width, misr_seed):
    # A hand-written test is its own prediction: a user-supplied
    # prediction with writes, whose state carries into the test phase.
    if name in _HAND_WRITTEN:
        from repro.core.notation import parse_march

        test = prediction = parse_march(name, name=name)
    else:
        twm = twm_transform(catalog.get(name), width)
        test, prediction = twm.twmarch, twm.prediction
    return batch_module._SignatureContext(
        compile_march(prediction, width),
        compile_march(test, width),
        n_words,
        _words(n_words, width, seed),
        misr_width,
        misr_seed,
    )


# (misr_width, misr_seed) cycled over the geometries below: every MISR
# width meets a zero and a non-zero seed somewhere in the sweep.
_MISR_CONFIGS = ((1, 0), (3, 5), (16, 0), (16, 0xBEEF), (1, 3), (3, 0))


def _session_classes(n_words, width, seed):
    """Word-lane and (``pair-`` prefixed) pair-lane session kernel
    classes."""
    pair_lane = _pair_lane_classes(n_words, width, seed)
    return {
        **_classes(n_words, width),
        **{f"pair-{cname}": fc for cname, fc in pair_lane.items()},
    }


def _reference_pairs(ctx, faults):
    """The reference engine's pair verdicts on *ctx*'s session."""
    return get_engine("reference").detect_aliasing_batch(
        ctx.test, ctx.prediction, ctx.n_words, ctx.width, ctx.words,
        list(faults), misr_width=ctx.misr_width, misr_seed=ctx.misr_seed,
    )


class TestSessionClassKernels:
    """Packed session class kernels == reference."""

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", ["March C-", "MATS+", *_HAND_WRITTEN])
    def test_matches_per_fault_pairs(self, name, width):
        config = 0
        # Signature misses and aliased pairs of the pair-lane classes.
        live = {"AF": [0, 0], "CF": [0, 0]}
        for n in (1, 2, 3, 5):
            for seed in (1, 2):
                misr_width, misr_seed = _MISR_CONFIGS[config % 6]
                config += 1
                ctx = _session(name, width, n, seed, misr_width, misr_seed)
                for cname, fc in _session_classes(n, width, seed).items():
                    # Only the inter-word CF classes at one word are empty.
                    assert ctx.has_class_kernel(fc) == (len(fc) > 0), cname
                    if not len(fc):
                        continue
                    packed = ctx.detect_class(fc)
                    assert len(packed) == len(fc)
                    expected = _reference_pairs(ctx, fc)
                    assert packed.tolist() == expected, (
                        n, seed, misr_width, misr_seed, cname,
                    )
                    key = cname[5:7]
                    if cname.startswith("pair-"):
                        live[key][0] += sum(not sig for _, sig in expected)
                        live[key][1] += sum(st and not sig for st, sig in expected)
        if name not in _HAND_WRITTEN:
            # Both kernels must reproduce signature misses and aliasing,
            # not only detections.
            assert all(all(counts) for counts in live.values()), live

    @pytest.mark.parametrize("name", ["March C-", "MATS+"])
    def test_matches_reference_engine(self, name):
        batch = get_engine("batch")
        reference = get_engine("reference")
        aliased = 0
        for width, n, misr_width, misr_seed in (
            (2, 3, 1, 0),
            (4, 2, 3, 7),
            (4, 3, 16, 0),
        ):
            twm = twm_transform(catalog.get(name), width)
            words = _words(n, width, seed=n + width)
            args = (twm.twmarch, twm.prediction, n, width, words)
            kwargs = {"misr_width": misr_width, "misr_seed": misr_seed}
            for cname, fc in _session_classes(n, width, n).items():
                pairs = batch.detect_class_aliasing_batch(*args, fc, **kwargs)
                assert isinstance(pairs, PlaneVerdicts)
                assert pairs.streams is not None
                expected = reference.detect_aliasing_batch(
                    *args, list(fc), **kwargs
                )
                assert pairs.tolist() == expected, (width, n, cname)
                signature = batch.detect_class_signature_batch(
                    *args, fc, **kwargs
                )
                assert isinstance(signature, PlaneVerdicts)
                assert signature.streams is None
                assert signature.tolist() == [s for _, s in expected]
                assert signature.tolist() == pairs.signature.tolist()
                aliased += pairs.aliased_count()
        # The narrow MISRs alias: the stream half is live, not a copy
        # of the signature half.
        assert aliased > 0

    def test_prediction_with_writes(self):
        # A user-supplied prediction that writes (and restores) every
        # word: its state carries into the test phase, so read-disturb
        # flips made during prediction must be seen by the test phase.
        from repro.core.notation import parse_march

        twm = twm_transform(catalog.get("March C-"), 4)
        prediction = parse_march("⇑(rc,w~c,r~c,wc);⇓(rc)", name="writes")
        batch = get_engine("batch")
        reference = get_engine("reference")
        n, width = 3, 4
        words = _words(n, width, seed=9)
        for misr_width in (3, 16):
            ctx = batch.build_session_context(
                twm.twmarch, prediction, n, width, words, misr_width=misr_width
            )
            for cname, fc in _session_classes(n, width, 9).items():
                assert ctx.has_class_kernel(fc), cname
                pairs = batch.detect_class_aliasing_batch(
                    twm.twmarch, prediction, n, width, words, fc,
                    misr_width=misr_width, context=ctx,
                )
                assert pairs.tolist() == reference.detect_aliasing_batch(
                    twm.twmarch, prediction, n, width, words, list(fc),
                    misr_width=misr_width,
                ), (misr_width, cname)


    def test_prediction_reads_outside_test_stream(self):
        # The prediction reads ~c, the test only c: an AF-none fault at
        # a zero word escapes the test stream but not the prediction's,
        # so the stream verdict must come from the test phase alone.
        from repro.core.notation import parse_march

        test = parse_march("⇑(rc,wc);⇓(rc)", name="c-only")
        prediction = parse_march("⇕(r~c)", name="inverse-prediction")
        batch = get_engine("batch")
        reference = get_engine("reference")
        n, width = 3, 4
        words = [0, 9, 0]
        for misr_width in (1, 3):
            args = (test, prediction, n, width, words)
            ctx = batch.build_session_context(*args, misr_width=misr_width)
            for cname, fc in _session_classes(n, width, 3).items():
                assert ctx.has_class_kernel(fc), cname
                pairs = batch.detect_class_aliasing_batch(
                    *args, fc, misr_width=misr_width, context=ctx
                )
                expected = reference.detect_aliasing_batch(
                    *args, list(fc), misr_width=misr_width
                )
                assert pairs.tolist() == expected, (misr_width, cname)
                if cname == "pair-AF":
                    assert not expected[0][0]  # AF-none at word 0


@pytest.fixture
def session_probes(monkeypatch):
    """Counts the batch engine's reference-fallback calls and the
    session context's schedule (weight-plane) builds."""
    counts = {"fallback": 0, "schedule": 0}
    fallback = batch_module._reference_verdicts
    build_schedule = batch_module._SignatureContext._build_schedule

    def counting_fallback(oracle, *args, **kwargs):
        counts["fallback"] += 1
        return fallback(oracle, *args, **kwargs)

    def counting_build_schedule(self):
        counts["schedule"] += 1
        return build_schedule(self)

    monkeypatch.setattr(batch_module, "_reference_verdicts", counting_fallback)
    monkeypatch.setattr(
        batch_module._SignatureContext, "_build_schedule", counting_build_schedule
    )
    return counts


class TestSessionKernelPaths:
    """Which fault sequences take the session lanes and which the one
    reference fallback — with the reference engine's verdicts either
    way."""

    N, W = 4, 4

    def _flows(self, test, prediction, seed=3, misr_width=3):
        kwargs = {"misr_width": misr_width, "seed": seed}
        return (
            signature_flow(test, prediction, self.N, self.W, **kwargs),
            aliasing_flow(test, prediction, self.N, self.W, **kwargs),
        )

    def _universe(self):
        return standard_fault_universe(
            self.N,
            self.W,
            max_inter_pairs=6,
            rng=random.Random(4),
            include_rdf=True,
            include_af=True,
        )

    def test_streaming_kernel_classes_skip_subset_replay(self, session_probes):
        twm = twm_transform(catalog.get("March C-"), self.W)
        kernel = self._universe()
        assert set(kernel) == {
            "SAF", "TF", "RDF", "DRDF", "CFst-intra", "CFid-intra",
            "CFin-intra", "CFst-inter", "CFid-inter", "CFin-inter", "AF",
        }
        with CampaignRunner("batch", 1) as runner:
            reports = [
                run_campaign(flow, kernel, runner=runner)
                for flow in self._flows(twm.twmarch, twm.prediction)
            ]
        # Signature then aliasing on one runner: one context build,
        # reused by the aliasing pass, and one weight-plane build.
        assert [r.context_stats.builds for r in reports] == [1, 0]
        assert session_probes["schedule"] == 1
        # Cross-bit inter-word CF takes pair lanes too.
        cross = {
            "CFst-cross": InterWordCFClass(
                self.N, self.W, "CFst", same_bit_only=False,
                max_pairs=6, rng=random.Random(4),
            )
        }
        flow = self._flows(twm.twmarch, twm.prediction)[1]
        lanes = run_campaign(flow, cross, engine="batch")
        assert session_probes["fallback"] == 0
        ref = run_campaign(flow, cross, engine="reference")
        assert lanes.aliasing_vector() == ref.aliasing_vector()
        assert lanes.undetected == ref.undetected

    def test_materialized_lists_take_lanes(self, session_probes):
        twm = twm_transform(catalog.get("March C-"), self.W)
        streaming = self._universe()
        lists = {name: list(fc) for name, fc in streaming.items()}
        for flow in self._flows(twm.twmarch, twm.prediction):
            fast = run_campaign(flow, streaming, engine="batch")
            slow = run_campaign(flow, lists, engine="batch")
            ref = run_campaign(flow, lists, engine="reference")
            for report in (slow, ref):
                assert fast.coverage_vector() == report.coverage_vector()
                assert fast.aliasing_vector() == report.aliasing_vector()
                assert fast.undetected == report.undetected
        assert session_probes["fallback"] == 0

    def _reference_equal(self, engine_args, fc, kwargs):
        batch = get_engine("batch")
        pairs = batch.detect_class_aliasing_batch(*engine_args, fc, **kwargs)
        signature = batch.detect_class_signature_batch(
            *engine_args, fc, **kwargs
        )
        kwargs = {k: v for k, v in kwargs.items() if k != "context"}
        expected = get_engine("reference").detect_aliasing_batch(
            *engine_args, list(fc), **kwargs
        )
        assert pairs.tolist() == expected
        assert signature.tolist() == [s for _, s in expected]

    def test_mismatched_geometry_takes_lanes(self, session_probes):
        twm = twm_transform(catalog.get("March C-"), self.W)
        words = _words(self.N, self.W, seed=6)
        args = (twm.twmarch, twm.prediction, self.N, self.W, words)
        ctx = get_engine("batch").build_session_context(*args, misr_width=3)
        for fc in (
            StuckAtClass(self.N, 2),
            TransitionClass(self.N - 1, self.W),
            IntraWordCFClass(self.N, 2, "CFst"),
            AddressFaultClass(self.N - 1),
            InterWordCFClass(self.N - 1, self.W, "CFid"),
            InterWordCFClass(self.N, self.W // 2, "CFst"),
            InterWordCFClass(
                self.N, self.W, "CFin", same_bit_only=False,
                max_pairs=8, rng=random.Random(1),
            ),
        ):
            assert not ctx.has_class_kernel(fc)
            assert ctx.detect_class(fc) is not None
            self._reference_equal(args, fc, {"misr_width": 3, "context": ctx})
        assert session_probes["fallback"] == 0

    def test_ill_formed_test_keeps_per_fault_path(self, session_probes):
        # Reads before initializing: the fault-free test stream already
        # mismatches on random content, so every fault's stream verdict
        # depends on words outside its lane.
        from repro.core.notation import parse_march

        test = parse_march("⇕(r0);⇑(w1,r1)", name="ill-formed")
        prediction = parse_march("⇕(r0)", name="ill-formed-prediction")
        words = _words(self.N, self.W, seed=2)
        args = (test, prediction, self.N, self.W, words)
        ctx = get_engine("batch").build_session_context(*args, misr_width=3)
        assert ctx.test_mismatch_addrs
        classes = _session_classes(self.N, self.W, 2)
        for fc in classes.values():
            assert ctx.detect_class(fc) is None
            self._reference_equal(args, fc, {"misr_width": 3})
        # One fallback per oracle call: aliasing and signature.
        assert session_probes["fallback"] == 2 * len(classes)
        assert session_probes["schedule"] == 0

    def test_underivable_program_keeps_per_fault_path(self, session_probes):
        from repro.core.notation import parse_march

        test = parse_march("⇕(wc);⇕(rc)", name="underivable")
        prediction = parse_march("⇕(rc)", name="prediction")
        words = _words(self.N, self.W, seed=1)
        args = (test, prediction, self.N, self.W, words)
        batch = get_engine("batch")
        reference = get_engine("reference")
        assert batch.build_session_context(*args) is None
        pair_lane = _pair_lane_classes(self.N, self.W, 1)
        for fc in (StuckAtClass(self.N, self.W), *pair_lane.values()):
            with pytest.raises(ExecutionError):
                reference.detect_aliasing_batch(*args, list(fc))
            with pytest.raises(ExecutionError):
                batch.detect_class_aliasing_batch(*args, fc)
            with pytest.raises(ExecutionError):
                batch.detect_class_signature_batch(*args, fc)
        assert session_probes["fallback"] == 2 * (1 + len(pair_lane))
        assert session_probes["schedule"] == 0

    def test_user_defined_fault_kind_takes_reference(self, session_probes):
        twm = twm_transform(catalog.get("March C-"), self.W)
        words = _words(self.N, self.W, seed=3)
        args = (twm.twmarch, twm.prediction, self.N, self.W, words)
        faults = [*TransitionClass(self.N, self.W)[:4], _WeirdFault()]
        self._reference_equal(args, faults, {"misr_width": 3})
        assert session_probes["fallback"] == 2

    @pytest.mark.parametrize("n_words", [1, 2])
    def test_edge_geometries(self, session_probes, n_words):
        # One word: AF is AF-none only, and the inter-word classes are
        # empty, so only AF takes a kernel.
        ctx = _session("March C-", self.W, n_words, 7, 3, 5)
        for cname, fc in _pair_lane_classes(n_words, self.W, 7).items():
            if n_words == 1:
                assert len(fc) == (1 if cname.startswith("AF") else 0)
            assert ctx.has_class_kernel(fc) == (len(fc) > 0), cname
            if len(fc):
                packed = ctx.detect_class(fc)
                assert packed.tolist() == _reference_pairs(ctx, fc)
        assert session_probes["fallback"] == 0


class TestSymbolicFamilyTables:
    def test_family_tables_match_scalar_replay(self):
        base = catalog.get("March C-")
        for w in (2, 4):
            test = twm_transform(base, w).twmarch
            program = compile_symbolic(test)
            packed = _SymbolicCampaign(program, True)
            scalar = _SymbolicCampaign(program, True)
            universe = standard_fault_universe(
                3,
                w,
                max_inter_pairs=6,
                rng=random.Random(2),
                include_rdf=True,
            )
            for cname, faults in universe.items():
                for fault in faults:
                    assert (
                        packed.verdict(fault).table
                        == scalar._cell_table(fault)
                    ), (w, cname, fault)

    def test_family_fills_siblings(self):
        test = twm_transform(catalog.get("March C-"), 4).twmarch
        campaign = _SymbolicCampaign(compile_symbolic(test), True)
        fault = StuckAtClass(2, 4)[0]
        campaign.verdict(fault)
        # One packed replay priced both stuck values of the shape.
        sig = campaign._sig_id(fault.cell.bit)
        assert ("SAF", 0, sig) in campaign._tables
        assert ("SAF", 1, sig) in campaign._tables


class TestCliValidation:
    def test_rejects_non_positive_geometry(self, capsys):
        for argv in (
            ["coverage", "March C-", "--words", "0"],
            ["coverage", "March C-", "--width", "-3"],
            ["coverage", "March C-", "--jobs", "0"],
            ["coverage", "March C-", "--max-inter-pairs", "0"],
            ["transform", "March C-", "--width", "0"],
            ["table2", "--words", "-1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert "positive integer" in capsys.readouterr().err

    def test_rejects_non_integer(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["coverage", "March C-", "--words", "many"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_classes_filter(self, capsys):
        assert (
            main(
                [
                    "coverage",
                    "March C-",
                    "--width",
                    "4",
                    "--words",
                    "4",
                    "--classes",
                    "SAF,TF",
                    "--no-extension-classes",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SAF" in out and "TF" in out
        assert "CFst-intra" not in out

    def test_classes_filter_unknown(self, capsys):
        assert (
            main(["coverage", "March C-", "--classes", "SAF,NOPE"]) == 2
        )
        err = capsys.readouterr().err
        assert "NOPE" in err and "SAF" in err
