"""Tests for fault-coverage campaign machinery."""

import random

import pytest

from repro.analysis.coverage import (
    AliasingFlow,
    aliasing_flow,
    compare_flow,
    compare_reports,
    run_campaign,
    signature_flow,
)
from repro.core.twm import nontransparent_word_reference, twm_transform
from repro.library import catalog
from repro.memory.injection import (
    enumerate_inter_word_cf,
    enumerate_stuck_at,
    enumerate_transition,
    standard_fault_universe,
)


N_WORDS, WIDTH = 4, 4


@pytest.fixture(scope="module")
def twm():
    return twm_transform(catalog.get("March C-"), WIDTH)


class TestBitOrientedCoverage:
    """Classic results on a bit-oriented (width 1) memory."""

    def _campaign(self, test, universe):
        flow = compare_flow(test, 8, 1, initial=0)
        return run_campaign(flow, universe)

    def test_march_cm_100pct_saf(self):
        rep = self._campaign(
            catalog.get("March C-"), {"SAF": list(enumerate_stuck_at(8, 1))}
        )
        assert rep.classes["SAF"].percent == 100.0

    def test_march_cm_100pct_tf(self):
        rep = self._campaign(
            catalog.get("March C-"), {"TF": list(enumerate_transition(8, 1))}
        )
        assert rep.classes["TF"].percent == 100.0

    def test_march_cm_100pct_inter_cf(self):
        universe = {
            "CF": list(enumerate_inter_word_cf(6, 1))
        }
        rep = self._campaign(catalog.get("March C-"), universe)
        assert rep.classes["CF"].percent == 100.0

    def test_mats_plus_misses_cf(self):
        universe = {"CF": list(enumerate_inter_word_cf(6, 1))}
        rep = self._campaign(catalog.get("MATS+"), universe)
        assert rep.classes["CF"].percent < 100.0

    def test_mats_plus_catches_saf(self):
        rep = self._campaign(
            catalog.get("MATS+"), {"SAF": list(enumerate_stuck_at(8, 1))}
        )
        assert rep.classes["SAF"].percent == 100.0


class TestCampaignReporting:
    def test_report_counts(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=None, seed=1)
        rep = run_campaign(flow, universe, flow_name="twm")
        assert rep.total == 2 * N_WORDS * WIDTH
        assert rep.detected == rep.total
        assert rep.percent == 100.0
        assert "twm" in rep.render()

    def test_undetected_kept(self):
        universe = {"CF": list(enumerate_inter_word_cf(6, 1))}
        flow = compare_flow(catalog.get("MATS+"), 6, 1, initial=0)
        rep = run_campaign(flow, universe, keep_undetected=3)
        assert 0 < len(rep.undetected["CF"]) <= 3

    def test_compare_reports_alignment(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=0)
        a = run_campaign(flow, universe, flow_name="a")
        b = run_campaign(flow, universe, flow_name="b")
        rows = compare_reports(a, b)
        assert rows == [("SAF", 100.0, 100.0, 0.0)]

    def test_coverage_vector(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=0)
        rep = run_campaign(flow, universe)
        assert rep.coverage_vector() == {"SAF": 100.0}


class TestSection5Equality:
    """The paper's coverage theorem, on a reduced universe (the full
    sweep is benchmark E7)."""

    def test_equality_on_main_classes(self, twm):
        universe = standard_fault_universe(
            N_WORDS, WIDTH, max_inter_pairs=12, rng=random.Random(0)
        )
        # Drop the class where transparent testing fundamentally differs
        # (static CFst expression; see EXPERIMENTS.md).
        universe.pop("CFst-intra")
        ref = nontransparent_word_reference(catalog.get("March C-"), WIDTH)
        rep_ref = run_campaign(
            compare_flow(ref, N_WORDS, WIDTH, initial=0), universe
        )
        rep_twm = run_campaign(
            compare_flow(
                twm.twmarch, N_WORDS, WIDTH, initial=None, seed=7,
                derive_writes=False,
            ),
            universe,
        )
        for name, pa, pb, delta in compare_reports(rep_twm, rep_ref):
            assert delta == 0.0, f"{name}: twm={pa} ref={pb}"

    def test_cfst_intra_gap_direction(self, twm):
        # The non-transparent reference sees statically-expressed CFst
        # that any transparent test misses: ref >= twm, strictly here.
        universe = standard_fault_universe(N_WORDS, WIDTH, max_inter_pairs=4)
        universe = {"CFst-intra": universe["CFst-intra"]}
        ref = nontransparent_word_reference(catalog.get("March C-"), WIDTH)
        rep_ref = run_campaign(
            compare_flow(ref, N_WORDS, WIDTH, initial=0), universe
        )
        rep_twm = run_campaign(
            compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=None, seed=7),
            universe,
        )
        assert (
            rep_ref.classes["CFst-intra"].percent
            > rep_twm.classes["CFst-intra"].percent
        )

    def test_equality_holds_for_march_u_too(self):
        # The theorem is per-test; repeat the check on the paper's other
        # evaluated test.
        mu = twm_transform(catalog.get("March U"), WIDTH)
        universe = standard_fault_universe(
            N_WORDS, WIDTH, max_inter_pairs=8, rng=random.Random(4)
        )
        universe.pop("CFst-intra")
        ref = nontransparent_word_reference(catalog.get("March U"), WIDTH)
        rep_ref = run_campaign(
            compare_flow(ref, N_WORDS, WIDTH, initial=0), universe
        )
        rep_twm = run_campaign(
            compare_flow(
                mu.twmarch, N_WORDS, WIDTH, initial=None, seed=21,
                derive_writes=False,
            ),
            universe,
        )
        for name, pa, pb, delta in compare_reports(rep_twm, rep_ref):
            assert delta == 0.0, f"{name}: twm={pa} ref={pb}"

    def test_coverage_independent_of_initial_content(self, twm):
        # The closed fault universe makes transparent coverage exactly
        # content-independent (the XOR bijection argument).
        universe = standard_fault_universe(
            N_WORDS, WIDTH, max_inter_pairs=8, rng=random.Random(1)
        )
        vectors = []
        for seed in (11, 22):
            rep = run_campaign(
                compare_flow(
                    twm.twmarch, N_WORDS, WIDTH, initial=None, seed=seed
                ),
                universe,
            )
            vectors.append(rep.coverage_vector())
        assert vectors[0] == vectors[1]


class TestSignatureFlows:
    def test_signature_flow_detects(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = signature_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH, initial=None, seed=2
        )
        rep = run_campaign(flow, universe)
        assert rep.classes["SAF"].percent == 100.0

    def test_aliasing_flow_returns_pair(self, twm):
        flow = aliasing_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH, misr_width=16
        )
        fault = next(iter(enumerate_stuck_at(N_WORDS, WIDTH)))
        stream, signature = flow(fault)
        assert stream and signature

    def test_initial_as_sequence(self, twm):
        flow = compare_flow(
            twm.twmarch, N_WORDS, WIDTH, initial=[1, 2, 3, 4]
        )
        fault = next(iter(enumerate_stuck_at(N_WORDS, WIDTH)))
        assert flow(fault) in (True, False)


class TestAliasingCampaigns:
    """Pair-verdict campaigns: aliasing counts and strict verdicts."""

    def test_campaign_counts_aliasing(self, twm):
        # A 1-bit MISR aliases heavily, so every count is exercised.
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = aliasing_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH,
            misr_width=1, initial=None, seed=5,
        )
        assert isinstance(flow, AliasingFlow)
        rep = run_campaign(flow, universe, flow_name="aliasing")
        pairs = [flow(fault) for fault in universe["SAF"]]
        cov = rep.classes["SAF"]
        assert cov.detected == sum(sig for _stream, sig in pairs)
        assert cov.stream_detected == sum(stream for stream, _sig in pairs)
        assert cov.aliased == sum(
            stream and not sig for stream, sig in pairs
        )
        assert cov.aliased > 0  # the 1-bit register must alias here
        assert rep.aliased == cov.aliased
        assert rep.aliased_percent == cov.aliased_percent
        assert rep.aliasing_vector() == {"SAF": cov.aliased_percent}
        assert rep.has_pair_verdicts

    def test_render_includes_aliasing(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = aliasing_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH,
            misr_width=1, initial=None, seed=5,
        )
        text = run_campaign(flow, universe).render()
        assert "aliased" in text and "stream" in text

    def test_single_verdict_reports_carry_no_pair_stats(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        rep = run_campaign(
            compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=0), universe
        )
        assert not rep.has_pair_verdicts
        assert rep.classes["SAF"].aliased is None
        assert rep.classes["SAF"].stream_detected is None
        assert rep.aliasing_vector() == {}
        assert "aliased" not in rep.render()

    def test_misr_seed_forwarded(self, twm):
        # Regression: aliasing_flow silently ignored MISR seeding, so
        # aliasing sessions could not match seeded signature sessions.
        flow = aliasing_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH,
            misr_width=4, misr_seed=0x5A,
        )
        assert flow.misr_seed == 0x5A
        assert flow.controller.misr_seed == 0x5A
        assert flow.context_key()[-1] == 0x5A

    def test_tuple_returning_bare_callable_raises(self, twm):
        # Regression: a (False, False) tuple is truthy, so a bare
        # pair-returning callable used to report 100% coverage even
        # when every fault was missed.
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        with pytest.raises(TypeError, match="bool"):
            run_campaign(lambda fault: (False, False), universe)

    def test_non_bool_verdict_raises(self, twm):
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        for verdict in (1, None, "yes"):
            with pytest.raises(TypeError, match="bool"):
                run_campaign(lambda fault: verdict, universe)

    def test_structured_aliasing_flow_counts_correctly_when_missed(self, twm):
        # The structured path must NOT inherit the truthiness bug: a
        # fault missed by both oracles counts as undetected.
        universe = {"SAF": list(enumerate_stuck_at(N_WORDS, WIDTH))}
        flow = aliasing_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH,
            misr_width=1, initial=None, seed=5,
        )
        rep = run_campaign(flow, universe)
        assert rep.detected < rep.total  # the 1-bit MISR misses some
        assert rep.percent < 100.0


class TestInitialWordsValidation:
    """Regression: a mis-sized initial sequence must raise, not build
    a mis-sized memory image."""

    def test_too_short_raises(self, twm):
        with pytest.raises(ValueError, match="initial content"):
            compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=[1, 2])

    def test_too_long_raises(self, twm):
        with pytest.raises(ValueError, match="initial content"):
            signature_flow(
                twm.twmarch, twm.prediction, N_WORDS, WIDTH,
                initial=[0] * (N_WORDS + 1),
            )

    def test_aliasing_flow_validates_too(self, twm):
        with pytest.raises(ValueError, match="initial content"):
            aliasing_flow(
                twm.twmarch, twm.prediction, N_WORDS, WIDTH, initial=[7]
            )

    def test_exact_length_accepted(self, twm):
        flow = compare_flow(
            twm.twmarch, N_WORDS, WIDTH, initial=list(range(N_WORDS))
        )
        assert flow.words == list(range(N_WORDS))

    def test_int_and_none_still_fill(self, twm):
        assert compare_flow(
            twm.twmarch, N_WORDS, WIDTH, initial=3
        ).words == [3] * N_WORDS
        assert len(
            compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=None).words
        ) == N_WORDS
