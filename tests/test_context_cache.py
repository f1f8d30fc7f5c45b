"""Campaign-context runtime: cache correctness, keying, persistence.

The amortization contract of ``repro.engine.context``:

* verdicts are bit-identical whether a campaign context is built cold
  or replayed warm from the cache (a context is a pure precomputation);
* cache keys separate every input that can change a verdict — words,
  width, geometry, mode — and deliberately *share* the two-phase
  session state between the signature and aliasing oracles;
* a shared :class:`CampaignRunner` builds each distinct context once,
  across classes, campaigns and modes.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.coverage import (
    AliasingFlow,
    CompareFlow,
    aliasing_flow,
    compare_flow,
    run_campaign,
    signature_flow,
)
from repro.core.twm import twm_transform
from repro.engine import (
    CampaignRunner,
    ContextCache,
    ContextStats,
    ExecutionError,
    get_engine,
)
from repro.library import catalog
from repro.memory.injection import standard_fault_universe

N_WORDS = 8
WIDTH = 8


@pytest.fixture(scope="module")
def twm():
    return twm_transform(catalog.get("March C-"), WIDTH)


@pytest.fixture(scope="module")
def universe():
    return standard_fault_universe(
        N_WORDS,
        WIDTH,
        max_inter_pairs=4,
        rng=random.Random(0),
        include_rdf=True,
        include_af=True,
    )


def _flows(twm, seed=0, misr_width=16):
    return {
        "compare": compare_flow(
            twm.twmarch, N_WORDS, WIDTH, initial=None, seed=seed
        ),
        "signature": signature_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH,
            misr_width=misr_width, initial=None, seed=seed,
        ),
        "aliasing": aliasing_flow(
            twm.twmarch, twm.prediction, N_WORDS, WIDTH,
            misr_width=misr_width, initial=None, seed=seed,
        ),
    }


class TestContextCache:
    def test_cold_vs_warm_identical_verdicts(self, twm, universe):
        engine = get_engine("batch")
        cache = ContextCache(engine)
        for name, flow in _flows(twm).items():
            faults = universe["CFst-intra"]
            cold = flow.run_class(engine, faults)
            ctx = cache.get(flow)
            warm = flow.run_class(engine, faults, context=ctx.payload)
            again = flow.run_class(
                engine, faults, context=cache.get(flow).payload
            )
            assert cold.tolist() == warm.tolist() == again.tolist(), name

    def test_hit_miss_build_counters(self, twm):
        cache = ContextCache(get_engine("batch"))
        flow = _flows(twm)["signature"]
        ctx = cache.get(flow)
        assert ctx.payload is not None
        assert cache.get(flow) is ctx
        stats = cache.stats
        assert (stats.builds, stats.hits, stats.misses) == (1, 1, 1)
        assert stats.build_seconds >= 0.0
        delta = cache.take_stats()
        assert (delta.builds, delta.hits, delta.misses) == (1, 1, 1)
        # The cursor advanced: a fresh delta is empty.
        empty = cache.take_stats()
        assert (empty.builds, empty.hits, empty.misses) == (0, 0, 0)

    def test_keying_separates_words_width_and_mode(self, twm):
        compare = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=3)
        other_words = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=5)
        wider = twm_transform(catalog.get("March C-"), 16)
        other_width = compare_flow(wider.twmarch, N_WORDS, 16, initial=3)
        signature = _flows(twm)["signature"]
        keys = {
            compare.context_key(),
            other_words.context_key(),
            other_width.context_key(),
            signature.context_key(),
        }
        assert len(keys) == 4

    def test_signature_and_aliasing_share_one_session_context(self, twm):
        flows = _flows(twm)
        sig = flows["signature"]
        ali = flows["aliasing"]
        # Same context: the session state is oracle-agnostic.
        assert sig.context_key() == ali.context_key()
        cache = ContextCache(get_engine("batch"))
        ctx = cache.get(sig)
        assert cache.get(ali) is ctx
        stats = cache.stats
        assert (stats.builds, stats.hits, stats.misses) == (1, 1, 1)

    def test_eviction_rebuilds_correctly(self, twm, universe):
        engine = get_engine("batch")
        cache = ContextCache(engine, max_contexts=1)
        a = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=3)
        b = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=5)
        faults = universe["SAF"]
        first = a.run_class(engine, faults, context=cache.get(a).payload)
        cache.get(b)  # evicts a
        assert len(cache) == 1
        rebuilt = a.run_class(engine, faults, context=cache.get(a).payload)
        assert first.tolist() == rebuilt.tolist()
        assert cache.stats.misses == 3  # a, b, a again

    def test_reference_engine_has_nothing_to_amortize(self, twm):
        cache = ContextCache(get_engine("reference"))
        ctx = cache.get(_flows(twm)["compare"])
        assert ctx.payload is None
        assert cache.stats.builds == 0
        assert cache.stats.misses == 1

    def test_mismatched_context_is_rejected(self, twm, universe):
        engine = get_engine("batch")
        cache = ContextCache(engine)
        a = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=3)
        b = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=5)
        wrong = cache.get(a).payload
        with pytest.raises(ExecutionError, match="context"):
            b.run_class(engine, universe["SAF"], context=wrong)

    def test_context_for_other_test_is_rejected(self, twm, universe):
        engine = get_engine("batch")
        other = twm_transform(catalog.get("March U"), WIDTH)
        # Same width, geometry and words — only the march differs.
        mine = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=3)
        theirs = compare_flow(other.twmarch, N_WORDS, WIDTH, initial=3)
        wrong = ContextCache(engine).get(theirs).payload
        with pytest.raises(ExecutionError, match="context"):
            mine.run_class(engine, universe["SAF"], context=wrong)

    def test_changed_word_width_or_program_is_rejected(self, twm, universe):
        engine = get_engine("batch")
        flow = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=None, seed=3)
        ctx = ContextCache(engine).get(flow).payload
        words = list(flow.words)
        one_off = words[:-1] + [words[-1] ^ 1]
        wider = twm_transform(catalog.get("March C-"), 2 * WIDTH)
        other = twm_transform(catalog.get("March U"), WIDTH)
        for test, width, content in (
            (twm.twmarch, WIDTH, one_off),  # one changed word
            (wider.twmarch, 2 * WIDTH, words),  # another width
            (other.twmarch, WIDTH, words),  # another program
        ):
            with pytest.raises(ExecutionError, match="context"):
                engine.detect_class_batch(
                    test, N_WORDS, width, content, universe["SAF"],
                    context=ctx,
                )

    def test_prebuilt_context_accepts_equal_and_unmasked_words(
        self, twm, universe
    ):
        engine = get_engine("batch")
        flow = compare_flow(twm.twmarch, N_WORDS, WIDTH, initial=None, seed=3)
        ctx = ContextCache(engine).get(flow).payload
        words = list(flow.words)
        # Bits above the word width are masked away, so they match too.
        unmasked = [w | (0b101 << WIDTH) for w in words]
        faults = universe["CFst-intra"]
        cold = engine.detect_class_batch(
            twm.twmarch, N_WORDS, WIDTH, words, faults
        )
        for content in (words, tuple(words), unmasked):
            warm = engine.detect_class_batch(
                twm.twmarch, N_WORDS, WIDTH, content, faults, context=ctx
            )
            assert warm.tolist() == cold.tolist()

    @pytest.mark.parametrize("mode", ["compare", "session"])
    def test_own_word_list_skips_the_compare_and_others_are_checked(
        self, twm, mode
    ):
        # The list a context was built from matches by identity, with
        # no element compare; an equal copy is still compared, and a
        # list one word apart is refused.
        engine = get_engine("batch")
        flow = _flows(twm)["compare" if mode == "compare" else "signature"]
        words = _NoCompareList(flow.words)
        _NoCompareList.compares = 0
        if mode == "compare":
            ctx = engine.build_compare_context(
                flow.test, N_WORDS, WIDTH, words
            )

            def call(content):
                return engine.detect_class_batch(
                    flow.test, N_WORDS, WIDTH, content, [], context=ctx
                )
        else:
            ctx = engine.build_session_context(
                flow.test, flow.prediction, N_WORDS, WIDTH, words,
                misr_width=flow.misr_width, misr_seed=flow.misr_seed,
            )

            def call(content):
                return engine.detect_class_aliasing_batch(
                    flow.test, flow.prediction, N_WORDS, WIDTH, content, [],
                    misr_width=flow.misr_width, misr_seed=flow.misr_seed,
                    context=ctx,
                )
        call(words)
        assert _NoCompareList.compares == 0
        call(list(flow.words))
        one_off = list(flow.words)
        one_off[-1] ^= 1
        with pytest.raises(ExecutionError, match="context"):
            call(one_off)

    def test_session_context_for_other_prediction_is_rejected(self, twm):
        engine = get_engine("batch")
        flows = _flows(twm)
        sig = flows["signature"]
        ctx = ContextCache(engine).get(sig).payload
        with pytest.raises(ExecutionError, match="prediction|MISR"):
            engine.detect_signature_batch(
                sig.test,
                sig.test,  # a different (self-)prediction program
                sig.n_words,
                sig.width,
                list(sig.words),
                [],
                misr_width=sig.misr_width,
                misr_seed=sig.misr_seed,
                context=ctx,
            )

    def test_stats_merge_roundtrip(self):
        total = ContextStats()
        total.merge(ContextStats(1, 2, 3, 0.5))
        total.merge(ContextStats(1, 1, 1, 0.25))
        assert (total.builds, total.hits, total.misses) == (2, 3, 4)
        assert total.build_seconds == 0.75
        assert total.copy() == total and total.copy() is not total
        assert "2 built" in total.render()


class _NoCompareList(list):
    """A word list that counts the element compares made against it."""

    compares = 0

    def __eq__(self, other):
        _NoCompareList.compares += 1
        return list.__eq__(self, other)

    def __ne__(self, other):
        _NoCompareList.compares += 1
        return list.__ne__(self, other)

    __hash__ = None


class _CountingInt(int):
    """An int that counts how often it is hashed."""

    hashes = 0

    def __hash__(self) -> int:
        _CountingInt.hashes += 1
        return int.__hash__(self)


class TestFlowContextKeys:
    """A flow builds its context key once: a cache hit neither copies
    nor re-hashes the words, equal flows still share one context, and
    flows one word apart never do."""

    def _flow(self, twm, words, mode):
        if mode == "compare":
            return CompareFlow(twm.twmarch, N_WORDS, WIDTH, words)
        return AliasingFlow(twm.twmarch, twm.prediction, N_WORDS, WIDTH, words)

    @pytest.mark.parametrize("mode", ["compare", "aliasing"])
    def test_hit_neither_copies_nor_rehashes_words(self, twm, mode):
        flow = self._flow(twm, [_CountingInt(w) for w in range(N_WORDS)], mode)
        cache = ContextCache(get_engine("batch"))
        ctx = cache.get(flow)
        assert flow.context_key() is flow.context_key()
        hashed = _CountingInt.hashes
        for _ in range(5):
            assert cache.get(flow) is ctx
        assert _CountingInt.hashes == hashed
        assert cache.stats.builds == 1

    @pytest.mark.parametrize("mode", ["compare", "aliasing"])
    def test_equal_flows_share_one_context(self, twm, mode):
        cache = ContextCache(get_engine("batch"))
        first = self._flow(twm, list(range(N_WORDS)), mode)
        second = self._flow(twm, list(range(N_WORDS)), mode)
        assert first.context_key() is not second.context_key()
        assert cache.get(first) is cache.get(second)
        assert cache.stats.builds == 1

    @pytest.mark.parametrize("mode", ["compare", "aliasing"])
    def test_flows_one_word_apart_never_share(self, twm, mode):
        cache = ContextCache(get_engine("batch"))
        words = list(range(N_WORDS))
        first = self._flow(twm, words, mode)
        for addr in range(N_WORDS):
            changed = words.copy()
            changed[addr] ^= 1
            other = self._flow(twm, changed, mode)
            assert other.context_key() != first.context_key()
            assert cache.get(other) is not cache.get(first)
            # The engine's guard still refuses the other flow's context.
            with pytest.raises(ExecutionError):
                first.run_class(
                    get_engine("batch"),
                    standard_fault_universe(N_WORDS, WIDTH)["SAF"],
                    context=cache.get(other).payload,
                )


class TestPersistentWorkers:
    def test_mixed_mode_shared_runner_is_bit_identical(self, twm, universe):
        flows = _flows(twm)
        baseline = {
            mode: run_campaign(flow, universe, engine="batch")
            for mode, flow in flows.items()
        }
        with CampaignRunner("batch") as runner:
            shared = {
                mode: run_campaign(flow, universe, runner=runner)
                for mode, flow in flows.items()
            }
        for mode in flows:
            assert (
                shared[mode].coverage_vector()
                == baseline[mode].coverage_vector()
            ), mode
            assert shared[mode].undetected == baseline[mode].undetected, mode
            assert (
                shared[mode].aliasing_vector()
                == baseline[mode].aliasing_vector()
            ), mode
        # The aliasing campaign reused the signature campaign's session
        # context: no build, a hit per class.
        assert shared["aliasing"].context_stats.builds == 0
        assert shared["aliasing"].context_stats.hits == len(universe)

    def test_warm_second_campaign_is_amortized(self, twm, universe):
        flow = _flows(twm)["compare"]
        with CampaignRunner("batch") as runner:
            cold = run_campaign(flow, universe, runner=runner)
            warm = run_campaign(flow, universe, runner=runner)
        assert cold.coverage_vector() == warm.coverage_vector()
        assert cold.context_stats.builds == 1
        assert warm.context_stats.builds == 0
        assert warm.context_stats.hits == len(universe)

    def test_jobs1_shared_runner_keeps_cache_across_modes(
        self, twm, universe
    ):
        # The CLI's mixed-mode run: the aliasing campaign reuses the
        # signature campaign's session context on one shared runner.
        flows = _flows(twm)
        with CampaignRunner("batch", 1) as runner:
            run_campaign(flows["signature"], universe, runner=runner)
            aliasing = run_campaign(flows["aliasing"], universe, runner=runner)
        assert aliasing.context_stats.builds == 0
        assert aliasing.context_stats.misses == 0
        assert aliasing.context_stats.hits == len(universe)

    def test_jobs1_report_carries_context_stats(self, twm, universe):
        report = run_campaign(_flows(twm)["signature"], universe, engine="batch")
        stats = report.context_stats
        assert stats is not None
        # One context for the whole campaign, one hit per further class.
        assert stats.builds == 1
        assert stats.misses == 1
        assert stats.hits == len(universe) - 1
        assert "built" in report.render()

    def test_bare_flow_reports_no_context_stats(self, universe, twm):
        flow = _flows(twm)["compare"]
        report = run_campaign(
            lambda fault: flow(fault), {"SAF": universe["SAF"][:4]}
        )
        assert report.context_stats is None

    def test_custom_per_fault_engine_runs(self, twm, universe):
        # A custom engine that only overrides the per-fault compare
        # loop runs through the packed campaign path: the base class
        # kernel packs its verdicts, and the base build hooks return
        # None, so there is nothing to amortize.
        from repro.engine import Engine

        class PerFault(Engine):
            name = "per-fault-test-engine"

            def detect_batch(
                self, test, n_words, width, words, faults, *,
                derive_writes=True, context=None,
            ):
                return get_engine("reference").detect_batch(
                    test, n_words, width, words, faults,
                    derive_writes=derive_writes,
                )

        flow = _flows(twm)["compare"]
        small = {"SAF": universe["SAF"]}
        report = run_campaign(flow, small, engine=PerFault())
        baseline = run_campaign(flow, small, engine="reference")
        assert report.coverage_vector() == baseline.coverage_vector()
        assert report.context_stats.builds == 0  # nothing to amortize

    def test_shared_runner_engine_mismatch_raises(self, twm, universe):
        flow = _flows(twm)["compare"]
        with CampaignRunner("batch", 1) as runner:
            with pytest.raises(ValueError, match="engine"):
                run_campaign(
                    flow, universe, engine="reference", runner=runner
                )

    def test_shared_runner_without_engine_uses_runners(self, twm, universe):
        flow = _flows(twm)["compare"]
        with CampaignRunner("batch", 1) as runner:
            report = run_campaign(flow, universe, runner=runner)
        assert report.engine == "batch"

    def test_rebinding_different_universe_stays_correct(self, twm, universe):
        # One runner reused for a smaller universe: the cached context
        # depends on the flow only, so the verdicts stay correct.
        flow = _flows(twm)["compare"]
        small = {"SAF": universe["SAF"], "TF": universe["TF"]}
        with CampaignRunner("batch") as runner:
            full = run_campaign(flow, universe, runner=runner)
            trimmed = run_campaign(flow, small, runner=runner)
        assert full.coverage_vector() == run_campaign(
            flow, universe, engine="reference"
        ).coverage_vector()
        assert trimmed.coverage_vector() == {
            name: full.coverage_vector()[name] for name in small
        }
        assert trimmed.context_stats.builds == 0
