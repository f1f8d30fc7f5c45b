"""Engine speedup benchmark: reference vs batch, all oracles.

Two workloads of the E7 coverage campaign (TWMarch of the chosen test,
the Section 2 universe plus the RDF/DRDF/AF extension classes):

* **base** — small enough for the op-by-op reference interpreter; runs
  ``reference`` and ``batch`` through the compare oracle, the two-phase
  MISR signature oracle and the pair-verdict aliasing oracle, checking
  bit-identical coverage (and aliasing) vectors and reporting the batch
  speedup.  The aliasing legs carry an aliasing-rate column (the
  percentage of stream-detected faults the MISR signature missed).
* **megaword** — the packed class-kernel headline at ``>= 2^20``
  words: each single-cell class (SAF/TF/RDF/DRDF, millions of faults)
  is answered by one :meth:`detect_class` bitset pass over the
  campaign context's packed planes, raced against the rate of
  one-element calls of the list path on an evenly-strided fault sample
  through the *same warm context* (whole-class per-fault calls are
  exactly what the packed pass replaces — at this size they would
  take tens of minutes).  Sampled verdicts are checked bit-identical between the
  two paths, and a few low-address detected faults are replayed
  through the stop-on-mismatch reference interpreter as ground truth.

Every campaign leg carries the campaign-context cache columns
(``context_builds`` / ``context_cache_hits`` / ``context_cache_misses``
/ ``context_build_seconds``), proving context construction is a cached
cost — one build per distinct context per campaign — instead of a
per-class one.

The batch runs also instrument the engine's one reference fallback to
prove that no fault class of the standard universe is routed through
the interpreter, and an ill-formed test proves the counter live
(``fallback_counter_live``).

Results are written as machine-readable JSON to ``BENCH_engine.json``
at the repository root (the tracked perf trajectory) and mirrored to
``benchmarks/out/engine_speedup.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py
    PYTHONPATH=src python benchmarks/bench_engine_speedup.py \
        --words 16 --repeats 3 --skip-megaword
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import time
from unittest import mock

from repro.analysis.coverage import (
    _initial_words,
    aliasing_flow,
    compare_flow,
    run_campaign,
    signature_flow,
)
from repro.core.notation import parse_march
from repro.core.twm import twm_transform
from repro.engine import compile_march, get_engine
from repro.engine import batch as batch_module
from repro.library import catalog
from repro.memory.injection import (
    ReadDisturbClass,
    StuckAtClass,
    TransitionClass,
    standard_fault_universe,
)

ROOT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"
MIRROR_OUT = pathlib.Path(__file__).parent / "out" / "engine_speedup.json"


class _FallbackCounter:
    """Counts (and forwards) the batch engine's reference fallbacks.

    The engine has one way out of its lanes, ``_reference_verdicts``
    (one call per compare or session batch it cannot answer: an
    underivable program, an ill-formed test, an unknown fault kind),
    so wrapping it counts every fallback of every oracle."""

    def __init__(self) -> None:
        self.calls = 0
        self._fallback = batch_module._reference_verdicts

    def __enter__(self) -> "_FallbackCounter":
        def counting(oracle, *args, **kwargs):
            self.calls += 1
            return self._fallback(oracle, *args, **kwargs)

        self._patch = mock.patch.object(
            batch_module, "_reference_verdicts", counting
        )
        self._patch.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._patch.stop()


def counter_is_live(width: int) -> bool:
    """The fallback counter counts: an ill-formed test (reads before
    initializing, so the fault-free baseline already mismatches) must
    reach the reference engine through it."""
    ill_formed = parse_march("⇕(r0);⇑(w1,r1)", name="ill-formed")
    words = _initial_words(4, width, None, 1)
    with _FallbackCounter() as fallbacks:
        get_engine("batch").detect_class_batch(
            ill_formed, 4, width, words, StuckAtClass(4, width)
        )
    return fallbacks.calls > 0


def build_workload(args, n_words: int):
    twm = twm_transform(catalog.get(args.test), args.width)
    universe = standard_fault_universe(
        n_words,
        args.width,
        max_inter_pairs=args.max_inter_pairs,
        rng=random.Random(0),
        include_rdf=True,
        include_af=True,
    )
    flows = {
        "compare": compare_flow(
            twm.twmarch, n_words, args.width, initial=None, seed=args.seed
        ),
        "signature": signature_flow(
            twm.twmarch,
            twm.prediction,
            n_words,
            args.width,
            misr_width=args.misr_width,
            initial=None,
            seed=args.seed,
        ),
        "aliasing": aliasing_flow(
            twm.twmarch,
            twm.prediction,
            n_words,
            args.width,
            misr_width=args.misr_width,
            initial=None,
            seed=args.seed,
        ),
        # A deliberately narrow register aliases at a measurable rate,
        # so the aliasing-rate column is exercised with non-zero values
        # (a 16-bit MISR aliases at ~2**-16 — rarely within one run).
        "aliasing_narrow": aliasing_flow(
            twm.twmarch,
            twm.prediction,
            n_words,
            args.width,
            misr_width=args.narrow_misr_width,
            initial=None,
            seed=args.seed,
        ),
    }
    return twm, universe, flows


def measure(flow, universe, engine, repeats):
    """Best-of-*repeats* wall-clock plus the last repeat's report (every
    repeat runs a fresh campaign, so all carry the same counters)."""
    best = float("inf")
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = run_campaign(flow, universe, engine=engine)
        best = min(best, time.perf_counter() - started)
    return best, report


def leg(seconds: float, n_faults: int, total_ops: int, report=None) -> dict:
    out = {
        "seconds": round(seconds, 6),
        "faults_per_sec": round(n_faults / seconds, 1),
        "ops_per_sec": round(total_ops / seconds, 1),
    }
    if report is not None and report.has_pair_verdicts:
        # Aliasing-rate column: stream-detected faults the signature
        # missed, as a percentage of the whole universe.
        out["aliased_percent"] = round(report.aliased_percent, 4)
    if report is not None and report.context_stats is not None:
        # Campaign-context cache columns: the amortization trajectory
        # (one build per campaign, a hit for every further class).
        stats = report.context_stats
        out["context_builds"] = stats.builds
        out["context_cache_hits"] = stats.hits
        out["context_cache_misses"] = stats.misses
        out["context_build_seconds"] = round(stats.build_seconds, 6)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--test", default="March C-")
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--words", type=int, default=8,
                        help="base workload size (reference-affordable)")
    parser.add_argument("--max-inter-pairs", type=int, default=24)
    parser.add_argument("--misr-width", type=int, default=16)
    parser.add_argument("--narrow-misr-width", type=int, default=2,
                        help="MISR width of the aliasing_narrow leg; "
                        "narrow registers alias measurably, proving the "
                        "aliasing-rate column is live")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--megaword-words", type=int, default=1 << 20,
        help="memory size of the megaword packed-kernel leg",
    )
    parser.add_argument(
        "--megaword-classes", default="SAF,TF,RDF,DRDF",
        help="single-cell classes raced at megaword size (subset of "
        "SAF,TF,RDF,DRDF)",
    )
    parser.add_argument(
        "--megaword-samples", type=int, default=64,
        help="evenly-strided faults per class timed through one-element "
        "calls of the list path (the whole class would take tens of "
        "minutes there — which is the point)",
    )
    parser.add_argument(
        "--megaword-spotchecks", type=int, default=2,
        help="low-address detected faults per class replayed through "
        "the reference interpreter as ground truth",
    )
    parser.add_argument(
        "--skip-megaword", action="store_true",
        help="skip the megaword leg (quick local runs)",
    )
    args = parser.parse_args(argv)

    payload = {
        "workload": f"TWMarch {args.test} coverage campaign "
        "(Section 2 universe + RDF/DRDF/AF)",
        "width": args.width,
        "misr_width": args.misr_width,
        "cpu_count": os.cpu_count(),
        "workloads": {},
        "checks": {},
    }
    ok = True

    # -- base workload: reference vs batch, both oracles ----------------
    twm, universe, flows = build_workload(args, args.words)
    program = compile_march(twm.twmarch, args.width)
    n_faults = sum(len(faults) for faults in universe.values())
    # March operations an interpretive sweep must execute: every fault
    # replays the whole test over the whole memory (signature mode adds
    # the prediction pass on top; we keep the same op basis so the two
    # oracles' throughput numbers stay comparable).
    total_ops = n_faults * program.op_count * args.words
    base = {
        "n_words": args.words,
        "n_faults": n_faults,
        "op_count_per_address": program.op_count,
        "total_march_ops": total_ops,
        "modes": {},
    }
    for mode, flow in flows.items():
        ref_seconds, ref_report = measure(
            flow, universe, "reference", args.repeats
        )
        with _FallbackCounter() as fallbacks:
            bat_seconds, bat_report = measure(
                flow, universe, "batch", args.repeats
            )
        identical = (
            ref_report.coverage_vector() == bat_report.coverage_vector()
            and ref_report.aliasing_vector() == bat_report.aliasing_vector()
        )
        ok &= identical and fallbacks.calls == 0
        base["modes"][mode] = {
            "reference": leg(ref_seconds, n_faults, total_ops, ref_report),
            "batch": leg(bat_seconds, n_faults, total_ops, bat_report),
            "speedup_batch_vs_reference": round(ref_seconds / bat_seconds, 2),
            "vectors_identical": identical,
            "batch_reference_fallbacks": fallbacks.calls,
        }
    payload["workloads"]["base"] = base

    # -- megaword workload: packed class kernels at >= 2^20 words -------
    mega_ok = True
    if not args.skip_megaword:
        n = args.megaword_words
        available = {
            "SAF": StuckAtClass(n, args.width),
            "TF": TransitionClass(n, args.width),
            "RDF": ReadDisturbClass(n, args.width, deceptive=False),
            "DRDF": ReadDisturbClass(n, args.width, deceptive=True),
        }
        mega_names = [
            c.strip() for c in args.megaword_classes.split(",") if c.strip()
        ]
        unknown = [c for c in mega_names if c not in available]
        if unknown:
            parser.error(
                f"--megaword-classes: unknown {', '.join(unknown)} "
                f"(choose from {', '.join(available)})"
            )
        words = _initial_words(n, args.width, None, args.seed)
        started = time.perf_counter()
        ctx = batch_module._CampaignContext(
            compile_march(twm.twmarch, args.width), n, words, True
        )
        ctx_seconds = time.perf_counter() - started
        reference_flow = compare_flow(
            twm.twmarch, n, args.width, initial=words
        )
        mega = {
            "n_words": n,
            "context_build_seconds": round(ctx_seconds, 6),
            "perfault_samples_per_class": args.megaword_samples,
            "classes": {},
        }
        sampled_identical = True
        spot_identical = True
        spot_total = 0
        for cname in mega_names:
            fault_class = available[cname]
            started = time.perf_counter()
            packed = ctx.detect_class(fault_class)
            packed_seconds = max(time.perf_counter() - started, 1e-9)
            n_class = len(fault_class)
            stride = max(1, n_class // args.megaword_samples)
            sample_idx = list(range(0, n_class, stride))
            sample_idx = sample_idx[: args.megaword_samples]
            samples = [fault_class[i] for i in sample_idx]
            started = time.perf_counter()
            per_verdicts = [ctx.detect_class([fault])[0] for fault in samples]
            per_seconds = max(time.perf_counter() - started, 1e-9)
            identical = per_verdicts == [packed[i] for i in sample_idx]
            sampled_identical &= identical
            packed_rate = n_class / packed_seconds
            per_rate = len(samples) / per_seconds
            mega["classes"][cname] = {
                "n_faults": n_class,
                "packed_seconds": round(packed_seconds, 6),
                "packed_faults_per_sec": round(packed_rate, 1),
                "perfault_faults_per_sec": round(per_rate, 1),
                "speedup_packed_vs_perfault": round(
                    packed_rate / per_rate, 2
                ),
                "sampled_verdicts_identical": identical,
            }
            # Ground truth: the first few *detected* samples sit at the
            # lowest sampled addresses, so the stop-on-mismatch
            # interpreter terminates within the first march elements.
            spots = [
                fault
                for i, fault in zip(sample_idx, samples)
                if packed[i]
            ][: args.megaword_spotchecks]
            for fault in spots:
                spot_total += 1
                spot_identical &= reference_flow(fault) is True
        mega["min_speedup_packed_vs_perfault"] = min(
            c["speedup_packed_vs_perfault"]
            for c in mega["classes"].values()
        )
        mega["sampled_verdicts_identical"] = sampled_identical
        mega["reference_spotchecks"] = spot_total
        mega["reference_spotcheck_identical"] = spot_identical
        mega_ok = sampled_identical and spot_identical
        ok &= mega_ok
        payload["workloads"]["megaword"] = mega

    counter_live = counter_is_live(args.width)
    ok &= counter_live
    payload["checks"] = {
        "all_vectors_identical": ok,
        "af_fast_path": all(
            w["modes"][m]["batch_reference_fallbacks"] == 0
            for w in payload["workloads"].values()
            for m in w.get("modes", ())
        ),
        # The counter behind the zeros above counts a real fallback.
        "fallback_counter_live": counter_live,
    }

    text = json.dumps(payload, indent=2) + "\n"
    ROOT_OUT.write_text(text, encoding="utf-8")
    MIRROR_OUT.parent.mkdir(exist_ok=True)
    MIRROR_OUT.write_text(text, encoding="utf-8")
    print(text, end="")
    if not ok:
        print(
            "ERROR: engines disagree on coverage, a fallback was detected "
            "or the fallback counter counts nothing"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
