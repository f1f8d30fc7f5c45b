"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the March-test catalog with statistics.
``show NAME``
    Print one test, its notation and metadata.
``transform NAME --width B [--scheme twm|scheme1] [--ascii]``
    Run TWM_TA (or the Scheme 1 baseline) and print all artifacts.
``complexity [--widths 16,32,64,128] [--tests "March C-,March U"]``
    Regenerate the Table 3 word-size sweep.
``coverage NAME --width B [--words N] [--seed S] [--engine E]``
    Fault-simulate the transformed test over the standard universe
    (plus the RDF/DRDF/AF extension classes) through a pluggable
    engine, in-process.  ``--mode signature`` swaps
    the alias-free compare oracle for the paper's two-phase MISR
    signature session, and ``--mode aliasing`` runs the same session
    with *pair verdicts*: every class reports stream-detected and
    aliased counts (stream-detected but signature-missed) next to the
    signature coverage, the quantity behind the Section 5 comparison.
    ``--mode`` also takes a comma-separated list (or ``all``): the
    modes run back to back through one persistent runner, whose
    campaign-context cache survives across them — every report carries
    a ``contexts:`` line with the cache's built/hit/miss counters and
    build seconds.  ``--engine symbolic`` evaluates compare-mode
    campaigns through the width-generic symbolic backend
    (signature/aliasing modes are width-concrete and rejected with a
    clear error).
``table2 [NAME] [--widths 4,8,16,32] [--words N] [--engines reference,batch]``
    Regenerate the paper's Table 2 rows with the symbolic engine — one
    width-generic evaluation per fault shape — and diff every verdict
    against the concrete engines at each swept width; exits non-zero
    on any disagreement.
``soak [--tests T] [--geometries NxW,..] [--rates R,..] [--mixes M,..]``
    Long-horizon online-test scenarios: stochastic fault arrivals
    (Poisson or burst processes; permanent, transient and intermittent
    episodes), streaming LFSR workload traffic, and the periodic
    transparent test running under an idle/duty-cycle budget with the
    degradation ladder (primary test → shorter fallback → widened
    period) when the budget starves it.  The scenario matrix (tests x
    geometries x arrival rates x fault mixes x schedules) shards across
    ``--jobs`` supervised worker processes, and reports are
    bit-identical for any jobs count: ``--chunk-timeout`` bounds each
    chunk attempt, ``--max-retries`` bounds re-dispatch after worker
    crashes/hangs, ``--no-degrade`` turns exhausted retries into an
    error instead of in-process execution, and ``--chaos`` injects
    deterministic worker faults (e.g. ``crash:soak:0`` or
    ``seeded:7:0.3``) for smoke testing the recovery paths; whatever
    supervision did is printed as a ``faults:`` line.
    ``--checkpoint FILE`` banks finished scenarios to JSON and resumes
    from it; ``--max-batches N`` time-boxes one invocation (exit code
    3 marks a partial run).  Every scenario prints its detection-
    latency distribution, aliasing escapes, missed transient windows
    and diagnosis accuracy, followed by the matrix table.
``validate NOTATION``
    Parse and validate a March test given in textual notation.  For
    transparent tests this also runs the randomized execution check
    (rule X001): the memory must be bit-identical after the test.
``lint [NAME] [--notation TEXT] [--width B] [--format text|json]``
    Static analysis: run the march- and IR-level rule layers over the
    whole catalog (default), one catalog test, or a raw notation
    string.  ``--rules M020,I010`` selects explicit rule ids (the
    execution-layer ``X001`` is opt-in this way), ``--severity``
    filters the displayed diagnostics and ``--fail-on`` sets the exit
    threshold (default ``error``).  Exit codes are CI-friendly: 0
    clean, 1 findings at/above the threshold, 2 usage errors (unknown
    rule, test or notation).
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import sys
import threading

from .analysis.coverage import (
    aliasing_flow,
    compare_flow,
    run_campaign,
    signature_flow,
)
from .analysis.reports import render_table
from .analysis.soak import render_soak_campaign, render_soak_report
from .analysis.table2 import DEFAULT_WIDTHS, table2_report
from .baselines.scheme1 import scheme1_transform
from .core.complexity import table3_rows
from .core.notation import NotationError, format_march, parse_march
from .core.twm import twm_transform
from .core.validate import (
    check_transparency_by_execution,
    validate_solid,
    validate_transparent,
)
from .engine import (
    CampaignRunner,
    ExecutionError,
    FaultPlan,
    RetryPolicy,
    engine_names,
)
from .library import catalog
from .memory.injection import standard_fault_universe
from .soak import run_soak_campaign, scenario_matrix


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in catalog.names():
        entry = catalog.entry(name)
        rows.append(
            (
                name,
                entry.test.op_count,
                entry.test.n_reads,
                ",".join(sorted(entry.detects)),
                entry.reference,
            )
        )
    print(
        render_table(
            ["Test", "N", "Q", "Detects (100%)", "Reference"],
            rows,
            title="March-test catalog",
        )
    )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    entry = catalog.entry(args.name)
    print(entry.test.describe())
    print(f"  reference: {entry.reference}")
    if args.ascii:
        print(f"  ascii: {format_march(entry.test, ascii_only=True)}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    test = catalog.get(args.name)
    fmt = (lambda t: format_march(t, ascii_only=True)) if args.ascii else str
    if args.scheme == "twm":
        result = twm_transform(test, args.width)
        print(result.summary())
        print(f"SMarch   : {fmt(result.smarch)}")
        print(f"TSMarch  : {fmt(result.tsmarch)}")
        print(f"ATMarch  : {fmt(result.atmarch)}")
        print(f"TWMarch  : {fmt(result.twmarch)}")
        print(f"Prediction ({result.tcp} ops/word): {fmt(result.prediction)}")
    else:
        result = scheme1_transform(test, args.width)
        print(result.summary())
        for p in result.passes:
            print(f"  {p.name} ({p.op_count} ops): {fmt(p)}")
        print(f"Prediction: {result.tcp} ops/word")
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.tests.split(",")]
    widths = tuple(int(w) for w in args.widths.split(","))
    rows = table3_rows([catalog.get(n) for n in names], widths=widths)
    print(
        render_table(
            ["Test", "b", "Scheme 1 [12]", "TOMT [13]", "This work",
             "vs [12]", "vs [13]"],
            [
                (
                    r.test,
                    r.width,
                    f"{r.scheme1_measured.total}n",
                    f"{r.tomt.total}n",
                    f"{r.this_work.total}n",
                    f"{r.ratio_vs_scheme1:.0%}",
                    f"{r.ratio_vs_tomt:.0%}",
                )
                for r in rows
            ],
            title="Total test complexity (TCM + TCP)",
        )
    )
    return 0


_COVERAGE_MODES = ("compare", "signature", "aliasing")


def _parse_modes(spec: str) -> list[str]:
    """``--mode`` value → ordered mode list (``all`` = every oracle)."""
    if spec == "all":
        return list(_COVERAGE_MODES)
    modes = [m.strip() for m in spec.split(",") if m.strip()]
    unknown = [m for m in modes if m not in _COVERAGE_MODES]
    if not modes or unknown:
        raise ValueError(
            f"--mode expects a comma-separated subset of "
            f"{', '.join(_COVERAGE_MODES)} (or 'all'); got {spec!r}"
        )
    return modes


def _cmd_coverage(args: argparse.Namespace) -> int:
    test = catalog.get(args.name)
    modes = _parse_modes(args.mode)
    result = twm_transform(test, args.width)
    universe = standard_fault_universe(
        args.words,
        args.width,
        max_inter_pairs=args.max_inter_pairs,
        rng=random.Random(args.seed),
        include_rdf=not args.no_extension_classes,
        include_af=not args.no_extension_classes,
    )
    if args.classes is not None:
        wanted = [c.strip() for c in args.classes.split(",") if c.strip()]
        unknown = [c for c in wanted if c not in universe]
        if not wanted or unknown:
            raise ValueError(
                f"--classes expects a comma-separated subset of "
                f"{', '.join(universe)}; got {args.classes!r}"
            )
        universe = {name: universe[name] for name in wanted}
    if args.materialize_classes:
        # Concrete fault lists instead of streaming descriptors: the
        # list path of the class kernels, diffed against the
        # interpreter in CI.
        universe = {name: list(faults) for name, faults in universe.items()}
    flows = {}
    for mode in modes:
        if mode == "signature":
            flows[mode] = signature_flow(
                result.twmarch,
                result.prediction,
                args.words,
                args.width,
                misr_width=args.misr_width,
                initial=None,
                seed=args.seed,
            )
        elif mode == "aliasing":
            flows[mode] = aliasing_flow(
                result.twmarch,
                result.prediction,
                args.words,
                args.width,
                misr_width=args.misr_width,
                initial=None,
                seed=args.seed,
            )
        else:
            flow = compare_flow(
                result.twmarch,
                args.words,
                args.width,
                initial=None,
                seed=args.seed,
            )
            flows[mode] = flow
    # One persistent runner serves every requested mode: its
    # campaign-context cache survives across the whole run, so a
    # mixed-mode sweep builds each context once (signature and
    # aliasing even share one session context).
    with CampaignRunner(args.engine) as runner:
        total_stats = None
        for mode, flow in flows.items():
            report = run_campaign(
                flow,
                universe,
                flow_name=f"TWMarch {args.name} [{mode}]",
                runner=runner,
            )
            print(report.render())
            print(
                f"  engine: {args.engine} "
                f"({report.total} faults in {report.seconds:.3f}s)"
            )
            if report.context_stats is not None:
                if total_stats is None:
                    total_stats = report.context_stats.copy()
                else:
                    total_stats.merge(report.context_stats)
    if len(flows) > 1 and total_stats is not None:
        print(f"run total contexts: {total_stats.render()}")
    return 0


def _parse_geometries(spec: str) -> tuple[tuple[int, int], ...]:
    """``--geometries`` value (``"16x8,64x32"``) → (n_words, width)
    pairs, validated at the parser boundary."""
    geometries = []
    for item in spec.split(","):
        item = item.strip()
        parts = item.split("x")
        if len(parts) != 2:
            raise ValueError(
                f"--geometries expects comma-separated NxW items "
                f"(e.g. '16x8,64x32'); got {item!r}"
            )
        try:
            n_words, width = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad geometry {item!r}") from None
        if n_words < 2 or width < 2:
            raise ValueError(f"geometry {item!r} needs N >= 2 and W >= 2")
        geometries.append((n_words, width))
    if not geometries:
        raise ValueError("--geometries must name at least one NxW pair")
    return tuple(geometries)


def _csv(spec: str, kind=str) -> tuple:
    values = tuple(kind(item.strip()) for item in spec.split(",") if item.strip())
    if not values:
        raise ValueError(f"expected a comma-separated list, got {spec!r}")
    return values


def _cmd_soak(args: argparse.Namespace) -> int:
    fallback = None if args.fallback.lower() == "none" else args.fallback
    scenarios = scenario_matrix(
        tests=_csv(args.tests),
        geometries=_parse_geometries(args.geometries),
        rates=_csv(args.rates, float),
        mixes=_csv(args.mixes),
        processes=_csv(args.processes),
        periods=_csv(args.periods, int),
        cycles=args.cycles,
        idle_permille=args.idle_permille,
        write_permille=args.write_permille,
        budget=args.budget,
        fallback_test=fallback,
        misr_width=args.misr_width,
        seed=args.seed,
    )
    retry = RetryPolicy(
        max_attempts=args.max_retries + 1, timeout=args.chunk_timeout
    )
    chaos = FaultPlan.parse(args.chaos) if args.chaos else None
    campaign = run_soak_campaign(
        scenarios,
        jobs=args.jobs,
        retry=retry,
        chaos=chaos,
        degrade=not args.no_degrade,
        checkpoint=args.checkpoint,
        batch_size=args.batch_size,
        max_batches=args.max_batches,
    )
    for report in campaign.reports:
        print(render_soak_report(report))
    print(render_soak_campaign(campaign))
    jobs_note = f", jobs={args.jobs}" if args.jobs > 1 else ""
    print(
        f"ran {campaign.scenarios}/{len(scenarios)} scenario(s) in "
        f"{campaign.seconds:.3f}s{jobs_note}"
    )
    return 0 if campaign.completed else 3


def _cmd_table2(args: argparse.Namespace) -> int:
    widths = tuple(int(w) for w in args.widths.split(","))
    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    report = table2_report(
        args.name,
        widths=widths,
        n_words=args.words,
        seed=args.seed,
        max_inter_pairs=args.max_inter_pairs,
        engines=engines,
    )
    print(report.render())
    invariant = report.width_independent_classes
    if invariant:
        print(f"  width-invariant coverage classes: {', '.join(invariant)}")
    if report.ok:
        print(
            f"  symbolic verdicts match {', '.join(engines)} on all "
            f"{report.total_faults} faults at widths "
            f"{', '.join(map(str, widths))}"
        )
        return 0
    print(
        "error: symbolic verdicts disagree with a concrete engine",
        file=sys.stderr,
    )
    return 1


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        test = parse_march(args.notation, name="cli")
    except NotationError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    print(test.describe())
    report = (
        validate_transparent(test)
        if test.is_transparent_form
        else validate_solid(test)
    )
    kind = "transparent" if test.is_transparent_form else "solid"
    if report.ok:
        if test.is_transparent_form:
            check = check_transparency_by_execution(test)
            if not check:
                print(check.diagnostic().render(), file=sys.stderr)
                return 1
            print(f"valid {kind} march test ({check})")
            return 0
        print(f"valid {kind} march test")
        return 0
    print(f"invalid {kind} march test:", file=sys.stderr)
    for problem in report.problems:
        print(f"  - {problem}", file=sys.stderr)
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .staticcheck import (
        Severity,
        filter_severity,
        lint_catalog,
        lint_test,
        max_severity,
        render_json,
        render_text,
    )

    if args.name is not None and args.notation is not None:
        raise ValueError("pass a catalog NAME or --notation, not both")
    rules = (
        [rule.strip() for rule in args.rules.split(",") if rule.strip()]
        if args.rules
        else None
    )
    if args.notation is not None:
        try:
            test = parse_march(args.notation, name="cli")
        except NotationError as error:
            print(f"parse error: {error}", file=sys.stderr)
            return 2
        diagnostics = lint_test(test, width=args.width, rules=rules)
    else:
        names = None if args.name is None else [args.name]
        diagnostics = lint_catalog(names, width=args.width, rules=rules)

    shown = diagnostics
    if args.severity is not None:
        shown = filter_severity(diagnostics, Severity.parse(args.severity))
    if args.format == "json":
        print(render_json(shown))
    else:
        print(render_text(shown))

    worst = max_severity(diagnostics)
    threshold = Severity.parse(args.fail_on)
    return 1 if worst is not None and worst >= threshold else 0


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (widths, word
    counts, jobs, pair caps): rejected at the parser with a clean
    usage error, before any geometry math can wrap around."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type for counts that may be zero (retry budgets)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type for durations in seconds (0 = expire instantly)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative duration, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Transparent word-oriented March BIST "
            "(Li/Tseng/Wey, DATE 2005 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the March-test catalog")

    show = sub.add_parser("show", help="print one catalog test")
    show.add_argument("name")
    show.add_argument("--ascii", action="store_true")

    transform = sub.add_parser("transform", help="run a transformation")
    transform.add_argument("name")
    transform.add_argument("--width", type=_positive_int, default=32)
    transform.add_argument(
        "--scheme", choices=("twm", "scheme1"), default="twm"
    )
    transform.add_argument("--ascii", action="store_true")

    complexity = sub.add_parser("complexity", help="Table 3 sweep")
    complexity.add_argument("--tests", default="March C-,March U")
    complexity.add_argument("--widths", default="16,32,64,128")

    coverage = sub.add_parser("coverage", help="fault-simulate a TWMarch")
    coverage.add_argument("name")
    coverage.add_argument("--width", type=_positive_int, default=8)
    # Scaled default workload: the batch engine evaluates whole fault
    # classes per O(op_count) pass, so 16 words costs what 4 used to.
    coverage.add_argument("--words", type=_positive_int, default=16)
    coverage.add_argument("--seed", type=int, default=0)
    coverage.add_argument(
        "--max-inter-pairs", type=_positive_int, default=16
    )
    coverage.add_argument(
        "--engine",
        choices=engine_names(),
        default="batch",
        help="simulation backend (batch = vectorized campaign engine)",
    )
    coverage.add_argument(
        "--mode",
        default="compare",
        help="detection oracle(s): alias-free 'compare', the two-phase "
        "MISR 'signature' session (aliasing possible), or the same "
        "session with per-fault (stream, signature) pair verdicts that "
        "count 'aliasing' events per class.  A comma-separated list "
        "(or 'all') runs a mixed-mode campaign through one persistent "
        "runner whose context cache is shared across the modes",
    )
    coverage.add_argument("--misr-width", type=_positive_int, default=16)
    coverage.add_argument(
        "--no-extension-classes",
        action="store_true",
        help="restrict the universe to the historical Section 2 "
        "classes (drop RDF/DRDF/AF)",
    )
    coverage.add_argument(
        "--classes",
        default=None,
        help="comma-separated subset of universe class names to "
        "simulate (e.g. 'SAF,TF'); the megaword CI smoke leg uses "
        "this to bound runtime at 2^20 words",
    )
    coverage.add_argument(
        "--materialize-classes",
        action="store_true",
        help="evaluate the universe as concrete fault lists instead "
        "of streaming class descriptors (the class kernels' list path)",
    )

    soak = sub.add_parser(
        "soak",
        help="long-horizon online-test scenarios with stochastic "
        "fault arrivals",
    )
    soak.add_argument(
        "--tests",
        default="March C-",
        help="comma-separated catalog tests for the primary rung",
    )
    soak.add_argument(
        "--geometries",
        default="16x8",
        help="comma-separated NxW memory geometries (e.g. '16x8,64x32')",
    )
    soak.add_argument(
        "--rates",
        default="2",
        help="comma-separated fault arrival rates per 10k cycles",
    )
    soak.add_argument(
        "--mixes",
        default="mixed",
        help="comma-separated fault-mix presets: permanent, transient, "
        "intermittent, mixed",
    )
    soak.add_argument(
        "--processes",
        default="poisson",
        help="comma-separated arrival processes: poisson, burst",
    )
    soak.add_argument(
        "--periods",
        default="1500",
        help="comma-separated nominal cycles between test sessions",
    )
    soak.add_argument(
        "--cycles", type=_positive_int, default=20_000,
        help="simulated uptime per scenario",
    )
    soak.add_argument(
        "--idle-permille", type=_nonnegative_int, default=700,
        help="probability (1/1000) that a workload cycle is idle",
    )
    soak.add_argument(
        "--write-permille", type=_nonnegative_int, default=40,
        help="probability (1/1000) that a busy cycle writes",
    )
    soak.add_argument(
        "--budget", type=_positive_int, default=None,
        help="BIST operations granted per period (default: unlimited); "
        "a budget the test cannot fit drives the degradation ladder",
    )
    soak.add_argument(
        "--fallback",
        default="MATS+",
        help="shorter catalog test the ladder degrades to "
        "('none' = widen the primary only)",
    )
    soak.add_argument("--misr-width", type=_positive_int, default=16)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the sharded scenario sweep "
        "(deterministic: same reports for any value)",
    )
    soak.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="bank finished scenarios to this JSON file and resume "
        "from it on re-invocation",
    )
    soak.add_argument(
        "--batch-size", type=_positive_int, default=4,
        help="scenarios dispatched (and checkpointed) per batch",
    )
    soak.add_argument(
        "--max-batches", type=_positive_int, default=None,
        help="new batches this invocation may run (time-boxed slice; "
        "exit code 3 marks the run partial)",
    )
    soak.add_argument(
        "--chunk-timeout", type=_nonnegative_float, default=None,
        metavar="SECONDS",
        help="per-attempt deadline for a sharded scenario chunk",
    )
    soak.add_argument(
        "--max-retries", type=_nonnegative_int, default=2,
        help="re-dispatches a chunk gets after a worker crash, hang "
        "or corrupt result",
    )
    soak.add_argument(
        "--no-degrade", action="store_true",
        help="fail the sweep when a chunk exhausts its retries "
        "instead of running it in-process",
    )
    soak.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="inject deterministic worker faults (class name is "
        "'soak', e.g. 'crash:soak:0' or 'seeded:7:0.3'); recovery "
        "statistics appear on the faults: line",
    )

    table2 = sub.add_parser(
        "table2",
        help="regenerate Table 2 symbolically and diff against "
        "concrete engines",
    )
    table2.add_argument("name", nargs="?", default="March C-")
    table2.add_argument(
        "--widths",
        default=",".join(map(str, DEFAULT_WIDTHS)),
        help="comma-separated word widths to concretize at",
    )
    table2.add_argument("--words", type=_positive_int, default=4)
    table2.add_argument("--seed", type=int, default=0)
    table2.add_argument("--max-inter-pairs", type=_positive_int, default=8)
    table2.add_argument(
        "--engines",
        default="reference,batch",
        help="concrete engines to diff the symbolic verdicts against",
    )

    validate = sub.add_parser("validate", help="check a notation string")
    validate.add_argument("notation")

    lint = sub.add_parser(
        "lint", help="static analysis over catalog tests or a notation"
    )
    lint.add_argument(
        "name",
        nargs="?",
        default=None,
        help="catalog test to lint (default: the whole catalog)",
    )
    lint.add_argument(
        "--notation",
        default=None,
        help="lint a raw notation string instead of a catalog test",
    )
    lint.add_argument(
        "--width",
        type=_positive_int,
        default=32,
        help="word width the IR/prediction rules analyse at",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: every march- "
        "and ir-layer rule; exec-layer rules like X001 are opt-in "
        "here)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="lowest severity that makes the exit code 1",
    )
    lint.add_argument(
        "--severity",
        choices=("error", "warning", "info"),
        default=None,
        help="only display diagnostics at/above this severity "
        "(the --fail-on gate still sees everything)",
    )

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "transform": _cmd_transform,
    "complexity": _cmd_complexity,
    "coverage": _cmd_coverage,
    "soak": _cmd_soak,
    "table2": _cmd_table2,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
}


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread so that the same cleanup runs
    as on Ctrl-C (worker pool torn down, no ``*.tmp`` left behind)."""


def _terminate_handler(pid: int):
    def handler(signum, frame) -> None:
        if os.getpid() != pid:
            # A worker forked before it reset the handler: die as
            # SIGTERM would have made it.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
        raise _Terminated

    return handler


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, _terminate_handler(os.getpid()))
    try:
        return _COMMANDS[args.command](args)
    except KeyError as error:  # unknown catalog name
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ValueError, ExecutionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
