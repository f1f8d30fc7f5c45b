#!/usr/bin/env python
"""detlint — determinism lint for the engine tree.

The reproduction's contract is that every campaign report is
bit-identical for a given seed, across processes, job counts and
re-runs.  The runtime patterns that silently break that contract are
easy to reintroduce, so this AST lint walks the engine sources and
flags them:

* ``DET001`` unseeded randomness: any ``random.<fn>()`` module-level
  call (``random.random``, ``random.shuffle``, ...) shares the global
  unseeded generator.  Constructing a ``random.Random(seed)`` instance
  is the sanctioned pattern and is allowed.
* ``DET002`` set iteration: ``for x in {...}`` / comprehensions over
  set literals, set comprehensions or ``set()``/``frozenset()`` calls
  iterate in hash order, which varies with ``PYTHONHASHSEED``.
  Iterate a sorted view or an ordered container instead.
* ``DET003`` wall-clock reads: ``time.time()``, ``datetime.now()``
  and friends leak the clock into whatever consumes them.  Monotonic
  timing (``time.monotonic``, ``time.perf_counter``, ``time.sleep``,
  ``process_time`` and their ``_ns`` variants) is fine — those feed
  durations, not result payloads.
* ``DET004`` hard process exit: ``os._exit`` skips ``finally`` blocks
  and multiprocessing cleanup; it is reserved for the chaos harness's
  crash injection and may appear only in ``chaos.py``.

Suppression: append ``# detlint: ignore[DET001]`` (comma-separated
ids, e.g. ``ignore[DET001,DET003]``) to the offending line.  Findings
render through the shared staticcheck diagnostics core, so ``--format
json`` emits the same machine-readable shape as ``repro lint``.

Usage::

    python tools/detlint.py src/repro/engine src/repro/bist src/repro/soak \
        src/repro/memory \
        [more paths] [--format json]

Exit codes: 0 clean, 1 findings, 2 usage errors.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

try:
    from repro.staticcheck.diagnostics import (
        Diagnostic,
        Location,
        Rule,
        RuleRegistry,
        Severity,
        render_json,
        render_text,
    )
except ImportError:  # running from a source checkout without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.staticcheck.diagnostics import (
        Diagnostic,
        Location,
        Rule,
        RuleRegistry,
        Severity,
        render_json,
        render_text,
    )

_SUPPRESS = re.compile(r"#\s*detlint:\s*ignore\[([A-Z0-9, ]+)\]")

# Monotonic/duration APIs that never leak wall-clock into results.
_TIME_ALLOWED = {
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
    "sleep",
}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

# The one module allowed to call os._exit (chaos crash injection).
_EXIT_ALLOWED_MODULES = {"chaos.py"}


@dataclass(frozen=True)
class FileTarget:
    """One parsed source file under lint."""

    path: Path
    tree: ast.Module
    lines: tuple[str, ...]

    def suppressed(self, lineno: int, rule_id: str) -> bool:
        if not 1 <= lineno <= len(self.lines):
            return False
        match = _SUPPRESS.search(self.lines[lineno - 1])
        if match is None:
            return False
        ids = {part.strip() for part in match.group(1).split(",")}
        return rule_id in ids


def _diag(rule: Rule, target: FileTarget, node: ast.AST, message: str):
    if target.suppressed(node.lineno, rule.id):
        return None
    return Diagnostic(
        rule.id,
        rule.severity,
        message,
        Location(
            subject=str(target.path),
            line=node.lineno,
            col=node.col_offset + 1,
        ),
    )


def _attr_call(node: ast.AST) -> tuple[str, str] | None:
    """``module.attr(...)`` call -> (module-name, attr-name)."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id, node.func.attr
    return None


def check_unseeded_random(rule: Rule, target: FileTarget) -> Iterator[Diagnostic]:
    """DET001: module-level ``random.*`` calls share the global
    unseeded generator; only ``random.Random(seed)`` is deterministic."""
    for node in ast.walk(target.tree):
        call = _attr_call(node)
        if call is None or call[0] != "random":
            continue
        if call[1] == "Random":
            continue
        diagnostic = _diag(
            rule,
            target,
            node,
            f"random.{call[1]}() uses the global unseeded generator; "
            "construct a seeded random.Random instead",
        )
        if diagnostic is not None:
            yield diagnostic


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def check_set_iteration(rule: Rule, target: FileTarget) -> Iterator[Diagnostic]:
    """DET002: iterating a set iterates in hash order — unstable across
    interpreter runs when strings are involved."""
    iterables: list[ast.AST] = []
    for node in ast.walk(target.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, ast.comprehension):
            iterables.append(node.iter)
    for expr in iterables:
        if not _is_set_expression(expr):
            continue
        diagnostic = _diag(
            rule,
            target,
            expr,
            "iteration over a set is hash-ordered and unstable; iterate "
            "a sorted() view or an ordered container",
        )
        if diagnostic is not None:
            yield diagnostic


def check_wall_clock(rule: Rule, target: FileTarget) -> Iterator[Diagnostic]:
    """DET003: wall-clock reads in engine code leak nondeterminism
    into anything that stores them; monotonic timing is exempt."""
    for node in ast.walk(target.tree):
        call = _attr_call(node)
        if call is None:
            continue
        module, attr = call
        message = None
        if module == "time" and attr not in _TIME_ALLOWED:
            message = (
                f"time.{attr}() reads the wall clock; use time.monotonic "
                "/ time.perf_counter for durations"
            )
        elif module in {"datetime", "date"} and attr in _WALLCLOCK_DATETIME:
            message = (
                f"{module}.{attr}() reads the wall clock; engine results "
                "must not depend on the current time"
            )
        if message is None:
            continue
        diagnostic = _diag(rule, target, node, message)
        if diagnostic is not None:
            yield diagnostic


def check_hard_exit(rule: Rule, target: FileTarget) -> Iterator[Diagnostic]:
    """DET004: ``os._exit`` outside the chaos harness skips cleanup and
    makes worker death indistinguishable from real crashes."""
    if target.path.name in _EXIT_ALLOWED_MODULES:
        return
    for node in ast.walk(target.tree):
        call = _attr_call(node)
        if call != ("os", "_exit"):
            continue
        diagnostic = _diag(
            rule,
            target,
            node,
            "os._exit() outside the chaos harness; raise or use "
            "chaos.perform() so process-kill semantics stay centralised",
        )
        if diagnostic is not None:
            yield diagnostic


_RULES = (
    (
        "DET001",
        "unseeded-random",
        Severity.ERROR,
        "module-level random.* call (global unseeded generator)",
        check_unseeded_random,
    ),
    (
        "DET002",
        "set-iteration",
        Severity.ERROR,
        "iteration over a set (hash-ordered, unstable)",
        check_set_iteration,
    ),
    (
        "DET003",
        "wall-clock",
        Severity.ERROR,
        "wall-clock read in engine code",
        check_wall_clock,
    ),
    (
        "DET004",
        "hard-exit",
        Severity.ERROR,
        "os._exit outside the chaos harness",
        check_hard_exit,
    ),
)


def registry() -> RuleRegistry:
    """A fresh registry with the determinism rules."""
    reg = RuleRegistry()
    for rule_id, name, severity, summary, check in _RULES:
        reg.register(Rule(rule_id, name, severity, summary, layer="det", check=check))
    return reg


def lint_source(source: str, path: Path | str = "<string>") -> list[Diagnostic]:
    """Lint one source text (the unit tests drive this directly)."""
    path = Path(path)
    tree = ast.parse(source, filename=str(path))
    target = FileTarget(path, tree, tuple(source.splitlines()))
    diagnostics: list[Diagnostic] = []
    for rule in registry().select():
        diagnostics.extend(rule.run(target))
    return diagnostics


def lint_paths(paths: list[Path]) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    diagnostics: list[Diagnostic] = []
    for file in files:
        diagnostics.extend(lint_source(file.read_text(), file))
    return diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="detlint", description="determinism lint for the engine tree"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[
            "src/repro/engine",
            "src/repro/bist",
            "src/repro/soak",
        ],
        help=(
            "files or directories to lint (default: src/repro/engine, "
            "src/repro/bist, src/repro/soak)"
        ),
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    diagnostics = lint_paths(paths)
    render = render_json if args.format == "json" else render_text
    print(render(diagnostics))
    return 1 if diagnostics else 0


if __name__ == "__main__":
    raise SystemExit(main())
