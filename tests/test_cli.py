"""Tests for the command-line interface."""

import pytest

from repro.cli import main

# Two scenarios, so a --jobs 2 sweep really reaches the worker fabric.
SOAK_SWEEP = [
    "soak",
    "--geometries", "8x8,16x8",
    "--rates", "4",
    "--cycles", "4000",
    "--seed", "1",
]


class TestList:
    def test_lists_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "March C-" in out
        assert "March U" in out
        assert "March RAW" in out


class TestShow:
    def test_shows_test(self, capsys):
        assert main(["show", "March C-"]) == 0
        out = capsys.readouterr().out
        assert "⇑(r0,w1)" in out
        assert "reference" in out

    def test_ascii_flag(self, capsys):
        assert main(["show", "March C-", "--ascii"]) == 0
        assert "up(r0,w1)" in capsys.readouterr().out

    def test_unknown_test(self, capsys):
        assert main(["show", "March Z"]) == 2
        assert "March Z" in capsys.readouterr().err


class TestTransform:
    def test_twm(self, capsys):
        assert main(["transform", "March U", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "TCM 29n" in out
        assert "ATMarch" in out

    def test_scheme1(self, capsys):
        assert main(
            ["transform", "March C-", "--width", "4", "--scheme", "scheme1"]
        ) == 0
        out = capsys.readouterr().out
        assert "background passes" in out

    def test_ascii(self, capsys):
        assert main(["transform", "March C-", "--width", "4", "--ascii"]) == 0
        out = capsys.readouterr().out
        assert "any(" in out
        assert "⇕" not in out

    def test_bad_width(self, capsys):
        assert main(["transform", "March C-", "--width", "12"]) == 2
        assert "power of two" in capsys.readouterr().err


class TestComplexity:
    def test_default_sweep(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "March C-" in out and "128" in out

    def test_custom_widths(self, capsys):
        assert main(["complexity", "--widths", "8", "--tests", "March U"]) == 0
        out = capsys.readouterr().out
        assert "March U" in out
        assert "March C-" not in out


class TestCoverage:
    def test_runs_campaign(self, capsys):
        assert main(
            [
                "coverage",
                "March C-",
                "--width", "4",
                "--words", "3",
                "--max-inter-pairs", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "SAF: " in out
        assert "overall" in out

    def test_aliasing_mode(self, capsys):
        assert main(
            [
                "coverage",
                "March C-",
                "--width", "4",
                "--words", "3",
                "--max-inter-pairs", "4",
                "--mode", "aliasing",
                "--misr-width", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "[aliasing]" in out
        assert "aliased" in out
        assert "stream" in out

    def test_fabric_options_left_coverage_for_soak(self, capsys):
        # Campaigns run in-process: coverage rejects --jobs like any
        # unknown option, while soak still shards scenario sweeps.
        with pytest.raises(SystemExit) as excinfo:
            main(["coverage", "March C-", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert main([*SOAK_SWEEP, "--jobs", "2"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_symbolic_engine(self, capsys):
        assert main(
            [
                "coverage",
                "March C-",
                "--width", "4",
                "--words", "3",
                "--max-inter-pairs", "4",
                "--engine", "symbolic",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "engine: symbolic" in out
        assert "overall" in out

    def test_symbolic_engine_rejects_signature_mode(self, capsys):
        assert main(
            [
                "coverage",
                "March C-",
                "--width", "4",
                "--words", "3",
                "--max-inter-pairs", "4",
                "--engine", "symbolic",
                "--mode", "signature",
            ]
        ) == 2
        assert "width-concrete" in capsys.readouterr().err


class TestSoakFabric:
    def test_chaos_sweep_recovers_and_reports_faults(self, capsys):
        # A crashed worker on the first chunk is retried onto a
        # respawned worker; the reports are unchanged and the
        # supervision is surfaced on the faults: line.
        assert main(SOAK_SWEEP) == 0
        clean = capsys.readouterr().out.splitlines()[:-1]
        assert main(
            [*SOAK_SWEEP, "--jobs", "2", "--chaos", "crash:soak:0",
             "--max-retries", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults: " in out
        assert "1 crashes" in out
        assert "1 chaos" in out
        kept = [line for line in out.splitlines() if "faults: " not in line]
        assert kept[:-1] == clean  # the last line carries the timing

    def test_clean_run_prints_no_faults_line(self, capsys):
        assert main([*SOAK_SWEEP, "--jobs", "2"]) == 0
        assert "faults: " not in capsys.readouterr().out

    def test_no_degrade_fails_on_poisoned_chunk(self, capsys):
        # attempt=* poisons the chunk on every dispatch; --no-degrade
        # turns the exhausted retries into a clean exit-2 error.
        assert main(
            [*SOAK_SWEEP, "--jobs", "2", "--chaos", "error:soak:0:*",
             "--max-retries", "1", "--no-degrade"]
        ) == 2
        assert "degradation disabled" in capsys.readouterr().err

    def test_bad_chaos_spec_is_rejected(self, capsys):
        assert main([*SOAK_SWEEP, "--chaos", "explode:soak:0"]) == 2
        assert "chaos" in capsys.readouterr().err


class TestTable2:
    def test_cross_check_passes(self, capsys):
        assert main(
            [
                "table2",
                "--widths", "4,8",
                "--words", "3",
                "--max-inter-pairs", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "vs reference" in out and "vs batch" in out
        assert "symbolic verdicts match" in out

    def test_single_engine_diff(self, capsys):
        assert main(
            [
                "table2",
                "March U",
                "--widths", "4",
                "--words", "2",
                "--max-inter-pairs", "2",
                "--engines", "batch",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "March U" in out
        assert "vs reference" not in out

    def test_unknown_test(self, capsys):
        assert main(["table2", "March Z", "--widths", "4"]) == 2
        assert "March Z" in capsys.readouterr().err


class TestValidate:
    def test_valid_solid(self, capsys):
        assert main(["validate", "⇕(w0); ⇑(r0,w1); ⇕(r1)"]) == 0
        assert "valid solid" in capsys.readouterr().out

    def test_valid_transparent(self, capsys):
        assert main(["validate", "⇕(rc,w~c); ⇕(r~c,wc); ⇕(rc)"]) == 0
        assert "valid transparent" in capsys.readouterr().out

    def test_invalid_test(self, capsys):
        assert main(["validate", "⇕(w0); ⇑(r1,w1)"]) == 1
        assert "read expects" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        assert main(["validate", "nonsense"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_transparent_runs_execution_check(self, capsys):
        assert main(["validate", "⇕(rc,w~c); ⇕(r~c,wc)"]) == 0
        assert "randomized trials" in capsys.readouterr().out

    def test_non_restoring_test_caught_structurally(self, capsys):
        # The structural validator is sound, so it rejects a
        # non-restoring test before the execution check even runs.
        assert main(["validate", "⇕(rc,w~c)"]) == 1
        assert "not transparent" in capsys.readouterr().err


class TestLint:
    def test_clean_catalog_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint: 0 error" in out
        assert "[M020]" in out

    def test_single_test(self, capsys):
        assert main(["lint", "March C-"]) == 0
        out = capsys.readouterr().out
        assert "TCM=35n" in out
        assert "March C-" in out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", "--notation", "⇕(w0); ⇑(r1,w1)"]) == 1
        assert "[M003]" in capsys.readouterr().out

    def test_fail_on_info_gates_informational_output(self, capsys):
        assert main(["lint", "March C-", "--fail-on", "info"]) == 1

    def test_severity_filters_display_only(self, capsys):
        assert main(["lint", "March C-", "--severity", "error"]) == 0
        out = capsys.readouterr().out
        assert "[M020]" not in out
        assert "lint: 0 error, 0 warning, 0 info" in out

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "March C-", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 0
        assert any(d["rule"] == "M040" for d in payload["diagnostics"])

    def test_explicit_rule_selection(self, capsys):
        assert main(["lint", "March C-", "--rules", "M020,I010"]) == 0
        out = capsys.readouterr().out
        assert "[M020]" in out
        assert "[I010]" in out
        assert "[M040]" not in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "M999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_exec_rule_opt_in_finds_transparency_violation(self, capsys):
        code = main(["lint", "--notation", "⇕(rc,w~c)", "--rules", "X001"])
        assert code == 1
        assert "transparency violated" in capsys.readouterr().out

    def test_unknown_test_exits_two(self, capsys):
        assert main(["lint", "March Z"]) == 2
        assert "March Z" in capsys.readouterr().err

    def test_parse_error_exits_two(self, capsys):
        assert main(["lint", "--notation", "nonsense"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_name_and_notation_conflict(self, capsys):
        assert main(["lint", "MATS", "--notation", "⇕(w0)"]) == 2
        assert "not both" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
