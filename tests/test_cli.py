"""Command line behavior: exit codes, formats, config files, determinism."""

import argparse
import json
import runpy
import sys
import warnings

import pytest

from katolab import cli, fields, kato
from katolab.cli import _write_report, main
from katolab.fields import evaluate_scenario


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths per subcommand


def test_projections_verify_json(capsys):
    code, out, err = _run(capsys, "projections", "verify", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["command"] == "projections verify"
    assert all(r["residual"] <= 1e-12 for r in payload["rows"])


def test_projections_verify_minimal_table_shape(capsys):
    code, out, _ = _run(capsys, "projections", "verify", "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    families = [r["family"] for r in payload["rows"]]
    # two exterior, two interior, one each of the rest, plus the
    # pointwise twistor symbol row
    assert families.count("exterior") == 2
    assert families.count("interior") == 2
    assert families.count("symmetrization") == 1
    assert families.count("contraction") == 1
    assert families.count("clifford") == 1
    assert families.count("twistor") == 1
    assert families.count("twistor-symbol") == 1


def test_projections_verify_csv(capsys):
    code, out, _ = _run(capsys, "projections", "verify", "--max-n", "2",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,n,k,declared,measured,residual,ok"
    assert len(lines) == 10  # 8 table rows + twistor symbol row + header


def test_projections_verify_impossible_tolerance(capsys):
    code, out, err = _run(capsys, "projections", "verify", "--max-n", "2",
                          "--tolerance", "1e-20")
    assert code == 1
    assert "first failing entry" in err


def test_ellipticity_known_value(capsys):
    code, out, _ = _run(capsys, "ellipticity", "--op", "twistor:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_declared"] is True
    assert payload["epsilon"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert payload["declared_epsilon"] == "2/3"


@pytest.mark.parametrize("coarse", ["1", "500"])
def test_ellipticity_reports_its_flags(capsys, coarse):
    code, out, _ = _run(capsys, "ellipticity", "--op", "hodge:2:1",
                        "--coarse", coarse, "--refine", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "invariant-exact"
    assert (payload["samples"], payload["refinement_steps"]) == (int(coarse), 0)


@pytest.mark.parametrize("argv", [
    ["ellipticity", "--op", "dirac:3:5"],
    ["kato", "fuzz", "--theorem", "foldo", "--op", "twistor:3:9", "--samples", "100"],
])
def test_surplus_operator_field_is_config_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "takes no degree" in err


def test_ellipticity_unknown_op(capsys):
    code, _, err = _run(capsys, "ellipticity", "--op", "nonsense:3")
    assert code == 2
    assert "error" in err


def test_kato_fuzz_foldo(capsys):
    code, out, _ = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--op", "dirac:2", "--samples", "2000", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["samples"] == 2000


def test_kato_fuzz_hodge_with_op_string(capsys):
    code, out, _ = _run(capsys, "kato", "fuzz", "--theorem", "hodge",
                        "--op", "hodge:3:1", "--samples", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["operator"].startswith("hodge:3:1")


@pytest.mark.parametrize("c", [None, "2"])
@pytest.mark.parametrize("c_star", [None, "3"])
def test_kato_fuzz_hodge_reports_both_weight_ranges(capsys, c, c_star):
    # a fixed weight shows as [w, w], a drawn one as [0, 1000]
    flags = (["--c", c] if c else []) + (["--c-star", c_star] if c_star else [])
    code, out, _ = _run(capsys, "kato", "fuzz", "--theorem", "hodge", "--n", "3",
                        "--k", "1", "--samples", "200", *flags)
    payload = json.loads(out)
    assert code == 0
    assert payload["c_range"] == ([2.0, 2.0] if c else [0.0, 1000.0])
    assert payload["c_star_range"] == ([3.0, 3.0] if c_star else [0.0, 1000.0])


def test_kato_fuzz_rejects_zero_samples(capsys):
    code, _, err = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--op", "dirac:2", "--samples", "0")
    assert code == 2
    assert "samples >= 1" in err


def test_kato_fuzz_foldo_needs_op(capsys):
    code, _, err = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--samples", "10")
    assert code == 2
    assert "--op" in err


def test_kato_fuzz_hodge_needs_degrees(capsys):
    code, _, err = _run(capsys, "kato", "fuzz", "--theorem", "hodge",
                        "--samples", "10")
    assert code == 2


@pytest.mark.parametrize("argv,flags", [
    (["--theorem", "foldo", "--op", "dirac:3", "--dim-e", "3"], "--dim-e"),
    (["--theorem", "foldo", "--op", "dirac:3", "--c-star", "2"], "--c-star"),
    (["--theorem", "hodge", "--op", "hodge:4:2", "--n", "5", "--k", "1"], "--n, --k"),
])
def test_kato_fuzz_refuses_ignored_flags(capsys, argv, flags):
    code, out, err = _run(capsys, "kato", "fuzz", *argv, "--samples", "100")
    assert code == 2
    assert out == ""
    assert flags in err


@pytest.mark.parametrize("theorem,flag,value", [
    ("foldo", "--c", "nan"), ("foldo", "--c", "inf"), ("foldo", "--c", "-1"),
    ("hodge", "--c", "nan"), ("hodge", "--c-star", "nan"),
])
def test_kato_fuzz_bad_weight_is_config_error(capsys, theorem, flag, value):
    target = ["--op", "dirac:2"] if theorem == "foldo" else ["--n", "3", "--k", "1"]
    code, out, err = _run(capsys, "kato", "fuzz", "--theorem", theorem, *target,
                          "--samples", "200", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert "weight" in err


def test_field_run_nan_weight_is_config_error(capsys):
    code, out, err = _run(capsys, "field", "run", "--scenario", "closed-form",
                          "--n", "3", "--grid", "50", "--c", "nan")
    assert code == 2
    assert out == ""
    assert "weight" in err


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_projections_verify_rejects_bad_tolerance(capsys, value):
    code, out, err = _run(capsys, "projections", "verify", "--max-n", "2",
                          f"--tolerance={value}")
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_kato_fuzz_hodge_rejects_bad_fiber_dimension(capsys, value):
    code, out, err = _run(capsys, "kato", "fuzz", "--theorem", "hodge", "--n", "3",
                          "--k", "1", "--samples", "100", f"--dim-e={value}")
    assert code == 2
    assert out == ""
    # the library's check: the CLI passes --dim-e through as the form fiber
    assert f"form split needs fiber_dim >= 1, got fiber_dim={value}" in err


def test_write_report_refuses_non_finite_floats():
    args = argparse.Namespace(format="json", out=None)
    with pytest.raises(ValueError):
        _write_report(args, "kato fuzz", {"min_margin": float("nan")}, [], [])


@pytest.mark.parametrize("argv", [
    ["field", "run", "--scenario", "generic-form", "--n", "3", "--c", "1e308",
     "--grid", "50"],
    ["kato", "fuzz", "--theorem", "foldo", "--op", "dirac:3", "--c", "1e308",
     "--samples", "2000"],
])
def test_overflowing_weight_fails_with_standard_json(capsys, argv):
    # finite weights large enough to overflow: every non-finite row is a
    # failure, counted, and the report stays standard JSON with no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = _run(capsys, *argv)
    assert code == 1
    payload = _strict_json(out)
    assert payload["passed"] is False
    assert payload["nonfinite"] > 0
    assert payload["violations"] >= payload["nonfinite"]


def test_finite_reports_carry_no_nonfinite_key(capsys):
    code, out, _ = _run(capsys, "field", "run", "--scenario", "closed-form",
                        "--n", "3", "--grid", "200")
    assert code == 0
    assert "nonfinite" not in _strict_json(out)


@pytest.mark.parametrize("flag,value", [("--coarse", "0"), ("--refine", "-1")])
def test_ellipticity_rejects_bad_sizes(capsys, flag, value):
    code, out, err = _run(capsys, "ellipticity", "--op", "dirac:3",
                          f"{flag}={value}")
    assert code == 2
    assert out == ""
    # the library's check names its parameter, coarse_samples or refine_steps
    assert flag[2:] in err


def test_field_run_smoke(capsys):
    code, out, _ = _run(capsys, "field", "run", "--scenario", "monopole-omega",
                        "--n", "3", "--grid", "500", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["branch"] == "vanishing"


def test_field_run_unknown_scenario(capsys):
    code, _, err = _run(capsys, "field", "run", "--scenario", "bogus", "--n", "3")
    assert code == 2
    assert "scenario" in err


def test_field_run_refuses_other_degree(capsys):
    code, out, err = _run(capsys, "field", "run", "--scenario", "yang-mills-F",
                          "--n", "4", "--k", "3", "--grid", "50")
    assert code == 2
    assert out == ""
    assert "k=3" in err


def test_field_run_dump_points_evaluates_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_scenario", counted)
    monkeypatch.setattr(fields, "evaluate_scenario", counted)
    dump = tmp_path / "points.csv"
    code, out, _ = _run(capsys, "field", "run", "--scenario", "closed-form", "--n", "3",
                        "--grid", "300", "--dump-points", str(dump))
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert payload["sample_points"] == 300
    assert len(dump.read_text().strip().split("\n")) == 1 + 300 - payload["skipped_points"]


def test_field_run_dump_points(tmp_path, capsys):
    dump = tmp_path / "points.csv"
    code, _, _ = _run(capsys, "field", "run", "--scenario", "generic-form",
                      "--n", "2", "--grid", "200", "--dump-points", str(dump))
    assert code == 0
    lines = dump.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,margin,scale,ok"
    assert len(lines) >= 190  # kept points, a few may be skipped


def test_suite_all(capsys):
    code, out, _ = _run(capsys, "suite", "all", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    components = {c["component"] for c in payload["components"]}
    assert components == {"projections", "ellipticity", "kato-fuzz", "field"}


# ---------------------------------------------------------------------------
# output targets and determinism


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "ellipticity", "--op", "dirac:2",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["op"] == "dirac:2"


@pytest.mark.parametrize("flag", ["--out", "--dump-points"])
def test_unwritable_path_is_config_error(tmp_path, capsys, flag):
    # exit 1 is kept for failed checks: a path that cannot be written is a usage
    # error, reported on one line without a traceback, and no report is printed
    target = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, "field", "run", "--scenario", "dirac-spinor",
                          "--n", "2", "--grid", "50", flag, str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,run", [
    (["kato", "fuzz", "--theorem", "hodge", "--n", "5", "--k", "2", "--samples", "300000",
      "--out"], "fuzz_hodge_inequality"),
    (["field", "run", "--scenario", "dirac-spinor", "--n", "2", "--dump-points"],
     "evaluate_scenario"),
])
def test_unwritable_path_fails_before_the_run(monkeypatch, tmp_path, capsys, argv, run):
    def never(*args, **kwargs):
        raise AssertionError(f"{run} was called")

    monkeypatch.setattr(cli, run, never)
    target = tmp_path / "missing" / "x"
    assert _run(capsys, *argv, str(target)) == (
        2, "", f"error: cannot write {target}: No such file or directory\n")


def test_path_check_leaves_no_file_behind(tmp_path, capsys):
    # the path is checked before the weights are: a run refused after the check
    # must not leave an empty report
    target = tmp_path / "x.json"
    code, out, err = _run(capsys, "kato", "fuzz", "--theorem", "hodge", "--n", "3",
                          "--k", "1", "--samples", "100", "--c", "nan", "--out", str(target))
    assert (code, out) == (2, "") and "weight" in err
    assert not target.exists()


# the usage errors the handlers raise as ConfigError, with their whole stderr
@pytest.mark.parametrize("argv,line", [
    (["projections", "verify", "--max-n", "1"],
     "projections verify needs --max-n >= 2, got --max-n=1"),
    (["ellipticity", "--op", "dirac:3", "--coarse", "0"],
     "ellipticity needs coarse_samples >= 1, got coarse_samples=0"),
    (["kato", "fuzz", "--theorem", "foldo", "--op", "dirac:3", "--samples", "0"],
     "fuzzing needs samples >= 1, got samples=0"),
    (["kato", "fuzz", "--theorem", "foldo", "--op", "dirac:3", "--n", "3",
      "--c-star", "1"], "--theorem foldo with --op ignores --n, --c-star"),
    (["kato", "fuzz", "--theorem", "foldo"], "--theorem foldo needs --op"),
    (["kato", "fuzz", "--theorem", "hodge", "--op", "dirac:3"],
     "--theorem hodge takes --op hodge:n:k or --n/--k"),
    (["kato", "fuzz", "--theorem", "hodge", "--n", "3"],
     "--theorem hodge needs --n and --k"),
    (["field", "run", "--scenario", "generic-form", "--n", "3", "--grid", "0"],
     "sampling needs points >= 1, got points=0"),
    (["kato", "fuzz", "--theorem", "hodge", "--op", "hodge:4:x"],
     "non-integer field in operator reference 'hodge:4:x'"),
    (["kato", "fuzz", "--theorem", "foldo", "--op", "dirac:3", "--seed", "-1"],
     "--seed >= 0 is required"),
    (["field", "run", "--scenario", "generic-form", "--n", "3", "--seed", "-1"],
     "--seed >= 0 is required"),
    (["suite", "all", "--seed", "-1"], "--seed >= 0 is required"),
    (["field", "run", "--scenario", "dirac-spinor", "--n", "3", "--c-star", "2"],
     "dirac-spinor ignores --c-star"),
    (["field", "run", "--scenario", "twistor-spinor", "--n", "3", "--c-star", "1"],
     "twistor-spinor ignores --c-star"),
    (["kato", "fuzz", "--theorem", "hodge", "--n", "4", "--k", "0"],
     "form split needs 1 <= k <= 3, got k=0"),
    *((["kato", "fuzz", "--theorem", "hodge", "--n", n, "--k", "1"],
       f"form split needs n >= 2, got n={n}") for n in ("1", "0", "-3")),
    *((["kato", "fuzz", "--theorem", "hodge", "--op", f"hodge:{n}:1"],
       f"hodge symbol needs n >= 2, got n={n}") for n in ("1", "0", "-3")),
    # a foldo fuzz that passed on zero-width rows, and an IndexError traceback
    (["kato", "fuzz", "--theorem", "foldo", "--op", "connection:0", "--samples", "10"],
     "catalog operators need an integer n >= 1, got n=0"),
    (["ellipticity", "--op", "connection:0"],
     "catalog operators need an integer n >= 1, got n=0"),
    # argparse's own errors, which printed its usage block first, 4-5 lines in all
    (["kato", "fuzz", "--theorem", "foldo", "--op", "dirac:3", "--samples", "nan"],
     "argument --samples: invalid int value: 'nan'"),
    (["kato", "fuzz", "--theorem", "foldo", "--op", "dirac:3", "--seed", "2.5"],
     "argument --seed: invalid int value: '2.5'"),
    (["field", "run", "--scenario", "generic-form", "--n", "3", "--grid", "x"],
     "argument --grid: invalid int value: 'x'"),
    (["suite"], "the following arguments are required: subcommand"),
])
def test_usage_errors_exit_2_with_one_error_line(capsys, argv, line):
    assert _run(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv", [
    ["kato", "fuzz", "--theorem", "hodge", "--n", "4", "--k", "2", "--samples", "100"],
    ["field", "run", "--scenario", "generic-form", "--n", "4", "--k", "2", "--grid", "200"],
])
def test_a_broken_form_table_is_a_failed_check(flip_table, capsys, argv):
    # a table that fails the form algebra's certificate is a verification failure
    # (exit 1), as a non-conformal map is, and not a usage error
    flip_table(4, 2, True, 5)
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("verification error: form algebra at n=4, degree ")
    assert err.count("\n") == 1


_NO_SVD = "Unable to allocate 7.25 GiB for an array with shape (31200, 31200) and data type float64"


@pytest.mark.parametrize("error,line", [(MemoryError(_NO_SVD), f"error: {_NO_SVD}\n"),
                                        (MemoryError(), "error: MemoryError()\n")])
def test_running_out_of_memory_is_not_a_failed_check(monkeypatch, capsys, error, line):
    # exit 2 and one error line, as exit 1 means a check ran and failed.  A big hodge
    # fuzz runs out in the full SVD of its symbol: raised here, never allocated
    def null_space(M):
        raise error

    monkeypatch.setattr(kato, "_null_space", null_space)
    assert _run(capsys, "kato", "fuzz", "--theorem", "hodge", "--n", "4", "--k", "2",
                "--samples", "5") == (2, "", line)


def test_json_reports_byte_identical(capsys):
    args = ("kato", "fuzz", "--theorem", "hodge", "--n", "3", "--k", "1",
            "--samples", "3000", "--seed", "9")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_version_flag(capsys):
    # twice: the second call reuses the parser the first one built
    from katolab import __version__
    for _ in range(2):
        code, out, _ = _run(capsys, "--version")
        assert (code, out.strip()) == (0, __version__)


def test_the_module_runs_as_a_script(capsys, monkeypatch):
    # python -m katolab.cli: the exit code of main() is the process's; run in process so
    # that the script's last line is seen to run, with the module imported afresh
    from katolab import __version__
    monkeypatch.delitem(sys.modules, "katolab.cli")
    monkeypatch.setattr(sys, "argv", ["katolab", "--version"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("katolab.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_bad_subcommand_is_usage_error(capsys):
    code, _, _ = _run(capsys, "projections", "explode")
    assert code == 2


# ---------------------------------------------------------------------------
# one parser per process


def _fresh(capsys, *argv):
    cli.build_parser.cache_clear()
    return _run(capsys, *argv)


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for argv in (["--version"], ["projections", "explode"],
                 ["projections", "verify", "--max-n", "2"],
                 ["ellipticity", "--op", "dirac:2", "--coarse", "1"]):
        _run(capsys, *argv)
    assert built.count("katolab") == 1


def test_a_reused_parser_forgets_a_config_file(tmp_path, capsys):
    argv = ("kato", "fuzz", "--theorem", "foldo", "--op", "dirac:2", "--samples", "200")
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("format = csv\nseed = 11\nc = 2\n")
    code, out, _ = _run(capsys, *argv, "--config", str(cfg))
    assert code == 0 and out.startswith("theorem,")
    reused = _run(capsys, *argv)
    assert reused == _fresh(capsys, *argv)
    payload = json.loads(reused[1])
    assert (payload["seed"], payload["c_range"]) == (0, [0.0, 1000.0])


def test_a_reused_parser_recovers_from_a_usage_error(capsys):
    argv = ("ellipticity", "--op", "dirac:3", "--coarse", "4")
    code, out, err = _run(capsys, "ellipticity", "--coarse", "x")
    assert (code, out) == (2, "") and "argument --coarse" in err
    reused = _run(capsys, *argv)
    assert reused[0] == 0 and reused == _fresh(capsys, *argv)


# the benchmark's operator suite: verify, then ellipticity and foldo fuzz of
# criterion 5's seven operators, at its warm-up sizes
_OPERATORS = ("dirac:2", "dirac:3", "dirac:4", "twistor:3", "twistor:4",
              "connection:3", "hodge:4:2")
_SUITE_ARGVS = ([["projections", "verify", "--max-n", "2"]]
                + [["ellipticity", "--op", op, "--coarse", "1", "--refine", "0"]
                   for op in _OPERATORS]
                + [["kato", "fuzz", "--theorem", "foldo", "--op", op, "--seed", str(i),
                    "--samples", "16"] for i, op in enumerate(_OPERATORS)])


def test_operator_suite_reports_do_not_depend_on_parser_reuse(capsys):
    reused = [_run(capsys, *argv) for argv in _SUITE_ARGVS]
    fresh = [_fresh(capsys, *argv) for argv in _SUITE_ARGVS]
    assert [code for code, _, _ in reused] == [0] * 15
    assert reused == fresh


# ---------------------------------------------------------------------------
# config files


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("samples = 1500\nseed = 11\n# a comment\ntheorem = foldo\n"
                   "op = dirac:2\n")
    code, out, _ = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--op", "dirac:2", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 1500
    assert payload["seed"] == 11


def test_config_flags_beat_file(tmp_path, capsys):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("samples = 1500\nseed = 11\n")
    code, out, _ = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--op", "dirac:2", "--config", str(cfg),
                        "--seed", "99")
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 1500   # from the file
    assert payload["seed"] == 99        # flag wins


def test_config_unknown_key(tmp_path, capsys):
    # internal namespace entries and abbreviations are not flags either
    for key in ("warp_factor", "handler", "command", "subcommand", "sam"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 9\n")
        code, _, err = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                            "--op", "dirac:2", "--config", str(cfg))
        assert code == 2, key
        assert f"unknown config key '{key}'" in err


@pytest.mark.parametrize("line,flag", [("format = xml", "--format"),
                                       ("c = abc", "--c"),
                                       ("samples = 1.5", "--samples")])
def test_config_bad_value_is_usage_error(tmp_path, capsys, line, flag):
    # config values go through the same argparse checks as the flags
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                          "--op", "dirac:2", "--samples", "200", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def test_config_dash_keys_normalize(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c-star = 7.5\ngrid = 300\n")
    code, out, _ = _run(capsys, "field", "run", "--scenario", "coclosed-form",
                        "--n", "3", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["c_star"] == 7.5
    assert payload["sample_points"] == 300


def test_config_c_star_on_a_spinor_is_refused(tmp_path, capsys):
    # a spinor scenario has one weight: a second one from the file is refused as the flag is
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c-star = 2\n")
    assert _run(capsys, "field", "run", "--scenario", "dirac-spinor", "--n", "3",
                "--config", str(cfg)) == (2, "", "error: dirac-spinor ignores --c-star\n")


def test_config_missing_file(capsys):
    code, _, err = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--op", "dirac:2", "--config", "/nonexistent.cfg")
    assert code == 2
    assert "config" in err.lower()


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, err = _run(capsys, "kato", "fuzz", "--theorem", "foldo",
                        "--op", "dirac:2", "--config", str(cfg))
    assert code == 2
    assert "key = value" in err
