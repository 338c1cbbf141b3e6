"""End-to-end tests for the dpmsim command line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import dpmsim
import dpmsim.analysis
import dpmsim.cli
from dpmsim.cli import main
from dpmsim.engine import SimulationError, format_trace, run
from dpmsim.report import report_dict
from dpmsim.scenario import emit_scenario
from scenario_gen import random_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
CASE_STUDY = str(SCENARIO_DIR / "case_study.scenario")
CASE_STUDY_SW = str(SCENARIO_DIR / "case_study_software.scenario")


def test_run_text_report_to_stdout(capsys):
    assert main(["run", CASE_STUDY]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("run summary: case-study-node\n")
    assert "net gain        23.893645 mJ" in captured.out
    assert captured.err == ""


def test_run_writes_report_and_trace_files(tmp_path, case_study, capsys):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.txt"
    code = main(
        ["run", CASE_STUDY, "--format", "json", "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = run(case_study)
    assert json.loads(out.read_text()) == report_dict(report)
    assert trace.read_text() == format_trace(report)


@pytest.mark.parametrize("period", ["1us", "2us"])
def test_run_balances_the_ledger_over_dense_alarms(tmp_path, capsys, period):
    # ~20,000 store updates of a few nJ each on a ~1.3e11 nJ store: each
    # update rounds to the store's ulp (~1.5e-5 nJ) the same way, which
    # the ledger check has to book rather than report as an imbalance.
    text = Path(CASE_STUDY).read_text()
    text = text.replace("alarm_period: 10min", f"alarm_period: {period}")
    text = text.replace("  duration: 603535ms", "  duration: 20ms")
    path = tmp_path / "dense.scenario"
    path.write_text(text)
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("run summary: case-study-node\n")
    assert captured.err == ""


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/node.scenario"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.scenario"
    bad.write_bytes(b"name: n\xe9ud\n")  # Latin-1, not UTF-8
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_run_reports_an_unwritable_output(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "out.txt"
    assert main(["run", CASE_STUDY, flag, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_run_rejects_broken_document(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("schema_version: 2\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "schema_version" in err


def test_validate_ok(capsys):
    assert main(["validate", CASE_STUDY]) == 0
    assert capsys.readouterr().out == "ok: case-study-node\n"


def test_validate_surfaces_default_warnings(tmp_path, capsys):
    doc = """
schema_version: 1
storage:
  ocv_curve:
    - [0.0, 2.5V]
    - [1.0, 4.2V]
harvester:
  calibration:
    - [200lux, 43uW]
sim:
  duration: 10min
"""
    path = tmp_path / "defaulted.scenario"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: unnamed\n")
    assert out.count("warning:") == 3


@pytest.mark.parametrize(
    "extra, where",
    [
        ("light_timeline: [[0s, 1e400lux]]\n", "light_timeline[0] (line 9): '1e400lux' is not a finite"),
        ("touch:\n  press_times: [1e30us]\n", "touch.press_times[0] (line 10): TimePoint"),
        ("storage:\n  ocv_curve: [[0, 3V], [.nan, 3.6V], [1, 4.2V]]\n", "storage (line 10): ocv_curve"),
        ("rtc:\n  alarm_period: !x 10min\n", "rtc.alarm_period (line 10): not a valid YAML value"),
        ("touch:\n  press_times: [2020-13-45]\n", "touch.press_times[0] (line 10): not a valid YAML"),
        ("meta: &a {name: *a}\n", "meta.name (line 9): YAML aliases are not supported"),
        ('meta: {name: "\\UFFFFFFFF"}\n', "not valid YAML: Python int too large"),
        (
            "dpm_variant: {kind: software_sleep, i_sleep: -3uA}\n",
            "dpm_variant.i_sleep (line 9): i_sleep must be non-negative",
        ),
        ("storage: {nominal_voltage: 0V}\n", "storage (line 9): nominal_voltage must be positive"),
        ("storage: {nominal_voltage: -3.7V}\n", "storage (line 9): nominal_voltage must be positive"),
        (
            "load_script:\n  - {name: always_on, duration: 1s, energy: 1mJ}\n",
            "load_script[0] (line 10): load step name 'always_on' is reserved for the always-on rail",
        ),
    ],
    ids=[
        "non-finite", "overflow", "nan-knot", "unknown-tag", "bad-date", "alias", "bad-escape",
        "negative-i-sleep", "zero-nominal-voltage", "negative-nominal-voltage", "reserved-step-name",
    ],
)
def test_validate_refuses_values_out_of_range(tmp_path, capsys, extra, where):
    bad = tmp_path / "bad.scenario"
    bad.write_text(
        "schema_version: 1\n"
        "pmic: {v_chrdy: 3.3V, v_ovch: 4V, v_ovch_hysteresis: 50mV}\n"
        "harvester:\n"
        "  calibration:\n"
        "    - [200lux, 43uW]\n"
        "sim:\n"
        "  duration: 10min\n"
        "\n" + extra
    )
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: {where}")
    assert "Traceback" not in captured.err


def test_compare_prints_ratio(capsys):
    assert main(["compare", CASE_STUDY, CASE_STUDY_SW]) == 0
    out = capsys.readouterr().out
    assert "dpm comparison: case-study-node" in out
    assert "(~6.6x)" in out


def test_compare_rejects_same_variant(capsys):
    assert main(["compare", CASE_STUDY, CASE_STUDY]) == 1
    assert "hardware_gated" in capsys.readouterr().err


def test_sweep_reports_breakeven(capsys):
    assert main(["sweep", CASE_STUDY, "--lo", "1", "--hi", "200"]) == 0
    assert "breakeven: 16.4851 lux" in capsys.readouterr().out


def test_sweep_bad_bracket(capsys):
    assert main(["sweep", CASE_STUDY, "--lo", "100", "--hi", "200"]) == 1
    assert "does not straddle" in capsys.readouterr().err


def test_sweep_refuses_a_probe_that_ends_unpowered(tmp_path, capsys):
    path = tmp_path / "seed6.scenario"
    path.write_text(emit_scenario(random_scenario(6)))
    # The whole-cycle budget answers 158 lux, outside [1, 2], so the
    # bisection probes 1 lux, where the node dies.
    assert main(["sweep", str(path), "--lo", "1", "--hi", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: probe at 1.0 lux ended unpowered in deep_sleep: its last cycle booked no energy flow\n"
    )


@pytest.mark.parametrize(
    "bound, message",
    [
        (["--resolution", "nan"], "error: resolution must be positive and finite, got nan\n"),
        (["--hi", "inf"], "error: need 0 <= lo < hi, both finite; got lo=1.0, hi=inf\n"),
    ],
    ids=["nan-resolution", "infinite-hi"],
)
def test_sweep_refuses_non_finite_numbers(capsys, bound, message):
    assert main(["sweep", CASE_STUDY, "--lo", "1", "--hi", "200", *bound]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_oracle_agrees_on_case_study(capsys):
    assert main(["oracle", CASE_STUDY]) == 0
    out = capsys.readouterr().out
    assert "timestep          1000 us (603535 ticks)" in out
    assert "mode sequences    match" in out
    assert "component worst" in out
    assert "agreement         ok" in out


def test_oracle_rejects_off_grid_timestep(capsys):
    assert main(["oracle", CASE_STUDY, "--timestep", "1.5us"]) == 1
    assert "--timestep" in capsys.readouterr().err


def test_oracle_rejects_misaligned_timestep(capsys):
    # 7 us does not divide the scenario's event times.
    assert main(["oracle", CASE_STUDY, "--timestep", "7us"]) == 1
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", CASE_STUDY],
        ["compare", CASE_STUDY, CASE_STUDY_SW],
        ["sweep", CASE_STUDY, "--lo", "1", "--hi", "200"],
        ["oracle", CASE_STUDY],
    ],
    ids=lambda argv: argv[0],
)
def test_broken_engine_contract_exits_2(argv, monkeypatch, capsys):
    def broken_run(scenario):
        raise SimulationError("ledger does not balance")

    # sweep reaches the engine through analysis.run, the others through cli.run.
    monkeypatch.setattr(dpmsim.cli, "run", broken_run)
    monkeypatch.setattr(dpmsim.analysis, "run", broken_run)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: simulation failed: ledger does not balance\n"


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from dpmsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dpmsim.__all__)
    for name in dpmsim.__all__:
        assert namespace[name] is getattr(dpmsim, name)


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_is_installed(tmp_path):
    """The `dpmsim` command declared in pyproject.toml validates the case study.

    The declaration is read from ``[project.scripts]``, resolved as a
    console-scripts entry point, and run in a fresh interpreter with the
    code an installer's console-script wrapper runs, so no install is
    needed. The test used to run a bare ``dpmsim`` from ``PATH``, which
    only exists after ``pip install``; with the source checkout on
    ``PYTHONPATH`` alone it failed with FileNotFoundError. Whether an
    installer puts the wrapper on ``PATH`` is pip's behaviour, not the
    project's, and is no longer checked.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    value = pyproject["project"]["scripts"]["dpmsim"]
    entry = EntryPoint(name="dpmsim", value=value, group="console_scripts")
    assert entry.load() is main

    wrapper = (
        f"import sys; from {entry.module} import {entry.attr} as main; "
        'sys.argv[0] = "dpmsim"; sys.exit(main())'
    )
    src_dir = str(Path(dpmsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "validate", CASE_STUDY],
        capture_output=True,
        text=True,
        check=False,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok: case-study-node\n"
