import dataclasses
import json
import os
import re

import pytest

from wavefields.cli import UsageError, main, parse_config_file, schema_path
from wavefields.engine import COMPLETION_THRESHOLD
from wavefields.scenarios import ScenarioConfig


def test_list_prints_every_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10
    assert out[0].startswith("two_spin_crossing")
    assert out[-1].startswith("tunneling")


def test_help_names_the_schema_file(capsys):
    assert main(["--help"]) == 0
    assert "config_schema.txt" in capsys.readouterr().out
    assert os.path.exists(schema_path())


def test_run_writes_the_four_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "bell_case1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    for name in ("snapshots.csv", "boundary.csv", "summary.json", "config.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "bell_case1"
    assert summary["passed"] is True


def test_usage_errors_exit_one(capsys):
    assert main(["run", "no_such_scenario"]) == 1
    assert main(["run"]) == 1
    assert main(["run", "bell_case1", "--trials", "many"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("extra", [[], ["--trials", "100"]])
def test_negative_seed_is_refused_before_any_step(extra, monkeypatch, capsys):
    from wavefields import cli

    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: runs.append(cfg))
    assert main(["run", "bell_case2", "--seed", "-3", *extra]) == 1
    captured = capsys.readouterr()
    assert "seed must be nonnegative" in captured.err
    assert captured.out == "" and runs == []


def test_missing_config_file_is_io_error(capsys):
    assert main(["run", "bell_case1", "--config", "/does/not/exist.cfg"]) == 3
    capsys.readouterr()


def test_failed_checks_exit_two_and_still_write(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "tunneling", "--config", _coarse(tmp_path), "--out", str(out)])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_stalled_crossing_fails_a_named_check_and_writes(tmp_path, capsys):
    # on 64 points the packets cannot resolve their momentum, so the
    # crossing never completes before the step cap; the resolution check
    # names the cause
    cfg = tmp_path / "stall.cfg"
    cfg.write_text("n_points = 64\n")
    out = tmp_path / "run"
    assert main(["run", "two_spin_crossing", "--config", str(cfg), "--out", str(out)]) == 2
    assert "FAIL  crossing completed" in capsys.readouterr().out
    for name in ("snapshots.csv", "boundary.csv", "summary.json", "config.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["boundaries"][0]["completed"] is False
    failed = {c["name"]: c["detail"] for c in summary["checks"] if not c["passed"]}
    # the stall is named: the fluid each system still holds on its pre side at
    # the cap, and when the larger of the two was lowest: t = 18.85, before
    # the cap at t = 20, so the crossing had stopped, not slowed
    detail = failed["crossing completed"]
    stall = re.fullmatch(r"1600 steps; pre-side mass 1=(\S+) 2=(\S+), lowest at t=(\S+)", detail)
    masses = [float(m) for m in stall.groups()[:2]]
    assert all(COMPLETION_THRESHOLD < m < 1.0 for m in masses)
    assert float(stall[3]) == 18.85
    # the cause is named: k0 = 5 is past the Nyquist wavenumber pi/dx = pi/2
    assert "grid resolves packet momenta" in failed
    assert abs(sum(summary["index_distributions"]["1"].values()) - 1.0) < 1e-9


@pytest.mark.parametrize("scenario", ["two_spin_crossing", "von_neumann"])
def test_a_grid_too_coarse_for_the_packets_fails_named_checks_and_writes(
    tmp_path, capsys, scenario
):
    # 2,048 points over 2e6 length units put both packets, at -8 and +8, in the
    # cell at x = 0, so the crossing cannot open: the run fails, the command was used right
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("x_min = -1e6\nx_max = 1e6\n")
    out = tmp_path / "run"
    assert main(["run", scenario, "--config", str(cfg), "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert "FAIL  grid resolves packet momenta" in printed
    assert "FAIL  crossing opens (crossing expects '1' to start left of '2')" in printed
    for name in ("snapshots.csv", "boundary.csv", "summary.json", "config.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["passed"], summary["steps"], summary["boundaries"]) == (False, 0, [])


@pytest.mark.parametrize(
    "scenario",
    ["three_spin_chain", "bell_case1", "bell_case2", "student_demo", "beam_splitter_einstein",
     "weak_entanglement"],
)
def test_a_grid_coarser_than_the_packets_fails_a_named_check_and_writes(
    tmp_path, capsys, scenario
):
    # 512 points over 2e6 length units make every packet one cell wide: nothing moves and
    # every other audit passes, so the width check is what fails the run
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("x_min = -1e6\nx_max = 1e6\n")
    out = tmp_path / "run"
    assert main(["run", scenario, "--config", str(cfg), "--out", str(out)]) == 2
    assert "FAIL  grid resolves packet widths (dx 3906 > sigma 1.5)" in capsys.readouterr().out
    for name in ("snapshots.csv", "boundary.csv", "summary.json", "config.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == scenario and summary["passed"] is False
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert failed == ["grid resolves packet widths"]


@pytest.mark.parametrize("scenario", ["two_spin_crossing", "von_neumann"])
@pytest.mark.parametrize(
    "text, error",
    [("a1 = 0.9\nb1 = 0.9\n", "not normalized"), ("n_points = 1000\n", "power of two")],
    ids=["unnormalized_pair", "n_points_not_a_power_of_two"],
)
def test_a_malformed_config_of_a_crossing_is_a_usage_error(
    tmp_path, capsys, scenario, text, error
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["run", scenario, "--config", str(cfg), "--out", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


def _coarse(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text("n_points = 256\n")
    return str(path)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "good.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "seed = 11\n"
        "a1 = 0.6+0j\n"
        "b1 = 0.8\n"
        "dt=0.02\n"
        "out_dir = somewhere\n"
    )
    values = parse_config_file(str(path))
    assert values == {"seed": 11, "a1": complex(0.6), "b1": complex(0.8), "dt": 0.02, "out_dir": "somewhere"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))
    bad.write_text("just some words\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))
    bad.write_text("seed = eleven\n")
    with pytest.raises(UsageError):
        parse_config_file(str(bad))


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 5\ntrials = 1000\n")
    out = tmp_path / "run"
    assert main(["run", "bell_case1", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 9
    assert echoed["trials"] == 1000


def test_malformed_pair_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a1 = 0.9\nb1 = 0.9\n")
    assert main(["run", "two_spin_crossing", "--config", str(cfg)]) == 1
    assert "normalized" in capsys.readouterr().err


def test_nan_amplitude_in_config_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("a1 = nan\nb1 = 1.0\n")
    assert main(["run", "two_spin_crossing", "--config", str(cfg)]) == 1
    assert "amplitude pair 1 is not normalized" in capsys.readouterr().err


def test_jobs_is_neither_a_key_nor_a_flag(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 2\n")
    assert main(["run", "bell_case1", "--config", str(cfg)]) == 1
    assert "unknown key 'jobs'" in capsys.readouterr().err
    assert main(["run", "bell_case1", "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err


KEY_TYPES = {
    "x_min": float, "x_max": float, "n_points": int, "dt": float,
    "a1": complex, "b1": complex, "a2": complex, "b2": complex,
    "epsilon": float, "trials": int, "seed": int, "snapshot_every": int, "out_dir": str,
}
SAMPLES = {int: "3", float: "0.25", complex: "0.6+0.8j", str: "some where"}


def test_every_config_key_parses_to_its_field_type(tmp_path):
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"scenario"}
    assert set(KEY_TYPES) == fields
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {SAMPLES[kind]}\n" for key, kind in KEY_TYPES.items()))
    values = parse_config_file(str(path))
    assert values == {key: kind(SAMPLES[kind]) for key, kind in KEY_TYPES.items()}
    assert all(type(values[key]) is kind for key, kind in KEY_TYPES.items())


def test_an_engine_audit_that_stops_a_run_still_writes(tmp_path, monkeypatch, capsys):
    # a RuntimeError mid-run fails like a check: exit 2, and --out holds the
    # config, a summary with one failed check naming the error, and empty CSVs
    from wavefields import engine

    monkeypatch.setattr(engine, "NORM_AUDIT_TOL", 0.0)
    out = tmp_path / "run"
    assert main(["run", "two_spin_crossing", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "run failed: norm audit failed for '1' at step 1" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    (check,) = summary["checks"]
    assert check["passed"] is False
    assert check["detail"].startswith("norm audit failed for '1' at step 1")
    assert check["detail"] in err
    assert json.loads((out / "config.json").read_text())["scenario"] == "two_spin_crossing"
    assert (out / "snapshots.csv").read_text() == "t,x,index_label,re,im,density\n"
    header = "t,x12,crossed_fraction_left,crossed_fraction_right\n"
    assert (out / "boundary.csv").read_text() == header
