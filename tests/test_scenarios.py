import json
import math

import numpy as np
import pytest

from wavefields.engine import new_state
from wavefields.scenarios import (
    SCENARIOS,
    CheckFailure,
    ScenarioConfig,
    _check,
    _finalize,
    list_scenarios,
    run_scenario,
)
from wavefields.spatial import Grid

ALL_NAMES = [
    "two_spin_crossing",
    "three_spin_chain",
    "von_neumann",
    "bell_case1",
    "bell_case2",
    "student_demo",
    "beam_splitter_einstein",
    "stern_gerlach",
    "weak_entanglement",
    "tunneling",
]


def test_registry_lists_all_scenarios_in_order():
    assert [name for name, _ in list_scenarios()] == ALL_NAMES
    assert all(blurb for _, blurb in list_scenarios())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_run_passes_every_audit(name):
    res = run_scenario(ScenarioConfig(scenario=name))
    assert res.passed
    assert res.summary["scenario"] == name
    assert res.summary["passed"] is True
    assert all(c["passed"] for c in res.summary["checks"])
    # every scenario leaves at least two spatial frames
    times = {row[0] for row in res.snapshot_rows}
    assert len(times) >= 1
    for row in res.snapshot_rows[:10]:
        assert len(row) == 6


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="nope"))


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="tunneling", trials=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="tunneling", jobs=0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="tunneling", epsilon=0.0)
    cfg = ScenarioConfig(scenario="two_spin_crossing", a1=0.6)
    with pytest.raises(ValueError):
        cfg.pair(1, 1.0, 0.0)
    cfg = ScenarioConfig(scenario="two_spin_crossing", a1=0.9, b1=0.9)
    with pytest.raises(ValueError):
        cfg.pair(1, 1.0, 0.0)


def test_amplitude_override_reaches_the_table():
    cfg = ScenarioConfig(scenario="two_spin_crossing", a1=0.6, b1=0.8)
    res = run_scenario(cfg)
    table = res.summary["correlation_tables"]["1,2"]
    assert abs(table["0,0"] - 0.18) < 1e-8
    assert abs(table["1,1"] - 0.32) < 1e-8


def test_pointer_readout_of_an_eigenstate():
    cfg = ScenarioConfig(scenario="von_neumann", a1=1.0, b1=0.0)
    res = run_scenario(cfg)
    assert res.summary["index_distributions"]["2"] == {"0": pytest.approx(1.0, abs=1e-10)}
    assert res.summary["boundaries"][0]["completed"]


def test_student_demo_counts_are_frozen():
    res = run_scenario(ScenarioConfig(scenario="student_demo"))
    assert res.summary["matched_counts"] == {"0,1": 4.0, "1,0": 4.0}
    assert res.summary["tilted_counts"] == {"0,0": 3.0, "0,1": 1.0, "1,0": 1.0, "1,1": 3.0}
    assert res.summary["tilted_styled"] == {
        "up,up": 1.0,
        "down,down": 1.0,
        "up,down": 3.0,
        "down,up": 3.0,
    }


def test_snapshot_cadence_adds_frames():
    base = run_scenario(ScenarioConfig(scenario="two_spin_crossing"))
    dense = run_scenario(ScenarioConfig(scenario="two_spin_crossing", snapshot_every=128))
    t_base = sorted({row[0] for row in base.snapshot_rows})
    t_dense = sorted({row[0] for row in dense.snapshot_rows})
    assert len(t_base) == 2
    assert len(t_dense) > 2
    # no duplicated frames: each (time, label, x) appears once
    seen = {}
    for t, x, label, _, _, _ in dense.snapshot_rows:
        key = (t, label, x)
        assert key not in seen
        seen[key] = True


def test_tunneling_snapshot_cadence_is_not_tied_to_the_sampling_stride():
    res = run_scenario(ScenarioConfig(scenario="tunneling", snapshot_every=7))
    # first and last frame plus one every 7 of the 1400 steps
    assert len({row[0] for row in res.snapshot_rows}) == 201
    assert res.summary["steps"] == 1400
    assert res.passed


def test_boundary_rows_only_for_crossings():
    crossing = run_scenario(ScenarioConfig(scenario="von_neumann"))
    instant = run_scenario(ScenarioConfig(scenario="bell_case1"))
    assert len(crossing.boundary_rows) > 100
    assert instant.boundary_rows == []
    t, x12, cl, cr = crossing.boundary_rows[-1]
    assert cl > 1.0 - 1e-6 and cr > 1.0 - 1e-6


def test_statistics_block_deterministic_across_jobs():
    r1 = run_scenario(ScenarioConfig(scenario="bell_case2", trials=20000, jobs=1))
    r3 = run_scenario(ScenarioConfig(scenario="bell_case2", trials=20000, jobs=3))
    s1, s3 = r1.summary["statistics"], r3.summary["statistics"]
    assert json.dumps(s1, sort_keys=True) == json.dumps(s3, sort_keys=True)
    assert s1["trials"] == 20000
    assert abs(sum(s1["frequencies"].values()) - 1.0) < 1e-12


def test_weak_entanglement_reports_quadratic_slope():
    res = run_scenario(ScenarioConfig(scenario="weak_entanglement"))
    assert 1.9 < res.summary["slope"] < 2.1
    tds = res.summary["trace_distances"]
    assert tds["0.1"] > tds["0.03"] > tds["0.01"] > 0.0


def test_tunneling_summary_is_consistent():
    res = run_scenario(ScenarioConfig(scenario="tunneling"))
    s = res.summary
    assert abs(s["transmitted"] - s["analytic_transmitted"]) / s["analytic_transmitted"] < 0.01
    assert abs(s["transmitted"] + s["reflected"] - 1.0) < 1e-3


def test_check_failure_carries_the_result():
    state = new_state(Grid(-8.0, 8.0, 64, 0.01))
    checks = []
    _check(checks, "always fails", False, "forced")
    cfg = ScenarioConfig(scenario="tunneling")
    with pytest.raises(CheckFailure) as err:
        _finalize("tunneling", cfg, state, checks, [])
    assert err.value.result.summary["passed"] is False
    assert "always fails" in str(err.value)
