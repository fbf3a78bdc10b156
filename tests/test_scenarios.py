import json
import math
from pathlib import Path

import numpy as np
import pytest

from wavefields.engine import add_system, advance, new_state
from wavefields.scenarios import (
    SCENARIOS,
    CheckFailure,
    ScenarioConfig,
    _frame,
    _Run,
    list_scenarios,
    run_scenario,
)
from wavefields.serialize import dumps
from wavefields.spatial import Grid, gaussian_packet

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


def test_readme_table_is_the_scenario_list():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("`wavefields list` prints the ten prepared scenarios:", 1)[1]
    rows = section.strip().split("\n\n", 1)[0].splitlines()[2:]  # past the header and rule
    parsed = [tuple(cell.strip() for cell in row.strip("|").split("|")) for row in rows]
    assert parsed == [(f"`{name}`", blurb) for name, blurb in list_scenarios()]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_run_passes_every_audit(name):
    res = run_scenario(ScenarioConfig(scenario=name))
    assert res.passed
    assert res.summary["scenario"] == name
    assert res.summary["passed"] is True
    assert all(c["passed"] for c in res.summary["checks"])
    # every scenario leaves at least two spatial frames
    times = {block[0] for block in res.frames}
    assert len(times) >= 1
    # one block per packet per frame: the grid's x and a field on it
    for t, x, label, field in res.frames:
        assert isinstance(label, str)
        assert len(x) == len(field) == res.state.grid.n


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig(scenario="nope"))


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="tunneling", trials=-1)
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
    t_base = sorted({block[0] for block in base.frames})
    t_dense = sorted({block[0] for block in dense.frames})
    assert len(t_base) == 2
    assert len(t_dense) == 5  # 0, 128, 256, 384 and the completion at 407
    # no duplicated frames: each (time, label) block appears once and
    # covers every grid point once
    seen = {}
    for t, x, label, field in dense.frames:
        key = (t, label)
        assert key not in seen
        seen[key] = True
        assert len(x) == len(set(x.tolist())) == len(field) == dense.state.grid.n


@pytest.mark.parametrize("name", ["two_spin_crossing", "von_neumann"])
def test_crossing_ends_when_its_boundary_completes_at_any_cadence(name):
    base = run_scenario(ScenarioConfig(scenario=name))
    assert base.summary["steps"] == 407
    frame_times = {}
    for every in (7, 8, 32):
        res = run_scenario(ScenarioConfig(scenario=name, snapshot_every=every))
        assert dumps(res.summary) == dumps(base.summary)
        times = {block[0] for block in res.frames}
        assert max(times) == res.summary["time"]
        frame_times[every] = len(times)
    # the first frame, one every K steps while the boundary moves, the last
    assert frame_times == {7: 60, 8: 52, 32: 14}


@pytest.mark.parametrize(
    "name, steps, every",
    [("stern_gerlach", 150, every) for every in (4, 7, 150)]
    + [("three_spin_chain", 20, every) for every in (4, 7, 8, 20)],
)
def test_stepping_scenario_frames_every_k_steps(name, steps, every):
    res = run_scenario(ScenarioConfig(scenario=name, snapshot_every=every))
    assert res.summary["steps"] == steps
    assert len({block[0] for block in res.frames}) == 1 + math.ceil(steps / every)


def test_tunneling_snapshot_cadence_is_not_tied_to_the_sampling_stride():
    res = run_scenario(ScenarioConfig(scenario="tunneling", snapshot_every=7))
    # first and last frame plus one every 7 of the 1400 steps
    assert len({block[0] for block in res.frames}) == 201
    assert res.summary["steps"] == 1400
    assert res.passed


def test_boundary_rows_only_for_crossings():
    crossing = run_scenario(ScenarioConfig(scenario="von_neumann"))
    instant = run_scenario(ScenarioConfig(scenario="bell_case1"))
    assert len(crossing.boundary_rows) > 100
    assert instant.boundary_rows == []
    t, x12, cl, cr = crossing.boundary_rows[-1]
    assert cl > 1.0 - 1e-6 and cr > 1.0 - 1e-6


def test_statistics_block_is_deterministic():
    r1 = run_scenario(ScenarioConfig(scenario="bell_case2", trials=20000))
    r2 = run_scenario(ScenarioConfig(scenario="bell_case2", trials=20000))
    s1, s2 = r1.summary["statistics"], r2.summary["statistics"]
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
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
    run = _Run(ScenarioConfig(scenario="tunneling"))
    run.check("always fails", False, "forced")
    with pytest.raises(CheckFailure) as err:
        run.finish(state)
    assert err.value.result.summary["passed"] is False
    assert "always fails" in str(err.value)


def test_frame_blocks_share_the_grid_and_freeze_the_field():
    grid = Grid(-16.0, 16.0, 256, 0.01)
    state = new_state(grid)
    add_system(state, "1", (0.6, 0.8), gaussian_packet(grid, 0.0, 1.0, 2.0))
    frames = []
    _frame(state, frames, prefix="p.")
    assert [block[2] for block in frames] == ["p.1:0|", "p.1:1|"]
    before = [block[3].copy() for block in frames]
    advance(state, 10)
    for (t, x, _, field), old in zip(frames, before):
        assert t == 0.0
        assert x is grid.x
        assert np.array_equal(field, old)
        assert not np.shares_memory(field, state.wavefields["1"].packets[0].field)


@pytest.mark.parametrize("name", ["two_spin_crossing", "von_neumann", "tunneling"])
def test_under_resolved_grid_fails_a_named_check(name):
    # 64 points over 128 length units put pi/dx below the packet's |k0|
    with pytest.raises(CheckFailure) as info:
        run_scenario(ScenarioConfig(scenario=name, n_points=64))
    failed = {c["name"] for c in info.value.result.summary["checks"] if not c["passed"]}
    assert "grid resolves packet momenta" in failed
