import csv
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import cli, serialize
from wavefields.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from wavefields.serialize import (
    BOUNDARY_HEADER,
    SNAPSHOT_HEADER,
    dumps,
    format_float,
    write_boundary_csv,
    write_run,
    write_snapshots_csv,
)


def test_format_float_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x


def test_dumps_is_sorted_and_json_loadable():
    blob = {"b": 1, "a": {"z": 0.5, "y": [1, 2.25, None, True]}, "c": "text"}
    text = dumps(blob)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"b": 1, "a": {"z": 0.5, "y": [1, 2.25, None, True]}, "c": "text"}


def test_dumps_handles_numpy_and_complex():
    blob = {
        "i": np.int64(3),
        "f": np.float64(0.1),
        "z": complex(1.5, -2.0),
        "arr": np.array([1.0, 2.0]),
    }
    loaded = json.loads(dumps(blob))
    assert loaded == {"i": 3, "f": 0.1, "z": [1.5, -2.0], "arr": [1.0, 2.0]}


def test_dumps_quotes_non_finite_floats():
    loaded = json.loads(dumps({"a": float("inf"), "b": float("-inf"), "c": float("nan")}))
    assert loaded == {"a": "Infinity", "b": "-Infinity", "c": "NaN"}


# text with the characters JSON must escape, next to quotes, backslashes and non-ASCII
_tricky = st.text(st.one_of(st.sampled_from('\x00\x01\x1f\n\r\t\b\f"\\/\x7f\u2028é€😀'), st.characters()))


@settings(max_examples=200, deadline=None)
@given(obj=st.dictionaries(_tricky, st.one_of(_tricky, st.lists(_tricky, max_size=3)), max_size=4))
def test_dumps_escapes_text_as_json_does(obj):
    assert json.loads(dumps(obj)) == obj
    for key in obj:
        assert dumps(key) == json.dumps(key, ensure_ascii=False) + "\n"


# float-free documents: floats are written with format_float, json.dumps writes repr
_documents = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _tricky),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_tricky, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_dumps_lays_out_nested_documents_as_json_does(doc):
    # nesting, empty containers at any depth and key order, byte for byte
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_dumps_rejects_bad_input():
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_snapshot_csv_format(tmp_path):
    blocks = [
        (0.0, np.array([-1.5]), "1:0|2=1", np.array([0.25 - 0.5j])),
        (0.0, np.array([-1.25]), "1:1|2=0,A=1", np.array([0j])),
    ]
    path = tmp_path / "snapshots.csv"
    write_snapshots_csv(blocks, str(path))
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(SNAPSHOT_HEADER)
    # density is |field|^2 through np.abs, as frames have always computed
    # it, so 0.25**2 + 0.5**2 carries the hypot rounding
    assert parsed[1] == ["0", "-1.5", "1:0|2=1", "0.25", "-0.5", "0.31250000000000006"]
    # the label with a comma survives csv quoting
    assert parsed[2][2] == "1:1|2=0,A=1"


def test_boundary_csv_format(tmp_path):
    rows = [(0.0, 1e-8, 0.0, 0.0), (0.0125, -2.5e-7, 0.5, 0.5)]
    path = tmp_path / "boundary.csv"
    write_boundary_csv(rows, str(path))
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(BOUNDARY_HEADER)
    assert float(parsed[2][1]) == -2.5e-7


def test_config_echo_serializes_complex_pairs(tmp_path):
    # config.json echoes the config, each complex amplitude as [re, im]
    cfg = ScenarioConfig(scenario="two_spin_crossing", a1=complex(0.6, 0.0), b1=0.8j)
    write_run(run_scenario(cfg), str(tmp_path))
    text = (tmp_path / "config.json").read_text()
    assert '  "a1": [\n    0.59999999999999998,\n    0\n  ],\n  "a2": null,\n' in text
    echo = json.loads(text)
    assert echo["a1"] == [0.6, 0.0]
    assert echo["b1"] == [0.0, 0.8]
    assert echo["scenario"] == "two_spin_crossing"
    assert echo["a2"] is None


def test_write_run_is_byte_stable(tmp_path):
    cfg = ScenarioConfig(scenario="bell_case1", trials=5000, out_dir=None)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    dir1, dir2 = tmp_path / "one", tmp_path / "two"
    names = [p.rsplit("/", 1)[-1] for p in write_run(first, str(dir1))]
    write_run(second, str(dir2))
    assert names == ["snapshots.csv", "boundary.csv", "summary.json", "config.json"]
    for name in names:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


def test_a_failed_rewrite_keeps_the_earlier_files_whole(monkeypatch, tmp_path):
    result = run_scenario(ScenarioConfig(scenario="bell_case1", trials=5000, out_dir=None))
    out = tmp_path / "run"
    paths = write_run(result, str(out))
    before = {p: open(p, "rb").read() for p in paths}
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in paths)

    def broken(blob):
        raise OSError("disk full")

    monkeypatch.setattr(serialize, "dumps", broken)
    with pytest.raises(OSError, match="disk full"):
        write_run(result, str(out))
    # the rewritten CSVs replaced theirs whole; summary.json kept its bytes
    # and no temporary file is left beside them
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in paths)
    assert all(open(p, "rb").read() == blob for p, blob in before.items())


# Row-by-row reference writers: one csv.writer row per grid point, every
# value through format_float.  The block writers must match them byte
# for byte.


def _reference_snapshots(frames, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SNAPSHOT_HEADER)
        for t, x, label, field in frames:
            dens = np.abs(field) ** 2
            for xi, value, d in zip(x, field, dens):
                writer.writerow(
                    (
                        format_float(t),
                        format_float(xi),
                        label,
                        format_float(value.real),
                        format_float(value.imag),
                        format_float(d),
                    )
                )


def _reference_boundary(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BOUNDARY_HEADER)
        for row in rows:
            writer.writerow(tuple(format_float(v) for v in row))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, float("nan"), float("inf"), float("-inf")]
_values = st.one_of(st.floats(), st.sampled_from(_SPECIAL))
# mostly finite blocks, so both the one-pass path and the fallback run
_finite = st.floats(allow_nan=False, allow_infinity=False)
_labels = st.text(alphabet=st.sampled_from(list('1A:|=,"% ab\n\r')), max_size=12)


# how a later block of the same frame time may hold an earlier block's field
_REPEATS = ("same array", "equal bits", "signed zero", "nan payload")


def _repeat(field, form, i):
    if form == "same array":
        return field
    copy = field.copy()
    if form == "signed zero":  # +0.0 in the earlier field, -0.0 in this one
        field.real[i], copy.real[i] = 0.0, -0.0
    elif form == "nan payload":  # quiet NaNs that differ only in their payload bits
        field.view(np.uint64)[2 * i] = 0x7FF8000000000000
        copy.view(np.uint64)[2 * i] = 0x7FF8000000000001
    return copy


@st.composite
def _frames(draw):
    grids = [
        np.array(draw(st.lists(_finite, min_size=1, max_size=6))),
        np.linspace(-1.0, 1.0, draw(st.integers(1, 5))),
    ]
    blocks, frame = [], []  # frame: (grid, field) of each block at the time t
    for _ in range(draw(st.integers(0, 8))):
        x = grids[draw(st.integers(0, 1))]
        if not blocks or draw(st.booleans()):
            t, frame = draw(st.one_of(_finite, _values)), []
        earlier = [field for grid, field in frame if grid is x]
        form = draw(st.sampled_from(("new",) + _REPEATS)) if earlier else "new"
        if form == "new":
            parts = st.one_of(_finite, _values) if draw(st.booleans()) else _finite
            pairs = draw(st.lists(st.tuples(parts, parts), min_size=len(x), max_size=len(x)))
            field = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        else:
            i = draw(st.integers(0, len(x) - 1))
            field = _repeat(draw(st.sampled_from(earlier)), form, i)
        frame.append((x, field))
        blocks.append((t, x, draw(_labels), field))
    return blocks


def _same_bytes(writer, reference, data, tmp_path):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    writer(data, str(ours))
    reference(data, str(theirs))
    return ours.read_bytes() == theirs.read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=150, deadline=None)
@given(frames=_frames(), fork_rows=st.sampled_from([1, serialize._FORK_ROWS]))
def test_snapshot_blocks_match_the_row_writer(frames, fork_rows, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snap")
    with mock.patch.object(serialize, "_FORK_ROWS", fork_rows):  # split as the CPUs allow, or not
        assert _same_bytes(write_snapshots_csv, _reference_snapshots, frames, tmp)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_values, _values, _values, _values), max_size=8))
def test_boundary_columns_match_the_row_writer(rows, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bnd")
    assert _same_bytes(write_boundary_csv, _reference_boundary, rows, tmp)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_block_writer_edge_cases_match_the_row_writer(tmp_path):
    x1, x2 = np.array([-1.0, 0.5, 2.0]), np.array([-0.25, 0.25])
    nan, inf = float("nan"), float("inf")
    frames = [
        (0.0, x1, 'q,"w",%s', np.array([1e-320 - 0.0j, -0.0 + 0j, 1.5 + 2.5j])),
        (0.125, x2, "1:1|2=0,A=1", np.array([complex(nan, 1.0), complex(-inf, inf)])),
        (inf, x1, "", np.array([1e200 + 0j, 0j, -3j])),  # |1e200|^2 overflows
        (-0.0, x2, "a\nb", np.array([0.1 + 0.2j, -0.3j])),
    ]
    assert _same_bytes(write_snapshots_csv, _reference_snapshots, frames, tmp_path)
    assert _same_bytes(write_snapshots_csv, _reference_snapshots, [], tmp_path)
    rows = [(0.0, -0.0, nan, inf), (5e-324, -inf, 1e-8, 0.5)]
    assert _same_bytes(write_boundary_csv, _reference_boundary, rows, tmp_path)
    assert _same_bytes(write_boundary_csv, _reference_boundary, [], tmp_path)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rows_cut_into_kernel_calls_match_the_row_writer(monkeypatch, tmp_path):
    # 3-row kernel calls cut the 16-row block, and join a 3-row block's
    # rows with the next block's
    monkeypatch.setattr(serialize, "_ROWS", 3)
    assert _same_bytes(write_snapshots_csv, _reference_snapshots, _split_frames(), tmp_path)
    rows = [(i * 0.125, i / 3, -i * 1e-9, 1e300 * i) for i in range(7)]
    assert _same_bytes(write_boundary_csv, _reference_boundary, rows, tmp_path)


# The writer splits the frames across the CPUs it may run on, one forked
# child per range after the first, and gives each process at least
# _FORK_ROWS grid points.  The bytes must not depend on the split.  The
# tests of the split on small tables lower _FORK_ROWS to 1 point.


def _count_forks(monkeypatch, cpus, fork_rows=1):
    forks = []
    monkeypatch.setattr(serialize, "_FORK_ROWS", fork_rows)
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return forks


def _split_frames():
    # the first block holds over half the grid points, so on 2 CPUs every
    # later block, with the odd grid and the non-finite values, is the child's
    wide, even, odd = np.linspace(-4.0, 4.0, 16), np.linspace(-2.0, 2.0, 4), np.arange(3.0)
    nan, inf = float("nan"), float("inf")
    return [
        (0.0, wide, "1:0", np.full(16, 0.25 + 0.5j)),
        (0.5, odd, 'a,"b"', np.array([1.5 + 0j, complex(nan, 1.0), -inf * 1j])),
        (1.0, odd, "2:0", np.array([1e200 + 0j, 0j, 0.1 - 0.2j])),  # |1e200|^2 overflows
        (inf, even, "%s", np.array([1e-320, -0.0, 3.0, 4.0 - 1j])),
        (1.5, even, "1:1|2=0,A=1", np.full(4, -0.125j)),
    ]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "cpus, frames, expected_forks",
    [
        (1, _split_frames(), 0),
        (2, _split_frames()[:1], 0),
        (2, [], 0),
        (2, _split_frames(), 1),
    ],
)
def test_snapshots_fork_only_when_the_split_can_help(
    cpus, frames, expected_forks, monkeypatch, tmp_path
):
    forks = _count_forks(monkeypatch, cpus)
    assert _same_bytes(write_snapshots_csv, _reference_snapshots, frames, tmp_path)
    assert len(forks) == expected_forks
    assert sorted(os.listdir(tmp_path)) == ["ours.csv", "reference.csv"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "cpus, fork_rows, expected_forks", [(2, 16, 0), (2, 15, 1), (3, 11, 1), (3, 10, 2)]
)
def test_each_snapshot_process_gets_fork_rows_points(
    cpus, fork_rows, expected_forks, monkeypatch, tmp_path
):
    forks = _count_forks(monkeypatch, cpus, fork_rows)  # of the 30 grid points
    assert _same_bytes(write_snapshots_csv, _reference_snapshots, _split_frames(), tmp_path)
    assert len(forks) == expected_forks


def test_a_table_under_the_fork_threshold_is_written_in_one_process(monkeypatch, tmp_path):
    # two_spin_crossing's table: 12 blocks of 2,048 points
    frames = run_scenario(ScenarioConfig(scenario="two_spin_crossing")).frames
    assert sum(len(x) for _, x, _, _ in frames) < 2 * serialize._FORK_ROWS
    forks = _count_forks(monkeypatch, 2, fork_rows=serialize._FORK_ROWS)
    assert _same_bytes(write_snapshots_csv, _reference_snapshots, frames, tmp_path)
    assert forks == []


def test_a_table_over_the_fork_threshold_splits_to_the_same_bytes(monkeypatch, tmp_path):
    # stern_gerlach's table at a frame every 4 steps: 232 blocks of 1,024 points
    frames = run_scenario(ScenarioConfig(scenario="stern_gerlach", snapshot_every=4)).frames
    forks = _count_forks(monkeypatch, 2, fork_rows=serialize._FORK_ROWS)
    write_snapshots_csv(frames, str(tmp_path / "split.csv"))
    assert len(forks) == 1
    monkeypatch.setattr(serialize, "_FORK_ROWS", sum(len(x) for _, x, _, _ in frames) + 1)
    write_snapshots_csv(frames, str(tmp_path / "whole.csv"))
    assert len(forks) == 1
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "config, cpus, forks, split",
    [
        # the cut by grid points alone parts the path modes' two copies of a field
        (dict(scenario="stern_gerlach"), 2, 1, False),
        (dict(scenario="stern_gerlach", snapshot_every=8), 2, 1, False),
        (dict(scenario="stern_gerlach", snapshot_every=4), 3, 2, False),
        # no field repeats across a cut, which stays inside its frame time
        (dict(scenario="three_spin_chain"), 3, 2, True),  # one cut moves, one stays
        # but branches of equal amplitude on one shape group hold equal bits
        (dict(scenario="two_spin_crossing"), 2, 1, False),
        (dict(scenario="von_neumann", a1=0.6, b1=0.8j), 2, 1, True),
        (dict(scenario="bell_case1"), 2, 1, True),  # one frame time
    ],
)
def test_no_field_of_a_frame_time_is_formatted_in_two_processes(
    config, cpus, forks, split, monkeypatch, tmp_path
):
    # each process writes the time and bits of each block it got in place of its rows
    frames = run_scenario(ScenarioConfig(**config)).frames
    forked = _count_forks(monkeypatch, cpus)

    def keys_of(part, fh):
        fh.write((json.dumps([[t, f.tobytes().hex()] for t, *_, f in part]) + "\n").encode())

    monkeypatch.setattr(serialize, "_write_blocks", keys_of)
    write_snapshots_csv(frames, str(tmp_path / "keys.csv"))
    parts = [json.loads(line) for line in (tmp_path / "keys.csv").read_text().splitlines()[1:]]
    assert len(parts) == len(forked) + 1 == forks + 1
    assert all(parts) and sum(map(len, parts)) == len(frames)
    owner, times = {}, {}
    for k, part in enumerate(parts):
        for t, bits in part:
            assert owner.setdefault((t, bits), k) == k
            times.setdefault(t, set()).add(k)
    assert any(len(ks) > 1 for ks in times.values()) is split


def test_a_failing_snapshot_worker_is_an_io_error(monkeypatch, tmp_path, capsys):
    _count_forks(monkeypatch, 2)
    parent, write_blocks = os.getpid(), serialize._write_blocks

    def fail_in_child(frames, fh):
        if os.getpid() != parent:
            raise RuntimeError("no space left in the child")
        write_blocks(frames, fh)

    def in_parent(call, *args):
        try:
            return call(*args)
        finally:
            if os.getpid() != parent:  # a child got back here: it did not leave through os._exit
                (tmp_path / "escaped").touch()
                os._exit(1)

    monkeypatch.setattr(serialize, "_write_blocks", fail_in_child)
    path = tmp_path / "snapshots.csv"
    with pytest.raises(OSError, match=str(path)):
        in_parent(write_snapshots_csv, _split_frames(), str(path))
    out = tmp_path / "run"
    assert in_parent(cli.main, ["run", "bell_case1", "--out", str(out)]) == 3
    assert "snapshots.csv" in capsys.readouterr().err
    # no partial output or part file is left behind, and no child came back
    # to run the rest of the session
    assert sorted(os.listdir(tmp_path)) == ["run"]
    assert os.listdir(out) == []
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "args",
    [pytest.param([name], id=name) for name in sorted(SCENARIOS)]
    + [pytest.param(["stern_gerlach", "--snapshot-every", "32"], id="stern_gerlach-every-32")],
)
def test_a_real_run_writes_the_row_writer_bytes(args, monkeypatch, tmp_path):
    forks = _count_forks(monkeypatch, 2)
    results = []

    def keep(result, out_dir):
        results.append(result)
        return serialize.write_run(result, out_dir)

    monkeypatch.setattr(cli, "write_run", keep)
    out = tmp_path / "run"
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    assert len(forks) == 1
    _reference_snapshots(results[0].frames, str(tmp_path / "reference.csv"))
    assert (out / "snapshots.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    _reference_boundary(results[0].boundary_rows, str(tmp_path / "reference.csv"))
    assert (out / "boundary.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# The CSV writers format floats with a numpy kernel; format_float is its
# reference, and it falls back to format_float for the values it cannot
# format exactly.


def _kernel_text(values):
    cells = serialize._format_column(values)
    return [cell[cell != serialize._PAD].tobytes().decode() for cell in cells]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)), max_size=40))
def test_the_kernel_writes_format_float(values):
    assert _kernel_text(values) == [format_float(v) for v in values]


def test_the_kernel_writes_format_float_over_random_bits_and_magnitudes():
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64 - 1, 50_000, dtype=np.uint64, endpoint=True).view(np.float64)
    spread = rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
    # short decimals: trailing zeros and fixed notation
    short = np.round(rng.standard_normal(50_000) * 1e6) / 10.0 ** rng.integers(0, 24, 50_000)
    # exact ties at the 17th digit: 17 significant digits, then a half
    k = rng.integers(8, 16, 50_000)
    halves = rng.integers(1, 8, 50_000) / 2.0 ** (17 - k)
    ties = np.floor(10.0**k * (1 + rng.random(50_000))) + halves
    whole = rng.integers(-(10**17), 10**17, 50_000).astype(float)
    for values in (bits, spread, short, ties, whole):
        assert _kernel_text(values) == [format_float(v) for v in values.tolist()]


@pytest.mark.parametrize(
    "value, text",
    [
        # exact ties at the 17th digit round half to even
        (1234567890123456.75, "1234567890123456.8"),
        (1234567890123456.25, "1234567890123456.2"),
        # next to a power of ten, where the decimal exponent estimate can be one off
        (9.9999999999999995e-05, "9.9999999999999991e-05"),
        (99999999999999999.0, "1e+17"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        (0.0001, "0.0001"),
        (1e-5, "1.0000000000000001e-05"),
        (5e-324, "4.9406564584124654e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        # the edges of the fast range
        (1e280, "1e+280"),
        (-1e280, "-1e+280"),
        (float(np.nextafter(1e280, 0.0)), format_float(np.nextafter(1e280, 0.0))),
        (float(np.nextafter(1e-280, 1.0)), format_float(np.nextafter(1e-280, 1.0))),
        (1e-280, "9.9999999999999996e-281"),
        (float(np.nextafter(1e-280, 0.0)), "9.9999999999999984e-281"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
        (-5e-324, "-4.9406564584124654e-324"),
        (-0.0, "-0"),
        (123.456, "123.456"),
    ],
)
def test_the_kernel_on_ties_decade_edges_and_extremes(value, text):
    assert format_float(value) == text
    assert _kernel_text([value]) == [text]


_TINY_BITS = int(np.float64(1e-280).view(np.uint64))  # positive doubles below it have lower bits


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.integers(1, _TINY_BITS - 1), min_size=1, max_size=40),
    signs=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_the_kernel_writes_format_float_below_1e_280(bits, signs):
    # subnormals included: below 2**-1022 (bits under 2**52) the significand shrinks
    values = np.array(bits, np.uint64).view(np.float64) * np.where(signs[: len(bits)], -1.0, 1.0)
    assert _kernel_text(values) == [format_float(v) for v in values.tolist()]


def _fallbacks(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return format_float(value)

    monkeypatch.setattr(serialize, "format_float", counted)
    return calls


# 17-digit integers whose 4-digit groups are zero in turn, at the edges of [10**16, 10**17)
_DIGITS = [
    10**16,
    10**16 + 2,
    10**16 + 2 * 10**4,
    10**16 + 2 * 10**8,
    10**16 + 10**8 + 2,
    10**16 + 2 * 10**12,
    17_000_000_000_000_000,
    99_999_999_999_999_998,
    10**17 - 1,
]


@pytest.mark.parametrize("digits", _DIGITS)
def test_the_kernel_splits_17_digit_integers_with_zero_groups(digits):
    # in fixed and scientific notation, and below 1e-280
    values = [float(f"{s}{digits}e{e}") for s in "+-" for e in (0, 7, -16, -20, -40, -300)]
    assert _kernel_text(values) == [format_float(v) for v in values]
    if float(digits) == digits:  # the kernel's integer is these digits
        assert _kernel_text([digits, -digits]) == [str(digits), f"-{digits}"]


def test_near_ties_fall_back_to_format_float(monkeypatch):
    # exact ties where 10**(16 - k) is exact and where it is not, and one
    # value 2.1e-16 from a tie, closer than the kernel's error bound
    ties = [
        1234567890123456.75,
        1234567890123456.25,
        2.0**-25,
        3 * 2.0**-24,
        1.1473543192139844e38,
    ]
    calls = _fallbacks(monkeypatch)
    assert _kernel_text(ties) == [format_float(v) for v in ties]
    assert calls == ties


def test_a_frame_formats_each_field_of_its_time_once(monkeypatch, tmp_path):
    # the path modes I and II are two identical Gaussians at x = 0, stepped in one stack,
    # so 77 of stern_gerlach's 232 blocks repeat a field of their frame time bit for bit
    result = run_scenario(ScenarioConfig(scenario="stern_gerlach", snapshot_every=4))
    _count_forks(monkeypatch, 1)
    rows, format_column = [], serialize._format_column

    def counted(values):
        if np.shape(values)[1:] == (3,):  # the re, im and density of field rows
            rows.append(len(values))
        return format_column(values)

    monkeypatch.setattr(serialize, "_format_column", counted)
    write_snapshots_csv(result.frames, str(tmp_path / "snapshots.csv"))
    assert (len(result.frames), sum(len(f) for *_, f in result.frames)) == (232, 237_568)
    assert sum(rows) == 158_720


def test_a_real_run_formats_almost_every_value_in_the_kernel(monkeypatch):
    result = run_scenario(ScenarioConfig(scenario="stern_gerlach", snapshot_every=32))
    values = np.concatenate(
        [np.concatenate([x, f.real, f.imag, np.abs(f) ** 2]) for _, x, _, f in result.frames]
    )
    calls = _fallbacks(monkeypatch)
    serialize._format_column(values)
    assert len(values) > 100_000
    assert len(calls) < 0.01 * len(values)


def test_a_crossing_frame_and_its_gaussian_tails_never_fall_back(monkeypatch):
    # the t = 0 frame holds Gaussian tails down to subnormals
    result = run_scenario(ScenarioConfig(scenario="two_spin_crossing"))
    frame = [block for block in result.frames if block[0] == 0.0]
    values = np.concatenate(
        [np.concatenate([x, f.real, f.imag, np.abs(f) ** 2]) for _, x, _, f in frame]
    )
    assert np.count_nonzero((values != 0) & (np.abs(values) < 1e-280)) > 1000
    calls = _fallbacks(monkeypatch)
    assert _kernel_text(values) == [format_float(v) for v in values.tolist()]
    assert calls == []


def test_importing_the_writer_builds_no_table():
    probe = "import wavefields.serialize as s; print(s._tables.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(serialize.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "0"
