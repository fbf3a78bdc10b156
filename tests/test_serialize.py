import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import cli, serialize
from wavefields.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from wavefields.serialize import (
    BOUNDARY_HEADER,
    SNAPSHOT_HEADER,
    config_echo,
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


def test_config_echo_serializes_complex_pairs():
    cfg = ScenarioConfig(scenario="two_spin_crossing", a1=complex(0.6, 0.0), b1=0.8j)
    echo = config_echo(cfg)
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


@st.composite
def _frames(draw):
    grids = [
        np.array(draw(st.lists(_finite, min_size=1, max_size=6))),
        np.linspace(-1.0, 1.0, draw(st.integers(1, 5))),
    ]
    blocks = []
    for _ in range(draw(st.integers(0, 6))):
        x = grids[draw(st.integers(0, 1))]
        parts = st.one_of(_finite, _values) if draw(st.booleans()) else _finite
        pairs = draw(st.lists(st.tuples(parts, parts), min_size=len(x), max_size=len(x)))
        field = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        blocks.append((draw(st.one_of(_finite, _values)), x, draw(_labels), field))
    return blocks


def _same_bytes(writer, reference, data, tmp_path):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    writer(data, str(ours))
    reference(data, str(theirs))
    return ours.read_bytes() == theirs.read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=150, deadline=None)
@given(frames=_frames())
def test_snapshot_blocks_match_the_row_writer(frames, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snap")
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
# child per range after the first.  The bytes must not depend on the split.


def _count_forks(monkeypatch, cpus):
    forks = []
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
        (-0.0, "-0"),
        (123.456, "123.456"),
    ],
)
def test_the_kernel_on_ties_decade_edges_and_extremes(value, text):
    assert format_float(value) == text
    assert _kernel_text([value]) == [text]


def _fallbacks(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return format_float(value)

    monkeypatch.setattr(serialize, "format_float", counted)
    return calls


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


def test_a_real_run_formats_almost_every_value_in_the_kernel(monkeypatch):
    result = run_scenario(ScenarioConfig(scenario="stern_gerlach", snapshot_every=32))
    values = np.concatenate(
        [np.concatenate([x, f.real, f.imag, np.abs(f) ** 2]) for _, x, _, f in result.frames]
    )
    calls = _fallbacks(monkeypatch)
    serialize._format_column(values)
    assert len(values) > 100_000
    assert len(calls) < 0.01 * len(values)


def test_importing_the_writer_builds_no_table():
    probe = "import wavefields.serialize as s; print(s._tables.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(serialize.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "0"
