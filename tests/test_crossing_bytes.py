"""Golden bytes of the two crossing scenarios' output files.

The digests were recorded when the crossing began to step one leading row
per system; a change that moves any boundary level, summary figure or
snapshot cell of a crossing by one bit fails here and has to name the
files it changes.
"""

import hashlib

import pytest

from wavefields import cli

# boundary.csv and summary.json at default settings; snapshots.csv with a
# frame every 8 steps, which catches the fields in mid-crossing
GOLDEN = {
    "two_spin_crossing": {
        "boundary.csv": "c0c4b5be58529dfedcda28726b4fdd4a48bf2e191032fa408b932cf2100f8455",
        "summary.json": "a0588a3d99ec18e99c1032d2da2eb4cb99237362df28bdb072973c6f7e41a6fe",
        "snapshots.csv": "1cc8e482d29c5cf6f15ea7325d400ba63d8743b9dbb72edec3f851d76128e9a7",
    },
    "von_neumann": {
        "boundary.csv": "ec5770f5e761fcabde3c885b7d346b291993b58b38452b167128530e1a267d2b",
        "summary.json": "d6e7dae0e6cabd0de779527a43702b5a0dd4645bf764122e1e1a73b3520257ac",
        "snapshots.csv": "27f168db8b2aa74425c99b15405d9e01d88ae77c954439d06d1047932a7f46b8",
    },
}


def _digests(name, tmp_path, every=None):
    out = tmp_path / f"{name}-{every}"
    extra = [] if every is None else ["--snapshot-every", str(every)]
    assert cli.main(["run", name, "--out", str(out), *extra]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_crossing_keeps_its_golden_bytes(name, tmp_path):
    default, every8 = _digests(name, tmp_path), _digests(name, tmp_path, 8)
    got = {
        "boundary.csv": default["boundary.csv"],
        "summary.json": default["summary.json"],
        "snapshots.csv": every8["snapshots.csv"],
    }
    assert got == GOLDEN[name]
