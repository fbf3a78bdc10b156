"""Golden bytes of every scenario's output files.

A change that moves any boundary level, summary figure or snapshot cell
of a run by one bit fails here and has to name the files it changes.
Every file but config.json, which holds the ``--out`` path, is pinned at
the default frame cadence and at a frame every 8 steps, which catches a
crossing's fields in mid-flight; boundary.csv and summary.json do not
depend on the cadence.  The digests of bell_case2, stern_gerlach,
student_demo, three_spin_chain, two_spin_crossing and von_neumann that
moved were recorded when a wave-field began to store its shape groups,
so that a field is its amplitude times its group's row and an instant
meet multiplies coefficient vectors: fields moved by roundoff (at most
2.6e-16), and in the crossings' mid-flight frames the boundary, which is
roundoff where the balance is degenerate, moved the cell at x = 0 from
one side to the other.  The others' when every scenario's files were
first pinned.
"""

import hashlib

import pytest

from wavefields import cli
from wavefields.scenarios import SCENARIOS

GOLDEN = {
    "beam_splitter_einstein": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "e385766f2024b5ee900d40c4dc0b53e501b080a818955f4bba338481f76c01e0",
        "snapshots.csv": "484b675d4454037aa524265782b1b06a60d979c105728eecc22025c3bc8a77f6",
        "snapshots.csv every 8": "484b675d4454037aa524265782b1b06a60d979c105728eecc22025c3bc8a77f6",
    },
    "bell_case1": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "a14f1f9c12ed524b249386c9a265fdb07d6b0a5055597ff32bc807906f9123ac",
        "snapshots.csv": "7f60c41cb27228faf5379fba3b59a3207d1003a1ce9aee188eff8ffb756a885a",
        "snapshots.csv every 8": "7f60c41cb27228faf5379fba3b59a3207d1003a1ce9aee188eff8ffb756a885a",
    },
    "bell_case2": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "62356db41496686878ad2fd3f7ad40330ce7606767203a6285cd587ed5e8d8e1",
        "snapshots.csv": "4a293fd18b27954d6e5e932e700c7fddccdad1e208d580c4eb026711b780f10a",
        "snapshots.csv every 8": "4a293fd18b27954d6e5e932e700c7fddccdad1e208d580c4eb026711b780f10a",
    },
    "stern_gerlach": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "eaaf903d0214c6460e4fe2e0b9ad7d5cd378141525f93d48e92aaa3396eabb66",
        "snapshots.csv": "66643757dfc1b98df238bf481b19737c465ccb6c60a66cfa0a6b713fb88ac5f5",
        "snapshots.csv every 8": "db4113409525d0ba373c0a3c6d0d9c629c76838a6216d0120f6b32ab06c163b8",
    },
    "student_demo": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "1c89c457d29be3a5a098c1cf7804856b34409b2b2e482432ae4aa500da8bd9fc",
        "snapshots.csv": "3447d20d205a992dbbf118ad1d98feb13fbc0c43bdb03f78558a2b731b67d2f4",
        "snapshots.csv every 8": "3447d20d205a992dbbf118ad1d98feb13fbc0c43bdb03f78558a2b731b67d2f4",
    },
    "three_spin_chain": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "0479fac70c122afccccbaa401edb8316055760ea4d34477bcc2dc508c20334ca",
        "snapshots.csv": "9b471f2877dc339999b0fd80cf59673c2732e7404e1c87d0ff8dda01818e15b4",
        "snapshots.csv every 8": "848cc069ad5ad7499c1a0a8dcacbb2c641ef91b9c7cb35f12446f609d3afd655",
    },
    "tunneling": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "cb5528fd893125557545747d3add5741d3bbfee9ef7020f0600ac63fa989ebd7",
        "snapshots.csv": "7fbb79b5efb1b3fbe7680e845babc3b8ee5d834e74f8b9479a3258b7f9b2bcf3",
        "snapshots.csv every 8": "4a91352db3e64c2be4269c2012bb34b4563ef11115c77e1b1227b8cfb14bc63d",
    },
    "two_spin_crossing": {
        "boundary.csv": "6c16bfa6fb07bbabbe6e5a6deca7456f698af85e1e1ada0ec3c068b42cc00ada",
        "summary.json": "e0a42bfe82bcf21779dd68a84d80caeca65f7cd032e01699432053d6799b64ae",
        "snapshots.csv": "a283aef13faa3889dbd17080e451f31e270d2f41ba0eb54b7d445ebfcaeedfe5",
        "snapshots.csv every 8": "eb521a6a6ea3f6927a6732230ff9bce5c225f7ecadb047e80ab87e5e66c63eec",
    },
    "von_neumann": {
        "boundary.csv": "879b1a584c7430cfedc89c5c9a335b77d551cbc0057db26a0ebddb1229ed2c2e",
        "summary.json": "fe4e98b9893f792ed5458d6d3f831bdc8f8c346a671d9409f4bcd651d2b6f6a4",
        "snapshots.csv": "c1d59c99a12a75fdbbd577ff7c98e4197296049df8e2efe9855faf5ac2371c1a",
        "snapshots.csv every 8": "1c60f19d2f4e6def83adb47f2919271053af48e262bad6c6d387092a14e1bf6e",
    },
    "weak_entanglement": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "10a0e0153f891c758da330395c21263f5658d96e11cd70b7fe1745ce35fb09f8",
        "snapshots.csv": "43f1753edb2b337adce06226b6fc5841a9ca136c73847e8b6434aec5e9b5b9bd",
        "snapshots.csv every 8": "43f1753edb2b337adce06226b6fc5841a9ca136c73847e8b6434aec5e9b5b9bd",
    },
}


def _digests(name, tmp_path, every=None):
    out = tmp_path / f"{name}-{every}"
    extra = [] if every is None else ["--snapshot-every", str(every)]
    assert cli.main(["run", name, "--out", str(out), *extra]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


def test_every_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_scenario_keeps_its_golden_bytes(name, tmp_path):
    default, every8 = _digests(name, tmp_path), _digests(name, tmp_path, 8)
    assert default.pop("config.json") and every8.pop("config.json")
    assert {**default, "snapshots.csv every 8": every8.pop("snapshots.csv")} == GOLDEN[name]
    assert every8 == {f: default[f] for f in ("boundary.csv", "summary.json")}
