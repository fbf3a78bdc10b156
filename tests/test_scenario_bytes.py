"""Golden bytes of every scenario's output files.

A change that moves any boundary level, summary figure or snapshot cell
of a run by one bit fails here and has to name the files it changes.
Every file but config.json, which holds the ``--out`` path, is pinned at
the default frame cadence and at a frame every 8 steps, which catches a
crossing's fields in mid-flight; boundary.csv and summary.json do not
depend on the cadence.  The two crossing scenarios' digests were recorded
when the crossing began to step one leading row per system, the others'
when every scenario's files were first pinned.
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
        "summary.json": "4d4f12ed9da3a3e2379f87f673b8a280ba9fafaf9e6e58d55fd46c0bb747ce2e",
        "snapshots.csv": "4b13be5a5e6e3b4b3f758870a348162862c46e0b4c1917181b038644f529a786",
        "snapshots.csv every 8": "4b13be5a5e6e3b4b3f758870a348162862c46e0b4c1917181b038644f529a786",
    },
    "stern_gerlach": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "059f2f5f57336947be79e4fd460a7630b507d86b321d6083fc077503e4237066",
        "snapshots.csv": "917a58c976fcb47ec7857f6c22d3f1e0f62f84ea6494c0f6c25fcb1c98103918",
        "snapshots.csv every 8": "a8479c77d02a03a799deef311394ee457102405a931144527c034cfc62606792",
    },
    "student_demo": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "c0c5f9fddf49149e647d500e72683de5f6dd36b188307644c5ef0ee1defab5ea",
        "snapshots.csv": "ed4661f07142a937f96808b74f5aa8274f7a0d3206ebb5a1e23d7c91864b316a",
        "snapshots.csv every 8": "ed4661f07142a937f96808b74f5aa8274f7a0d3206ebb5a1e23d7c91864b316a",
    },
    "three_spin_chain": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "a41dd27440d5e690879751215e912c3dceb9ba1ff8084dccfb3c35f7baec8fc7",
        "snapshots.csv": "f749e24a23946e0c6abd4a3723864d60f7cb50f784c36e28cdf1d99a9e65bb88",
        "snapshots.csv every 8": "5fcdb23a7d30814d8510bbef9e900931c76f2f84bf606cd928261182132c2ff8",
    },
    "tunneling": {
        "boundary.csv": "da58a9931776e7ebe1b6c6d89927da56fd69683176fe81f3cc506609f79769ac",
        "summary.json": "cb5528fd893125557545747d3add5741d3bbfee9ef7020f0600ac63fa989ebd7",
        "snapshots.csv": "7fbb79b5efb1b3fbe7680e845babc3b8ee5d834e74f8b9479a3258b7f9b2bcf3",
        "snapshots.csv every 8": "4a91352db3e64c2be4269c2012bb34b4563ef11115c77e1b1227b8cfb14bc63d",
    },
    "two_spin_crossing": {
        "boundary.csv": "c0c4b5be58529dfedcda28726b4fdd4a48bf2e191032fa408b932cf2100f8455",
        "summary.json": "a0588a3d99ec18e99c1032d2da2eb4cb99237362df28bdb072973c6f7e41a6fe",
        "snapshots.csv": "f53485a3dc60f66864b679abf9a1b823e09c7dc892f99ef2cad457abf97677aa",
        "snapshots.csv every 8": "1cc8e482d29c5cf6f15ea7325d400ba63d8743b9dbb72edec3f851d76128e9a7",
    },
    "von_neumann": {
        "boundary.csv": "ec5770f5e761fcabde3c885b7d346b291993b58b38452b167128530e1a267d2b",
        "summary.json": "d6e7dae0e6cabd0de779527a43702b5a0dd4645bf764122e1e1a73b3520257ac",
        "snapshots.csv": "12d9a8f236ac57ca08aa892826935dfba1b972a1c885e08c297e4c9ef37037ce",
        "snapshots.csv every 8": "27f168db8b2aa74425c99b15405d9e01d88ae77c954439d06d1047932a7f46b8",
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
