"""Golden bytes of seeded ledgers: meets and the oracle replay keep every bit.

The digests were recorded before the meet and replay paths were tuned for
speed, but for the transfers and packets, re-pinned when a transfer with no
index basis to undo stopped being normalized a second time (entries moved
by at most 2.5e-16), and the packets again when a packet's field became
its amplitude times its shape group's row (fields moved by at most
2.3e-16); a change that moves any transfer entry, packet field, memory
document or derived amplitude by one bit fails here.  The mini-ledger
meets systems whose memories extend one another; the crossed ledger adds
an index basis and meets of systems that each hold records the other
lacks, so a meet takes the full union.
"""

import cmath
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import wavefields
from wavefields import boundary, memory
from wavefields.engine import add_system, meet, new_state, validate_against_memory
from wavefields.hilbert import Operator
from wavefields.memory import IndexLabel, derive_state, memory_to_json
from wavefields.spatial import Grid, gaussian_packet

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CHAIN = ("c0", "c1", "c2", "c3")
PAIR = ("p", "q")
PAIR_GATES = 40

GOLDEN = {
    "transfers": "cabcf34b4d077c53584cdcf4ae0078c63284458c485683e7d00e5b721263ea20",
    "packets": "8d5c830063931e0baacb3a0070e2f8eb0be7c39b3393a77f2e41a04631e5def1",
    "chain_memory": "01d59d8c6bf0f5cc42a6dcfe030989aab2fc245f3ccdb1bdb6cf33a1ad4f4234",
    "pair_memory": "dbf39fff453e2bd46bc7b25934c6a92e7338d710955fe382c50dc84836c9fdf2",
    "chain_state": "8dcec0a6d5fbc39dbaf655c1a229f8b7760640caae4f7925fa1beeac3db92c30",
    "pair_state": "1c9668397dd231735400f71f69cb2c522b0c24edeb5857ba07e36470d2a0b642",
}


def feed(h, *parts):
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.shape}{part.dtype.str}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())


def amplitude_pair(rng):
    w = rng.uniform(0.2, 0.8)
    return (
        cmath.rect(math.sqrt(w), rng.uniform(0, 2 * math.pi)),
        cmath.rect(math.sqrt(1.0 - w), rng.uniform(0, 2 * math.pi)),
    )


def recording_transfers(monkeypatch):
    """A digest that every transfer ``transfer_matrices_synced`` returns from now on feeds."""
    transfers = hashlib.sha256()
    original = boundary.transfer_matrices_synced

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        for t in out:
            feed(transfers, t.system, [lb.text() for lb in t.in_labels], t.matrix)
            feed(transfers, [lb.text() for lb in t.out_labels])
        return out

    monkeypatch.setattr(boundary, "transfer_matrices_synced", recording)
    return transfers


def feed_packets(h, state, targets):
    for s in targets:
        for p in state.wavefields[s].packets:
            feed(h, s, p.index.text(), np.complex128(p.coefficient), p.field)


def run_mini_ledger(monkeypatch):
    """A CNOT chain over 4 spins and 40 alternating phase and CZ gates on a pair."""
    rng = random.Random(17)
    grid = Grid(-16.0, 16.0, 256, 0.01)
    state = new_state(grid)
    theta = rng.uniform(0.5, 1.0)
    initial = {name: (1.0, 0.0) for name in CHAIN}
    initial[CHAIN[0]] = (math.cos(theta), math.sin(theta))
    initial.update({PAIR[0]: amplitude_pair(rng), PAIR[1]: amplitude_pair(rng)})
    for i, (name, amps) in enumerate(initial.items()):
        add_system(state, name, amps, gaussian_packet(grid, -10.0 + 4.0 * i, 1.0))

    transfers, packets = recording_transfers(monkeypatch), hashlib.sha256()
    gates = [(CNOT, (a, b), f"chain-{i}") for i, (a, b) in enumerate(zip(CHAIN, CHAIN[1:]))]
    for k in range(PAIR_GATES):
        if k % 2:
            gates.append((CZ, PAIR, f"cz-{k}"))
        else:
            phase = np.diag([1.0, cmath.exp(1j * rng.uniform(0, 2 * math.pi))])
            gates.append((phase, (PAIR[k // 2 % 2],), f"phase-{k}"))
    for matrix, targets, op_id in gates:
        b = targets[1] if len(targets) == 2 else None
        meet(state, targets[0], b, Operator(matrix, (2,) * len(targets), targets), op_id)
        feed_packets(packets, state, targets)
    return state, transfers, packets


def test_mini_ledger_keeps_its_golden_bytes(monkeypatch):
    state, transfers, packets = run_mini_ledger(monkeypatch)
    chain = state.wavefields[CHAIN[-1]].memory
    pair = state.wavefields[PAIR[0]].memory
    digests = {
        "transfers": transfers.hexdigest(),
        "packets": packets.hexdigest(),
        "chain_memory": hashlib.sha256(memory_to_json(chain).encode()).hexdigest(),
        "pair_memory": hashlib.sha256(memory_to_json(pair).encode()).hexdigest(),
        "chain_state": hashlib.sha256(derive_state(chain).amplitudes.tobytes()).hexdigest(),
        "pair_state": hashlib.sha256(derive_state(pair).amplitudes.tobytes()).hexdigest(),
    }
    assert digests == GOLDEN
    for s in state.wavefields:
        assert validate_against_memory(state, s, atol=1e-10) < 1e-10


def test_an_unpickled_label_hashes_as_a_fresh_one_under_another_hash_seed():
    # a label's hash depends on the process's string hash seed, so a hash
    # kept on the label must not travel with it
    label = IndexLabel(1, (("a", 0), ("b", 1)))
    table = {label: "found"}
    assert hash(label) == hash((label.own, label.partners))
    probe = (
        "import pickle, sys\n"
        "from wavefields.memory import IndexLabel\n"
        "label, table = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = IndexLabel(1, (('a', 0), ('b', 1)))\n"
        "assert hash(label) == hash(fresh) == hash((1, (('a', 0), ('b', 1))))\n"
        "print(table[fresh], {fresh: 'found'}[label], label in table)\n"
    )
    src = str(Path(wavefields.__file__).parent.parent)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    out = subprocess.run(
        [sys.executable, "-c", probe], input=pickle.dumps((label, table)),
        capture_output=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
    )
    assert out.stdout.decode().split() == ["found", "found", "True"]


CROSSED = ("a", "b", "c", "d", "h")  # "h" is labeled in a rotated index basis
CROSSED_GATES = 30

CROSSED_GOLDEN = {
    "transfers": "2170159ed4bab5a8b843669c22b74fd53f244b1b0b529e48c7d5d366bd2e12b3",
    "packets": "2eb6f555c6ded85221e3b998bb1354e3e46de5dfede594fc50cbeaa2e4d2ce58",
    "memories": "2ca13d958b597506cf7e6ccde7f1310080d4c06d38499ffd5a5f4cd781b528df",
    "states": "0b8144121bf6c44dcce651d53cc1645c2841a4f0e25a4131bb2ebbfb512945a8",
}


def rotation(rng):
    """A 2x2 unitary from three seeded angles and a global phase."""
    t, a, b, g = (rng.uniform(0, 2 * math.pi) for _ in range(4))
    c, s = math.cos(t), math.sin(t)
    m = np.array(
        [[c * cmath.exp(1j * a), -s * cmath.exp(1j * b)],
         [s * cmath.exp(-1j * b), c * cmath.exp(-1j * a)]]
    )
    return cmath.exp(1j * g) * m


def run_crossed_ledger(monkeypatch):
    """Pairs built apart and then crossed, over five spins, one of them in a rotated basis.

    ``a``-``c`` and ``b``-``d`` meet first, so the meet of ``a`` and ``b``
    unites two memories that each hold a record the other lacks; ``h``
    meets ``c`` and then ``d`` the same way.  Seeded random one- and
    two-system gates follow.
    """
    rng = random.Random(29)
    grid = Grid(-16.0, 16.0, 256, 0.01)
    state = new_state(grid)
    state.index_bases["h"] = Operator(rotation(rng), (2,), ("h",))
    for i, name in enumerate(CROSSED):
        amps = amplitude_pair(rng) if name in ("a", "b", "h") else (1.0, 0.0)
        add_system(state, name, amps, gaussian_packet(grid, -10.0 + 5.0 * i, 1.0))
    transfers, packets = recording_transfers(monkeypatch), hashlib.sha256()
    gates = [
        (CNOT, ("a", "c"), "ac"),
        (CNOT, ("b", "d"), "bd"),
        (CZ, ("a", "b"), "ab"),
        (CNOT, ("c", "h"), "ch"),
        (CZ, ("h", "d"), "hd"),
        (np.kron(rotation(rng), rotation(rng)) @ CZ, ("a", "h"), "ah"),
    ]
    for k in range(CROSSED_GATES):
        targets = tuple(rng.sample(CROSSED, rng.choice((1, 2))))
        if len(targets) == 1:
            gates.append((rotation(rng), targets, f"one-{k}"))
        else:
            matrix = rng.choice((CNOT, CZ, np.kron(rotation(rng), rotation(rng)) @ CNOT))
            gates.append((matrix, targets, f"two-{k}"))
    for matrix, targets, op_id in gates:
        b = targets[1] if len(targets) == 2 else None
        meet(state, targets[0], b, Operator(matrix, (2,) * len(targets), targets), op_id)
        feed_packets(packets, state, targets)
    return state, transfers, packets


def test_crossed_ledger_keeps_its_golden_bytes(monkeypatch):
    state, transfers, packets = run_crossed_ledger(monkeypatch)
    memories, states = hashlib.sha256(), hashlib.sha256()
    for s in CROSSED:
        mem = state.wavefields[s].memory
        feed(memories, s, memory_to_json(mem))
        feed(states, s, derive_state(mem).amplitudes)
    digests = {
        "transfers": transfers.hexdigest(),
        "packets": packets.hexdigest(),
        "memories": memories.hexdigest(),
        "states": states.hexdigest(),
    }
    assert digests == CROSSED_GOLDEN
    for s in state.wavefields:
        assert validate_against_memory(state, s, atol=1e-10) < 1e-10


def test_a_meet_checks_each_index_basis_once(monkeypatch):
    # a meet's participants share its index bases, so "h"'s is checked once
    # as it is added and once per meet whose merged memory knows "h": 33 of
    # the crossed ledger's 36 meets (44 checks when each participant made one)
    checked = []
    check = memory.check_index_basis

    def counting(system, basis, dim):
        checked.append(system)
        return check(system, basis, dim)

    monkeypatch.setattr(memory, "check_index_basis", counting)
    run_crossed_ledger(monkeypatch)
    assert checked == ["h"] * 34
