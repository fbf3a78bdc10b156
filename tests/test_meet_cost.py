"""Cost guard: the Python calls one instant meet, and writing its ledger, make.

A meet's wall time drifts with the host, its call count does not.  The
counts below are of one phase meet and then one CZ meet on a two-system
ledger of 200 records, so the CZ meet takes the phase record into the
partner's columns, as most meets of a long ledger do, and of writing that
ledger's JSON.  A change that adds overhead back fails here by the
function it calls, not as a timing that may or may not move.
"""

import cmath
import collections
import json.encoder
import sys
from pathlib import Path

import numpy as np

import wavefields
from wavefields.engine import add_system, meet, new_state
from wavefields.hilbert import Operator
from wavefields.memory import memory_to_json
from wavefields.spatial import Grid, gaussian_packet

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
RECORDS = 200

# Python-level calls into ``wavefields`` of one meet, by kind (CPython 3.11,
# where each comprehension and each resumed generator counts): the budget,
# measured once branch labels were flat indices (32 and 54 when they were
# IndexLabels, 36 and 62 when a wave-field held packets, 38 and 66 when a meet
# multiplied field rows), and beside it the count before memories cached their
# layouts and contractions their plans
CALLS = {"phase": 28, "cz": 46}
CALLS_BEFORE = {"phase": 75, "cz": 135}

# Python-level calls of memory_to_json on that ledger into the package: the
# budget, and beside it the count when it built a tree for json.dumps(indent=2),
# whose encoder then made 65,146 calls to the pure-Python walk of json/encoder.py
JSON_CALLS = 450
JSON_CALLS_BEFORE = 410

PACKAGE = str(Path(wavefields.__file__).parent)
ENCODER = json.encoder.__file__


def phase(k):
    return np.diag([1.0, cmath.exp(0.37j * (k + 1))])


def ledger():
    grid = Grid(-16.0, 16.0, 256, 0.01)
    state = new_state(grid)
    for name, x0, amps in (("p", -6.0, (0.6, 0.8j)), ("q", 6.0, (0.8, -0.6))):
        add_system(state, name, amps, gaussian_packet(grid, x0, 1.0))
    for k in range(RECORDS):
        if k % 2:
            meet(state, "p", "q", Operator(CZ, (2, 2), ("p", "q")), f"cz-{k}")
        else:
            s = "pq"[k // 2 % 2]
            meet(state, s, None, Operator(phase(k), (2,), (s,)), f"phase-{k}")
    return state


def calls_of(fn, where: str = PACKAGE) -> collections.Counter:
    """The calls ``fn()`` makes into functions defined under ``where``, by name."""
    seen: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(where):
            seen[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def test_an_instant_meet_makes_no_more_calls_than_its_budget():
    state = ledger()
    assert len(state.wavefields["p"].memory.ops) == RECORDS
    cz, ph = Operator(CZ, (2, 2), ("p", "q")), Operator(phase(RECORDS), (2,), ("q",))
    counts = {
        "phase": calls_of(lambda: meet(state, "q", None, ph, "phase-last")),
        "cz": calls_of(lambda: meet(state, "p", "q", cz, "cz-last")),
    }
    for kind, seen in counts.items():
        total = sum(seen.values())
        assert total <= CALLS[kind], (
            f"{kind} meet: {total} calls, budget {CALLS[kind]} ({CALLS_BEFORE[kind]} before "
            f"caching): {dict(seen.most_common())}"
        )


def test_an_instant_meet_leaves_every_group_row_the_same_object():
    # a meet multiplies coefficient and amplitude vectors; it builds no field
    # row, so each system keeps the row add_system gave it
    state = ledger()
    rows = {s: wf.rows for s, wf in state.wavefields.items()}
    assert all(len(r) == 1 for r in rows.values())
    meet(state, "q", None, Operator(phase(RECORDS), (2,), ("q",)), "phase-last")
    meet(state, "p", "q", Operator(CZ, (2, 2), ("p", "q")), "cz-last")
    assert all(wf.rows is rows[s] for s, wf in state.wavefields.items())
    for s, wf in state.wavefields.items():  # and every branch reads that row
        for p, a in zip(wf.packets, wf.amplitudes.tolist(), strict=True):
            assert p.field.tobytes() == (a * rows[s][0]).tobytes()


def test_writing_a_ledger_makes_no_more_calls_than_its_budget():
    memory = ledger().wavefields["p"].memory
    assert len(memory.ops) == RECORDS
    walk = {
        name: n
        for name, n in calls_of(lambda: memory_to_json(memory), ENCODER).items()
        if name.startswith("_iterencode")
    }
    assert walk == {}, f"memory_to_json walks its document in json's Python encoder: {walk}"
    seen = calls_of(lambda: memory_to_json(memory))
    total = sum(seen.values())
    assert total <= JSON_CALLS, (
        f"memory_to_json: {total} calls, budget {JSON_CALLS} ({JSON_CALLS_BEFORE} before the "
        f"template, besides the encoder's): {dict(seen.most_common())}"
    )
