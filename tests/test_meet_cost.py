"""Cost guard: the Python calls one instant meet makes into the package.

A meet's wall time drifts with the host, its call count does not.  The
counts below are of one phase meet and then one CZ meet on a two-system
ledger of 200 records, so the CZ meet takes the phase record into the
partner's columns, as most meets of a long ledger do.  A change that adds
overhead back to a meet fails here by the function it calls, not as a
timing that may or may not move.
"""

import cmath
import collections
import sys
from pathlib import Path

import numpy as np

import wavefields
from wavefields.engine import add_system, meet, new_state
from wavefields.hilbert import Operator
from wavefields.spatial import Grid, gaussian_packet

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
RECORDS = 200

# Python-level calls into ``wavefields`` of one meet, by kind (CPython 3.11,
# where each comprehension and each resumed generator counts): the budget,
# and beside it the count before memories cached their layouts and
# contractions their plans
CALLS = {"phase": 38, "cz": 66}
CALLS_BEFORE = {"phase": 75, "cz": 135}

PACKAGE = str(Path(wavefields.__file__).parent)


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


def calls_of(fn) -> collections.Counter:
    """The calls ``fn()`` makes into functions defined in the package, by name."""
    seen: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
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
