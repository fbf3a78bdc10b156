"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import wavefields
from wavefields import boundary, cli

MAX_LINE = 99
ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    # the benchmark's tracer, loaded from its file as the benchmark loads it
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("wavefields_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def sources() -> list[Path]:
    found = sorted(Path(wavefields.__file__).parent.glob("*.py"))
    assert found
    return found


def test_no_source_line_is_longer_than_99_characters():
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sources()
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


# lines of src/wavefields/*.py: a change that grows the package on purpose raises
# this and says why in CHANGES.md
PACKAGE_LINES = 3371


def test_package_does_not_grow_past_its_tracked_line_count():
    lines = sum(len(path.read_text().splitlines()) for path in sources())
    assert lines <= PACKAGE_LINES


def name_uses(trees: dict) -> list[tuple[str, str, int]]:
    """(file, name, line) of every name and attribute read in ``trees``."""
    return [
        (name, getattr(node, "id", None) or node.attr, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def used_outside(node, name: str, uses, defined: str | None = None) -> bool:
    """Whether ``defined`` (the name of ``node``) of file ``name`` is used outside ``node``."""
    defined = defined or node.name
    return any(
        used == defined and (where != name or not node.lineno <= line <= node.end_lineno)
        for where, used, line in uses
    )


def definitions(tree):
    """(name, node) of every function, and of every module-level class and constant."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def test_every_private_function_is_used_in_the_package():
    # a private helper, class or constant only the tests use is dead code in the package
    trees = {path.name: ast.parse(path.read_text()) for path in sources()}
    uses = name_uses(trees)
    unused = [
        f"{name}:{node.lineno}: {defined}"
        for name, tree in trees.items()
        for defined, node in definitions(tree)
        if defined.startswith("_")
        and not defined.startswith("__")
        and not used_outside(node, name, uses, defined)
    ]
    assert unused == []


def test_index_labels_are_built_only_in_memory():
    # a branch is a flat index; its IndexLabel is built at the edges, by the
    # conversion in memory.py and the oracle's own route there
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sources()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "IndexLabel"
    ]
    assert callers and all(c.startswith("memory.py:") for c in callers), callers


# public functions that neither the package nor the benchmark calls, and why each stays
UNCALLED_PUBLIC = {
    "memory_from_json": "the reader of the ledger format docs/memory_format.md specifies",
}


def test_every_public_function_is_used_by_the_package_or_the_benchmark():
    # a public function only the tests call belongs in the tests; the
    # export list in __init__ is not a use, a @_scenario registration is
    trees = {path.name: ast.parse(path.read_text()) for path in sources()}
    uses = name_uses({k: v for k, v in trees.items() if k != "__init__.py"})
    # the benchmark's tracer names the functions it wraps in strings
    bench = [ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py")]
    bench_uses = {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.value
        for tree in bench
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str))
    }
    unused = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in UNCALLED_PUBLIC
        and node.name not in bench_uses
        and not any("_scenario" in ast.unparse(d) for d in node.decorator_list)
        and not used_outside(node, name, uses)
    ]
    assert unused == []


def test_importing_the_package_loads_no_process_pool():
    # start-up is timed end to end; the snapshot writer forks without a pool
    probe = (
        "import sys, wavefields; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    src = str(Path(wavefields.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_every_traced_target_resolves_in_the_package():
    # the benchmark's tracer wraps these names; one that no longer resolves
    # would make every traced run fail at install
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = []
    for module, attribute, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"wavefields.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attribute}")
    assert missing == []


def test_traced_run_counts_frames_steps_and_meets():
    # the tracer's hooks read the arguments of _frame, advance and meet; a
    # signature change there would break every traced run of the benchmark
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["run", "three_spin_chain"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0)
    assert metrics["scenarios.frame_rows"] > 0
    assert metrics["engine.steps"] == 20
    assert metrics["engine.meets"] == 2


def test_traced_crossing_times_the_boundary_law_and_counts_every_step(tmp_path, capsys):
    # the law is timed through the names the tracer wraps, and a call of
    # many steps counts all of them
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["run", "two_spin_crossing", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert metrics["boundary.law_s"] > 0
    assert metrics["engine.steps"] == summary["steps"] == 407


def test_traced_meets_time_the_transfers_records_and_the_oracle(monkeypatch):
    # the ledger's layers are timed through the names the tracer wraps: a
    # meet that stopped calling them by those names would read 0 there
    built = []
    original = boundary.transfer_matrices_synced

    def counted(*args, **kwargs):
        built.append(args[1].labels)
        return original(*args, **kwargs)

    monkeypatch.setattr(boundary, "transfer_matrices_synced", counted)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    gates = [(cnot, (a, b)) for a, b in (("c0", "c1"), ("c1", "c2"))]
    for k in range(6):
        if k % 2:
            gates.append((np.diag([1.0, 1.0, 1.0, -1.0]), ("p", "q")))
        else:
            gates.append((np.diag([1.0, np.exp(0.3j * k)]), (("p", "q")[k // 2 % 2],)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        grid = wavefields.Grid(-16.0, 16.0, 256, 0.01)
        state = wavefields.new_state(grid)
        for i, s in enumerate(("c0", "c1", "c2", "p", "q")):
            amps = [0.6, 0.8] if s in ("c0", "p", "q") else [1.0, 0.0]
            shape = wavefields.gaussian_packet(grid, 4.0 * i - 8.0, 1.0)
            wavefields.add_system(state, s, amps, shape)
        for k, (matrix, targets) in enumerate(gates):
            op = wavefields.Operator(matrix, (2,) * len(targets), targets)
            wavefields.meet(state, targets[0], targets[1] if targets[1:] else None, op, f"g{k}")
        for s in state.wavefields:
            assert wavefields.validate_against_memory(state, s) < 1e-10
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0)
    assert metrics["engine.meets"] == len(gates)
    assert metrics["boundary.transfer_calls"] == len(built) == len(gates)
    assert metrics["boundary.isometry_s"] > 0
    assert metrics["memory.record_s"] > 0
    assert metrics["hilbert.apply_calls"] > 0
