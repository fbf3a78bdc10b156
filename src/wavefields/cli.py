"""Command line for running prepared scenarios.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
scenario runs but fails one of its audits, 3 for I/O failures.  A run
that fails a check, or that an engine audit stops mid-run, still writes
its outputs.
"""

from __future__ import annotations

import argparse
import sys
import typing
from importlib import resources

from .scenarios import SCENARIOS, CheckFailure, ScenarioConfig, aborted, list_scenarios
from .scenarios import run_scenario
from .serialize import write_run

# each config key parses to its ScenarioConfig field's type, None stripped
_KEY_TYPES = {
    key: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for key, hint in typing.get_type_hints(ScenarioConfig).items()
    if key != "scenario"
}


class UsageError(Exception):
    pass


def schema_path() -> str:
    return str(resources.files("wavefields").joinpath("config_schema.txt"))


def parse_config_file(path: str) -> dict:
    """Flat key = value file, see config_schema.txt."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _KEY_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _KEY_TYPES[key](text)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value {text!r} for {key}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wavefields",
        description="Run prepared wave-field scenarios and audit the results.",
        epilog=f"Config file schema: {schema_path()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run one scenario",
        description="Run one scenario, print its audit, optionally write outputs.",
        epilog=f"Config file schema: {schema_path()}",
    )
    run.add_argument("scenario", help="scenario name, see 'wavefields list'")
    run.add_argument("--config", help="key = value configuration file")
    run.add_argument("--seed", type=int, help="random seed override")
    run.add_argument("--out", help="output directory for run files")
    run.add_argument("--trials", type=int, help="ensemble trials (0 disables)")
    run.add_argument("--snapshot-every", type=int, help="frame cadence in steps")

    sub.add_parser("list", help="list the available scenarios")
    return parser


def _report(result) -> None:
    summary = result.summary
    for check in summary["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"{mark}  {check['name']}{detail}")
    state = "ok" if summary["passed"] else "FAILED"
    print(f"scenario {summary['scenario']}: {state} after {summary['steps']} steps")


def _write(result) -> None:
    if result.config.out_dir:
        for path in write_run(result, result.config.out_dir):
            print(f"wrote {path}")


def _cmd_run(args) -> int:
    if args.scenario not in SCENARIOS:
        known = ", ".join(SCENARIOS)
        raise UsageError(f"unknown scenario {args.scenario!r}; known: {known}")
    values = parse_config_file(args.config) if args.config else {}
    flags = {
        "seed": args.seed,
        "trials": args.trials,
        "snapshot_every": args.snapshot_every,
        "out_dir": args.out,
    }
    values.update({k: v for k, v in flags.items() if v is not None})
    try:
        cfg = ScenarioConfig(scenario=args.scenario, **values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    try:
        result = run_scenario(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except CheckFailure as exc:
        _report(exc.result)
        _write(exc.result)
        return 2
    except RuntimeError as exc:
        # an engine audit tripped mid-run, the same class of failure as a check
        print(f"wavefields: run failed: {exc}", file=sys.stderr)
        _write(aborted(cfg, exc))
        return 2
    _report(result)
    _write(result)
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name, _ in list_scenarios())
    for name, blurb in list_scenarios():
        print(f"{name:<{width}}  {blurb}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except UsageError as exc:
        print(f"wavefields: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"wavefields: i/o error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # one raised outside a run, as by writing its outputs
        print(f"wavefields: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
