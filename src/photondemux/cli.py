"""Command-line front end.

Four verbs cover the toolkit:

- ``analytic``: closed-form efficiency table to CSV.
- ``simulate``: one full slot-level run from a config file, JSON report.
- ``sweep``: a simulation per grid point of the config's sweep section,
  CSV of estimates.
- ``calibrate``: measure the delivered-photon probability in-stream and
  report the run with that measured value.

The command line alone loads the scenario file, applies the
``--seed``/``--slots``/``--trials`` overrides, and picks the destination:
a verb's value is written by ``write_report`` (JSON) or ``write_rows``
(CSV) to ``--out`` or to stdout, the same bytes either way.

Exit status is 0 on success; 2 for configuration problems (every
violation is listed), 3 for I/O failures, 1 for anything else.  Progress
goes to stderr so written artifacts stay clean.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_scenario, override_controls
from .model import ConfigError, RoutingStrategy
from .pipeline import run_analytic, run_calibrate, run_simulation, run_sweep, write_report, write_rows


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario file (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--slots", type=int, default=None, help="override run.slots_per_trial")
    parser.add_argument("--trials", type=int, default=None, help="override run.trials")
    parser.add_argument("--out", default=None, help="write the report/CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photondemux",
        description="Simulate and analyze serial-to-parallel conversion of a heralded photon stream.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_analytic = sub.add_parser("analytic", help="closed-form efficiency table (CSV)")
    p_analytic.add_argument("--n-max", type=int, default=8, help="largest photon number (default 8)")
    p_analytic.add_argument("--eta-sw", type=float, default=1.0,
                            help="composite switching efficiency (default 1.0)")
    p_analytic.add_argument("--out", default=None, help="CSV path (default: stdout)")

    for verb, help_text in (
        ("simulate", "run one scenario end to end (JSON report)"),
        ("sweep", "run every grid point of the scenario's sweep section (CSV)"),
        ("calibrate", "measure the delivered-photon probability in-stream"),
    ):
        p = sub.add_parser(verb, help=help_text)
        _add_run_flags(p)
        if verb == "sweep":
            p.add_argument("--strategy", choices=[s.value for s in RoutingStrategy],
                           default=None, help="restrict the sweep to one strategy")
    return parser


def _echo(text: str) -> None:
    print(text, file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "analytic":
            result = run_analytic(args.n_max, args.eta_sw)
        else:
            scenario = override_controls(load_scenario(args.config), seed=args.seed,
                                         slots_per_trial=args.slots, trials=args.trials)
            if args.verb == "sweep":
                result = run_sweep(scenario, strategy=args.strategy, progress=_echo)
            else:
                entry = run_calibrate if args.verb == "calibrate" else run_simulation
                result = entry(scenario, progress=_echo)
        write = write_rows if isinstance(result, list) else write_report
        write(result, sys.stdout if args.out is None else args.out)
    except ConfigError as err:
        for violation in err.violations:
            print(f"error: config: {violation}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: run: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
