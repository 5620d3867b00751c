"""Command-line entry point.

Subcommands: gramian-dist, motc-track, grad-flow, unitary-track, efficiency.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.

A numerical failure inside an integration leg (a step below ds_min, a
Gramian solve left with too large a residual, a non-finite field) ends only
that leg: its summary records termination "stall" or "error" and the error
text, and the run exits 0.  So does a failed sample of the Gramian survey,
counted under "failures".  A failure outside any leg, such as a geodesic
generator that five nudges do not move off the log branch cut, exits 3.

gramian-dist spreads its samples over threads when they are large enough
(``motc.dynamics.spread``); no flag sets the number of workers.  Its Gamma
columns (``cond_gamma_thermal``, ``cond_gamma_pure``) hold the largest
observable count given: ``--observables 2,4,10`` reports m = 10 alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ConfigError, MotcError
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    run_efficiency_comparison,
    run_gradient_flow,
    run_gramian_distribution,
    run_motc_experiment,
    run_unitary_experiment,
)
from .io import emit_results

_RUNNERS = {
    "gramian-dist": run_gramian_distribution,
    "motc-track": run_motc_experiment,
    "grad-flow": run_gradient_flow,
    "unitary-track": run_unitary_experiment,
    "efficiency": run_efficiency_comparison,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON config file (flags override it)")
    p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    p.add_argument("--out", default="out", metavar="DIR", help="output directory")
    p.add_argument("--format", default="both", choices=["csv", "json", "both"])
    p.add_argument("--samples", type=int, help="number of random-field samples")
    p.add_argument(
        "--observables",
        metavar="M-LIST",
        help="comma-separated observable counts, e.g. 2,4,10",
    )
    p.add_argument("--correction", metavar="SPEC", help="off | beta=<x>")
    p.add_argument("--free-fn", dest="free_fn", metavar="SPEC", help="zero | fluence:eta=<x>")
    p.add_argument(
        "--integrator", metavar="SPEC", help="euler:ds=<x> | rkck:atol=<x>,rtol=<x>"
    )
    p.add_argument("--state", metavar="SPEC", help="pure | thermal | rank<k>")
    p.add_argument("--t-final", dest="t_final", type=float, help="final time T")
    p.add_argument("--grid", dest="q", type=int, help="time-grid points q")
    p.add_argument("--levels", dest="n_levels", type=int, help="system dimension N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motc",
        description="Deterministic quantum multiobservable control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("gramian-dist", "condition-number distributions of G and Gamma"),
        ("motc-track", "multiobservable geodesic tracking for each m"),
        ("grad-flow", "dynamical gradient flow of the first observable"),
        ("unitary-track", "geodesic tracking of the propagator in U(N)"),
        ("efficiency", "accepted-step comparison of MOTC vs gradient flow"),
    ]:
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
    base["experiment"] = args.command
    # A flag that sets a config field has the field's name as its dest.
    fields = ExperimentConfig.__dataclass_fields__
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    if args.observables is not None:
        try:
            overrides["observables"] = tuple(int(x) for x in args.observables.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --observables list {args.observables!r}") from exc
    base.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(base)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = _RUNNERS[args.command](config)
        paths = emit_results(result, config, args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MotcError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
