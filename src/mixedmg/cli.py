"""Command-line interface.

Subcommands
-----------
run          run the sweep described by a config file, write a CSV report
bounds       print the constants table for given parameters (no solve)
sweep        grid over problem sizes and formats without a config file
progressive  per-size format selection keeping sqrt(kappa)*u near a target
validate     re-check the pass flags of an existing CSV

Exit codes: 0 when every assertion passes, 1 on a bound/flag violation,
2 on a bad configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .bounds import BoundInputs, compute_constants
from .harness import (
    ConfigError,
    ExperimentConfig,
    load_config,
    progressive_study,
    render_csv,
    run_experiment,
    validate_csv,
    write_csv,
)
from .precision import PrecisionFormat

# the bounds command takes every field of BoundInputs but eps as a flag
_BOUND_FIELDS = [f.name for f in fields(BoundInputs)[1:]]


def _add_run(sub):
    p = sub.add_parser("run", help="run a config-file experiment")
    p.add_argument("--config", required=True, help="INI experiment file")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--bits", type=int, nargs="+", default=None)
    p.add_argument("--pi-target", type=float, default=None)


def _add_bounds(sub):
    p = sub.add_parser("bounds", help="print the constants table, no solve")
    p.add_argument("--eps", type=float, default=None,
                   help="unit roundoff (alternative to --bits)")
    p.add_argument("--bits", type=int, default=None,
                   help="significand bits, sets eps = 2**-bits")
    for name in _BOUND_FIELDS:
        p.add_argument("--" + name.lower().replace("_", "-"), dest=name, required=True,
                       type=int if name in ("m_A", "m_P") else float)
    p.add_argument("--rho-star", type=float, default=float("nan"))


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="grid over sizes and formats")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--bits", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    p.add_argument("--seed", type=int, default=ExperimentConfig.rng_seed)
    p.add_argument("--problem", default=ExperimentConfig.problem)
    p.add_argument("--omega", type=float, default=ExperimentConfig.omega)
    p.add_argument("--out", default=None)


def _add_progressive(sub):
    p = sub.add_parser("progressive", help="constant pi_dot across sizes")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--pi-target", type=float, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=ExperimentConfig.rng_seed)
    p.add_argument("--problem", default=ExperimentConfig.problem)


def _add_validate(sub):
    p = sub.add_parser("validate", help="re-check pass flags in a CSV")
    p.add_argument("--csv", required=True)


def _report(records, out) -> int:
    """Write the CSV to ``out`` (stdout when unset); exit 1 on a violation."""
    if out:
        write_csv(records, out)
        print(f"wrote {len(records)} trial records to {out}")
    else:
        sys.stdout.write(render_csv(records))
    failed = sum(not r.passed for r in records)
    if failed:
        print(f"BOUND VIOLATION in {failed} / {len(records)} trials",
              file=sys.stderr)
        return 1
    print(f"all {len(records)} trials satisfy their bounds", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    if args.bits is not None and args.pi_target is not None:
        raise ConfigError("run: give at most one of --bits / --pi-target")
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.bits is not None:
        overrides["bits"] = tuple(args.bits)
        overrides["pi_target"] = None
    if args.pi_target is not None:
        overrides["bits"] = ()
        overrides["pi_target"] = args.pi_target
    if args.out is not None:
        overrides["output_path"] = args.out
    if overrides:
        config = replace(config, **overrides)
    return _report(run_experiment(config), config.output_path)


def _cmd_bounds(args) -> int:
    if (args.eps is None) == (args.bits is None):
        print("bounds: give exactly one of --eps / --bits", file=sys.stderr)
        return 2
    eps = args.eps if args.eps is not None else PrecisionFormat(args.bits).unit_roundoff
    inputs = BoundInputs(eps, **{name: getattr(args, name) for name in _BOUND_FIELDS})
    report = compute_constants(
        inputs, rho_star=args.rho_star,
        significand_bits=args.bits if args.bits is not None else 0,
    )
    print(report.to_json())
    return 0


def _cmd_sweep(args) -> int:
    all_records = []
    for size in args.sizes:
        config = ExperimentConfig(
            problem=args.problem, size=size, levels=2, omega=args.omega,
            bits=tuple(args.bits), trials=args.trials, rng_seed=args.seed,
        )
        all_records.extend(run_experiment(config))
    return _report(all_records, args.out)


def _cmd_progressive(args) -> int:
    summary = progressive_study(
        args.sizes, args.pi_target, args.trials,
        problem=args.problem, seed=args.seed,
    )
    print(json.dumps(summary, indent=2))
    return 0 if summary["all_ok"] else 1


def _cmd_validate(args) -> int:
    ok, problems = validate_csv(args.csv)
    for msg in problems:
        print(msg, file=sys.stderr)
    print("OK" if ok else "INVALID")
    return 0 if ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "progressive": _cmd_progressive,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixedmg",
        description="mixed-precision two-grid experiments and error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_bounds(sub)
    _add_sweep(sub)
    _add_progressive(sub)
    _add_validate(sub)
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
