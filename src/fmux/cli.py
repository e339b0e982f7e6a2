"""Command-line entry point: run a named scenario and print its summary."""

from __future__ import annotations

import argparse
import sys

from .scenarios import SCENARIOS, ConfigError, load_config, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmux",
        description="Frequency-multiplexed heralded-photon source simulator.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="named scenario to run")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="INI file overriding any subset of the defaults")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--outdir", metavar="DIR", default=None,
                        help="output directory (default fmux-out/<scenario>)")
    parser.add_argument("--grid-scale", type=float, default=None,
                        help="multiply quadrature grid sizes, e.g. 0.25 for quick runs")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="echo configuration and output paths")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = args.outdir if args.outdir is not None else f"fmux-out/{args.scenario}"
    try:
        cfg = load_config(
            args.scenario,
            config_path=args.config,
            seed=args.seed,
            outdir=outdir,
            grid_scale=args.grid_scale,
        )
        if args.verbose:
            for dotted in sorted(cfg.params):
                print(f"# {dotted} = {cfg.params[dotted]}")
        summary = run_scenario(cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    for line in summary["lines"]:
        print(line)
    if args.verbose:
        for path in summary["outputs"]:
            print(f"# wrote {path}")
        print(f"# wall time {summary['wall_time_s']:.2f} s")
    return 0 if summary["all_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
