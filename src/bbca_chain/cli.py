"""Command-line front end: run, campaign, explore.

Exit codes: 0 all checks pass, 1 a property was violated, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .identity import ConfigError
from .scenario import load_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbca-chain",
        description="Deterministic consensus simulator and property checker")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and report")
    run.add_argument("--config", required=True)
    run.add_argument("--out", help="write the report here instead of stdout")

    campaign = sub.add_parser("campaign", help="sweep seeds over a scenario")
    campaign.add_argument("--config", required=True)
    campaign.add_argument("--count", type=int, required=True)
    campaign.add_argument("--jobs", type=int, default=1)

    explore = sub.add_parser("explore",
                             help="bounded-exhaustive interleaving check")
    explore.add_argument("--config", required=True)
    explore.add_argument("--depth", type=int, required=True)
    explore.add_argument("--max-leaves", type=int, default=None)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "run":
            outcome = harness.run_config(config)
            _emit(harness.render_report(outcome), args.out)
            return 0 if outcome.ok else 1
        if args.command == "campaign":
            if args.count < 1:
                raise ConfigError("--count must be at least 1")
            if args.jobs < 1:
                raise ConfigError("--jobs must be at least 1")
            outcome = harness.run_campaign(config, args.count, args.jobs)
            _emit(harness.render_campaign_report(outcome), None)
            return 0 if outcome.ok else 1
        if args.command == "explore":
            if config.explore is None:
                raise ConfigError(
                    f"{args.config}: explore command needs an 'explore' section")
            if args.depth < 0:
                raise ConfigError("--depth must be at least 0")
            if args.max_leaves is not None and args.max_leaves < 1:
                raise ConfigError("--max-leaves must be at least 1")
            result = harness.run_explore(config, args.depth, args.max_leaves)
            _emit(harness.render_explore_report(config, args.depth, result),
                  None)
            return 0 if result.ok else 1
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
