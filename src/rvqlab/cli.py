"""Command-line entry point: run experiment presets, validate configs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import RvqlabError
from .harness import _PRESETS, ExperimentConfig, run, validate


def _load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_json(Path(path).read_text(encoding="utf-8"))


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "threads", None) is not None:
        config.threads = args.threads
    if getattr(args, "out", None) is not None:
        config.output_dir = args.out
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rvqlab",
        description="limited-feedback beamforming loss experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--threads", type=int)
    p_run.add_argument("--out")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)

    p_fig = sub.add_parser("figure", help="run a named preset with defaults")
    p_fig.add_argument("preset", choices=[name for name, p in _PRESETS.items()
                                          if not p.model])
    p_fig.add_argument("--seed", type=int)
    p_fig.add_argument("--threads", type=int)
    p_fig.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            issues = validate(_load_config(args.config))
            if issues:
                for line in issues:
                    print(line)
                return 1
            print("ok")
            return 0
        if args.command == "run":
            config = _apply_overrides(_load_config(args.config), args)
        else:
            config = _apply_overrides(ExperimentConfig(experiment=args.preset),
                                      args)
        manifest = run(config)
        for name in manifest["files"]:
            print(f"wrote {Path(config.output_dir) / name}")
        return 0
    except (RvqlabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
