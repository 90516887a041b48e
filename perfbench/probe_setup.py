"""Set-up probe: a fresh interpreter imports the package, builds the CLI parser
and loads one config file, running no command.

Usage: python3 perfbench/probe_setup.py ROOT CONFIG
"""

import sys


def main(root: str, config_path: str) -> int:
    sys.path.insert(0, f"{root}/src")
    from mpemba_thermometry import cli, config

    args = cli._build_parser().parse_args(["relax", "--config", config_path, "--output", "."])
    config.load_config(args.config, seed=args.seed, model=args.model)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
