"""Time each command of the command line from a fresh interpreter.

Usage, from the root of a checkout::

    python tools/cold_start.py [--runs N] [ROOT ...]

Each run starts ``python -m mpemba_thermometry.cli COMMAND --model MODEL`` as
a new process at the default config, with ``ROOT/src`` on ``PYTHONPATH`` and
the output in a temporary directory, and takes its wall time from start to
exit: interpreter start-up, imports, the command and its artifact.  Every
command of both models runs ``N`` times (default 10) for every ROOT (default:
this checkout).  With several ROOTs the runs alternate between them, so
that two checkouts, such as a parent and a change, see the same load on the
host.  The environment is inherited, so ``PYTHONDONTWRITEBYTECODE`` and a
warm or cold bytecode cache apply as they do to the caller.

The output is one line per ROOT, model and command: the median and the
minimum wall time in milliseconds.  A run that exits non-zero stops the
script with its stderr.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("relax", "qfi", "theorem", "protocol")
MODELS = ("qubit", "lambda")


def _wall_time(root: Path, model: str, command: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "mpemba_thermometry.cli", command, "--model", model]
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        done = subprocess.run(
            [*argv, "--output", out], env=env, cwd=out, capture_output=True, text=True
        )
        elapsed = time.perf_counter() - start
    if done.returncode:
        sys.exit(f"{root}: {command} --model {model} exited {done.returncode}\n{done.stderr}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per command and root")
    parser.add_argument("roots", nargs="*", type=Path, default=[ROOT], help="checkouts to time")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    cases = [(model, command) for model in MODELS for command in COMMANDS]
    times: dict[tuple, list[float]] = {
        (root, *case): [] for root in args.roots for case in cases
    }
    for _ in range(args.runs):
        for case in cases:
            for root in args.roots:
                times[(root, *case)].append(_wall_time(root, *case))
    print("root\tmodel\tcommand\tmedian_ms\tmin_ms")
    for (root, model, command), samples in times.items():
        median, best = 1e3 * statistics.median(samples), 1e3 * min(samples)
        print(f"{root}\t{model}\t{command}\t{median:.1f}\t{best:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
