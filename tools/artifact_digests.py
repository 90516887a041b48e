"""Digest the command line's artifacts over a fixed run set.

Usage, from the root of a checkout::

    python tools/artifact_digests.py OUT_DIR > digests.json

Every config of the set runs through ``cli.main`` in this process, once per
command (``relax``, ``qfi``, ``theorem``, ``protocol``), writing its artifacts
under ``OUT_DIR/runs/<run>``.  The output is one JSON object, ``{run:
[exit code, sha256]}``, where the sha256 covers each artifact's name and
bytes in name order, then the run's stdout and stderr with OUT_DIR replaced
by a placeholder.  A warning is written to stderr as ``Category: message``,
without the file and line that raised it, and every run starts with the
warning filters reset, so a warning that shows once per process (such as
``ColdLimitWarning``) shows in every run that raises it and no digest depends
on the order of the runs.

To check that a change keeps every artifact's bytes, run the script in the
parent checkout and in the change, each with an empty OUT_DIR, and diff the
two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpemba_thermometry.cli import main  # noqa: E402

COMMANDS = ("relax", "qfi", "theorem", "protocol")
MODELS = ("qubit", "lambda")
SEEDS = (1, 12345)
SHOTS = (0, 1, 10, 10_000)
PREPARATIONS = ("hot", "equilibrium")
# crossed with every model, seed, shot count and preparation
VARIANTS = {
    "defaults": {},
    "grid301": {"t_steps": 301, "calib_t_points": 13},
    "T0.35": {"temperature": 0.35},
    "T0.66-alpha3": {"temperature": 0.66, "alpha": 3},
    "cold": {"temperature": 0.001},
    "margin0.01": {"delta_policy": 0.01},
    "grid2001": {"t_steps": 2001, "calib_t_points": 41},
}
# one config each, on top of the defaults
EXTRAS = {
    "qubit-surface": {"qfi_mode": "surface"},
    "lambda-total-variation": {"model": "lambda", "norm_kind": "total_variation"},
    "qubit-pure-hot": {"p0_hot": 1.0},
    "qubit-alpha20-cold0.01": {"alpha": 20, "p0_cold": 0.01},
}


def configs() -> dict[str, dict[str, object]]:
    """The run set's configs by name, as ``key = value`` settings."""
    out = {}
    grid = itertools.product(MODELS, SEEDS, SHOTS, PREPARATIONS, VARIANTS.items())
    for model, seed, shots, preparation, (variant, settings) in grid:
        name = f"{model}-seed{seed}-shots{shots}-{preparation}-{variant}"
        out[name] = {
            "model": model, "seed": seed, "shots": shots, "preparation": preparation, **settings
        }
    out.update(EXTRAS)
    return out


def _show(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"{category.__name__}: {message}\n")


def digest(command: str, config: Path, out: Path, placeholder: str) -> list:
    """Run one command on one config; its exit code and the sha256 of what it wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
        warnings.catch_warnings(),
    ):
        warnings.resetwarnings()
        warnings.simplefilter("default")
        warnings.showwarning = _show
        code = main([command, "--config", str(config), "--output", str(out)])
    h = hashlib.sha256()
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(f"{path.relative_to(out).as_posix()}\0".encode())
            h.update(path.read_bytes())
            h.update(b"\0")
    for text in (stdout.getvalue(), stderr.getvalue()):
        h.update(text.replace(placeholder, "OUT_DIR").encode())
        h.update(b"\0")
    return [code, h.hexdigest()]


def run(out_dir: Path) -> dict[str, list]:
    if out_dir.exists() and any(out_dir.iterdir()):
        raise SystemExit(f"{out_dir} is not empty; earlier artifacts would enter the digests")
    config_dir = out_dir / "configs"
    config_dir.mkdir(parents=True)
    results = {}
    for name, settings in configs().items():
        config = config_dir / f"{name}.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        for command in COMMANDS:
            run_name = f"{name}-{command}"
            results[run_name] = digest(command, config, out_dir / "runs" / run_name, str(out_dir))
    return results


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/artifact_digests.py OUT_DIR")
    json.dump(run(Path(sys.argv[1]).resolve()), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
