"""Command-line front end: relax, qfi, theorem, protocol.

Every run is a pure function of its configuration — outputs carry no
timestamps or environment state, so identical invocations produce
byte-identical files.  Numbers are written with 17 significant digits, enough
to round-trip float64 exactly.  Float tables are written from blocks of
columns (see :func:`_csv`), so each distinct value is formatted once: a
column that is one value on every row of its block, or an array that several
blocks share, is not formatted again for each row.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import qubit as qb
from .certificates import verify_theorem
from .config import ConfigError, RunConfig, load_config
from .fisher import DivergentFisherError
from .instances import (
    make_lambda_pair, make_lambda_probe, make_qubit_pair, make_qubit_probe, measured_level
)
from .mpemba import TrajectoryOrderingError, distance_series, qfi_gain
from .protocol import (
    CELLS_ESTIMATE,
    DegenerateModelError,
    calibrate_equilibrium,
    dynamical_calibration,
    fisher_map,
    mle_temperature,
    nearest_knot,
    sample_population,
)
from .spectral import (
    DegenerateSpectrumError,
    RateMatrixError,
    build_lambda_rate_matrix,
)

__all__ = ["main"]

_NUMERICAL_ERRORS = (
    DivergentFisherError,
    DegenerateSpectrumError,
    RateMatrixError,
    TrajectoryOrderingError,
    DegenerateModelError,
    qb.UnphysicalRateError,
    ZeroDivisionError,
    FloatingPointError,
    OverflowError,
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def _write_text(path: Path, content: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as handle:
            handle.write(content)
    except OSError as exc:
        # an --output that names a file, or a directory that cannot be written
        raise ConfigError(f"cannot write output: {exc}") from exc


def _csv(header: list[str], rows, trailer: list[str] | None = None) -> str:
    """CSV text from blocks of columns, or from lists of cells.

    Each item of ``rows`` is a block or a list of cells.  A block is a tuple
    of columns, each a 1-D array or a float that is the same on every row of
    the block.  Each distinct value is formatted once: a float column is
    literal text in the block's row template, and an array that several
    blocks pass as the same object is formatted to strings once and filled in
    through ``%s``.  Every other array fills a ``%.17g`` slot.  The bytes are
    those :func:`_fmt` writes cell by cell, as it does for a list of cells.
    A block with no array column, or with array columns of unequal length,
    raises ``ValueError``.
    """
    blocks = [block for block in rows if isinstance(block, tuple)]
    arrays = Counter(id(c) for block in blocks for c in block if isinstance(c, np.ndarray))
    shared: dict[int, list[str]] = {}
    lines = [",".join(header)]
    for block in rows:
        if not isinstance(block, tuple):
            lines.append(",".join(_fmt(cell) for cell in block))
            continue
        slots, columns = [], []
        for column in block:
            if not isinstance(column, np.ndarray):
                slots.append(_fmt(column))  # a float's text holds no "%"
            elif arrays[id(column)] > 1:
                if id(column) not in shared:
                    shared[id(column)] = ["%.17g" % v for v in column.tolist()]
                slots.append("%s")
                columns.append(shared[id(column)])
            else:
                slots.append("%.17g")
                columns.append(column.tolist())
        if not columns:
            raise ValueError("a table block needs at least one array column")
        template = ",".join(slots)
        lines.extend(template % row for row in zip(*columns, strict=True))
    if trailer:
        lines.extend(f"# {entry}" for entry in trailer)
    return "\n".join(lines) + "\n"


def _bath(config: RunConfig, temperature: float):
    """The model's bath at ``temperature``: the qubit's parameters or the ladder's generator."""
    if config.model == "qubit":
        return qb.QubitBathParams(config.omega0, config.gamma, temperature, config.alpha)
    return build_lambda_rate_matrix(
        config.e1, config.e2, config.e3, config.kappa1, config.kappa2, temperature
    )


def _build_pair(config: RunConfig, temperature: float):
    """The configured probe pair against a bath at ``temperature``."""
    if config.model == "qubit":
        return make_qubit_pair(_bath(config, temperature), config.p0_hot, config.p0_cold)
    norm = config.norm_kind or "euclidean"
    return make_lambda_pair(_bath(config, temperature), config.p_hot, config.p_cold, norm_kind=norm)


def _build_probe(config: RunConfig, hot: bool, temperature: float):
    """The hot preparation (or, with ``hot`` false, the thermalized probe) at ``temperature``."""
    if config.model == "qubit":
        return make_qubit_probe(_bath(config, temperature), config.p0_hot if hot else None)
    return make_lambda_probe(_bath(config, temperature), config.p_hot if hot else None)


def _time_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.t_steps)


def _cmd_relax(config: RunConfig, out_dir: Path) -> int:
    """Relaxation trajectories, distances, and the inversion record."""
    pair = _build_pair(config, config.temperature)
    times = _time_grid(config)
    record = pair.detect(delta_tol=config.delta_tol, times=times)
    hot = pair.hot_population(times)
    cold = pair.cold_population(times)
    eq = pair.equilibrium
    d_hot = distance_series(hot, eq, record.norm_kind)
    d_cold = distance_series(cold, eq, record.norm_kind)
    hot, cold, eq = (measured_level(states, eq) for states in (hot, cold, eq))
    content = _csv(
        ["t", "p_hot", "p_cold", "p_eq", "d_hot", "d_cold"],
        [(times, hot, cold, float(eq), d_hot, d_cold)],
        record.to_lines(),
    )
    _write_text(out_dir / "relax.csv", content)
    return 0


def _cmd_qfi(config: RunConfig, out_dir: Path) -> int:
    """Fisher-information trajectories, or the preparation-time surface."""
    times = _time_grid(config)
    if config.qfi_mode == "trajectory":
        pair = _build_pair(config, config.temperature)
        f_eq = pair.equilibrium_fisher()
        f_hot = pair.hot_fisher(times)
        f_cold = pair.cold_fisher(times)
        content = _csv(
            ["t", "f_hot", "f_cold", "f_eq", "gain_log10"],
            [(times, f_hot, f_cold, float(f_eq), qfi_gain(f_hot, f_eq))],
        )
        _write_text(out_dir / "qfi.csv", content)
        return 0
    if config.model != "qubit":
        raise ConfigError("qfi_mode = surface requires model = qubit")
    probe = partial(make_qubit_probe, _bath(config, config.temperature))
    p_eq = probe(None).population(0.0)
    preparations = list(np.linspace(config.p0_min, config.p0_max, config.p0_steps))
    if not any(abs(p - p_eq) < 1e-15 for p in preparations):
        preparations.append(p_eq)  # the equilibrium-prepared reference row
    preparations.sort()
    blocks = [(float(p0), times, probe(p0).fisher(times)) for p0 in preparations]
    content = _csv(["p0", "t", "f"], blocks)
    _write_text(out_dir / "qfi.csv", content)
    return 0


def _cmd_theorem(config: RunConfig, out_dir: Path) -> int:
    """Run the transient-advantage verification and write its certificate."""
    pair = _build_pair(config, config.temperature)
    certificate = verify_theorem(pair, t_grid=_time_grid(config), delta_tol=config.delta_tol)
    _write_text(out_dir / "theorem_certificate.txt", certificate.to_text())
    return 0


def _cmd_protocol(config: RunConfig, out_dir: Path) -> int:
    """End-to-end pipeline: calibrate, map, and estimate the temperature."""
    probe_at = partial(_build_pair, config)
    # the map and the likelihood model only the interrogated preparation: a
    # probe per scanned temperature checks no other one, up to 1.5 calib_t_max
    interrogated = partial(_build_probe, config, config.preparation == "hot")

    def population_fn(t, temp: float):
        return interrogated(temp).population(t)

    def fisher_fn(t: float, temp: float) -> float:
        return interrogated(temp).fisher(t)

    temps = np.linspace(config.calib_t_min, config.calib_t_max, config.calib_t_points)
    times = _time_grid(config)
    steps = ["calibration", "inversion_map", "fisher_map", "estimate"]
    manifest: list[str] = []
    status = 0
    try:
        curve = calibrate_equilibrium(probe_at, temps, config.shots, config.seed)
        _write_text(
            out_dir / "calibration.csv",
            _csv(["temperature", "p_fit"], [(curve.knots, curve.values)]),
        )
        manifest.append("step_calibration = ok")

        crossings = dynamical_calibration(
            probe_at, temps, times, config.shots, config.seed, delta_policy=config.delta_policy
        )
        rows = [[t, crossing] for t, crossing in zip(temps, crossings, strict=True)]
        _write_text(out_dir / "inversion_map.csv", _csv(["temperature", "t_crossing"], rows))
        manifest.append("step_inversion_map = ok")

        fi_map = fisher_map(population_fn, times, temps, shots=config.shots, seed=config.seed)
        # temperature-major rows: every time of the first temperature, then the next
        blocks = [
            (temp, fi_map.times, fi_map.values[:, j])
            for j, temp in enumerate(fi_map.temperatures.tolist())
        ]
        _write_text(out_dir / "fisher_map.csv", _csv(["temperature", "time", "fisher"], blocks))
        manifest.append("step_fisher_map = ok")

        p_eq_true = _build_probe(config, False, config.temperature).population(0.0)
        pilot = sample_population(p_eq_true, config.shots, config.seed, cell=CELLS_ESTIMATE)
        column = nearest_knot(probe_at, fi_map.temperatures, pilot.successes / pilot.shots)
        t_interrogate = fi_map.argmax_time(column)
        record = sample_population(
            population_fn(t_interrogate, config.temperature),
            config.shots,
            config.seed,
            time=t_interrogate,
            preparation=config.preparation,
            cell=CELLS_ESTIMATE + 1,
        )
        interval = (0.5 * float(temps[0]), 1.5 * float(temps[-1]))
        result = mle_temperature([record], population_fn, interval, fisher_fn=fisher_fn)
        _write_text(
            out_dir / "estimate.csv",
            _csv(
                ["t_hat", "stderr", "log_likelihood", "shots"],
                [[result.t_hat, result.stderr, result.log_likelihood, record.shots]],
            ),
        )
        manifest.append("step_estimate = ok")
    except _NUMERICAL_ERRORS as exc:
        # each finished step has written its line, so the failing step is the next
        failed = len(manifest)
        manifest.append(f"step_{steps[failed]} = failed: {exc}")
        manifest.extend(f"step_{later} = skipped" for later in steps[failed + 1 :])
        print(f"protocol step {steps[failed]} failed: {exc}", file=sys.stderr)
        status = 3
    _write_text(out_dir / "manifest.txt", "\n".join(manifest) + "\n")
    return status


_COMMANDS = {
    "relax": _cmd_relax,
    "qfi": _cmd_qfi,
    "theorem": _cmd_theorem,
    "protocol": _cmd_protocol,
}


@cache  # one parser per process: building it costs some 20 times what parsing does
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpemba-thermo",
        description="Anomalous-relaxation enhanced temperature estimation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("relax", "relaxation trajectories, distances, and inversion detection"),
        ("qfi", "Fisher-information trajectories or the preparation-time surface"),
        ("theorem", "transient-advantage verification certificate"),
        ("protocol", "sampled calibration and temperature-estimation pipeline"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="key = value config file")
        cmd.add_argument("--output", type=str, default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--model",
            type=str,
            default=None,
            choices=("qubit", "lambda"),
            help="override the config model",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, model=args.model)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.output)
    try:
        return _COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # parameter combinations the model constructors reject are
        # configuration problems, not numerics
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
