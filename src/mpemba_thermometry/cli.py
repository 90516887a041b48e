"""Command-line front end: relax, qfi, theorem, protocol.

Every run is a pure function of its configuration — outputs carry no
timestamps or environment state, so identical invocations produce
byte-identical files.  Numbers are written with 17 significant digits, enough
to round-trip float64 exactly.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import qubit as qb
from .certificates import verify_theorem
from .config import ConfigError, RunConfig, load_config
from .fisher import (
    DivergentFisherError,
    qfi_equilibrium,
    qfi_qubit_closed_form,
)
from .instances import make_lambda_pair, make_qubit_pair
from .mpemba import TrajectoryOrderingError, distance_series, qfi_gain
from .oracle import IntegrationUnstableError
from .protocol import (
    CELLS_ESTIMATE,
    DegenerateModelError,
    ShotRecord,
    calibrate_equilibrium,
    dynamical_calibration,
    effective_temperature,
    fisher_map,
    mle_temperature,
    sample_population,
)
from .spectral import (
    AmbiguousTrackingError,
    DegenerateSpectrumError,
    RateMatrixError,
    build_lambda_rate_matrix,
)

__all__ = ["main", "cmd_relax", "cmd_qfi", "cmd_theorem", "cmd_protocol"]

_NUMERICAL_ERRORS = (
    DivergentFisherError,
    DegenerateSpectrumError,
    AmbiguousTrackingError,
    RateMatrixError,
    TrajectoryOrderingError,
    IntegrationUnstableError,
    DegenerateModelError,
    qb.UnphysicalRateError,
    ZeroDivisionError,
    FloatingPointError,
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(content)


def _csv(header: list[str], rows, trailer: list[str] | None = None) -> str:
    """CSV text from a list of cell lists, or from a 2-D float array.

    A float array goes through one ``%.17g`` row template, which writes the
    same bytes as :func:`_fmt` does cell by cell.
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        template = ",".join(["%.17g"] * rows.shape[1])
        lines.extend(template % tuple(row) for row in rows.tolist())
    else:
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    if trailer:
        lines.extend(f"# {entry}" for entry in trailer)
    return "\n".join(lines) + "\n"


def _qubit_params(config: RunConfig, temperature: float) -> qb.QubitBathParams:
    return qb.QubitBathParams(
        omega0=config.omega0,
        gamma=config.gamma,
        temperature=temperature,
        alpha=config.alpha,
    )


def _build_pair(config: RunConfig):
    if config.model == "qubit":
        return make_qubit_pair(
            _qubit_params(config, config.temperature), config.p0_hot, config.p0_cold
        )
    rate_matrix = build_lambda_rate_matrix(
        config.e1,
        config.e2,
        config.e3,
        config.kappa1,
        config.kappa2,
        config.temperature,
    )
    norm = config.norm_kind or "euclidean"
    return make_lambda_pair(
        rate_matrix, np.array(config.p_hot), np.array(config.p_cold), norm_kind=norm
    )


def _time_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.t_steps)


def cmd_relax(config: RunConfig, out_dir: Path) -> int:
    """Relaxation trajectories, distances, and the inversion record."""
    pair = _build_pair(config)
    times = _time_grid(config)
    record = pair.detect(delta_tol=config.delta_tol, times=times)
    hot = pair.hot_population(times)
    cold = pair.cold_population(times)
    eq = pair.equilibrium
    d_hot = distance_series(hot, eq, record.norm_kind)
    d_cold = distance_series(cold, eq, record.norm_kind)
    if hot.ndim == 2:
        # scalar columns carry the top-level (most informative) population
        hot, cold, eq = hot[:, -1], cold[:, -1], eq[-1]
    rows = np.column_stack([times, hot, cold, np.full(times.shape, eq), d_hot, d_cold])
    trailer = [
        f"inversion_detected = {'true' if record.detected else 'false'}",
        f"t_star = {_fmt(record.t_star) if record.detected else 'none'}",
        f"delta_tol = {_fmt(record.delta_tol)}",
        f"norm_kind = {record.norm_kind}",
        f"persistent = "
        + ("none" if record.persistent is None else ("true" if record.persistent else "false")),
    ]
    content = _csv(["t", "p_hot", "p_cold", "p_eq", "d_hot", "d_cold"], rows, trailer)
    _write_text(out_dir / "relax.csv", content)
    return 0


def cmd_qfi(config: RunConfig, out_dir: Path) -> int:
    """Fisher-information trajectories, or the preparation-time surface."""
    times = _time_grid(config)
    if config.qfi_mode == "trajectory":
        pair = _build_pair(config)
        f_eq = pair.equilibrium_fisher()
        f_hot = pair.hot_fisher(times)
        f_cold = pair.cold_fisher(times)
        rows = np.column_stack(
            [times, f_hot, f_cold, np.full(times.shape, f_eq), qfi_gain(f_hot, f_eq)]
        )
        content = _csv(["t", "f_hot", "f_cold", "f_eq", "gain_log10"], rows)
        _write_text(out_dir / "qfi.csv", content)
        return 0
    if config.model != "qubit":
        raise ConfigError("qfi_mode = surface requires model = qubit")
    params = _qubit_params(config, config.temperature)
    p_eq = qb.gibbs_population_qubit(config.omega0, config.temperature)
    preparations = list(np.linspace(config.p0_min, config.p0_max, config.p0_steps))
    if not any(abs(p - p_eq) < 1e-15 for p in preparations):
        preparations.append(p_eq)  # the equilibrium-prepared reference row
    preparations.sort()
    rows = np.vstack(
        [
            np.column_stack(
                [np.full(times.shape, p0), times, qfi_qubit_closed_form(params, p0, times)]
            )
            for p0 in preparations
        ]
    )
    content = _csv(["p0", "t", "f"], rows)
    _write_text(out_dir / "qfi.csv", content)
    return 0


def cmd_theorem(config: RunConfig, out_dir: Path) -> int:
    """Run the transient-advantage verification and write its certificate."""
    pair = _build_pair(config)
    certificate = verify_theorem(pair, t_grid=_time_grid(config), delta_tol=config.delta_tol)
    _write_text(out_dir / "theorem_certificate.txt", certificate.to_text())
    return 0


def cmd_protocol(config: RunConfig, out_dir: Path) -> int:
    """End-to-end pipeline: calibrate, map, and estimate the temperature."""
    if config.model != "qubit":
        raise ConfigError("the estimation protocol supports model = qubit only")
    manifest: list[str] = []
    params_at = partial(_qubit_params, config)

    def finish(status: int) -> int:
        _write_text(out_dir / "manifest.txt", "\n".join(manifest) + "\n")
        return status

    steps = ["calibration", "inversion_map", "fisher_map", "estimate"]

    def fail(step: str, exc: Exception) -> int:
        manifest.append(f"step_{step} = failed: {exc}")
        for later in steps[steps.index(step) + 1 :]:
            manifest.append(f"step_{later} = skipped")
        print(f"protocol step {step} failed: {exc}", file=sys.stderr)
        return finish(3)

    temps = np.linspace(config.calib_t_min, config.calib_t_max, config.calib_t_points)
    times = _time_grid(config)
    delta_policy: str | float = config.delta_policy
    if delta_policy != "3se":
        delta_policy = float(delta_policy)

    try:
        curve = calibrate_equilibrium(config.omega0, temps, config.shots, config.seed)
        _write_text(
            out_dir / "calibration.csv",
            _csv(["temperature", "p_fit"], np.column_stack([curve.knots, curve.values])),
        )
        manifest.append("step_calibration = ok")
    except _NUMERICAL_ERRORS as exc:
        return fail("calibration", exc)

    try:
        crossings = dynamical_calibration(
            params_at,
            config.p0_hot,
            config.p0_cold,
            temps,
            times,
            config.shots,
            config.seed,
            delta_policy=delta_policy,
        )
        _write_text(
            out_dir / "inversion_map.csv",
            _csv(
                ["temperature", "t_crossing"],
                [[t, crossings[float(t)]] for t in temps],
            ),
        )
        manifest.append("step_inversion_map = ok")
    except _NUMERICAL_ERRORS as exc:
        return fail("inversion_map", exc)

    if config.preparation == "hot":

        def population_fn(t: float, temp: float) -> float:
            return qb.evolve_population(params_at(temp), config.p0_hot, t)

        def fisher_fn(t: float, temp: float) -> float:
            return qfi_qubit_closed_form(params_at(temp), config.p0_hot, t)

    else:

        def population_fn(t: float, temp: float) -> float:
            return qb.gibbs_population_qubit(config.omega0, temp)

        def fisher_fn(t: float, temp: float) -> float:
            return qfi_equilibrium(config.omega0, temp)

    try:
        fi_map = fisher_map(
            population_fn, times, temps, shots=config.shots, seed=config.seed
        )
        # temperature-major rows: every time of the first temperature, then the next
        temps_col = np.repeat(fi_map.temperatures, fi_map.times.size)
        times_col = np.tile(fi_map.times, fi_map.temperatures.size)
        table = np.column_stack([temps_col, times_col, fi_map.values.T.ravel()])
        _write_text(
            out_dir / "fisher_map.csv", _csv(["temperature", "time", "fisher"], table)
        )
        manifest.append("step_fisher_map = ok")
    except _NUMERICAL_ERRORS as exc:
        return fail("fisher_map", exc)

    try:
        true_temp = config.temperature
        p_eq_true = qb.gibbs_population_qubit(config.omega0, true_temp)
        if config.shots == 0:
            p_eq_hat = p_eq_true
        else:
            pilot = sample_population(
                p_eq_true, config.shots, config.seed, cell=CELLS_ESTIMATE
            )
            p_eq_hat = pilot.successes / pilot.shots
        t_eff = effective_temperature(p_eq_hat, config.omega0)
        column = int(np.argmin(np.abs(fi_map.temperatures - t_eff)))
        t_interrogate = fi_map.argmax_time(column)

        p_true = population_fn(t_interrogate, true_temp)
        if config.shots == 0:
            record = ShotRecord(
                shots=1,
                successes=p_true,
                time=t_interrogate,
                preparation=config.preparation,
                seed=config.seed,
            )
        else:
            record = sample_population(
                p_true,
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
    except (_NUMERICAL_ERRORS + (ValueError,)) as exc:
        return fail("estimate", exc)

    return finish(0)


_COMMANDS = {
    "relax": cmd_relax,
    "qfi": cmd_qfi,
    "theorem": cmd_theorem,
    "protocol": cmd_protocol,
}


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
