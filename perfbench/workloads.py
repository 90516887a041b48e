"""Seeded workloads for the benchmark: op lists, op execution and output checks.

Every workload is a fixed cycle of ops generated from the workload seed.  An
op is one in-process ``cli.main([...])`` call on a generated config file
(``trajectory``, ``protocol``) or one library-level instance check
(``crosscheck``).  Parameter ranges are physical only; nothing is rejected on
what the program returns.  Grid sizes come from fixed strata so that every
seed draws the same mix of op sizes and only the physics varies.

Output checks run outside the timed interval.  The references they compare
against are the package's independent oracle (fixed-step RK4 and central
differences) driven by the model definitions written out again below, never
by the package's closed forms.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mpemba_thermometry import certificates, cli, instances, oracle, protocol, spectral

WORKLOADS = ("trajectory", "protocol", "crosscheck")

# Highest percentile with at least ten ops beyond it at the op counts a
# 30-second run reaches (see README.md).
TAIL_PERCENTILE = {"trajectory": 90, "protocol": 66, "crosscheck": 95}
# Ops in the traced run's count pass: the first round of the cycle (every
# grid stratum once) for trajectory and protocol, the whole cycle for
# crosscheck.
COUNT_PASS_OPS = {"trajectory": 28, "protocol": 6, "crosscheck": 24}

# trajectory: t_steps strata; each round has one qubit and one ladder
# instance per stratum, and several rounds average out the physics
TRAJECTORY_STEPS = (1001, 2001, 3001, 5001)
TRAJECTORY_ROUNDS = 4
# protocol: (calib_t_points, t_steps) strata, four ops each
PROTOCOL_GRIDS = ((9, 301), (9, 501), (13, 401), (17, 301), (21, 251), (41, 151)) * 4
PROTOCOL_SHOTS = 10_000
CROSSCHECK_INSTANCES = 24
# crosscheck: RK4 horizon strata 10.8, 11.6, ..., 29.2 (mean 20, so a cycle
# integrates 24 x [0, 20]).  With one work size per op, op times are bimodal
# under the host's speed regimes and their median jumps between the modes.
CROSSCHECK_HORIZONS = 10.8 + 0.8 * np.arange(CROSSCHECK_INSTANCES)

# crosscheck constants, after acceptance criteria 4, 5, 6 and 8
SHORT_GRID = np.linspace(0.0, 20.0, 101)
LEMMA_TIMES = (0.05, 0.6, 2.5)
RK4_CHECKPOINTS = 21
RK4_DT = 2e-3
MLE_REPLICAS = 4
MLE_SHOTS = 10_000

# check tolerances
MODAL_TOL = 1e-8
SCALAR_ROUTE_TOL = 1e-5
VECTOR_ROUTE_TOL = 1e-4
SLACK_FLOOR = -1e-12
STDERR_MULTIPLE = 6.0
POPULATION_TOL = 1e-9
FISHER_RTOL = 1e-5
FISHER_ATOL = 1e-8
CROSSING_TOL = 1e-7
CHECK_T_MAX = 2.0  # rows checked against RK4 lie in (0, 2]
CHECK_DT = 1e-3

_CSV_HEADERS = {
    "relax": "t,p_hot,p_cold,p_eq,d_hot,d_cold",
    "qfi": "t,f_hot,f_cold,f_eq,gain_log10",
    "surface": "p0,t,f",
}
_RELAX_TRAILER = ("inversion_detected", "t_star", "delta_tol", "norm_kind", "persistent")
_THEOREM_KEYS = (
    "applicable",
    "model_kind",
    "case",
    "kappa0",
    "inversion_detected",
    "t_star",
    "delta_tol",
    "norm_kind",
    "persistent",
    "f_eq",
)
_PROTOCOL_STEPS = ("calibration", "inversion_map", "fisher_map", "estimate")
_PROTOCOL_FILES = (
    "calibration.csv",
    "inversion_map.csv",
    "fisher_map.csv",
    "estimate.csv",
    "manifest.txt",
)


# -- model definitions, written out independently of the package -------------
def _bose(omega: float, temp: float) -> float:
    return 1.0 / math.expm1(omega / temp)


def _qubit_p_eq(omega: float, temp: float) -> float:
    return 1.0 / (1.0 + math.exp(omega / temp))


def _qubit_rate(cfg: dict, p0: float, temp: float) -> float:
    n_bar = _bose(cfg["omega0"], temp)
    excess = p0 - _qubit_p_eq(cfg["omega0"], temp)
    return cfg["gamma"] * (2.0 * n_bar + 1.0) * (1.0 + cfg["alpha"] * excess)


def _gibbs(energies, temp: float) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    w = np.exp(-(e - e.min()) / temp)
    return w / w.sum()


def _ladder_energies(cfg: dict) -> tuple[float, float, float]:
    return cfg["e1"], cfg["e2"], cfg["e3"]


def _ladder_generator(cfg: dict, temp: float) -> np.ndarray:
    e1, e2, e3 = _ladder_energies(cfg)
    n1, n2 = _bose(e3 - e1, temp), _bose(e3 - e2, temp)
    up1, up2 = cfg["kappa1"] * n1, cfg["kappa2"] * n2
    down1, down2 = cfg["kappa1"] * (n1 + 1.0), cfg["kappa2"] * (n2 + 1.0)
    return np.array(
        [[-up1, 0.0, down1], [0.0, -up2, down2], [up1, up2, -(down1 + down2)]]
    )


def _qubit_population(cfg: dict, p0: float, temp: float, t: float) -> float:
    """RK4 solution of dp/dt = -Gamma (p - p_eq) with the rate frozen at p0."""
    rate = _qubit_rate(cfg, p0, temp)
    p_eq = _qubit_p_eq(cfg["omega0"], temp)
    traj = oracle.integrate_rate_equation(
        lambda _t, p: -rate * (p - p_eq), p0, np.array([0.0, t]), dt=CHECK_DT
    )
    return float(traj.states[-1])


def _ladder_population(cfg: dict, p0, temp: float, t: float) -> np.ndarray:
    traj = oracle.integrate_rate_equation(
        _ladder_generator(cfg, temp), np.asarray(p0, dtype=float), np.array([0.0, t]), dt=CHECK_DT
    )
    return traj.states[-1]


def _fisher_fd(population_of_temp, temp: float) -> float:
    """F = sum (dT p_i)^2 / p_i with dT p from the oracle's central differences."""
    p = np.atleast_1d(np.asarray(population_of_temp(temp), dtype=float))
    dp = np.atleast_1d(np.asarray(oracle.finite_difference_dT(population_of_temp, temp).value))
    if p.size == 1:
        return float(dp[0] ** 2 / (p[0] * (1.0 - p[0])))
    return float(np.sum(dp**2 / p))


def _distance(state, eq, norm_kind: str) -> float:
    diff = np.asarray(state, dtype=float) - np.asarray(eq, dtype=float)
    if diff.ndim == 0:
        return abs(float(diff))
    if norm_kind == "total_variation":
        return 0.5 * float(np.abs(diff).sum())
    return float(np.linalg.norm(diff))


def _close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


# -- ops ----------------------------------------------------------------------
def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_csv(path: Path) -> tuple[str, list[list[str]], list[str]]:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if line and not line.startswith("#")]
    trailer = [line[2:] for line in lines[1:] if line.startswith("# ")]
    return (lines[0] if lines else ""), rows, trailer


def _key_values(lines: list[str]) -> list[tuple[str, str]]:
    out = []
    for line in lines:
        key, sep, value = line.partition(" = ")
        out.append((key, value if sep else None))
    return out


@dataclass
class CliOp:
    """One ``mpemba-thermo`` command on a generated config file."""

    label: str
    command: str
    config: dict
    instance: str
    check_rows: tuple[int, ...] = ()
    config_path: Path | None = None
    out_dir: Path | None = None

    @property
    def kind(self) -> str:
        if self.command == "qfi" and self.config.get("qfi_mode") == "surface":
            return "surface"
        return self.command

    def describe(self) -> str:
        return f"{self.label} {self.command}\n" + self.config_text()

    def config_text(self) -> str:
        return "".join(f"{key} = {_fmt_value(value)}\n" for key, value in self.config.items())

    def prepare(self, work: Path) -> None:
        """Write the config (shared by the instance's commands) and pick the output dir."""
        suffix = "-surface" if self.kind == "surface" else ""
        self.config_path = work / "configs" / f"{self.instance}{suffix}.cfg"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(self.config_text())
        self.out_dir = work / "artifacts" / self.label

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self) -> int:
        return cli.main(
            [self.command, "--config", str(self.config_path), "--output", str(self.out_dir)]
        )

    def artifacts(self) -> list[Path]:
        if not self.out_dir.is_dir():
            return []
        return sorted(p for p in self.out_dir.iterdir() if p.is_file())

    def digest(self, status) -> str:
        h = hashlib.sha256(f"exit={status}\n".encode())
        for path in self.artifacts():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        return h.hexdigest()

    def bytes_written(self, status) -> int:
        return sum(path.stat().st_size for path in self.artifacts())

    def rows(self, status) -> int:
        total = 0
        for path in self.artifacts():
            lines = path.read_text().splitlines()
            if path.suffix == ".csv":
                total += sum(1 for line in lines[1:] if line and not line.startswith("#"))
            else:
                total += len(lines)
        return total

    def check(self, status) -> list[str]:
        if status != 0:
            return [f"exit code {status}"]
        try:
            return getattr(self, f"_check_{self.kind}")()
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"unreadable artifact: {type(exc).__name__}: {exc}"]

    # -- per-command checks -------------------------------------------------
    def _grid(self) -> np.ndarray:
        return np.linspace(0.0, self.config["t_max"], self.config["t_steps"])

    def _grid_problems(self, rows, column: int = 0) -> list[str]:
        times = np.array([float(row[column]) for row in rows]).reshape(-1, self.config["t_steps"])
        if np.max(np.abs(times - self._grid())) > 1e-12:
            return ["time column differs from the configured grid"]
        return []

    def _is_ladder(self) -> bool:
        return self.config.get("model") == "lambda"

    def _population(self, which: str, temp: float, t: float):
        cfg = self.config
        if self._is_ladder():
            return _ladder_population(cfg, cfg[f"p_{which}"], temp, t)
        return _qubit_population(cfg, cfg[f"p0_{which}"], temp, t)

    def _equilibrium(self, temp: float):
        if self._is_ladder():
            return _gibbs(_ladder_energies(self.config), temp)
        return _qubit_p_eq(self.config["omega0"], temp)

    def _norm(self) -> str:
        if not self._is_ladder():
            return "scalar_abs"
        return self.config.get("norm_kind") or "euclidean"

    def _exact_crossing(self) -> tuple[float, float] | None:
        """Qubit crossing time from the model definition and its resolution.

        The distance gap crosses zero with slope D (Gamma_hot - Gamma_cold),
        D the common distance at t*; float64 populations resolve the gap to a
        few ulp, so t* is resolved to about 64 eps / slope.
        """
        cfg = self.config
        p_eq = _qubit_p_eq(cfg["omega0"], cfg["temperature"])
        hot, cold = cfg["p0_hot"] - p_eq, cfg["p0_cold"] - p_eq
        rate_hot = _qubit_rate(cfg, cfg["p0_hot"], cfg["temperature"])
        rate_cold = _qubit_rate(cfg, cfg["p0_cold"], cfg["temperature"])
        if not (hot > cold > 0.0 and rate_hot > rate_cold):
            return None
        t_star = math.log(hot / cold) / (rate_hot - rate_cold)
        slope = hot * math.exp(-rate_hot * t_star) * (rate_hot - rate_cold)
        return t_star, CROSSING_TOL + 64 * np.finfo(float).eps / slope

    def _crossing_problems(self, detected: str, t_star: str) -> list[str]:
        crossing = None if self._is_ladder() else self._exact_crossing()
        if crossing is None:
            return []
        exact, tol = crossing
        t_max = self.config["t_max"]
        if abs(exact - t_max) < tol:
            return []
        if exact < t_max:
            if detected != "true" or abs(float(t_star) - exact) > tol:
                return [f"crossing {detected}/{t_star} but the model crosses at {exact!r}"]
        elif detected != "false":
            return [f"crossing reported at {t_star} beyond the model's {exact!r}"]
        return []

    def _f_eq_reference(self) -> float:
        return _fisher_fd(self._equilibrium, self.config["temperature"])

    def _check_relax(self) -> list[str]:
        header, rows, trailer = _read_csv(self.out_dir / "relax.csv")
        problems = []
        if header != _CSV_HEADERS["relax"]:
            return [f"relax.csv header {header!r}"]
        if len(rows) != self.config["t_steps"] or any(len(r) != 6 for r in rows):
            return [f"relax.csv has {len(rows)} rows, expected {self.config['t_steps']}"]
        keys = _key_values(trailer)
        if tuple(k for k, _ in keys) != _RELAX_TRAILER:
            return [f"relax.csv trailer keys {[k for k, _ in keys]}"]
        problems += self._grid_problems(rows)
        trailer_map = dict(keys)
        problems += self._crossing_problems(trailer_map["inversion_detected"], trailer_map["t_star"])
        temp = self.config["temperature"]
        eq = self._equilibrium(temp)
        for index in self.check_rows:
            row = [float(x) for x in rows[index]]
            t = row[0]
            hot, cold = self._population("hot", temp, t), self._population("cold", temp, t)
            # population columns carry the top level of a ladder
            expected = [
                *(float(np.atleast_1d(v)[-1]) for v in (hot, cold, eq)),
                _distance(hot, eq, self._norm()),
                _distance(cold, eq, self._norm()),
            ]
            for name, got, ref in zip(_CSV_HEADERS["relax"].split(",")[1:], row[1:], expected):
                if not _close(got, ref, 0.0, POPULATION_TOL):
                    problems.append(f"relax row {index} {name} = {got!r}, reference {ref!r}")
        return problems

    def _check_qfi(self) -> list[str]:
        header, rows, _ = _read_csv(self.out_dir / "qfi.csv")
        if header != _CSV_HEADERS["qfi"]:
            return [f"qfi.csv header {header!r}"]
        if len(rows) != self.config["t_steps"] or any(len(r) != 5 for r in rows):
            return [f"qfi.csv has {len(rows)} rows, expected {self.config['t_steps']}"]
        problems = self._grid_problems(rows)
        temp = self.config["temperature"]
        f_eq_ref = self._f_eq_reference()
        for index in self.check_rows:
            t, f_hot, f_cold, f_eq, gain = (float(x) for x in rows[index])
            refs = {
                "f_hot": (f_hot, _fisher_fd(lambda T: self._population("hot", T, t), temp)),
                "f_cold": (f_cold, _fisher_fd(lambda T: self._population("cold", T, t), temp)),
                "f_eq": (f_eq, f_eq_ref),
            }
            for name, (got, ref) in refs.items():
                if not _close(got, ref, FISHER_RTOL, FISHER_ATOL):
                    problems.append(f"qfi row {index} {name} = {got!r}, reference {ref!r}")
            if not _close(gain, math.log10(f_hot) - math.log10(f_eq), 0.0, 1e-12):
                problems.append(f"qfi row {index} gain_log10 = {gain!r} inconsistent")
        return problems

    def _check_surface(self) -> list[str]:
        header, rows, _ = _read_csv(self.out_dir / "qfi.csv")
        cfg = self.config
        if header != _CSV_HEADERS["surface"]:
            return [f"qfi.csv header {header!r}"]
        grid = list(np.linspace(cfg["p0_min"], cfg["p0_max"], cfg["p0_steps"]))
        p_eq = _qubit_p_eq(cfg["omega0"], cfg["temperature"])
        n_preps = len(grid) + (0 if any(abs(p - p_eq) < 1e-15 for p in grid) else 1)
        if len(rows) != n_preps * cfg["t_steps"] or any(len(r) != 3 for r in rows):
            return [f"qfi.csv has {len(rows)} rows, expected {n_preps * cfg['t_steps']}"]
        problems = self._grid_problems(rows, column=1)
        preps = sorted({float(r[0]) for r in rows})
        if len(preps) != n_preps or min(abs(p - p_eq) for p in preps) > 1e-12:
            problems.append("qfi surface lacks the equilibrium preparation row")
        for index in self.check_rows:
            p0, t, f = (float(x) for x in rows[index])
            ref = _fisher_fd(lambda T: _qubit_population(cfg, p0, T, t), cfg["temperature"])
            if not _close(f, ref, FISHER_RTOL, FISHER_ATOL):
                problems.append(f"surface row {index} f = {f!r}, reference {ref!r}")
        return problems

    def _check_theorem(self) -> list[str]:
        lines = (self.out_dir / "theorem_certificate.txt").read_text().splitlines()
        keys = _key_values(lines)
        if tuple(k for k, _ in keys[: len(_THEOREM_KEYS)]) != _THEOREM_KEYS:
            return [f"certificate keys {[k for k, _ in keys[:len(_THEOREM_KEYS)]]}"]
        if keys[-1][0] != "residual_ratio" or any(v is None for _, v in keys):
            return ["certificate is not a complete key = value list"]
        values = dict(keys)
        problems = []
        expected_kind = "lambda" if self._is_ladder() else "qubit"
        if values["model_kind"] != expected_kind:
            problems.append(f"model_kind {values['model_kind']!r}")
        ref = self._f_eq_reference()
        if not _close(float(values["f_eq"]), ref, FISHER_RTOL, FISHER_ATOL):
            problems.append(f"f_eq = {values['f_eq']}, reference {ref!r}")
        if values["applicable"] == "true" and not 0.0 < float(values["t_star"]) <= self.config["t_max"]:
            problems.append(f"t_star = {values['t_star']} outside the grid")
        problems += self._crossing_problems(values["inversion_detected"], values["t_star"])
        return problems

    def _check_protocol(self) -> list[str]:
        missing = [name for name in _PROTOCOL_FILES if not (self.out_dir / name).is_file()]
        if missing:
            return [f"missing artifacts {missing}"]
        manifest = (self.out_dir / "manifest.txt").read_text().splitlines()
        if manifest != [f"step_{step} = ok" for step in _PROTOCOL_STEPS]:
            return [f"manifest {manifest}"]
        cfg = self.config
        knots, steps = cfg["calib_t_points"], cfg["t_steps"]
        expected = {
            "calibration.csv": ("temperature,p_fit", knots),
            "inversion_map.csv": ("temperature,t_crossing", knots),
            "fisher_map.csv": ("temperature,time,fisher", knots * steps),
            "estimate.csv": ("t_hat,stderr,log_likelihood,shots", 1),
        }
        problems = []
        tables = {}
        for name, (header, count) in expected.items():
            got_header, rows, _ = _read_csv(self.out_dir / name)
            tables[name] = rows
            if got_header != header or len(rows) != count:
                problems.append(f"{name}: header {got_header!r}, {len(rows)} rows (expected {count})")
        if problems:
            return problems
        fitted = [float(r[1]) for r in tables["calibration.csv"]]
        if any(b < a for a, b in zip(fitted, fitted[1:])):
            problems.append("calibration p_fit is not non-decreasing")
        t_hat, stderr, _, shots = tables["estimate.csv"][0]
        if int(shots) != cfg["shots"]:
            problems.append(f"estimate shots {shots}")
        if not abs(float(t_hat) - cfg["temperature"]) <= STDERR_MULTIPLE * float(stderr):
            problems.append(
                f"t_hat {t_hat} is more than {STDERR_MULTIPLE} x stderr {stderr} "
                f"from the configured {cfg['temperature']!r}"
            )
        return problems


def _fmt17(values) -> str:
    return ",".join(format(float(v), ".17g") for v in np.ravel(values))


@dataclass
class CrosscheckOp:
    """Library-level validation of one seeded random ladder."""

    label: str
    params: dict

    def describe(self) -> str:
        return f"{self.label}\n" + "".join(
            f"{k} = {_fmt_value(tuple(v) if isinstance(v, np.ndarray) else v)}\n"
            for k, v in self.params.items()
        )

    def prepare(self, work: Path) -> None:
        pass

    def reset(self) -> None:
        pass

    def run(self) -> dict:
        par = self.params
        matrix = spectral.build_lambda_rate_matrix(
            par["e1"], par["e2"], par["e3"], par["kappa1"], par["kappa2"], par["temperature"]
        )
        pair = instances.make_lambda_pair(matrix, par["p_hot"], par["p_cold"])
        dec, der_pair, amps = pair.decomposition, pair.derivatives, pair.amps_hot
        cert = certificates.verify_theorem(pair, t_grid=SHORT_GRID)
        slacks = []
        for t in LEMMA_TIMES:
            l1 = certificates.lemma1_remainder_check(dec, amps, der_pair, t)
            l2 = certificates.lemma2_slow_mode(dec, amps, der_pair, t)
            slacks += [l1.fast_slack, l1.remainder_slack, l2.triangle_slack, l2.amp_bound_slack]
        if cert.lemma1 is not None:
            slacks += [cert.lemma1.fast_slack, cert.lemma1.remainder_slack]
        if cert.lemma2 is not None:
            slacks += [cert.lemma2.triangle_slack, cert.lemma2.amp_bound_slack]
        der = spectral.temperature_derivatives(matrix, dec)
        fd = spectral.finite_difference_spectrum(matrix, dec)
        rk4_times = np.linspace(0.0, par["rk4_t_max"], RK4_CHECKPOINTS)
        modal = spectral.modal_trajectory(dec, amps, rk4_times)
        ref = oracle.integrate_rate_equation(matrix.entries, pair.p_hot, rk4_times, dt=RK4_DT)

        energies, temp = matrix.energies, par["temperature"]

        def top_population(_t: float, T: float) -> float:
            return float(spectral.gibbs_vector(energies, T)[-1])

        def top_fisher(_t: float, T: float) -> float:
            p = top_population(_t, T)
            return float(spectral.dT_gibbs_vector(energies, T)[-1]) ** 2 / (p * (1.0 - p))

        p_true = top_population(0.0, temp)
        mle = []
        for r in range(MLE_REPLICAS):
            record = protocol.sample_population(p_true, MLE_SHOTS, par["mle_seed"], cell=r)
            result = protocol.mle_temperature(
                [record], top_population, (0.5 * temp, 1.5 * temp), fisher_fn=top_fisher
            )
            mle.append((result.t_hat, result.stderr, result.log_likelihood))
        return {
            "certificate": cert.to_text(),
            "slacks": np.array(slacks),
            "d_eigenvalues": der.d_eigenvalues,
            "d_right_modes": der.d_right_modes,
            "fd_eigenvalues": fd.d_eigenvalues,
            "fd_right_modes": fd.d_right_modes,
            "modal": modal,
            "rk4": ref.states,
            "mle": np.array(mle),
        }

    def digest(self, status) -> str:
        if not isinstance(status, dict):
            return hashlib.sha256(b"no output").hexdigest()
        h = hashlib.sha256()
        for key in sorted(status):
            value = status[key]
            text = value if isinstance(value, str) else _fmt17(value)
            h.update(f"{key}\0{text}\0".encode())
        return h.hexdigest()

    def bytes_written(self, status) -> int:
        return 0

    def rows(self, status) -> int:
        return 0

    def check(self, out) -> list[str]:
        problems = []
        gap = float(np.max(np.abs(out["modal"] - out["rk4"])))
        if not gap < MODAL_TOL:
            problems.append(f"modal vs RK4 gap {gap:.3g} >= {MODAL_TOL}")
        fd_eig = out["fd_eigenvalues"][1:]
        scalar = float(np.max(np.abs(out["d_eigenvalues"][1:] - fd_eig))) / max(
            float(np.max(np.abs(fd_eig))), 1e-10
        )
        if not scalar < SCALAR_ROUTE_TOL:
            problems.append(f"eigenvalue derivative route off by {scalar:.3g}")
        fd_vec = out["fd_right_modes"][:, 1:]
        vector = float(np.max(np.abs(out["d_right_modes"][:, 1:] - fd_vec))) / max(
            float(np.max(np.abs(fd_vec))), 1e-10
        )
        if not vector < VECTOR_ROUTE_TOL:
            problems.append(f"eigenvector derivative route off by {vector:.3g}")
        worst = float(np.min(out["slacks"]))
        if not worst >= SLACK_FLOOR:
            problems.append(f"certificate slack {worst:.3g} < {SLACK_FLOOR}")
        temp = self.params["temperature"]
        for t_hat, stderr, _ in out["mle"]:
            if not abs(t_hat - temp) <= STDERR_MULTIPLE * stderr:
                problems.append(f"MLE t_hat {t_hat!r} beyond {STDERR_MULTIPLE} x stderr {stderr!r}")
        return problems


# -- generators ---------------------------------------------------------------
def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _check_rows(rng, t_max: float, t_steps: int, blocks: int = 1) -> tuple[int, ...]:
    """Two seeded rows with t in (0.05, CHECK_T_MAX], in one of ``blocks`` grid copies."""
    grid = np.linspace(0.0, t_max, t_steps)
    eligible = np.flatnonzero((grid > 0.05) & (grid <= CHECK_T_MAX))
    picks = rng.choice(eligible, size=2, replace=False)
    offsets = rng.integers(0, blocks, size=2) * t_steps
    return tuple(int(i) for i in np.sort(picks + offsets))


def _qubit_config(rng, t_steps: int) -> dict:
    omega0 = float(rng.uniform(0.5, 2.0))
    temperature = float(rng.uniform(0.25, 1.5))
    p_eq = _qubit_p_eq(omega0, temperature)
    p0_cold = p_eq + (0.9 - p_eq) * float(rng.uniform(0.05, 0.4))
    p0_hot = p0_cold + (0.95 - p0_cold) * float(rng.uniform(0.3, 1.0))
    return {
        "model": "qubit",
        "omega0": omega0,
        "gamma": float(rng.uniform(0.3, 2.0)),
        "temperature": temperature,
        "alpha": float(rng.uniform(0.2, 1.5)),
        "p0_hot": p0_hot,
        "p0_cold": p0_cold,
        "t_max": float(rng.uniform(4.0, 16.0)),
        "t_steps": t_steps,
    }


def _ladder_physics(rng, kappa_max: float, t_range: tuple[float, float]) -> dict:
    e1 = float(rng.uniform(0.0, 0.3))
    e2 = float(rng.uniform(0.0, 1.2))
    e3 = max(e1, e2) + float(rng.uniform(0.6, 1.4))
    temperature = float(rng.uniform(*t_range))
    pi = _gibbs((e1, e2, e3), temperature)
    # hot: mixed toward a vertex at least 2/3 away from pi; cold: a small
    # mix toward a random point, so hot always starts farther out
    vertex = np.eye(3)[int(rng.choice(np.flatnonzero(pi <= 1.0 / 3.0)))]
    hot_mix, cold_mix = float(rng.uniform(0.5, 0.9)), float(rng.uniform(0.05, 0.2))
    hot = (1.0 - hot_mix) * pi + hot_mix * vertex
    cold = (1.0 - cold_mix) * pi + cold_mix * rng.dirichlet(np.ones(3))
    hot, cold = hot / hot.sum(), cold / cold.sum()
    return {
        "e1": e1,
        "e2": e2,
        "e3": e3,
        "kappa1": float(rng.uniform(0.4, kappa_max)),
        "kappa2": float(rng.uniform(0.4, kappa_max)),
        "temperature": temperature,
        "p_hot": tuple(float(x) for x in hot),
        "p_cold": tuple(float(x) for x in cold),
    }


def _ladder_config(rng, t_steps: int) -> dict:
    physics = _ladder_physics(rng, kappa_max=1.8, t_range=(0.35, 1.2))
    norm = ("", "euclidean", "total_variation")[int(rng.integers(0, 3))]
    config = {"model": "lambda", **physics, "t_max": float(rng.uniform(4.0, 16.0)), "t_steps": t_steps}
    if norm:
        config["norm_kind"] = norm
    return config


def trajectory_ops(seed: int) -> list[CliOp]:
    rng = _rng("trajectory", seed)
    ops: list[CliOp] = []
    plan = [
        (f"r{r}s{stratum}{model[0]}", model, t_steps)
        for r in range(TRAJECTORY_ROUNDS)
        for stratum, t_steps in enumerate(TRAJECTORY_STEPS)
        for model in ("qubit", "lambda")
    ]
    for instance, model, t_steps in plan:
        if model == "qubit":
            cfg = _qubit_config(rng, t_steps)
            commands = ("relax", "qfi", "surface", "theorem")
        else:
            cfg = _ladder_config(rng, t_steps)
            commands = ("relax", "qfi", "theorem")
        for command in commands:
            op_cfg = dict(cfg)
            blocks = 1
            if command == "surface":
                op_cfg.update(
                    qfi_mode="surface",
                    p0_min=float(rng.uniform(0.02, 0.1)),
                    p0_max=float(rng.uniform(0.85, 0.95)),
                    p0_steps=3,
                )
                blocks = 3
            rows = _check_rows(rng, cfg["t_max"], t_steps, blocks=blocks)
            ops.append(
                CliOp(
                    label=f"{instance}.{command}",
                    command="qfi" if command == "surface" else command,
                    config=op_cfg,
                    instance=instance,
                    check_rows=rows if command in ("relax", "qfi", "surface") else (),
                )
            )
    return ops


def protocol_ops(seed: int) -> list[CliOp]:
    rng = _rng("protocol", seed)
    ops = []
    for index, (knots, t_steps) in enumerate(PROTOCOL_GRIDS):
        omega0 = float(rng.uniform(0.6, 1.6))
        temperature = float(rng.uniform(0.3, 0.8))
        p_eq = _qubit_p_eq(omega0, temperature)
        p0_cold = p_eq + float(rng.uniform(0.05, 0.25))
        cfg = {
            "model": "qubit",
            "omega0": omega0,
            "gamma": float(rng.uniform(0.5, 1.5)),
            "temperature": temperature,
            "alpha": float(rng.uniform(0.3, 1.5)),
            "p0_hot": float(rng.uniform(max(0.7, p0_cold + 0.1), 0.95)),
            "p0_cold": p0_cold,
            "t_max": float(rng.uniform(4.0, 12.0)),
            "t_steps": t_steps,
            "seed": int(rng.integers(0, 2**31)),
            "shots": PROTOCOL_SHOTS,
            "calib_t_min": temperature * float(rng.uniform(0.55, 0.8)),
            "calib_t_max": temperature * float(rng.uniform(1.25, 1.6)),
            "calib_t_points": knots,
        }
        ops.append(CliOp(label=f"p{index}", command="protocol", config=cfg, instance=f"p{index}"))
    return ops


def crosscheck_ops(seed: int) -> list[CrosscheckOp]:
    rng = _rng("crosscheck", seed)
    ops = []
    for index in range(CROSSCHECK_INSTANCES):
        params = _ladder_physics(rng, kappa_max=1.2, t_range=(0.35, 0.9))
        params["p_hot"] = np.array(params["p_hot"])
        params["p_cold"] = np.array(params["p_cold"])
        params["mle_seed"] = int(rng.integers(0, 2**31))
        # consecutive ops alternate between short and long horizons
        params["rk4_t_max"] = float(CROSSCHECK_HORIZONS[(7 * index) % CROSSCHECK_INSTANCES])
        ops.append(CrosscheckOp(label=f"x{index:02d}", params=params))
    return ops


def build(workload: str, seed: int):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"trajectory": trajectory_ops, "protocol": protocol_ops, "crosscheck": crosscheck_ops}[
        workload
    ](seed)


# -- execution ----------------------------------------------------------------
def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class Session:
    """Attempts ops, checks them outside the timed interval, and tracks digests.

    The first attempt of an op gets the full output check; a repeat must
    reproduce the first attempt's digest exactly, or it fails as
    nondeterministic.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.last_status = None

    def attempt(self, op, timer=_timed) -> float:
        op.reset()
        start = time.perf_counter()
        try:
            status, seconds = timer(op.run)
            problems = []
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - start
            status, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        digest = op.digest(status)
        if op.label not in self.first:
            if not problems:
                problems = op.check(status)
            self.first[op.label] = (digest, problems)
        else:
            first_digest, first_problems = self.first[op.label]
            problems = problems or (
                list(first_problems) if digest == first_digest
                else [f"nondeterministic: digest {digest[:16]} != first {first_digest[:16]}"]
            )
        self.last_status = status
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.label}: {p}" for p in problems[:3])
        return seconds

    def op_digests(self, ops) -> dict[str, str]:
        """Digest of each attempted op's first attempt, in cycle order."""
        return {op.label: self.first[op.label][0] for op in ops if op.label in self.first}
