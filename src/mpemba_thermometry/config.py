"""Flat key = value run configuration for the command-line tools.

The format is deliberately minimal: one ``key = value`` pair per line, ``#``
comments, blank lines ignored.  Unknown keys are configuration errors — a
typo must not silently fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Bad key, bad value, or an inconsistent combination."""


@dataclass(frozen=True)
class RunConfig:
    # model selection and physical parameters
    model: str = "qubit"
    omega0: float = 1.0
    gamma: float = 1.0
    temperature: float = 0.5
    alpha: float = 1.0
    p0_hot: float = 0.9
    p0_cold: float = 0.5
    # three-level ladder parameters
    e1: float = 0.0
    e2: float = 0.0
    e3: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    p_hot: tuple[float, ...] = (0.2, 0.2, 0.6)
    p_cold: tuple[float, ...] = (0.6, 0.3, 0.1)
    # time grid and detection
    t_max: float = 10.0
    t_steps: int = 201
    norm_kind: str = ""  # empty = model default
    delta_tol: float = 0.0
    # fisher-surface controls
    qfi_mode: str = "trajectory"
    p0_min: float = 0.05
    p0_max: float = 0.95
    p0_steps: int = 10
    # sampling pipeline
    seed: int = 12345
    shots: int = 10000
    delta_policy: str | float = "3se"  # load_config parses a margin to a float
    preparation: str = "hot"
    calib_t_min: float = 0.3
    calib_t_max: float = 0.7
    calib_t_points: int = 9


_VECTOR_KEYS = {"p_hot", "p_cold"}
# the distances each model's states admit: |p - p_eq| for the qubit's scalar
# population, a vector norm for the ladder's population vector
_MODEL_NORMS = {"qubit": ("scalar_abs",), "lambda": ("euclidean", "total_variation")}


def _parse_value(key: str, raw: str, kind: type):
    raw = raw.strip()
    if key in _VECTOR_KEYS:
        try:
            value = tuple(float(part) for part in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"{key}: expected comma-separated floats, got {raw!r}") from exc
    elif kind is float:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    elif kind is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
    else:
        return raw
    # float() reads "nan" and "inf"; no key means anything by them
    if not all(map(math.isfinite, value if key in _VECTOR_KEYS else (value,))):
        raise ConfigError(f"{key}: expected finite numbers, got {raw!r}")
    return value


def _parse_config_file(path: str | Path) -> dict[str, object]:
    """Read ``key = value`` pairs; unknown keys raise :class:`ConfigError`."""
    type_map = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    out: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in type_map:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw, type_map[key])
    return out


def _validate(config: RunConfig) -> RunConfig:
    if config.model not in ("qubit", "lambda"):
        raise ConfigError(f"model must be 'qubit' or 'lambda', got {config.model!r}")
    if config.qfi_mode not in ("trajectory", "surface"):
        raise ConfigError(f"qfi_mode must be 'trajectory' or 'surface', got {config.qfi_mode!r}")
    if config.preparation not in ("hot", "equilibrium"):
        raise ConfigError(
            f"preparation must be 'hot' or 'equilibrium', got {config.preparation!r}"
        )
    if config.norm_kind not in ("", "scalar_abs", "euclidean", "total_variation"):
        raise ConfigError(f"unknown norm_kind {config.norm_kind!r}")
    if config.norm_kind and config.norm_kind not in _MODEL_NORMS[config.model]:
        raise ConfigError(
            f"norm_kind = {config.norm_kind} does not fit model = {config.model}: scalar_abs "
            "applies to scalar states only (qubit), euclidean and total_variation to "
            "population vectors (lambda)"
        )
    if config.delta_policy != "3se":
        try:
            margin = float(config.delta_policy)
        except ValueError:
            margin = math.nan
        if not 0.0 <= margin < math.inf:
            raise ConfigError(
                "delta_policy must be '3se' or a finite non-negative number, "
                f"got {config.delta_policy!r}"
            )
        config = replace(config, delta_policy=margin)
    if config.t_steps < 2:
        raise ConfigError(f"t_steps must be at least 2, got {config.t_steps}")
    if config.t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {config.t_max}")
    if config.shots < 0:
        raise ConfigError(f"shots must be non-negative (0 = noiseless), got {config.shots}")
    if not 0 <= config.seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64) (a Philox key word), got {config.seed}")
    if config.p0_steps < 2:
        raise ConfigError(f"p0_steps must be at least 2, got {config.p0_steps}")
    if config.calib_t_points < 5:
        raise ConfigError(
            f"calib_t_points must be at least 5 (the Fisher map's 5-point temperature "
            f"stencil), got {config.calib_t_points}"
        )
    if not 0 < config.calib_t_min < config.calib_t_max:
        raise ConfigError(
            f"need 0 < calib_t_min < calib_t_max, got "
            f"({config.calib_t_min}, {config.calib_t_max})"
        )
    if len(config.p_hot) != 3 or len(config.p_cold) != 3:
        raise ConfigError("p_hot and p_cold must be comma-separated triples")
    return config


def load_config(
    path: str | Path | None,
    seed: int | None = None,
    model: str | None = None,
) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by CLI overrides."""
    values = _parse_config_file(path) if path is not None else {}
    config = replace(RunConfig(), **values)
    if seed is not None:
        config = replace(config, seed=seed)
    if model is not None:
        config = replace(config, model=model)
    return _validate(config)
