"""Command-line interface: artifact schemas, determinism, and exit codes."""

import argparse
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mpemba_thermometry
from mpemba_thermometry import cli, make_lambda_pair, make_qubit_pair
from mpemba_thermometry.bath import ColdLimitWarning
from mpemba_thermometry.cli import _csv, _fmt, main
from mpemba_thermometry.config import load_config
from mpemba_thermometry.fisher import qfi_equilibrium
from mpemba_thermometry.instances import make_qubit_probe, measured_level
from mpemba_thermometry.mpemba import distance_series, qfi_gain
from mpemba_thermometry.protocol import BoundaryMaximumWarning, calibrate_equilibrium, fisher_map
from mpemba_thermometry.qubit import (
    QubitBathParams,
    UnphysicalRateError,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
)
from mpemba_thermometry.spectral import build_lambda_rate_matrix, gibbs_vector

OVERFLOW = "temperature {} squared overflows a float (limit about 1.34e154)"
T_STAR_QUBIT = 1.3671541640340499
T_STAR_LADDER = 0.48787920210350055
# the default configuration's measured equilibrium population of each model
EQUILIBRIUM = {
    "qubit": lambda T: gibbs_population_qubit(1.0, T),
    "lambda": lambda T: gibbs_vector(np.array([0.0, 0.0, 1.0]), T)[-1],
}


def read_table(path):
    """Parse a CSV artifact into (header, rows-as-strings, trailer-dict)."""
    header = None
    rows = []
    trailer = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            trailer[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, trailer


def numeric(rows):
    return np.array([[float(cell) for cell in row] for row in rows])


def cell_text(header, rows, trailer=()):
    """The CSV text of ``rows`` written cell by cell with ``_fmt``."""
    lines = [",".join(header), *(",".join(_fmt(v) for v in row) for row in rows)]
    lines.extend(f"# {entry}" for entry in trailer)
    return "\n".join(lines) + "\n"


def default_pair(model):
    """The default configuration's probe pair at T = 0.5."""
    if model == "qubit":
        return make_qubit_pair(QubitBathParams(1.0, 1.0, 0.5, 1.0), 0.9, 0.5)
    ladder = build_lambda_rate_matrix(0.0, 0.0, 1.0, 1.0, 1.0, 0.5)
    return make_lambda_pair(
        ladder, np.array([0.2, 0.2, 0.6]), np.array([0.6, 0.3, 0.1]), norm_kind="euclidean"
    )


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRelaxCommand:
    def test_qubit_artifact(self, tmp_path):
        assert main(["relax", "--output", str(tmp_path)]) == 0
        header, rows, trailer = read_table(tmp_path / "relax.csv")
        assert header == ["t", "p_hot", "p_cold", "p_eq", "d_hot", "d_cold"]
        data = numeric(rows)
        assert data.shape == (201, 6)
        assert data[0, 1] == 0.9 and data[0, 2] == 0.5
        p_eq = gibbs_population_qubit(1.0, 0.5)
        assert np.allclose(data[:, 3], p_eq, rtol=0, atol=1e-15)
        assert np.allclose(data[:, 4], np.abs(data[:, 1] - p_eq), rtol=0, atol=1e-15)
        assert trailer["inversion_detected"] == "true"
        assert trailer["persistent"] == "true"
        assert trailer["norm_kind"] == "scalar_abs"
        assert float(trailer["t_star"]) == pytest.approx(T_STAR_QUBIT, abs=1e-7)

    def test_qubit_rows_equal_pointwise_closed_form(self, tmp_path):
        assert main(["relax", "--output", str(tmp_path)]) == 0
        _, rows, _ = read_table(tmp_path / "relax.csv")
        params = QubitBathParams(omega0=1.0, gamma=1.0, temperature=0.5, alpha=1.0)
        for row in rows:
            # 17 significant digits round-trip, so equality is bit for bit
            t, hot, cold = (float(cell) for cell in row[:3])
            assert hot == evolve_population(params, 0.9, t)
            assert cold == evolve_population(params, 0.5, t)

    def test_lambda_model_override(self, tmp_path):
        assert main(["relax", "--model", "lambda", "--output", str(tmp_path)]) == 0
        _, rows, trailer = read_table(tmp_path / "relax.csv")
        data = numeric(rows)
        # distance columns are norm values now, not |p - p_eq| of one level
        assert np.all(data[:, 4] >= 0)
        assert trailer["norm_kind"] == "euclidean"
        assert trailer["inversion_detected"] == "true"
        assert float(trailer["t_star"]) == pytest.approx(T_STAR_LADDER, abs=1e-6)

    def test_no_crossing_reported_as_none(self, tmp_path):
        cfg = write_config(tmp_path, "alpha = 0.0\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path)]) == 0
        _, _, trailer = read_table(tmp_path / "relax.csv")
        assert trailer["inversion_detected"] == "false"
        assert trailer["t_star"] == "none"

    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    def test_table_equals_cell_by_cell_text(self, tmp_path, model):
        # p_eq is one value on every row: the writer formats it once
        cfg = write_config(tmp_path, "t_steps = 41\nt_max = 6.0\n")
        assert main(["relax", "--config", cfg, "--model", model, "--output", str(tmp_path)]) == 0
        pair = default_pair(model)
        times = np.linspace(0.0, 6.0, 41)
        record = pair.detect(times=times)
        hot, cold, eq = pair.hot_population(times), pair.cold_population(times), pair.equilibrium
        d_hot, d_cold = (distance_series(states, eq, record.norm_kind) for states in (hot, cold))
        hot, cold, eq = (measured_level(states, eq) for states in (hot, cold, eq))
        rows = zip(times, hot, cold, [eq] * times.size, d_hot, d_cold)
        trailer = [
            "inversion_detected = true",
            f"t_star = {_fmt(record.t_star)}",
            "delta_tol = 0",
            f"norm_kind = {record.norm_kind}",
            "persistent = true",
        ]
        header = ["t", "p_hot", "p_cold", "p_eq", "d_hot", "d_cold"]
        assert (tmp_path / "relax.csv").read_text() == cell_text(header, rows, trailer)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["relax", "--output", str(a)]) == 0
        assert main(["relax", "--output", str(b)]) == 0
        assert (a / "relax.csv").read_bytes() == (b / "relax.csv").read_bytes()


class TestQfiCommand:
    def test_trajectory_artifact(self, tmp_path):
        assert main(["qfi", "--output", str(tmp_path)]) == 0
        header, rows, _ = read_table(tmp_path / "qfi.csv")
        assert header == ["t", "f_hot", "f_cold", "f_eq", "gain_log10"]
        data = numeric(rows)
        f_eq = qfi_equilibrium(1.0, 0.5)
        assert np.allclose(data[:, 3], f_eq, rtol=1e-12, atol=0)
        # preparations start with zero information, so the gain opens at -inf
        assert data[0, 1] == 0.0 and data[0, 4] == -np.inf
        assert np.allclose(
            data[1:, 4], np.log10(data[1:, 1] / f_eq), rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    def test_trajectory_table_equals_cell_by_cell_text(self, tmp_path, model):
        # f_eq is one value on every row: the writer formats it once
        cfg = write_config(tmp_path, "t_steps = 41\nt_max = 6.0\n")
        assert main(["qfi", "--config", cfg, "--model", model, "--output", str(tmp_path)]) == 0
        pair = default_pair(model)
        times = np.linspace(0.0, 6.0, 41)
        f_eq = pair.equilibrium_fisher()
        f_hot, f_cold = pair.hot_fisher(times), pair.cold_fisher(times)
        rows = zip(times, f_hot, f_cold, [f_eq] * times.size, qfi_gain(f_hot, f_eq))
        header = ["t", "f_hot", "f_cold", "f_eq", "gain_log10"]
        assert (tmp_path / "qfi.csv").read_text() == cell_text(header, rows)

    def test_surface_table_equals_cell_by_cell_text(self, tmp_path):
        # each block repeats its p0 on every row and shares one time grid
        cfg = write_config(tmp_path, "qfi_mode = surface\np0_steps = 4\nt_steps = 11\n")
        assert main(["qfi", "--config", cfg, "--output", str(tmp_path)]) == 0
        params = QubitBathParams(1.0, 1.0, 0.5, 1.0)
        times = np.linspace(0.0, 10.0, 11)
        p_eq = make_qubit_probe(params, None).population(0.0)
        preparations = sorted([*np.linspace(0.05, 0.95, 4), p_eq])
        rows = [
            (p0, t, f)
            for p0 in preparations
            for t, f in zip(times, make_qubit_probe(params, p0).fisher(times))
        ]
        assert (tmp_path / "qfi.csv").read_text() == cell_text(["p0", "t", "f"], rows)

    def test_surface_mode_includes_equilibrium_row(self, tmp_path):
        cfg = write_config(tmp_path, "qfi_mode = surface\np0_steps = 4\nt_steps = 5\n")
        assert main(["qfi", "--config", cfg, "--output", str(tmp_path)]) == 0
        header, rows, _ = read_table(tmp_path / "qfi.csv")
        assert header == ["p0", "t", "f"]
        data = numeric(rows)
        p_eq = gibbs_population_qubit(1.0, 0.5)
        preparations = np.unique(data[:, 0])
        assert preparations.size == 5  # the requested grid plus equilibrium
        assert np.min(np.abs(preparations - p_eq)) < 1e-15

    @pytest.mark.parametrize(
        "preparation",
        ["p0_cold = 0.0\n", "p0_hot = 1.0\nalpha = 0.0\n"],
        ids=["ground", "excited"],
    )
    def test_pure_preparation_opens_with_zero_information(self, tmp_path, preparation):
        # p(1 - p) vanishes at t = 0 together with dT p, so the row is 0 as in
        # the ladder's Fisher sum, not a divergence
        cfg = write_config(tmp_path, preparation)
        assert main(["qfi", "--config", cfg, "--output", str(tmp_path)]) == 0
        data = numeric(read_table(tmp_path / "qfi.csv")[1])
        column = 2 if "p0_cold" in preparation else 1
        assert data[0, column] == 0.0
        assert np.all(data[1:, column] > 0.0)

    def test_surface_requires_qubit_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "qfi_mode = surface\nmodel = lambda\n")
        assert main(["qfi", "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestTheoremCommand:
    @staticmethod
    def parse(path):
        out = {}
        for line in path.read_text().splitlines():
            key, _, value = line.partition(" = ")
            if _:
                out[key] = value
        return out

    def test_qubit_certificate(self, tmp_path):
        assert main(["theorem", "--output", str(tmp_path)]) == 0
        cert = self.parse(tmp_path / "theorem_certificate.txt")
        assert cert["model_kind"] == "qubit"
        assert cert["case"] == "A"
        assert cert["applicable"] == "true"
        assert cert["inversion_detected"] == "true"
        assert float(cert["t_star"]) == pytest.approx(T_STAR_QUBIT, abs=1e-7)
        assert float(cert["kappa0"]) == pytest.approx(0.5792493287730487, rel=1e-9)

    def test_lambda_certificate(self, tmp_path):
        assert main(["theorem", "--model", "lambda", "--output", str(tmp_path)]) == 0
        cert = self.parse(tmp_path / "theorem_certificate.txt")
        assert cert["model_kind"] == "lambda"
        assert cert["case"] == "B"
        assert cert["inversion_detected"] == "true"
        assert float(cert["lemma1_fast_slack"]) >= -1e-12
        assert float(cert["lemma2_triangle_slack"]) >= -1e-12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["theorem", "--output", str(a)]) == 0
        assert main(["theorem", "--output", str(b)]) == 0
        assert (a / "theorem_certificate.txt").read_bytes() == (
            b / "theorem_certificate.txt"
        ).read_bytes()


PROTOCOL_FILES = (
    "calibration.csv",
    "inversion_map.csv",
    "fisher_map.csv",
    "estimate.csv",
    "manifest.txt",
)


class TestProtocolCommand:
    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    def test_noiseless_pipeline(self, tmp_path, model):
        cfg = write_config(tmp_path, f"model = {model}\nshots = 0\nt_steps = 81\nt_max = 8.0\n")
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        for name in PROTOCOL_FILES:
            assert (tmp_path / name).exists()
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest == [
            "step_calibration = ok",
            "step_inversion_map = ok",
            "step_fisher_map = ok",
            "step_estimate = ok",
        ]
        _, rows, _ = read_table(tmp_path / "calibration.csv")
        data = numeric(rows)
        exact = [EQUILIBRIUM[model](t) for t in data[:, 0]]
        assert np.allclose(data[:, 1], exact, rtol=0, atol=1e-15)
        if model == "qubit":
            # every calibration temperature shows a finite crossing without noise
            _, inv_rows, _ = read_table(tmp_path / "inversion_map.csv")
            crossings = [row[1] for row in inv_rows]
            assert all(cell != "" for cell in crossings)
            assert all(0.0 < float(cell) <= 8.0 for cell in crossings)
        _, est_rows, _ = read_table(tmp_path / "estimate.csv")
        t_hat, stderr, _, shots = (float(cell) for cell in est_rows[0])
        # one noiseless record: the estimate is the root of p(T) = p_true
        assert abs(t_hat - 0.5) <= 1e-14
        assert 0.1 < stderr < 2.0
        assert shots == 1

    def test_sampled_pipeline_margin_blanks_inversion_map(self, tmp_path):
        cfg = write_config(tmp_path, "t_steps = 81\nt_max = 8.0\n")
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        # at 1e4 shots the hot/cold distance gap (~3e-3 .. 6e-3) sits below
        # three binomial standard errors (~2e-2), so the margin suppresses
        # most detections; the rare pass lands near the true gap maximum
        _, inv_rows, _ = read_table(tmp_path / "inversion_map.csv")
        blanks = [row for row in inv_rows if row[1] == ""]
        hits = [row for row in inv_rows if row[1] != ""]
        assert len(blanks) >= 7
        assert all(1.0 < float(row[1]) < 3.0 for row in hits)
        # pinned seed: exactly one cell clears the margin
        assert len(hits) == 1
        assert float(hits[0][0]) == pytest.approx(0.4, abs=1e-12)
        assert float(hits[0][1]) == pytest.approx(2.1, abs=1e-12)
        _, est_rows, _ = read_table(tmp_path / "estimate.csv")
        t_hat, stderr, _, shots = (float(cell) for cell in est_rows[0])
        assert shots == 10000
        assert abs(t_hat - 0.5) < 6.0 * stderr

    def test_seed_changes_samples_and_reruns_are_stable(self, tmp_path):
        cfg = write_config(tmp_path, "t_steps = 41\nt_max = 6.0\ncalib_t_points = 5\n")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, "11"), (b, "11"), (c, "22")):
            code = main(
                ["protocol", "--config", cfg, "--seed", seed, "--output", str(out)]
            )
            assert code == 0
        for name in PROTOCOL_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "calibration.csv").read_bytes() != (c / "calibration.csv").read_bytes()

    def test_step_failure_writes_partial_manifest(self, tmp_path, capsys):
        # the hot preparation's rate turns negative at the upper calibration
        # temperatures, where the first stage builds its pairs
        cfg = write_config(tmp_path, "alpha = 6.0\np0_hot = 0.0\np0_cold = 0.02\n")
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 3
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[0].startswith("step_calibration = failed:")
        assert "non-positive" in manifest[0]
        assert manifest[1:] == [
            "step_inversion_map = skipped",
            "step_fisher_map = skipped",
            "step_estimate = skipped",
        ]
        assert "failed" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["manifest.txt", "run.cfg"]

    def test_single_shot_writes_every_artifact(self, tmp_path):
        # the one-shot pilot counts 0 successes: below the calibrated range,
        # so the estimate interrogates the first knot's best time; one shot
        # cannot place the likelihood maximum inside the search interval
        cfg = write_config(tmp_path, "shots = 1\n")
        with pytest.warns(BoundaryMaximumWarning):
            assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        for name in PROTOCOL_FILES:
            assert (tmp_path / name).exists()
        assert (tmp_path / "manifest.txt").read_text().splitlines()[-1] == "step_estimate = ok"

    def test_ordering_flip_at_a_knot_writes_nothing(self, tmp_path, capsys):
        # p0_hot = 0.3 sits nearer equilibrium than p0_cold = 0.05 once p_eq
        # passes 0.175, which the upper calibration temperatures reach
        cfg = write_config(tmp_path, "p0_hot = 0.3\np0_cold = 0.05\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["protocol", "--config", cfg, "--output", str(out)]) == 2
        assert "hot preparation starts nearer equilibrium" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_estimate_checks_only_the_interrogated_preparation(self, tmp_path):
        # the likelihood scan reaches 1.5 calib_t_max, where the ground-state
        # cold preparation's rate would turn negative; the hot closures never
        # evaluate it
        cfg = write_config(tmp_path, "alpha = 4.0\np0_cold = 0.0\n")
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert (tmp_path / "estimate.csv").exists()

    def test_tables_equal_cell_by_cell_text(self, tmp_path):
        cfg = write_config(
            tmp_path, "t_steps = 21\nt_max = 6.0\ncalib_t_points = 6\nseed = 7\n"
        )
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        temps = np.linspace(0.3, 0.7, 6)
        times = np.linspace(0.0, 6.0, 21)
        probe_at = lambda T: make_qubit_pair(  # noqa: E731
            QubitBathParams(1.0, 1.0, T, 1.0), 0.9, 0.5
        )
        curve = calibrate_equilibrium(probe_at, temps, 10_000, 7)
        expected = "temperature,p_fit\n" + "".join(
            f"{_fmt(t)},{_fmt(v)}\n" for t, v in zip(curve.knots, curve.values)
        )
        assert (tmp_path / "calibration.csv").read_text() == expected

        def hot(t, temp):
            return evolve_population(QubitBathParams(1.0, 1.0, temp, 1.0), 0.9, t)

        fm = fisher_map(hot, times, temps, shots=10_000, seed=7)
        lines = ["temperature,time,fisher"]
        for j, temp in enumerate(fm.temperatures):
            for i, t in enumerate(fm.times):
                lines.append(f"{_fmt(temp)},{_fmt(t)},{_fmt(fm.values[i, j])}")
        assert (tmp_path / "fisher_map.csv").read_text() == "\n".join(lines) + "\n"

    def test_ladder_pipeline_reads_the_top_level(self, tmp_path):
        # the ladder's probes read its top level: every stage runs, reruns
        # keep their bytes, and the estimate lands within its error bar
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert main(["protocol", "--model", "lambda", "--output", str(out)]) == 0
        assert sorted(path.name for path in first.iterdir()) == sorted(PROTOCOL_FILES)
        assert (first / "manifest.txt").read_text().splitlines() == [
            f"step_{step} = ok"
            for step in ("calibration", "inversion_map", "fisher_map", "estimate")
        ]
        for name in PROTOCOL_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        _, est_rows, _ = read_table(first / "estimate.csv")
        t_hat, stderr, _, shots = (float(cell) for cell in est_rows[0])
        assert shots == 10000
        assert abs(t_hat - 0.5) < 6.0 * stderr

    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    def test_equilibrium_preparation(self, tmp_path, model):
        # the thermalized probe's population and Fisher value hold in time
        noiseless, sampled = tmp_path / "noiseless", tmp_path / "sampled"
        run = ["protocol", "--model", model, "--config"]
        cfg = write_config(tmp_path, "preparation = equilibrium\nshots = 0\n")
        assert main([*run, cfg, "--output", str(noiseless)]) == 0
        _, rows, _ = read_table(noiseless / "fisher_map.csv")
        table = numeric(rows)
        for temp in np.unique(table[:, 0]):
            fisher = table[table[:, 0] == temp, 2]
            assert fisher.size == 201 and np.all(fisher == fisher[0]) and fisher[0] > 0
        cfg = write_config(tmp_path, "preparation = equilibrium\n")
        assert main([*run, cfg, "--output", str(sampled)]) == 0
        _, est_rows, _ = read_table(sampled / "estimate.csv")
        t_hat, stderr, _, _ = (float(cell) for cell in est_rows[0])
        assert abs(t_hat - 0.5) < 6.0 * stderr

    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    def test_constant_margin(self, tmp_path, model):
        cfg = write_config(tmp_path, f"model = {model}\ndelta_policy = 0.01\n")
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.txt").read_text().splitlines()[-1] == "step_estimate = ok"

    @pytest.mark.parametrize(
        "text, policy", [("", "3se"), ("delta_policy = 3se\n", "3se"), ("delta_policy = 0.01\n", 0.01)]
    )
    def test_margin_is_parsed_once_by_the_config(self, tmp_path, monkeypatch, text, policy):
        # the config keeps the parsed margin, and the command passes it on as it is
        seen = []
        calibration = cli.dynamical_calibration

        def recording(*args, **kwargs):
            seen.append(kwargs["delta_policy"])
            return calibration(*args, **kwargs)

        monkeypatch.setattr(cli, "dynamical_calibration", recording)
        cfg = write_config(tmp_path, "shots = 0\n" + text)
        assert load_config(cfg).delta_policy == policy
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path / "out")]) == 0
        assert seen == [policy] and type(seen[0]) is type(policy)

    @pytest.mark.parametrize(
        "step, function",
        [
            ("inversion_map", "dynamical_calibration"),
            ("fisher_map", "fisher_map"),
            ("estimate", "mle_temperature"),
        ],
    )
    def test_later_step_failure_keeps_earlier_artifacts(
        self, tmp_path, capsys, monkeypatch, step, function
    ):
        def fails(*args, **kwargs):
            raise FloatingPointError("injected")

        monkeypatch.setattr(cli, function, fails)
        cfg = write_config(tmp_path, "shots = 0\n")
        out = tmp_path / "out"
        assert main(["protocol", "--config", cfg, "--output", str(out)]) == 3
        steps = ["calibration", "inversion_map", "fisher_map", "estimate"]
        failed = steps.index(step)
        assert (out / "manifest.txt").read_text().splitlines() == (
            [f"step_{name} = ok" for name in steps[:failed]]
            + [f"step_{step} = failed: injected"]
            + [f"step_{name} = skipped" for name in steps[failed + 1 :]]
        )
        assert f"protocol step {step} failed: injected" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [f"{name}.csv" for name in steps[:failed]] + ["manifest.txt"]
        )


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus_knob = 3\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["relax", "--config", missing, "--output", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "just words\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_too_few_calibration_points_writes_nothing(self, tmp_path, capsys):
        # fisher_map needs its 5-point stencil; the run must stop before any step
        cfg = write_config(tmp_path, "calib_t_points = 3\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["protocol", "--config", cfg, "--output", str(out)]) == 2
        assert "5-point temperature stencil" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_seed_past_the_philox_key_word_writes_nothing(self, tmp_path, capsys, via):
        # a Philox key word holds seeds below 2**64; 2**64 is a config error
        # (exit 2), not an OverflowError escaping main
        too_big = str(2**64)
        cfg = write_config(tmp_path, f"seed = {too_big}\n" if via == "config" else "")
        out = tmp_path / "out"
        out.mkdir()
        flag = ["--seed", too_big] if via == "flag" else []
        assert main(["protocol", "--config", cfg, *flag, "--output", str(out)]) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, template",
        [
            ("t_max", "{}"),
            ("alpha", "{}"),
            ("delta_tol", "{}"),
            ("delta_policy", "{}"),
            ("p_hot", "0.2,{},0.6"),
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, key, template, bad):
        # float() reads these words; a NaN t_max or alpha would give NaN rows
        # and a NaN margin would detect nothing, all with exit 0
        cfg = write_config(tmp_path, f"{key} = {template.format(bad)}\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["relax", "--config", cfg, "--output", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("margin", ["-0.5", "-1e-300"])
    def test_negative_margin_is_config_error(self, tmp_path, capsys, margin):
        # a negative margin would report a crossing at t = 0 in every row
        cfg = write_config(tmp_path, f"delta_policy = {margin}\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["protocol", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "delta_policy must be '3se' or a finite non-negative number" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem", "protocol"])
    def test_output_naming_a_file_is_config_error(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        assert main([command, "--output", str(taken)]) == 2
        assert "configuration error: cannot write output:" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem"])
    def test_overflowing_temperature_is_numerical_failure(self, tmp_path, capsys, command, model):
        # dT n-bar squares the temperature, past float range above about 1.34e154
        cfg = write_config(tmp_path, f"model = {model}\ntemperature = 1e200\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {OVERFLOW.format('1e+200')}" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["qubit", "lambda"])
    def test_overflowing_calibration_fails_its_step(self, tmp_path, capsys, model):
        cfg = write_config(tmp_path, f"model = {model}\ncalib_t_max = 1e300\n")
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 3
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        # the first knot past the limit is the second of linspace(0.3, 1e300, 9)
        assert manifest[0] == f"step_calibration = failed: {OVERFLOW.format('1.25e+299')}"
        assert manifest[1:] == [
            "step_inversion_map = skipped",
            "step_fisher_map = skipped",
            "step_estimate = skipped",
        ]
        assert "failed" in capsys.readouterr().err

    def test_invalid_model_value(self, tmp_path):
        cfg = write_config(tmp_path, "model = spin_chain\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path)]) == 2

    def test_unphysical_parameter_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "temperature = -1.0\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["relax", "theorem"])
    def test_scalar_norm_on_ladder_is_config_error(self, tmp_path, capsys, command):
        # these preparations never cross, so no bisection step meets the norm
        cfg = write_config(
            tmp_path,
            "model = lambda\nnorm_kind = scalar_abs\n"
            "p_hot = 0.6,0.3,0.1\np_cold = 0.5,0.4,0.1\n",
        )
        assert main([command, "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "scalar_abs applies to scalar states only" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem", "protocol"])
    @pytest.mark.parametrize(
        "model, norm",
        [("qubit", "euclidean"), ("qubit", "total_variation"), ("lambda", "scalar_abs")],
    )
    def test_norm_the_model_cannot_use_is_config_error(
        self, tmp_path, capsys, command, model, norm
    ):
        # without feedback the qubit never crosses, so no distance is ever
        # taken in the wrong norm: only the config check can reject it
        cfg = write_config(tmp_path, f"model = {model}\nnorm_kind = {norm}\nalpha = 0.0\n")
        assert main([command, "--config", cfg, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: norm_kind = {norm} does not fit model = {model}" in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem"])
    def test_off_simplex_preparation_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "model = lambda\np_hot = 0.5,0.5,0.5\n")
        assert main([command, "--config", cfg, "--output", str(tmp_path)]) == 2
        assert "configuration error: populations sum to 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem"])
    def test_preparations_are_ordered_in_the_configured_norm(self, tmp_path, capsys, command):
        # farther from equilibrium in total variation, nearer in the euclidean norm
        farther = "p_hot = 0.6145,0.0892,0.2963\np_cold = 0.1597,0.4252,0.4151\n"
        # nearer in total variation, farther in the euclidean norm
        nearer = "p_hot = 0.5,0.0,0.5\np_cold = 0.1,0.35,0.55\n"
        tv = "model = lambda\nnorm_kind = total_variation\n"
        cfg = write_config(tmp_path, tv + farther, name="farther.cfg")
        assert main([command, "--config", cfg, "--output", str(tmp_path / "farther")]) == 0
        cfg = write_config(tmp_path, tv + nearer, name="nearer.cfg")
        assert main([command, "--config", cfg, "--output", str(tmp_path / "nearer")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: hot preparation starts nearer equilibrium" in err
        assert "in total_variation" in err

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem"])
    def test_unphysical_rate_is_numerical_failure(self, tmp_path, capsys, command):
        # the cold preparation drives the effective rate below zero
        cfg = write_config(tmp_path, "alpha = 20.0\np0_cold = 0.0\n")
        assert main([command, "--config", cfg, "--output", str(tmp_path)]) == 3
        assert "non-positive" in capsys.readouterr().err

    def test_relax_names_the_non_positive_rate(self, tmp_path, capsys):
        # the cold preparation's feedback factor 1 + alpha (p0 - p_eq) is negative
        cfg = write_config(tmp_path, "alpha = 20.0\np0_cold = 0.05\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path / "out")]) == 3
        with pytest.raises(UnphysicalRateError) as info:
            effective_rate(QubitBathParams(1.0, 1.0, 0.5, 20.0), 0.05)
        assert capsys.readouterr().err == f"numerical failure: {info.value}\n"
        text = str(info.value)
        assert text.startswith("effective rate -0.")
        assert "is non-positive (alpha=20.0, p0=0.05," in text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem"])
    def test_cold_ladder_is_numerical_failure(self, tmp_path, capsys, command):
        # e3/T = 1000: the top level's stationary population underflows to 0
        cfg = write_config(tmp_path, "model = lambda\ntemperature = 0.001\n")
        with pytest.warns(ColdLimitWarning):
            code = main([command, "--config", cfg, "--output", str(tmp_path)])
        assert code == 3
        assert "stationary population of level 3" in capsys.readouterr().err

    def test_ladder_past_the_resolvable_gap_is_numerical_failure(self, tmp_path, capsys):
        # e3/T = 16: every level is populated, but the symmetric ladder's
        # modes no longer resolve to the decomposition's tolerances
        cfg = write_config(tmp_path, "model = lambda\ntemperature = 0.0625\n")
        assert main(["relax", "--config", cfg, "--output", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem", "protocol"])
    def test_non_finite_generator_is_numerical_failure(self, tmp_path, capsys, command):
        # kappa = 1e308 overflows the ladder's rates to +-inf; the generator
        # check names the first bad entry before any sum can warn
        cfg = write_config(
            tmp_path, "model = lambda\nkappa1 = 1e308\nkappa2 = 1e308\ntemperature = 5\n"
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        if command != "protocol":
            assert err == "numerical failure: rate matrix entry (0, 0) is -inf, not finite\n"
            assert not out.exists()
            return
        # the first calibration knot, T = 0.3, holds its first -inf on the diagonal
        failure = "rate matrix entry (2, 2) is -inf, not finite"
        assert err == f"protocol step calibration failed: {failure}\n"
        assert (out / "manifest.txt").read_text().splitlines() == [
            f"step_calibration = failed: {failure}",
            "step_inversion_map = skipped",
            "step_fisher_map = skipped",
            "step_estimate = skipped",
        ]
        assert [path.name for path in out.iterdir()] == ["manifest.txt"]

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # omega0/T = 1000: the equilibrium reference of the gain is deterministic
        # while its sensitivity is not defined past the cold cutoff
        cfg = write_config(tmp_path, "temperature = 0.001\n")
        with pytest.warns(ColdLimitWarning):
            code = main(["qfi", "--config", cfg, "--output", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: equilibrium population 0 is deterministic" in err


class TestColdLimit:
    """omega0/T = e3/T = 1000, past the qubit's overflow cutoff of 700."""

    CONFIG = "temperature = 0.001\n"

    def test_qubit_theorem_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        with pytest.warns(ColdLimitWarning):
            code = main(["theorem", "--config", cfg, "--output", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: equilibrium population 0 is deterministic" in err
        assert not (tmp_path / "out").exists()

    def test_qubit_protocol_estimates_at_the_lower_bound(self, tmp_path):
        # the calibrated knots start at 0.3, so the likelihood peaks on the
        # search interval's lower end, 0.5 calib_t_min = 0.15
        cfg = write_config(tmp_path, self.CONFIG)
        with pytest.warns(ColdLimitWarning), pytest.warns(BoundaryMaximumWarning):
            code = main(["protocol", "--config", cfg, "--output", str(tmp_path)])
        assert code == 0
        _, rows, _ = read_table(tmp_path / "estimate.csv")
        assert abs(float(rows[0][0]) - 0.15) < 1e-9
        assert (tmp_path / "manifest.txt").read_text().splitlines()[-1] == "step_estimate = ok"

    def test_ladder_protocol_fails_at_the_estimate(self, tmp_path, capsys):
        # the calibration knots are warm; only the thermalized probe at the
        # bath temperature underflows its top level
        cfg = write_config(tmp_path, "model = lambda\n" + self.CONFIG)
        with pytest.warns(ColdLimitWarning):
            code = main(["protocol", "--config", cfg, "--output", str(tmp_path)])
        assert code == 3
        failure = "stationary population of level 3 is 0, below the smallest normal float"
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[:3] == [
            "step_calibration = ok", "step_inversion_map = ok", "step_fisher_map = ok"
        ]
        assert manifest[3].startswith(f"step_estimate = failed: {failure}")
        assert f"protocol step estimate failed: {failure}" in capsys.readouterr().err
        assert not (tmp_path / "estimate.csv").exists()


def test_float_table_writes_the_bytes_of_fmt():
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 1 / 3, 1e22, math.inf, -math.inf, math.nan])
    grid = np.stack([values, values[::-1]], axis=1)  # its columns are strided views
    shared = values[::-1].copy()
    blocks = [
        (-0.0, values, shared),
        (shared, 0.0, grid[:, 1]),
        (math.inf, shared, math.nan),
        (grid[:, 0], 5e-324, values),
    ]
    cells = [
        list(row)
        for block in blocks
        for row in zip(*(c if isinstance(c, np.ndarray) else [c] * values.size for c in block))
    ]
    expected = "a,b,c\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in cells)
    text = _csv(["a", "b", "c"], blocks)
    assert text == expected
    lines = text.splitlines()
    assert lines[1] == "-0,0,nan" and lines[10] == "nan,0,nan"
    assert _csv(["a", "b", "c"], cells) == expected


def test_float_table_rejects_columns_of_unequal_length():
    # zip would cut the longer column short without a word
    with pytest.raises(ValueError):
        _csv(["a", "b"], [(np.zeros(3), np.zeros(2))])


def test_float_table_rejects_a_block_without_an_array_column():
    with pytest.raises(ValueError, match="array column"):
        _csv(["a", "b"], [(1.0, 2.0)])


def run_console_script(*args):
    """Run ``mpemba-thermo`` the way its installed console-script wrapper does.

    The target comes from ``[project.scripts]`` in ``pyproject.toml`` and is
    called in a fresh interpreter as ``sys.exit(main())``.  The package this
    test process imported goes first on the child's ``PYTHONPATH``, so the
    child runs the sources under test whatever the working directory, and no
    install is needed.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mpemba-thermo"]
    module, _, func = target.partition(":")
    package_root = Path(mpemba_thermometry.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


class TestParser:
    def test_main_builds_the_parser_once_per_process(self, monkeypatch, capsys, tmp_path):
        # what a parser built afresh writes for an unknown subcommand
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(["bogus"])
        fresh = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in fresh
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                if kwargs.get("prog") == "mpemba-thermo":  # not the subcommand parsers
                    built.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        # cli's own name for the module: argparse itself must keep its class
        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
        cli._build_parser.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(SystemExit) as exit_info:
                    main(["bogus"])
                assert exit_info.value.code == 2
                assert capsys.readouterr().err == fresh
            # a parse error leaves the parser as it was for the next run
            assert main(["relax", "--output", str(tmp_path)]) == 0
            assert built == ["mpemba-thermo"]
            assert cli._build_parser() is cli._build_parser()
        finally:
            cli._build_parser.cache_clear()  # later calls build an unpatched parser


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = run_console_script("relax", "--output", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "relax.csv").exists(), proc.stderr

    def test_help_lists_subcommands(self):
        proc = run_console_script("--help")
        assert proc.returncode == 0, proc.stderr
        for name in ("relax", "qfi", "theorem", "protocol"):
            assert name in proc.stdout, proc.stderr

    def test_cold_qubit_run_warns_once(self, tmp_path):
        # every model call past the cutoff warns from one source line, so the
        # default filter prints the warning once per run
        cfg = write_config(tmp_path, "model = qubit\ntemperature = 0.001\n")
        proc = run_console_script("relax", "--config", cfg, "--output", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("ColdLimitWarning") == 1, proc.stderr


def test_every_artifact_digest_config_loads(tmp_path):
    # a renamed key would make every config that sets it an exit-2 run on both
    # sides of a comparison, whose digests then agree and check nothing
    path = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    loaded = []
    for name, settings in tool.configs().items():
        text = "".join(f"{key} = {value}\n" for key, value in settings.items())
        config = load_config(write_config(tmp_path, text, f"{name}.cfg"))
        assert all(getattr(config, key) == value for key, value in settings.items()), name
        loaded.append(config)
    assert {config.model for config in loaded} == {"qubit", "lambda"}
    assert {0, 1} <= {config.shots for config in loaded}
    assert {config.preparation for config in loaded} == {"hot", "equilibrium"}
