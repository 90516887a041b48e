"""Command-line interface: artifact schemas, determinism, and exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpemba_thermometry
from mpemba_thermometry.cli import _csv, _fmt, main
from mpemba_thermometry.fisher import qfi_equilibrium
from mpemba_thermometry.protocol import calibrate_equilibrium, fisher_map
from mpemba_thermometry.qubit import (
    ColdLimitWarning,
    QubitBathParams,
    evolve_population,
    gibbs_population_qubit,
)

T_STAR_QUBIT = 1.3671541640340499
T_STAR_LADDER = 0.48787920210350055


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
    def test_noiseless_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, "shots = 0\nt_steps = 81\nt_max = 8.0\n")
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
        exact = [gibbs_population_qubit(1.0, t) for t in data[:, 0]]
        assert np.allclose(data[:, 1], exact, rtol=0, atol=1e-15)
        # every calibration temperature shows a finite crossing without noise
        _, inv_rows, _ = read_table(tmp_path / "inversion_map.csv")
        crossings = [row[1] for row in inv_rows]
        assert all(cell != "" for cell in crossings)
        assert all(0.0 < float(cell) <= 8.0 for cell in crossings)
        _, est_rows, _ = read_table(tmp_path / "estimate.csv")
        t_hat, stderr, _, shots = (float(cell) for cell in est_rows[0])
        assert t_hat == pytest.approx(0.5, abs=1e-5)
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
        cfg = write_config(
            tmp_path,
            "shots = 0\nalpha = 20.0\np0_hot = 0.05\np0_cold = 0.02\n",
        )
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 3
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "step_calibration = ok"
        assert manifest[1].startswith("step_inversion_map = failed:")
        assert manifest[2] == "step_fisher_map = skipped"
        assert manifest[3] == "step_estimate = skipped"
        assert "failed" in capsys.readouterr().err
        assert not (tmp_path / "fisher_map.csv").exists()

    def test_tables_equal_cell_by_cell_text(self, tmp_path):
        cfg = write_config(
            tmp_path, "t_steps = 21\nt_max = 6.0\ncalib_t_points = 6\nseed = 7\n"
        )
        assert main(["protocol", "--config", cfg, "--output", str(tmp_path)]) == 0
        temps = np.linspace(0.3, 0.7, 6)
        times = np.linspace(0.0, 6.0, 21)
        curve = calibrate_equilibrium(1.0, temps, 10_000, 7)
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

    def test_requires_qubit_model(self, tmp_path, capsys):
        assert main(["protocol", "--model", "lambda", "--output", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", ["relax", "qfi", "theorem"])
    def test_cold_ladder_is_numerical_failure(self, tmp_path, capsys, command):
        # e3/T = 1000: the top level's stationary population underflows to 0
        cfg = write_config(tmp_path, "model = lambda\ntemperature = 0.001\n")
        with pytest.warns(ColdLimitWarning):
            code = main([command, "--config", cfg, "--output", str(tmp_path)])
        assert code == 3
        assert "stationary population of level 3" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a fully inverted preparation carries divergent information at t = 0
        cfg = write_config(tmp_path, "p0_hot = 1.0\n")
        assert main(["qfi", "--config", cfg, "--output", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err


def test_float_table_writes_the_bytes_of_fmt():
    values = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 1e22, math.inf, -math.inf, math.nan]
    table = np.array([values, values[::-1]])
    expected = "v\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in table.tolist())
    assert _csv(["v"], table) == expected
    assert _csv(["v"], table.tolist()) == expected


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
