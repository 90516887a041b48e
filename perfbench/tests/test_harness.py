"""Tests of the benchmark harness itself: inputs, failure counting, exact counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
import workloads  # noqa: E402
from mpemba_thermometry import cli, qubit  # noqa: E402
from tracer import Tracer  # noqa: E402

CANONICAL = {
    "model": "qubit",
    "omega0": 1.0,
    "gamma": 1.0,
    "temperature": 0.5,
    "alpha": 1.0,
    "p0_hot": 0.9,
    "p0_cold": 0.5,
    "t_max": 10.0,
    "t_steps": 201,
}


def _relax_op(label: str, **overrides) -> workloads.CliOp:
    return workloads.CliOp(
        label=label,
        command="relax",
        config={**CANONICAL, **overrides},
        instance=label,
        check_rows=(10, 30),
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_one_seed_and_differ_across_seeds(workload):
    first = [op.describe() for op in workloads.build(workload, 7)]
    again = [op.describe() for op in workloads.build(workload, 7)]
    other = [op.describe() for op in workloads.build(workload, 8)]
    assert first == again
    assert len(first) == len(other)
    assert all(a != b for a, b in zip(first, other))
    assert len(set(first)) == len(first)


def test_injected_exit_code_and_corrupted_artifact_count_as_failed(tmp_path):
    good = _relax_op("good")
    failing = _relax_op("failing", alpha=20.0, p0_cold=0.0)  # rate goes negative: exit 3
    corrupted = _relax_op("corrupted")
    for op in (good, failing, corrupted):
        op.prepare(tmp_path)

    def run_then_drop_last_row(fn):
        status = fn()
        path = corrupted.out_dir / "relax.csv"
        lines = path.read_text().splitlines(keepends=True)
        data_end = max(i for i, line in enumerate(lines) if not line.startswith("#"))
        path.write_text("".join(lines[:data_end] + lines[data_end + 1 :]))
        return status, 0.0

    session = workloads.Session()
    session.attempt(good)
    session.attempt(failing)
    session.attempt(corrupted, timer=run_then_drop_last_row)
    assert failing.run() == 3
    assert (session.attempted, session.failed) == (3, 2)
    assert any("failing: exit code 3" in p for p in session.problems)
    assert any(p.startswith("corrupted: relax.csv has 200 rows") for p in session.problems)


def test_repeat_with_changed_artifact_fails_as_nondeterministic(tmp_path):
    op = _relax_op("repeat")
    op.prepare(tmp_path)
    session = workloads.Session()
    session.attempt(op)

    def run_then_touch(fn):
        status = fn()
        with open(op.out_dir / "relax.csv", "a") as handle:
            handle.write("# extra\n")
        return status, 0.0

    session.attempt(op, timer=run_then_touch)
    assert session.failed == 1
    assert "nondeterministic" in session.problems[0]


def _count_pass(ops, work: Path):
    tracer = Tracer()
    session = workloads.Session()
    for op in ops:
        op.prepare(work)
    with tracer:
        for op in ops:
            session.attempt(op, timer=tracer.op)
    assert session.failed == 0, session.problems
    assert tracer.accounted_gap() < 1e-9
    return dict(tracer.calls), dict(tracer.fn_calls), dict(tracer.counts)


@pytest.mark.parametrize(
    "workload, n_ops", [("trajectory", 2), ("protocol", 1), ("crosscheck", 2)]
)
def test_traced_counts_repeat_exactly(tmp_path, workload, n_ops):
    original = (cli.main, qubit.evolve_population, qubit.QubitBathParams)
    first = _count_pass(workloads.build(workload, 5)[:n_ops], tmp_path / "a")
    second = _count_pass(workloads.build(workload, 5)[:n_ops], tmp_path / "b")
    assert first == second
    assert (cli.main, qubit.evolve_population, qubit.QubitBathParams) == original
    calls, fn_calls, counts = first
    if workload == "crosscheck":
        ops = workloads.build(workload, 5)[:n_ops]
        horizons = [op.params["rk4_t_max"] for op in ops]
        assert counts["oracle.rk4_steps"] == sum(round(h / workloads.RK4_DT) for h in horizons)
        assert fn_calls["instances.make_lambda_pair"] == n_ops
        assert "cli" not in calls
    elif workload == "protocol":
        assert counts["protocol.cells_sampled"] > 0
        assert "spectral" not in calls and "oracle" not in calls
    else:
        assert calls["cli"] == n_ops and counts["qubit.points"] > 0
        assert "protocol" not in calls and "oracle" not in calls
        # a point counts once per call into qubit: the canonical relax op
        # evaluates hot and cold on its 201-step grid for the crossing check
        # and again for the rows, and bisects the crossing with 27 gap
        # evaluations of hot and cold
        _, _, known = _count_pass([_relax_op("known")], tmp_path / "known")
        assert known["qubit.points"] == 4 * 201 + 2 * 27


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "trajectory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for entry in spec["workloads"]:
        assert f"p{workloads.TAIL_PERCENTILE[entry['name']]}" in entry["why"]


def test_digests_fail_only_against_the_same_source_key(tmp_path):
    store, reference = tmp_path / "digests.json", tmp_path / "reference.json"
    reference.write_text(json.dumps({"ref": {"trajectory/1": {"t00": "a" * 16}}}))
    entry = "trajectory/1"
    # another commit's code moves a digest: reported, not failed
    assert run.digest_status(entry, "k1", {"t00": "b" * 64}, store, reference) == (
        "changed vs reference: t00",
        [],
    )
    # a second commit checked out in the same tree keeps its own digests
    assert run.digest_status(entry, "k2", {"t00": "c" * 64}, store, reference)[1] == []
    assert run.digest_status(entry, "k1", {"t00": "b" * 64}, store, reference)[1] == []
    # the same code must reproduce what it recorded, and what the reference holds
    for key, digest in (("k1", "c" * 64), ("k2", "b" * 64), ("ref", "b" * 64)):
        problems = run.digest_status(entry, key, {"t00": digest}, store, reference)[1]
        assert len(problems) == 1 and problems[0].startswith("nondeterministic: t00")


def test_source_key_follows_the_package_sources(tmp_path, monkeypatch):
    numpy_version = "2.0"
    key = run.source_key(numpy_version)
    package = tmp_path / "src" / "mpemba_thermometry"
    shutil.copytree(run.PACKAGE_DIR, package, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "BENCH", tmp_path / "perfbench")
    monkeypatch.setattr(run, "PACKAGE_DIR", package)
    assert run.source_key(numpy_version) == key
    assert run.source_key("2.1") != key
    with open(package / "qubit.py", "a") as handle:
        handle.write("# edited\n")
    assert run.source_key(numpy_version) != key
