"""Benchmark of the mpemba_thermometry package: one workload per invocation.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Runs from any checkout of the repository; it imports the package from the
checkout's ``src`` directory.  The workload runs in this single process with
BLAS pinned to one thread: a closed loop with one client, each op started
after the previous one returned.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
PACKAGE_DIR = ROOT / "src" / "mpemba_thermometry"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
MIN_OVERHEAD_PAIRS = 4
# a run never measures past this many seconds beyond --seconds, so that it
# exits well inside its time limit on a slow host
WALL_SLACK_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "harness.self_s": "s",
            "qubit.points": "count",
            "qubit.points_per_row": "points/row",
            "spectral.modal_rows": "count",
            "spectral.modal_rows_per_row": "rows/row",
            "spectral.decompose.calls": "count",
            "mpemba.detect_inversion.calls": "count",
            "certificates.verify_theorem.self_s": "s",
            "protocol.cells_sampled": "count",
            "protocol.fisher_map.self_s": "s",
            "protocol.dynamical_calibration.self_s": "s",
            "protocol.mle_temperature.self_s": "s",
            "oracle.rk4_steps": "count.computed",
            "cli.bytes_written": "B",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _machine(args, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_pin": {key: os.environ.get(key) for key in BLAS_PIN},
        "process_threads": _thread_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe_setup(config_path: Path) -> float:
    """Wall time of a fresh interpreter that imports, builds the parser and loads a config."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), str(ROOT), str(config_path)],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(args, ops, session, workloads) -> tuple[dict, dict]:
    config_path = next((op.config_path for op in ops if getattr(op, "config_path", None)), None)
    if config_path is None:  # crosscheck ops run no CLI; probe the default config
        config_path = OUT / "work" / "default.cfg"
        config_path.parent.mkdir(parents=True, exist_ok=True)
        config_path.write_text("")
    session.attempt(ops[0])  # warm-up, untimed
    # set-up probes are spread over the run, between ops, so that their
    # median samples the host as the ops do
    setup: list[float] = []
    times: list[float] = []
    start = time.perf_counter()
    i = 0
    while (sum(times) < args.seconds or i < len(ops)) and (
        time.perf_counter() - start < args.seconds + WALL_SLACK_S
    ):
        if len(setup) < SETUP_PROBES and sum(times) >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(_probe_setup(config_path))
        times.append(session.attempt(ops[i % len(ops)]))
        i += 1
    setup += [_probe_setup(config_path) for _ in range(SETUP_PROBES - len(setup))]
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tail = _percentile(times, pct) if len(times) > 1 else times[0]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "ops_timed": len(times),
        "tail_percentile": pct,
        "ops_beyond_tail": sum(1 for t in times if t > tail),
        "setup_probes_s": setup,
        "op_times_s": times,
    }
    return metrics, extra


def run_traced(args, ops, session, workloads) -> tuple[dict, dict]:
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    session.attempt(ops[0])  # warm-up, untraced
    rows = written = 0
    measured = 0.0
    tracer.install()
    try:
        # count pass: a fixed prefix of the cycle, traced; counts repeat exactly
        counted = ops[: workloads.COUNT_PASS_OPS[args.workload]]
        for op in counted:
            measured += session.attempt(op, timer=tracer.op)
            if session.last_status is not None:
                rows += op.rows(session.last_status)
                written += op.bytes_written(session.last_status)
        calls, self_s = dict(tracer.calls), dict(tracer.self_s)
        fn_calls, fn_self_s, counts = dict(tracer.fn_calls), dict(tracer.fn_self_s), dict(tracer.counts)
        # overhead pairs: the same op untraced, then traced
        untraced_s = traced_s = 0.0
        pairs = 0
        start = time.perf_counter()
        while (measured < args.seconds or pairs < MIN_OVERHEAD_PAIRS) and (
            time.perf_counter() - start < args.seconds + WALL_SLACK_S
        ):
            op = ops[pairs % len(ops)]
            tracer.uninstall()
            plain = session.attempt(op)
            tracer.install()
            traced = session.attempt(op, timer=tracer.op)
            untraced_s += plain
            traced_s += traced
            measured += plain + traced
            pairs += 1
    finally:
        tracer.uninstall()

    n = len(counted)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
    metrics["harness.self_s"] = self_s.get("harness", 0.0) / n
    points = counts.get("qubit.points", 0)
    modal_rows = counts.get("spectral.modal_rows", 0)
    metrics.update(
        {
            "qubit.points": points,
            "qubit.points_per_row": points / rows if rows else 0.0,
            "spectral.modal_rows": modal_rows,
            "spectral.modal_rows_per_row": modal_rows / rows if rows else 0.0,
            "spectral.decompose.calls": fn_calls.get("spectral.decompose", 0),
            "mpemba.detect_inversion.calls": fn_calls.get("mpemba.detect_inversion", 0),
            "certificates.verify_theorem.self_s": fn_self_s.get("certificates.verify_theorem", 0.0) / n,
            "protocol.cells_sampled": counts.get("protocol.cells_sampled", 0),
            "protocol.fisher_map.self_s": fn_self_s.get("protocol.fisher_map", 0.0) / n,
            "protocol.dynamical_calibration.self_s": fn_self_s.get("protocol.dynamical_calibration", 0.0) / n,
            "protocol.mle_temperature.self_s": fn_self_s.get("protocol.mle_temperature", 0.0) / n,
            "oracle.rk4_steps": counts.get("oracle.rk4_steps", 0),
            "cli.bytes_written": written,
            "trace.overhead_frac": 1.0 - untraced_s / traced_s if traced_s > 0 else 0.0,
        }
    )
    spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    extra = {
        "count_pass_ops": n,
        "count_pass_rows": rows,
        "overhead_pairs": pairs,
        "accounted_gap": tracer.accounted_gap(),
        "spans_recorded": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "function_calls": fn_calls,
        "function_self_s": {k: v / n for k, v in fn_self_s.items()},
    }
    return metrics, extra


def source_key(numpy_version: str) -> str:
    """What makes two runs "the same code": sha256 of the package's ``.py``
    files and of the workload generator, with the numpy and Python versions
    and the CPU model."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")) + [BENCH / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(f"numpy {numpy_version} python {platform.python_version()} {_cpu_model()}".encode())
    return h.hexdigest()[:16]


def _load_store(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def digest_status(
    entry: str, key: str, op_digests: dict[str, str], store_path: Path, reference_path: Path
) -> tuple[str, list[str]]:
    """Check op digests against the digest store; returns (state, problems).

    Both stores map source key -> "workload/seed" -> op label -> digest
    prefix.  ``store_path`` collects the runs of this checkout; the committed
    ``reference_path`` holds the runs of the commit that recorded it.  Under
    the run's own source key every digest must match what was recorded
    (else the run is nondeterministic).  Under another key a changed digest is
    only reported.
    """
    digests = {label: digest[:16] for label, digest in op_digests.items()}
    store, reference = _load_store(store_path), _load_store(reference_path)
    recorded = store.setdefault(key, {}).setdefault(entry, {})
    same_code = {**reference.get(key, {}).get(entry, {}), **recorded}
    problems = [
        f"nondeterministic: {label} digest differs from an earlier run of the same code"
        for label, digest in digests.items()
        if same_code.get(label, digest) != digest
    ]
    for label, digest in digests.items():
        recorded.setdefault(label, digest)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")

    ref_key, ref_entries = next(iter(reference.items()), (None, {}))
    ref = ref_entries.get(entry, {})
    compared = [label for label in digests if label in ref]
    changed = [label for label in compared if ref[label] != digests[label]]
    if not compared:
        return "no reference for this seed", problems
    if ref_key == key:
        return f"same code as the reference ({len(compared)} ops)", problems
    if changed:
        return "changed vs reference: " + ", ".join(changed), problems
    return f"unchanged vs reference ({len(compared)} ops)", problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"package sources not found under {PACKAGE_DIR}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import numpy
    import workloads
    import mpemba_thermometry

    if Path(mpemba_thermometry.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print(f"imported {mpemba_thermometry.__file__}, not {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS or args.seconds <= 0:
        print(f"workload must be one of {workloads.WORKLOADS}, seconds > 0", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.build(args.workload, args.seed)
    for op in ops:
        op.prepare(work)
    session = workloads.Session()
    runner = run_traced if args.trace else run_untraced
    metrics, extra = runner(args, ops, session, workloads)

    op_digests = session.op_digests(ops)
    digest = hashlib.sha256(json.dumps(op_digests).encode()).hexdigest()
    key = source_key(numpy.__version__)
    reference_state, problems = digest_status(
        f"{args.workload}/{args.seed}",
        key,
        op_digests,
        OUT / "digests.json",
        BENCH / "reference_digests.json",
    )
    if args.trace and extra["accounted_gap"] > 1e-6:
        problems.append(f"self times miss the traced op time by {extra['accounted_gap']:.3g}")
    correct = session.failed == 0 and not problems
    units = END_TO_END_UNITS if not args.trace else per_layer_units()
    record = {
        "machine": _machine(args, numpy.__version__),
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "failed_frac": session.failed / session.attempted,
        "problems": (session.problems + problems)[:50],
        "run_digest": digest,
        "source_key": key,
        "digest_vs_reference": reference_state,
        "op_digests": op_digests,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **extra,
    }
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n")

    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: attempted {session.attempted}, "
        f"failed {session.failed} (failed_frac {record['failed_frac']:.4g}), correct {correct}"
    )
    if not args.trace:
        print(
            f"op_tail_s is p{extra['tail_percentile']} of {extra['ops_timed']} timed ops "
            f"({extra['ops_beyond_tail']} beyond it)"
        )
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"run digest {digest}, source key {key} ({reference_state})")
    print(f"results record: {results.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
