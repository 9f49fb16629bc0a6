"""Benchmark of the gplb study runners, end to end and layer by layer.

Run from the root of a checkout::

    python3 bench/run.py --workload risk-d2 --seed 1 --seconds 30 --trace 0

gplb is imported from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.  Tests of the benchmark itself:
``python3 -m pytest bench/tests``.

Workloads (``calls.py``); each is the CLI call(s) named, with
``threads = 1`` and the given seed:

* ``rates-d1``   ``gplb rates`` at the shipped defaults: d = 1, seven n
  from 1e3 to 1e6, replications 1000, outer 200, inner 500.  The nested
  Monte Carlo of ``contraction_probability`` dominates.
* ``risk-d2``    ``gplb risk`` at d = 2, n = 1e3, 1e4, 1e5, auto basis
  level (K = 4096 to 16384).  ``compute_coefficients`` dominates.
* ``wavelet-d3`` ``gplb wavelet`` at d = 3, level 2 (K = 512): the ridge
  integration path and ``mc_risk`` under a non-matched prior.
* ``battery``    ``gplb verify`` then ``gplb minimax`` with m = 1..64 and
  grid_size 2000001: the only workload reaching ``sparse_linear``, the
  verify battery and adaptive quadrature.

``--trace 0``: each study runs in a fresh interpreter, as a CLI call
does; studies repeat while another one fits in ``--seconds``.  Metrics:
``wall_ref``, the median over studies of the study wall time (from the
resolved config to the rendered report bytes) divided by the reference
time sampled on the study's CPU while it ran (``speed.py``), which
divides out the host's drifting speed; ``setup_s``, the median time from
starting an interpreter to a resolved config (import gplb, NumPy and
SciPy, then ``load_config``), over at least three interpreters;
``peak_rss_mb``, the largest peak RSS of a study process.  The study wall
times in seconds are printed and recorded with the details.

``--trace 1``: one untraced study in a fresh interpreter, then the same
study in this process with a span around every call into each layer's
public functions (``layers.py``).  Both reports must be byte-identical.
Metrics: the per-layer metrics of the traced study.

Every report is checked (``checks.py``): a grid point, verify line or
minimax row that fails a check counts in ``failed``.  Each run writes its
details -- machine, every timing with quartiles, report SHA-256 digests,
grid-point sizes, spans -- to ``bench/out/``.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from calls import WORKLOADS, call_overrides, import_source, resolve, run_calls
from checks import check_report, expected_units, parse_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_SETUPS = 3
CALL_TIMEOUT_S = 170

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class CallFailed(RuntimeError):
    """A study process exited without a result."""


def spawn_call(overrides: list[dict], setup_only: bool = False) -> dict:
    """Run one call in a fresh interpreter; adds its ``setup_s``."""
    command = [sys.executable, str(BENCH / "calls.py"), str(SRC), json.dumps(overrides)]
    start = time.monotonic()
    done = subprocess.run(
        command + (["--setup-only"] if setup_only else []),
        capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise CallFailed(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["configs"] = [SimpleNamespace(**config) for config in result["configs"]]
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"count": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def machine_conditions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "platform": platform.platform(),
    }


def point_sizes(report: str, coefficient_calls=None) -> list[dict]:
    """n, k, m, K and dense coefficient bytes of every grid point of a study report.

    In a traced run the nonzeros and the time of the coefficient calls
    are added: one call per grid point, or one call shared by all of them.
    """
    points: dict[float, dict] = {}
    for row in parse_csv(report.splitlines()):
        if row.get("n") is not None and row["n"] not in points:
            points[row["n"]] = {"n": row["n"]} | {
                key: None if row.get(key) is None else int(row[key]) for key in ("k", "m", "K")
            }
    sizes = list(points.values())
    for point in sizes:
        if point["m"] is not None and point["K"] is not None:
            point["dense_bytes"] = int(8 * point["m"] * point["K"])
    if coefficient_calls:
        shared = len(coefficient_calls) == 1
        if shared or len(coefficient_calls) == len(sizes):
            for index, point in enumerate(sizes):
                call = coefficient_calls[0 if shared else index]
                point.update(nonzeros=call["nonzeros"], coefficients_s=call["seconds"])
    return sizes


def record(report: str, configs, summary: dict) -> int:
    """Check one report into the summary; returns the units it attempted."""
    check = check_report(report, configs)
    summary["attempted"] += check.attempted
    summary["failed"] += check.failed
    summary["problems"].extend(check.problems)
    summary["digests"].append(hashlib.sha256(report.encode()).hexdigest())
    return check.attempted


def record_failure(units: int, problem: str, summary: dict) -> None:
    summary["attempted"] += units
    summary["failed"] += units
    summary["problems"].append(problem)


def study_call(overrides: list[dict], summary: dict) -> dict | None:
    """One untraced study in a fresh interpreter, checked; None if it failed."""
    try:
        result = spawn_call(overrides)
    except (CallFailed, subprocess.TimeoutExpired) as exc:
        record_failure(1, str(exc), summary)
        return None
    if "error" in result:
        record_failure(expected_units(result["configs"]), result["error"], summary)
        return None
    record(result["report"], result["configs"], summary)
    return result


def timed_run(workload: str, seed: int, seconds: float, summary: dict) -> dict:
    start = time.monotonic()
    overrides = call_overrides(workload, seed)
    walls, references, setups, peaks = [], [], [], []
    report = ""
    while True:
        began = time.monotonic()
        result = study_call(overrides, summary)
        if result is None:
            break
        setups.append(result["setup_s"])
        walls.append(result["wall_s"])
        references.append(result["reference_s"])
        peaks.append(result["peak_rss_mb"])
        report = result["report"]
        if time.monotonic() - start + (time.monotonic() - began) > seconds:
            break
    while walls and len(setups) < MIN_SETUPS:
        setups.append(spawn_call(overrides, setup_only=True)["setup_s"])
    summary.update(walls=walls, reference_s=references, setups=setups, peaks=peaks)
    if not walls:
        return {}
    summary.update(
        wall_s=quartiles(walls),
        wall_ref=quartiles([wall / ref for wall, ref in zip(walls, references)]),
        setup_s=quartiles(setups),
        points=point_sizes(report),
    )
    return {
        "wall_ref": (summary["wall_ref"]["median"], "ref"),
        "setup_s": (summary["setup_s"]["median"], "s"),
        "peak_rss_mb": (max(peaks), "MB"),
    }


def traced_run(workload: str, seed: int, summary: dict) -> dict:
    overrides = call_overrides(workload, seed)
    plain = study_call(overrides, summary)
    if plain is None:
        return {}

    import_source(SRC)
    from layers import instrument, layer_metrics
    from spans import Tracer

    tracer = Tracer()
    coefficient_calls = instrument(tracer)
    try:
        with tracer.span("harness.config"):
            configs = resolve(overrides)
        cpu = time.process_time()
        began = time.perf_counter()
        traced = run_calls(configs, tracer).decode()
        wall = time.perf_counter() - began
        cpu = time.process_time() - cpu
    except Exception:
        record_failure(expected_units(plain["configs"]), traceback.format_exc(), summary)
        return {}
    finally:
        tracer.restore()
    if tracer.depth != 0:
        summary["problems"].append(f"span stack left {tracer.depth} spans open")
    points = record(traced, configs, summary)
    summary.update(
        spans=tracer.spans,
        coefficient_calls=coefficient_calls,
        points=point_sizes(traced, coefficient_calls),
        wall_s={"untraced": plain["wall_s"], "traced": wall},
    )
    return layer_metrics(
        tracer, wall_s=wall, untraced_wall_s=plain["wall_s"], cpu_s=cpu,
        points=points, report_bytes=len(traced.encode()),
    )


def write_details(summary: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{summary['workload']}_seed{summary['seed']}_trace{summary['trace']}"
    spans = summary.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "gplb" / "__init__.py").is_file():
        print(f"error: {SRC / 'gplb'} not found; run from the root of a gplb checkout",
              file=sys.stderr)
        return 2

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_conditions(),
        "attempted": 0,
        "failed": 0,
        "problems": [],
        "digests": [],
    }
    if args.trace:
        metrics = traced_run(args.workload, args.seed, summary)
    else:
        metrics = timed_run(args.workload, args.seed, args.seconds, summary)

    identical = len(set(summary["digests"])) <= 1
    if not identical:
        summary["problems"].append("report bytes differ between studies of one seed")
    summary["failed_frac"] = summary["failed"] / max(summary["attempted"], 1)
    correct = bool(metrics) and summary["failed"] == 0 and identical
    summary["correct"] = correct
    summary["metrics"] = {
        name: {"value": int(value) if unit in ("count", "bytes") else value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    path = write_details(summary)

    machine = summary["machine"]
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} blas={machine['blas']} "
          f"thread_env={machine['thread_env']}")
    for key in ("wall_s", "wall_ref", "setup_s"):
        if key in summary:
            print(f"{key}: {summary[key]}")
    for point in summary.get("points", []):
        print(f"point: {point}")
    print(f"report sha256: {sorted(set(summary['digests']))}")
    print(f"failed_frac: {summary['failed']}/{summary['attempted']} = {summary['failed_frac']:.6g}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
