"""BENCHMARK.json names exactly the workloads and metrics the benchmark emits.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from calls import WORKLOADS  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402

MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_the_traced_run():
    emitted = layer_metrics(
        Tracer(), wall_s=1.0, untraced_wall_s=1.0, cpu_s=1.0, points=1, report_bytes=1
    )
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert declared == {name: unit for name, (_, unit) in emitted.items()}


def test_every_layer_has_a_metric():
    layers = {m["name"].split(".")[0] for m in MANIFEST["per_layer"]}
    assert layers == {"integrate", "sequence_core", "adversarial", "sparse_linear", "wavelet", "harness"}


def test_end_to_end_metrics_and_bounds():
    metrics = {m["name"]: m for m in MANIFEST["end_to_end"]}
    assert set(metrics) == {"wall_ref", "setup_s", "peak_rss_mb"}
    assert metrics["setup_s"]["bound"] == max(m["bound"] for m in metrics.values())
    assert all(0 < m["bound"] <= 0.25 for m in metrics.values())
