"""The workloads, and one CLI-like call of a workload in a fresh interpreter.

Every ``gplb`` command starts a new interpreter, imports the package,
resolves its config and runs one study, so the benchmark times each study
the same way: ``run.py`` starts this file once per study.  Run directly::

    python3 bench/calls.py SRC OVERRIDES_JSON [--setup-only]

it imports gplb from SRC, resolves each config in OVERRIDES_JSON (a list
of ``load_config`` override dicts, one per CLI call), runs the calls
unless ``--setup-only`` and prints one JSON line: the monotonic clock
when the configs were resolved (``ready``, comparable with the parent's
clock), the study wall time, the reference time sampled on the study's
CPU while it ran (``speed.py``), the peak RSS, the resolved configs and
the report text.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler

WORKLOADS = {
    "rates-d1": ({"mode": "rates"},),
    "risk-d2": ({"mode": "risk", "d": 2, "n_grid": [1e3, 1e4, 1e5]},),
    "wavelet-d3": ({"mode": "wavelet", "d": 3, "level": 2},),
    # gplb verify keeps its default seed 1: its Kolmogorov-Smirnov check
    # fails at p <= 1e-3 by design, on 2 of seeds 0..299, so a seeded
    # battery would fail at random.  The minimax call takes the seed.
    "battery": (
        {"mode": "verify", "seed": 1},
        {"mode": "minimax", "m_values": [1, 2, 4, 8, 16, 32, 64], "grid_size": 2000001},
    ),
}

CHECKED_FIELDS = ("mode", "n_grid", "m_values", "sigma_values", "grid_size")


def call_overrides(workload: str, seed: int) -> list[dict]:
    """load_config overrides of each CLI call of a workload."""
    return [{"seed": seed, "threads": 1, **call} for call in WORKLOADS[workload]]


def import_source(src: Path):
    """Import gplb from ``src``, never from an installed copy."""
    package = src / "gplb" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a gplb checkout")
    sys.path.insert(0, str(src))
    import gplb

    if Path(gplb.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported gplb from {gplb.__file__}, not {package}")
    return gplb


class NullTracer:
    """Stands in for ``spans.Tracer`` when a study runs untraced."""

    def span(self, name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def resolve(overrides: list[dict]):
    from gplb.harness.config import load_config

    return [load_config(None, call, env={}) for call in overrides]


def run_calls(configs, tracer) -> bytes:
    """Run each CLI call of a workload in-process; returns what they would print."""
    from gplb.harness import properties, report, study

    runners = {
        "risk": study.run_risk_study,
        "rates": study.run_rate_study,
        "wavelet": study.run_wavelet_study,
        "minimax": study.run_minimax_battery,
    }
    parts = []
    for config in configs:
        if config.mode == "verify":
            with tracer.span("harness.verify"):
                _, lines = properties.run_verify(config)
            parts.append("".join(line + "\n" for line in lines))
        else:
            with tracer.span("harness.study"):
                result = runners[config.mode](config)
            with tracer.span("harness.render"):
                parts.append(report.render_csv(result))
    return "".join(parts).encode()


def checked_fields(config) -> dict:
    """The resolved config fields the report checks read."""
    return {name: getattr(config, name) for name in CHECKED_FIELDS}


def main(argv: list[str]) -> int:
    src, overrides = Path(argv[0]), json.loads(argv[1])
    import_source(src)
    import gplb.harness.cli  # noqa: F401  everything a CLI call imports

    configs = resolve(overrides)
    result = {"ready": time.monotonic(), "configs": [checked_fields(c) for c in configs]}
    if "--setup-only" not in argv[2:]:
        try:
            with SpeedSampler() as speed:
                began = time.perf_counter()
                report = run_calls(configs, NullTracer())
                result["wall_s"] = time.perf_counter() - began
            result["reference_s"] = speed.reference_s()
            result["report"] = report.decode()
        except Exception:
            result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
