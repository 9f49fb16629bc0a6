"""Command-line interface.

Subcommands select the experiment mode::

    gplb rates --config study.ini --out report.csv
    gplb risk --seed 7 --format json
    gplb contraction --config probe.ini --format json
    gplb minimax --out battery.csv
    gplb wavelet --config wave.ini
    gplb verify

Every subcommand takes --config and a flag for each setting whose
``ExperimentConfig`` field declares one (``config.FLAGGED``).  The GPLB_*
variables of the same settings override the file; flags override both.
Without --out the report, or verify's PASS/FAIL lines, is written to
stdout.  Exit codes: 0 success, 1 verify-battery failure, 2 configuration
error, dependency error (a run that reaches Imhof's inversion without
SciPy) or a report that cannot be written to --out.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import ConfigError
from .config import FLAGGED, MODES, load_config
from .properties import run_verify
from .report import _write_text, render
from .study import (
    run_contraction_study,
    run_minimax_battery,
    run_rate_study,
    run_risk_study,
    run_wavelet_study,
)

__all__ = ["main", "build_parser"]

_RUNNERS = {
    "risk": run_risk_study,
    "contraction": run_contraction_study,
    "minimax": run_minimax_battery,
    "wavelet": run_wavelet_study,
    "rates": run_rate_study,
}

_MODE_HELP = {
    "risk": "exact and Monte Carlo worst-case risk over the adversarial family",
    "contraction": "posterior mass outside the transfer radii",
    "minimax": "closed-form vs grid-search one-sparse linear minimax risk",
    "wavelet": "wavelet series prior risk at a fine-scale ridge truth",
    "rates": "risk study plus a fitted log-log rate slope",
    "verify": "run the fast property battery and report PASS/FAIL lines",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gplb",
        description="Numerical laboratory for worst-case risk floors of "
        "Gaussian-process posterior means.",
    )
    subparsers = parser.add_subparsers(dest="mode", required=True, metavar="mode")
    for mode in MODES:
        sub = subparsers.add_parser(mode, help=_MODE_HELP[mode])
        sub.add_argument("--config", help="path to an INI experiment config")
        for setting in FLAGGED:
            options = setting.metadata["flag"]
            sub.add_argument(f"--{setting.name}", type=setting.metadata["parse"], **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    try:
        config = load_config(overrides.pop("config"), overrides)
        if config.out is not None and os.path.isdir(config.out):
            print(f"output error: {config.out} is a directory", file=sys.stderr)
            return 2
        parent = os.path.dirname(os.path.abspath(config.out)) if config.out is not None else None
        if parent is not None and not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            print(f"output error: {config.out}: {parent} is not a writable directory", file=sys.stderr)
            return 2
        if config.mode == "verify":
            passed, lines = run_verify(config)
            text, status = "".join(line + "\n" for line in lines), 0 if passed else 1
        else:
            text, status = render(_RUNNERS[config.mode](config), config.format), 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "scipy":
            raise
        print(f"dependency error: this run needs SciPy, which cannot be imported ({exc})", file=sys.stderr)
        return 2
    if config.out is None:
        sys.stdout.write(text)
        return status
    try:
        _write_text(text, config.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return status
