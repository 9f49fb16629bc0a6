"""Experiment configuration: file parsing, environment and CLI overrides.

A run is configured by an INI file with typed sections::

    [experiment]
    mode = rates            ; risk | contraction | minimax | wavelet | rates | verify
    d = 1
    n_grid = logspace:3:6:7 ; or an explicit comma list: 1e3, 3.16e3, 1e4
    seed = 1
    threads = 1
    delta = 0.1
    grid_rule = ceil        ; ceil | round | floor

    [spectrum]
    preset = matched        ; matched | polynomial | exponential | flat
    tau = 1.0
    alpha = 1.0
    beta = 1.0
    ; K = 256               ; basis truncation (default: full basis)
    ; level = 6             ; wavelet basis level (default: derived from the grid)

    [mc]
    replications = 1000     ; 2 to 2**53

    [minimax]
    m_values = 1, 2, 4, 8
    sigma_values = 0.1, 0.5, 1.0, 3.0
    grid_size = 100001

    [output]
    ; path = report.csv
    format = csv

Overrides resolve with precedence: command-line flags, then GPLB_*
environment variables (GPLB_CONFIG, GPLB_SEED, GPLB_OUT, GPLB_FORMAT,
GPLB_THREADS), then the file, then defaults.  Every run embeds the fully
resolved configuration in its report so outputs are self-describing.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields

from ..errors import ConfigError
from .report import format_cell

__all__ = ["ExperimentConfig", "load_config", "resolved_items", "MODES"]

MODES = ("risk", "contraction", "minimax", "wavelet", "rates", "verify")
GRID_RULES = ("ceil", "round", "floor")
SPECTRUM_PRESETS = ("matched", "polynomial", "exponential", "flat")
FORMATS = ("csv", "json")

_ENV_KEYS = {
    "GPLB_SEED": "seed",
    "GPLB_OUT": "out",
    "GPLB_FORMAT": "format",
    "GPLB_THREADS": "threads",
}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "rates"
    d: int = 1
    n_grid: tuple[float, ...] = (1e3, 10**3.5, 1e4, 10**4.5, 1e5, 10**5.5, 1e6)
    seed: int = 1
    threads: int = 1
    delta: float = 0.1
    grid_rule: str = "ceil"
    spectrum: str = "matched"
    tau: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    K: int | None = None
    level: int | None = None
    replications: int = 1000
    m_values: tuple[int, ...] = (1, 2, 4, 8)
    sigma_values: tuple[float, ...] = (0.1, 0.5, 1.0, 3.0)
    grid_size: int = 100001
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        grid = tuple(float(v) for v in self.n_grid)
        if not grid:
            raise ConfigError("n_grid must contain at least one sample size")
        if any(not (v >= 1 and math.isfinite(v)) for v in grid):
            raise ConfigError("every n in n_grid must be finite and at least 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not 0.0 < self.delta < 0.25:
            raise ConfigError("delta must lie strictly between 0 and 1/4")
        if self.grid_rule not in GRID_RULES:
            raise ConfigError(f"grid_rule must be one of {GRID_RULES}, got {self.grid_rule!r}")
        if self.spectrum not in SPECTRUM_PRESETS:
            raise ConfigError(
                f"spectrum preset must be one of {SPECTRUM_PRESETS}, got {self.spectrum!r}"
            )
        for name in ("tau", "alpha", "beta"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite")
        if self.K is not None and self.K < 1:
            raise ConfigError("K must be at least 1 when given")
        if self.level is not None and self.level < 0:
            raise ConfigError("level must be at least 0 when given")
        if self.replications < 2:
            raise ConfigError("replications must be at least 2")
        if self.replications > 2**53:
            # mc_risk forms the count in float64, which holds every integer up to 2**53
            raise ConfigError(
                f"replications = {self.replications} exceeds 2**53 = {2**53}, "
                "beyond which the Monte Carlo gamma shape is no longer exact"
            )
        m_values = tuple(int(v) for v in self.m_values)
        if not m_values or any(m < 1 for m in m_values):
            raise ConfigError("m_values must be a nonempty list of positive integers")
        object.__setattr__(self, "m_values", m_values)
        sigma_values = tuple(float(v) for v in self.sigma_values)
        if not sigma_values or any(not (s > 0 and math.isfinite(s)) for s in sigma_values):
            raise ConfigError("sigma_values must be a nonempty list of positive reals")
        object.__setattr__(self, "sigma_values", sigma_values)
        if self.grid_size < 2:
            raise ConfigError("grid_size must be at least 2")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")


def _parse_n_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError("logspace grid must look like logspace:<lo_exp>:<hi_exp>:<count>")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"could not parse logspace grid {text!r}") from exc
        if count < 1:
            raise ConfigError("logspace grid needs at least one point")
        if count == 1:
            return (10.0**lo,)
        step = (hi - lo) / (count - 1)
        return tuple(10.0 ** (lo + i * step) for i in range(count))
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"could not parse n_grid {text!r}") from exc


def _parse_list(text: str, cast):
    try:
        return tuple(cast(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"could not parse list {text!r}") from exc


_SECTION_FIELDS = {
    "experiment": {
        "mode": str,
        "d": int,
        "n_grid": _parse_n_grid,
        "seed": int,
        "threads": int,
        "delta": float,
        "grid_rule": str,
    },
    "spectrum": {
        "preset": str,  # stored as "spectrum"
        "tau": float,
        "alpha": float,
        "beta": float,
        "k": int,  # stored as "K"; configparser lowercases option names
        "level": int,
    },
    "mc": {
        "replications": int,
    },
    "minimax": {
        "m_values": lambda text: _parse_list(text, int),
        "sigma_values": lambda text: _parse_list(text, float),
        "grid_size": int,
    },
    "output": {
        "path": str,  # stored as "out"
        "format": str,
    },
}

_KEY_RENAMES = {
    ("spectrum", "preset"): "spectrum",
    ("spectrum", "k"): "K",
    ("output", "path"): "out",
}


def _read_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _SECTION_FIELDS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            target = _KEY_RENAMES.get((section, key), key)
            try:
                values[target] = known[key](raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"could not parse [{section}] {key} = {raw!r}") from exc
    return values


def _apply_env(values: dict, env) -> None:
    casts = {"seed": int, "threads": int, "out": str, "format": str}
    for env_key, target in _ENV_KEYS.items():
        raw = env.get(env_key)
        if raw is None or raw == "":
            continue
        try:
            values[target] = casts[target](raw)
        except ValueError as exc:
            raise ConfigError(f"could not parse environment override {env_key}={raw!r}") from exc


def load_config(
    path: str | None = None,
    overrides: dict | None = None,
    *,
    env=None,
) -> ExperimentConfig:
    """Resolve a configuration: defaults <- file <- environment <- overrides.

    ``path`` falls back to the GPLB_CONFIG environment variable.  Unknown
    sections, keys, or unparsable values raise ConfigError.
    """
    env = os.environ if env is None else env
    if path is None:
        path = env.get("GPLB_CONFIG") or None
    values: dict = {}
    if path is not None:
        values.update(_read_file(path))
    _apply_env(values, env)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    valid = {f.name for f in fields(ExperimentConfig)}
    unknown = set(values) - valid
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    return ExperimentConfig(**values)


def resolved_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """The experiment configuration as ordered (key, value) strings.

    Execution knobs (``out``, ``format``, ``threads``) are omitted so that a
    report is a function of the experiment alone, never of where it is
    written or how the work was scheduled.
    """
    return [
        (f.name, format_cell(getattr(config, f.name)))
        for f in fields(ExperimentConfig)
        if f.name not in ("out", "format", "threads")
    ]
