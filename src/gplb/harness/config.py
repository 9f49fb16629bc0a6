"""Experiment configuration: file parsing, environment and CLI overrides.

Each setting is declared once, as a field of ``ExperimentConfig``: its
default, its INI ``[section] key`` (the field name unless the field says
otherwise), its text parser and, for ``seed``, ``out`` and ``format``,
the argparse options of its ``--<name>`` flag.  The file
reader, the ``GPLB_<NAME>`` environment variables, the CLI flags and the
configuration block of a report all derive from those fields, so adding
a setting means adding one field.  README.md shows a full file.

Overrides resolve with precedence: command-line flags, then GPLB_*
environment variables (GPLB_CONFIG names the file), then the file, then
defaults.  Every run embeds the resolved experiment settings in its report
so outputs are self-describing.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from functools import partial

from ..errors import ConfigError, DomainError, _check_count, _check_delta, _check_dimension
from ..errors import _check_positive, _check_sample_size
from ..sequence_core import _check_replications
from ..sparse_linear import _check_grid_size
from .report import format_cell

__all__ = ["ExperimentConfig", "load_config", "resolved_items", "MODES", "FLAGGED", "ENV_VARIABLES"]

MODES = ("risk", "contraction", "minimax", "wavelet", "rates", "verify")
GRID_RULES = ("ceil", "round", "floor")
SPECTRUM_PRESETS = ("matched", "polynomial", "exponential", "flat")
FORMATS = ("csv", "json")


def _parse_list(text: str, cast):
    try:
        return tuple(cast(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"could not parse list {text!r}") from exc


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
    return _parse_list(text, float)


def _setting(default, section: str, parse, *, key: str | None = None, flag: dict | None = None,
             reported: bool = True):
    """A setting: its default, INI section, text parser and the options below.

    ``key`` is its INI key where that is not the lowercased field name.
    ``flag`` holds the argparse options of a ``--<name>`` flag; a flagged
    setting is also read from ``GPLB_<NAME>``.  An unreported setting says
    where a report goes or how the work is scheduled, never what it holds,
    so the report's config block leaves it out.
    """
    metadata = {"section": section, "key": key, "parse": parse, "flag": flag, "reported": reported}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = _setting("rates", "experiment", str)
    d: int = _setting(1, "experiment", int)
    n_grid: tuple[float, ...] = _setting(
        (1e3, 10**3.5, 1e4, 10**4.5, 1e5, 10**5.5, 1e6), "experiment", _parse_n_grid)
    seed: int = _setting(1, "experiment", int, flag={"help": "master seed (overrides config)"})
    # grid points run one at a time; the field stays, at 1, for callers that still pass it
    threads: int = _setting(1, "experiment", int, reported=False)
    delta: float = _setting(0.1, "experiment", float)
    grid_rule: str = _setting("ceil", "experiment", str)
    spectrum: str = _setting("matched", "spectrum", str, key="preset")
    tau: float = _setting(1.0, "spectrum", float)
    alpha: float = _setting(1.0, "spectrum", float)
    beta: float = _setting(1.0, "spectrum", float)
    K: int | None = _setting(None, "spectrum", int)
    level: int | None = _setting(None, "spectrum", int)
    replications: int = _setting(1000, "mc", int)
    m_values: tuple[int, ...] = _setting((1, 2, 4, 8), "minimax", partial(_parse_list, cast=int))
    sigma_values: tuple[float, ...] = _setting(
        (0.1, 0.5, 1.0, 3.0), "minimax", partial(_parse_list, cast=float))
    grid_size: int = _setting(100001, "minimax", int)
    out: str | None = _setting(
        None, "output", str, key="path", flag={"help": "report path (default: stdout)"},
        reported=False)
    format: str = _setting(
        "csv", "output", str, flag={"choices": FORMATS, "help": "report format"}, reported=False)

    def __post_init__(self):
        # settings no science function takes; the rest by the library's own rules below
        for name, choices in (
            ("mode", MODES), ("grid_rule", GRID_RULES), ("spectrum", SPECTRUM_PRESETS), ("format", FORMATS)
        ):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        for name, cast in (("n_grid", float), ("m_values", int), ("sigma_values", float)):
            values = tuple(cast(v) for v in getattr(self, name))
            if not values:
                raise ConfigError(f"{name} must hold at least one value")
            object.__setattr__(self, name, values)
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.threads != 1:
            raise ConfigError(f"threads must be 1, got {self.threads}; grid points run one at a time")
        try:
            _check_dimension(self.d)
            _check_sample_size(self.n_grid)
            _check_delta(self.delta)
            _check_positive(self.tau, "scale tau")
            _check_positive(self.alpha, "smoothness alpha")
            _check_positive(self.beta, "decay rate beta")
            if self.K is not None:
                _check_count(self.K, "spectrum length K", 1)
            if self.level is not None:
                _check_count(self.level, "basis level", 0)
            _check_replications(self.replications)
            _check_count(self.m_values, "one-sparse size m", 1)
            _check_positive(self.sigma_values, "noise level sigma")
            _check_grid_size(self.grid_size)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


# the settings that a --<name> flag and a GPLB_<NAME> variable also set
FLAGGED = tuple(f for f in fields(ExperimentConfig) if f.metadata["flag"] is not None)
ENV_VARIABLES = {f"GPLB_{f.name.upper()}": f for f in FLAGGED}


def _read_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    # configparser lowercases option names, so K is read as k
    settings = {
        (f.metadata["section"], f.metadata["key"] or f.name.lower()): f
        for f in fields(ExperimentConfig)
    }
    sections = {section for section, _ in settings}
    values: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            setting = settings.get((section, key))
            if setting is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[setting.name] = setting.metadata["parse"](raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"could not parse [{section}] {key} = {raw!r}") from exc
    return values


def _apply_env(values: dict, env) -> None:
    for env_key, setting in ENV_VARIABLES.items():
        raw = env.get(env_key)
        if raw is None or raw == "":
            continue
        try:
            values[setting.name] = setting.metadata["parse"](raw)
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

    Unreported settings (``threads``, ``out``, ``format``) are omitted so
    that a report is a function of the experiment alone, never of where or
    how it is written.
    """
    return [
        (f.name, format_cell(getattr(config, f.name)))
        for f in fields(ExperimentConfig)
        if f.metadata["reported"]
    ]
