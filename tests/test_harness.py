"""Harness tests: transfer formulas, config resolution, reports, studies, CLI.

Frozen scalars (threshold values, grid counts) were computed once from the
closed forms with independent arithmetic and pinned here; structural tests
run the study entry points on deliberately tiny grids so the whole module
stays fast.
"""

from __future__ import annotations

import decimal
import importlib
import itertools
import json
import math
import pkgutil
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gplb
import gplb.harness.cli as cli
import gplb.harness.properties as properties
import gplb.harness.study as study
import gplb.integrate as integrate
import gplb.sequence_core as sequence_core
import gplb.sparse_linear as sparse_linear
from gplb.adversarial import (
    CoefficientMatrix,
    PyramidFamily,
    anderson_transfer,
    build_pyramid_family,
    compute_coefficients,
    concentration_bound,
    contraction_mass_floor,
    grid_target,
    lower_bound_constants,
    mean_risk_floor,
    n_threshold,
    pyramid_norm_sq,
    tk_matched_spectrum,
    transfer_threshold,
    worst_member,
)
from gplb.errors import ConfigError, ContractError, DomainError, SchemaVersionError
from gplb.harness.cli import main
from gplb.harness.config import (
    ENV_VARIABLES,
    FLAGGED,
    MODES,
    ExperimentConfig,
    load_config,
    resolved_items,
)
from gplb.harness.properties import run_verify
from gplb.harness.report import (
    COLUMNS,
    SCHEMA_VERSION,
    RiskReport,
    RiskRow,
    emit_report,
    format_cell,
    read_report,
    render_csv,
    render_json,
)
from gplb.harness.study import (
    fit_loglog_slope,
    grid_count,
    minimal_basis_level,
    run_contraction_study,
    run_minimax_battery,
    run_rate_study,
    run_risk_study,
    run_wavelet_study,
    task_rng,
)
from gplb.sequence_core import (
    Spectrum,
    TruthCoefficients,
    contraction_mass,
    exact_risk,
    exponential_spectrum,
    flat_spectrum,
    mc_risk,
    polynomial_spectrum,
    posterior_update,
    sample_observation,
)
from gplb.wavelet import (
    HaarTensorBasis,
    SawtoothSurrogate,
    haar_tensor_basis,
    single_function_risk_bound,
    wavelet_prior_preset,
)
from test_adversarial import within_ulps
from test_sequence_core import dense_risks
from test_sparse_linear import per_pair_grid_minimum
from test_wavelet import constant_panels


def write_ini(tmp_path, text, name="experiment.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# transfer formulas


def test_transfer_threshold_frozen_value():
    # 32 log(5 / (1 - sqrt(0.6))), computed independently and pinned
    value = transfer_threshold(0.1)
    assert value == pytest.approx(99.17765801020667, rel=1e-12)
    direct = 32.0 * math.log(5.0 / (1.0 - math.sqrt(0.6)))
    assert value == pytest.approx(direct, rel=1e-15)


def test_transfer_threshold_is_within_two_ulps_down_to_tiny_delta(tmp_path):
    # 1 - sqrt(1 - 4 delta) cancels as delta falls to 0; the reference keeps
    # 50 digits, so at delta = 1e-17 it still holds 33
    for delta in (1e-17, 1e-9, 0.01, 0.1, 0.24):
        with decimal.localcontext(prec=50):
            root = (1 - 4 * decimal.Decimal(delta)).sqrt()
            expected = float(32 * (5 / (1 - root)).ln())
        assert within_ulps(transfer_threshold(delta), expected, ulps=2), delta
    assert math.isfinite(n_threshold(1, 1e-17))
    path = write_ini(tmp_path, "[experiment]\ndelta = 1e-17\n")
    assert main(["contraction", "--config", path, "--out", str(tmp_path / "tiny.csv")]) == 0


def test_transfer_threshold_decreases_in_delta_and_guards_domain():
    deltas = [0.01, 0.05, 0.1, 0.2, 0.24]
    values = [transfer_threshold(d) for d in deltas]
    assert all(a > b for a, b in zip(values, values[1:]))
    for bad in (0.0, 0.25, -0.1, 0.5):
        with pytest.raises(Exception) as err:
            transfer_threshold(bad)
        assert "delta" in str(err.value)


def test_concentration_bound_crosses_one_at_32_log_4():
    n = 1000.0
    mu_sq = 32.0 * math.log(4.0) / n
    assert concentration_bound(n, mu_sq) == pytest.approx(1.0, rel=1e-12)
    assert concentration_bound(n, 32.0 / n) == pytest.approx(4.0 / math.e, rel=1e-12)
    assert concentration_bound(n, 2 * mu_sq) < concentration_bound(n, mu_sq)
    for bad_n, bad_mu in ((0.0, 1.0), (math.inf, 1.0), (10.0, 0.0), (10.0, -1.0)):
        with pytest.raises(Exception):
            concentration_bound(bad_n, bad_mu)


def test_anderson_transfer_values_and_domain():
    assert anderson_transfer(0.0) == 0.0
    assert anderson_transfer(0.01) == pytest.approx(0.2, rel=1e-15)
    assert anderson_transfer(0.25) == pytest.approx(1.0, rel=1e-15)
    assert anderson_transfer(1.0) == pytest.approx(2.0, rel=1e-15)
    for bad in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(Exception):
            anderson_transfer(bad)


def test_contraction_mass_floor_formula_and_dead_zone():
    n = 500.0
    # below the 32 log 4 knee the bound exceeds one and the floor is flat zero
    assert contraction_mass_floor(n, 0.5 * 32.0 * math.log(4.0) / n) == 0.0
    mu_sq = 4.0 * 32.0 * math.log(4.0) / n
    expected = 0.25 * (1.0 - 4.0 * math.exp(-n * mu_sq / 32.0)) ** 2
    assert contraction_mass_floor(n, mu_sq) == pytest.approx(expected, rel=1e-15)
    # monotone in the risk level, capped by the trivial 1/4
    grid = np.linspace(0.1, 2.0, 50)
    floors = [contraction_mass_floor(n, float(v)) for v in grid]
    assert all(b >= a for a, b in zip(floors, floors[1:]))
    assert all(0.0 <= f < 0.25 for f in floors)


# ---------------------------------------------------------------------------
# configuration


def test_default_config_matches_documented_defaults():
    config = ExperimentConfig()
    assert config.mode == "rates"
    assert config.d == 1
    assert len(config.n_grid) == 7
    assert config.n_grid[0] == 1e3 and config.n_grid[-1] == 1e6
    assert config.seed == 1 and config.threads == 1
    assert config.delta == 0.1 and config.grid_rule == "ceil"
    assert config.spectrum == "matched"
    assert config.K is None and config.level is None
    assert config.m_values == (1, 2, 4, 8)
    assert config.sigma_values == (0.1, 0.5, 1.0, 3.0)
    assert config.grid_size == 100001
    assert config.out is None and config.format == "csv"


def test_ini_file_parsing_covers_every_section(tmp_path):
    path = write_ini(
        tmp_path,
        """
        [experiment]
        mode = contraction   ; inline comments are stripped
        d = 2
        n_grid = logspace:3:5:3
        seed = 11
        delta = 0.2
        grid_rule = round

        [spectrum]
        preset = polynomial
        tau = 0.5
        alpha = 1.5
        beta = 2.0
        K = 32
        level = 5

        [mc]
        replications = 77

        [minimax]
        m_values = 1, 3
        sigma_values = 0.5, 2.0
        grid_size = 501

        [output]
        path = out.csv
        format = json
        """,
    )
    config = load_config(path, env={})
    assert config.mode == "contraction"
    assert config.d == 2
    assert config.n_grid == (1e3, 1e4, 1e5)
    assert config.seed == 11
    assert config.delta == 0.2 and config.grid_rule == "round"
    assert config.spectrum == "polynomial"
    assert config.tau == 0.5 and config.alpha == 1.5 and config.beta == 2.0
    assert config.K == 32 and config.level == 5
    assert config.replications == 77
    assert config.m_values == (1, 3)
    assert config.sigma_values == (0.5, 2.0)
    assert config.grid_size == 501
    assert config.out == "out.csv" and config.format == "json"


def test_n_grid_accepts_comma_lists_and_single_point_logspace(tmp_path):
    path = write_ini(
        tmp_path,
        """
        [experiment]
        n_grid = 1e3, 3.16e3, 1e4
        """,
    )
    assert load_config(path, env={}).n_grid == (1e3, 3.16e3, 1e4)
    single = write_ini(tmp_path, "[experiment]\nn_grid = logspace:4:9:1\n", name="one.ini")
    assert load_config(single, env={}).n_grid == (1e4,)
    for bad, message in (
        ("logspace:3:6", "logspace grid"), ("logspace:a:b:3", "logspace grid"),
        ("logspace:3:5:0", "logspace grid"), ("1e3, pear", "could not parse list"),
    ):
        broken = write_ini(tmp_path, f"[experiment]\nn_grid = {bad}\n", name="bad.ini")
        with pytest.raises(ConfigError, match=message):
            load_config(broken, env={})


def test_unknown_sections_keys_and_files_raise(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.ini"), env={})
    unknown_section = write_ini(tmp_path, "[extras]\nx = 1\n", name="s.ini")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        load_config(unknown_section, env={})
    unknown_key = write_ini(tmp_path, "[experiment]\nbogus = 1\n", name="k.ini")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(unknown_key, env={})
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        load_config(None, {"bogus": 3}, env={})
    unparsable = write_ini(tmp_path, "[experiment]\nd = two\n", name="d.ini")
    with pytest.raises(ConfigError, match=re.escape("could not parse [experiment] d = 'two'")):
        load_config(unparsable, env={})
    bad_list = write_ini(tmp_path, "[minimax]\nm_values = 1, x\n", name="m.ini")
    with pytest.raises(ConfigError, match="could not parse list"):
        load_config(bad_list, env={})
    # the probes are exact, so there are no Monte Carlo sample counts to set
    for key in ("outer", "inner"):
        retired = write_ini(tmp_path, f"[mc]\n{key} = 200\n", name="mc.ini")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(retired, env={})


def test_precedence_defaults_file_env_overrides(tmp_path):
    # per flagged setting: its INI line, its variable, the values given in the
    # file, the variable and the override, and the value each layer resolves
    # to; every layer changes the value of the one below
    layers = [
        ("seed", "[experiment]\nseed", "GPLB_SEED", "3", "5", 7, (1, 3, 5, 7)),
        ("out", "[output]\npath", "GPLB_OUT", "f.csv", "e.csv", "o.csv",
         (None, "f.csv", "e.csv", "o.csv")),
        ("format", "[output]\nformat", "GPLB_FORMAT", "json", "csv", "json",
         ("csv", "json", "csv", "json")),
    ]
    assert [name for name, *_ in layers] == [setting.name for setting in FLAGGED]
    for name, line, variable, in_file, in_env, override, expected in layers:
        path = write_ini(tmp_path, f"{line} = {in_file}\n")
        env = {variable: in_env}
        resolved = [
            load_config(None, env={}),
            load_config(path, env={}),
            load_config(path, env=env),
            load_config(path, {name: override}, env=env),
        ]
        assert tuple(getattr(config, name) for config in resolved) == expected, name
        # None overrides are "flag not given" and must not mask lower layers
        assert getattr(load_config(path, {name: None}, env=env), name) == expected[2], name
        # empty environment strings are ignored too
        assert getattr(load_config(path, env={variable: ""}), name) == expected[1], name


def test_gplb_config_environment_fallback(tmp_path):
    path = write_ini(tmp_path, "[experiment]\nd = 3\nn_grid = 10\n")
    config = load_config(None, env={"GPLB_CONFIG": path})
    assert config.d == 3 and config.n_grid == (10.0,)
    assert load_config(None, env={}).d == 1


def test_environment_values_are_cast_and_checked():
    assert load_config(None, env={"GPLB_SEED": "4"}).seed == 4
    assert load_config(None, env={"GPLB_FORMAT": "json"}).format == "json"
    assert load_config(None, env={"GPLB_OUT": "r.csv"}).out == "r.csv"
    with pytest.raises(ConfigError, match="environment override"):
        load_config(None, env={"GPLB_SEED": "abc"})
    with pytest.raises(ConfigError, match="format"):
        load_config(None, env={"GPLB_FORMAT": "xml"})


REFUSED_SETTINGS = [
    {"mode": "banana"},
    {"d": 0},
    {"n_grid": ()},
    {"n_grid": (100.0, 100.0)},
    {"n_grid": (1000.0, 10.0)},
    {"n_grid": (0.5,)},
    {"n_grid": (math.inf,)},
    {"seed": -1},
    {"threads": 0},
    {"delta": 0.0},
    {"delta": 0.25},
    {"grid_rule": "nearest"},
    {"spectrum": "cosine"},
    {"tau": 0.0},
    {"alpha": -1.0},
    {"beta": math.inf},
    {"K": 0},
    {"level": -1},
    {"replications": 1},
    {"replications": 0},
    {"n_grid": (math.nan,)},
    {"m_values": ()},
    {"m_values": (0,)},
    {"sigma_values": ()},
    {"sigma_values": (-1.0,)},
    {"grid_size": 1},
    {"format": "xml"},
]


@pytest.mark.parametrize("kwargs", REFUSED_SETTINGS)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


# The refusals above that only the config makes: settings no science
# function takes, an empty list and an n_grid out of order.
CONFIG_ONLY_REFUSALS = [
    {"mode": "banana"}, {"n_grid": ()}, {"n_grid": (100.0, 100.0)}, {"n_grid": (1000.0, 10.0)},
    {"seed": -1}, {"threads": 0}, {"grid_rule": "nearest"}, {"spectrum": "cosine"},
    {"m_values": ()}, {"sigma_values": ()}, {"format": "xml"},
]

# A science call that takes each setting's value.
SCIENCE_CALLS = {
    "d": lower_bound_constants,
    "n_grid": lambda grid: [grid_target(1, n) for n in grid],
    "delta": transfer_threshold,
    "tau": lambda tau: flat_spectrum(4, basis_id="b", tau=tau),
    "alpha": lambda alpha: polynomial_spectrum(4, basis_id="b", alpha=alpha),
    "beta": lambda beta: exponential_spectrum(4, basis_id="b", beta=beta),
    "K": lambda K: flat_spectrum(K, basis_id="b"),
    "level": lambda level: HaarTensorBasis(1, level),
    "replications": lambda replications: mc_risk(
        Spectrum(np.ones(2), "b"), TruthCoefficients(np.ones(2), "b"), 10.0, replications,
        np.random.default_rng(0)),
    "m_values": lambda ms: sparse_linear.brute_force_minimax(ms, [1.0] * len(ms), 11),
    "sigma_values": lambda sigmas: sparse_linear.brute_force_minimax([1] * len(sigmas), sigmas, 11),
    "grid_size": lambda grid_size: sparse_linear.brute_force_minimax(1, 1.0, grid_size),
}


@pytest.mark.parametrize(
    "kwargs",
    [kwargs for kwargs in REFUSED_SETTINGS if kwargs not in CONFIG_ONLY_REFUSALS]
    + [{"d": 1.5}, {"alpha": math.inf}, {"beta": math.nan}, {"tau": math.inf},
       {"replications": 2**53 + 1}, {"grid_size": 2**27 + 1}],
)
def test_config_refuses_a_science_value_with_the_science_functions_message(kwargs):
    # the config's range of a setting is the library's own check, word for word
    [(name, value)] = kwargs.items()
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig(**kwargs)
    with pytest.raises(DomainError) as science:
        SCIENCE_CALLS[name](value)
    assert str(refused.value) == str(science.value)
    assert isinstance(refused.value.__cause__, DomainError)


def test_every_config_refusal_is_a_science_or_a_config_only_one():
    # each refused value above is checked by exactly one of the two tests
    assert all(kwargs in REFUSED_SETTINGS for kwargs in CONFIG_ONLY_REFUSALS)
    for kwargs in CONFIG_ONLY_REFUSALS:
        [(name, value)] = kwargs.items()
        if name in SCIENCE_CALLS:
            SCIENCE_CALLS[name](value)  # the science function takes the value


def test_threads_accepts_only_one_and_has_no_flag_or_variable(tmp_path):
    # grid points run one at a time; the field stays at 1 for callers that pass it
    assert load_config(None, {"threads": 1}, env={}).threads == 1
    path = write_ini(tmp_path, "[experiment]\nthreads = 2\n")
    with pytest.raises(ConfigError, match="threads"):
        load_config(path, env={})
    with pytest.raises(ConfigError, match="threads"):
        load_config(None, {"threads": 2}, env={})
    with pytest.raises(SystemExit) as err:
        main(["risk", "--threads", "2"])
    assert err.value.code == 2
    assert "GPLB_THREADS" not in ENV_VARIABLES


def test_config_refuses_replications_beyond_two_to_the_53():
    assert ExperimentConfig(replications=2**53).replications == 2**53
    with pytest.raises(ConfigError, match=f"replications = {2**53 + 1} exceeds"):
        ExperimentConfig(replications=2**53 + 1)


def test_resolved_items_excludes_execution_knobs_and_orders_fields():
    config = ExperimentConfig(seed=5, K=16, out="x.csv", format="json")
    items = resolved_items(config)
    keys = [key for key, _ in items]
    assert keys == [
        "mode",
        "d",
        "n_grid",
        "seed",
        "delta",
        "grid_rule",
        "spectrum",
        "tau",
        "alpha",
        "beta",
        "K",
        "level",
        "replications",
        "m_values",
        "sigma_values",
        "grid_size",
    ]
    values = dict(items)
    assert values["seed"] == "5"
    assert values["K"] == "16"
    assert values["level"] == ""
    assert values["tau"] == "1"
    grid = tuple(float(tok) for tok in values["n_grid"].split(","))
    assert grid == config.n_grid


# ---------------------------------------------------------------------------
# report rendering and parsing


def example_report():
    rows = [
        RiskRow(
            d=2,
            n=3162.2776601683795,
            k=3,
            m=9,
            spectrum_id="matched:tau=1",
            K=128,
            exact_risk=1.0 / 3.0,
            mc_risk=0.1,
            mc_stderr=1.2345678901234567e-05,
            lemma4_bound=2.0**-53,
            thm2_floor=5e-324,
            contraction_prob=0.25,
            radius=0.0125,
            slope=-0.75,
            seed=42,
        ),
        RiskRow(m=4, spectrum_id="one_sparse:sigma=0.5", exact_risk=0.5, mc_risk=0.5, seed=1),
        RiskRow(seed=0),
    ]
    config_items = [("mode", "rates"), ("n_grid", "1000,10000")]
    return RiskReport(rows=rows, config_items=config_items, fits={"slope": -0.75})


def test_csv_report_round_trips_bit_for_bit(tmp_path):
    report = example_report()
    path = tmp_path / "report.csv"
    emit_report(report, str(path), "csv")
    assert path.read_bytes() == render_csv(report).encode("utf-8")
    back = read_report(str(path))
    assert back.rows == report.rows
    assert back.config_items == report.config_items
    assert back.fits is None  # CSV carries rows and config only


def test_json_report_round_trips_with_fits(tmp_path):
    report = example_report()
    path = tmp_path / "report.json"
    emit_report(report, str(path), "json")
    back = read_report(str(path))
    assert back.rows == report.rows
    assert back.config_items == report.config_items
    assert back.fits == {"slope": -0.75}
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["columns"] == list(COLUMNS)


def test_rendered_rows_equal_the_asdict_rendering():
    # the renderers read RiskRow fields directly; dataclasses.asdict, which
    # they called before, is the oracle, on every column filled and empty
    report = example_report()
    report.rows.append(RiskRow())
    assert tuple(f.name for f in fields(RiskRow)) == COLUMNS
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": dict(report.config_items),
        "columns": list(COLUMNS),
        "rows": [asdict(row) for row in report.rows],
        "fits": report.fits,
    }
    assert render_json(report) == json.dumps(payload, indent=2) + "\n"
    rows = [",".join(format_cell(asdict(row)[col]) for col in COLUMNS) for row in report.rows]
    assert render_csv(report).splitlines()[-len(rows):] == rows
    assert rows[-1] == "," * (len(COLUMNS) - 1)


def test_csv_layout_version_line_config_block_header():
    report = example_report()
    text = render_csv(report)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    assert lines[1] == "# config mode=rates"
    assert lines[2] == "# config n_grid=1000,10000"
    assert lines[3] == ",".join(COLUMNS)
    assert len(lines) == 4 + len(report.rows)
    first = dict(zip(COLUMNS, lines[4].split(",")))
    assert first["exact_risk"] == format(1.0 / 3.0, ".17g")
    assert first["seed"] == "42"
    empty = dict(zip(COLUMNS, lines[6].split(",")))
    assert empty["spectrum_id"] == "" and empty["exact_risk"] == ""


def test_schema_version_and_header_are_enforced(tmp_path):
    good = render_csv(example_report())

    def read_text(text, name):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return read_report(str(path))

    with pytest.raises(SchemaVersionError) as err:
        read_text(good.replace("# schema_version=1", "# schema_version=99"), "v99.csv")
    assert err.value.found == 99 and err.value.supported == SCHEMA_VERSION
    with pytest.raises(SchemaVersionError) as err:
        read_text("\n".join(good.splitlines()[1:]) + "\n", "noversion.csv")
    assert err.value.found is None
    with pytest.raises(SchemaVersionError):
        read_text(good.replace("lemma4_bound", "bound4"), "header.csv")
    with pytest.raises(ContractError, match="malformed"):
        read_text(good + "1,2,3\n", "short_row.csv")
    payload = json.loads(render_json(example_report()))
    payload["schema_version"] = 2
    with pytest.raises(SchemaVersionError):
        read_text(json.dumps(payload), "v2.json")
    payload["schema_version"] = SCHEMA_VERSION
    payload["columns"] = [col.replace("lemma4_bound", "bound4") for col in COLUMNS]
    with pytest.raises(SchemaVersionError):
        read_text(json.dumps(payload), "columns.json")
    payload["columns"] = list(COLUMNS)
    for bad in ({"bound4": 1.0}, [1, 2, 3]):
        payload["rows"] = [bad]
        with pytest.raises(ContractError, match="malformed report row"):
            read_text(json.dumps(payload), "bad_row.json")


def test_empty_report_round_trips(tmp_path):
    report = RiskReport(rows=[], config_items=[("mode", "risk")])
    path = tmp_path / "empty.csv"
    emit_report(report, str(path))
    back = read_report(str(path))
    assert back.rows == [] and back.config_items == [("mode", "risk")]


def test_spectrum_id_rejects_cell_and_line_separators():
    for bad in ("a,b", "a\nb", "a\rb"):
        with pytest.raises(ContractError):
            RiskRow(spectrum_id=bad)


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ContractError, match="format"):
        emit_report(example_report(), str(tmp_path / "r.xml"), "xml")


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cells_round_trip_through_17_digits(value):
    text = render_csv(RiskReport(rows=[RiskRow(exact_risk=value)], config_items=[]))
    cell = text.splitlines()[-1].split(",")[COLUMNS.index("exact_risk")]
    assert float(cell) == value


# ---------------------------------------------------------------------------
# study helpers


def test_task_rng_streams_are_deterministic_and_disjoint():
    again = task_rng(7, 0).standard_normal(6)
    assert np.array_equal(task_rng(7, 0).standard_normal(6), again)
    assert not np.array_equal(task_rng(7, 1).standard_normal(6), again)
    assert not np.array_equal(task_rng(8, 0).standard_normal(6), again)
    # multi-part keys: one stream per (grid index, stage)
    keys = [(0,), (0, 1), (0, 2), (1,), (1, 1), (1, 2)]
    draws = [task_rng(7, *key).standard_normal(6) for key in keys]
    assert np.array_equal(draws[0], again)
    assert np.array_equal(task_rng(7, 0, 1).standard_normal(6), draws[1])
    for first, second in itertools.combinations(draws, 2):
        assert not np.array_equal(first, second)


def test_fit_loglog_slope_recovers_exact_power_law():
    ns = np.array([1e2, 1e3, 1e4, 1e5])
    fit = fit_loglog_slope(ns, 3.0 * ns**-0.75)
    assert fit["slope"] == pytest.approx(-0.75, abs=1e-10)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit["stderr"] < 1e-8
    assert fit["low"] <= fit["slope"] <= fit["high"]
    assert fit["high"] - fit["low"] < 1e-6


def test_fit_loglog_slope_band_covers_noisy_truth():
    rng = np.random.default_rng(5)
    ns = np.logspace(2, 6, 9)
    values = 2.0 * ns**-0.6 * np.exp(rng.normal(0.0, 0.05, ns.size))
    fit = fit_loglog_slope(ns, values)
    assert fit["low"] <= -0.6 <= fit["high"]


def test_t_quantile_matches_scipy_for_every_fit_size():
    from scipy import stats

    for df in range(1, 401):
        expected = stats.t.ppf(0.975, df)
        assert abs(study.t_quantile_975(df) - expected) <= 1e-13 * expected


def test_fit_loglog_slope_degenerate_inputs():
    assert fit_loglog_slope([100.0], [1.0]) is None
    assert fit_loglog_slope([10.0, 100.0], [1.0, 0.0]) is None
    assert fit_loglog_slope([10.0, 100.0], [1.0, -2.0]) is None
    assert fit_loglog_slope([0.0, 100.0], [1.0, 1.0]) is None
    two = fit_loglog_slope([10.0, 100.0], [1.0, 0.1])
    assert two["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert two["low"] == two["slope"] == two["high"]
    assert two["stderr"] == 0.0


def test_fit_loglog_slope_of_coinciding_log_n_is_none():
    assert fit_loglog_slope([10.0, 10.0], [1.0, 0.5]) is None
    assert fit_loglog_slope([3.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]) is None
    # a repeated n among distinct ones still fits: the line through the two means
    three = fit_loglog_slope([10.0, 10.0, 100.0], [2.0, 0.5, 0.1])
    assert three["slope"] == pytest.approx(-1.0, abs=1e-12)


def exact_line(x, y):
    """The exact least-squares slope and intercept of the float points (x, y), as Fractions."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    count, sum_x, sum_y = len(x), sum(x), sum(y)
    sum_xx, sum_xy = sum(a * a for a in x), sum(a * b for a, b in zip(x, y))
    det = count * sum_xx - sum_x * sum_x
    return (count * sum_xy - sum_x * sum_y) / det, (sum_xx * sum_y - sum_x * sum_xy) / det


def test_fit_loglog_slope_is_the_correctly_rounded_least_squares_line():
    # float(Fraction) rounds once, correctly; a quarter of the sets repeat some n
    rng = np.random.default_rng(32)
    fitted = 0
    for _ in range(2000):
        size = int(rng.integers(2, 31))
        ns = 10.0 ** rng.uniform(-9.0, 9.0, size)
        if rng.random() < 0.25:
            ns = rng.choice(ns[: max(2, size // 3)], size)
        values = 10.0 ** rng.uniform(-9.0, 9.0, size)
        fit = fit_loglog_slope(ns, values)
        x, y = np.log(ns).tolist(), np.log(values).tolist()
        if len(set(x)) == 1:
            assert fit is None
            continue
        slope, intercept = exact_line(x, y)
        assert (fit["slope"], fit["intercept"]) == (float(slope), float(intercept)), (ns, values)
        fitted += 1
    assert fitted > 1900


def test_no_study_path_calls_lapack_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a study called LAPACK least squares")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    grid = (200.0, 2000.0, 20000.0)
    rates = run_rate_study(replace(RATE_CONFIG, n_grid=grid))
    wavelet = run_wavelet_study(ExperimentConfig(mode="wavelet", d=1, level=4, n_grid=grid, replications=10))
    for report in (rates, wavelet):
        assert report.fits["low"] <= report.fits["slope"] <= report.fits["high"]
        assert report.fits["slope"] < 0.0


def test_minimal_basis_level_tracks_bandwidth():
    assert [minimal_basis_level(k) for k in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 3, 3, 4, 4, 5]
    for k in (1, 2, 3, 4, 5, 8, 9):
        level = minimal_basis_level(k)
        assert 2.0**-level <= 1.0 / (2 * k) < 2.0 ** -(level - 1)


def test_grid_count_rules_and_frozen_examples():
    assert grid_count(1, 1000.0, "ceil") == (4, 4)
    assert grid_count(1, 1000.0, "round") == (3, 3)
    assert grid_count(1, 1000.0, "floor") == (3, 3)
    assert grid_count(2, 1e4, "ceil") == (3, 9)
    # the continuous target is exactly 1 at n = 12; the ceil guard and the
    # floor clamp both land on a single cell
    assert grid_count(1, 12.0, "ceil") == (1, 1)
    assert grid_count(1, 12.0, "floor") == (1, 1)
    assert grid_count(1, 1.0, "round") == (1, 1)
    with pytest.raises(ConfigError, match="grid rule"):
        grid_count(1, 1000.0, "banana")


def test_ceil_grid_count_is_the_canonical_grid_without_its_family_cap():
    # the canonical k is the least k >= 1 with k^{2d+2} >= r_d n, r_d =
    # 1/(2 (d+2)!), checked in integers against the float n
    for d in (1, 2, 3):
        scale, power = 2 * math.factorial(d + 2), 2 * d + 2
        for n in np.logspace(0, 14, 57):
            k, m = grid_count(d, float(n), "ceil")
            assert m == k**d and k**power * scale >= n, (d, n)
            assert k == 1 or (k - 1) ** power * scale < n, (d, n)
        # n = k^{2d+2} / r_d puts the target at k up to log/exp rounding
        for k in range(1, 21):
            n = float(k ** (2 * d + 2) * 2 * math.factorial(d + 2))
            assert grid_target(d, n) == pytest.approx(k, rel=1e-14)
            assert grid_count(d, n, "ceil") == (k, k**d), (d, k)
    # grid_target gives 29.000000000000018 here, 6e-16 above the exact
    # root 29, so a ceiling of the float with a few ulps' allowance spills
    assert grid_count(2, float(29**6 * 48), "ceil") == (29, 29**2)
    # there is no family cap: the study's size check refuses an oversize
    # grid with the sizes named
    k, m = grid_count(1, 1e40, "ceil")
    assert m == k > 10**9


# ---------------------------------------------------------------------------
# study runners (tiny grids)


RISK_CONFIG = ExperimentConfig(
    mode="risk", n_grid=(200.0, 2000.0), seed=3, replications=60
)


def test_run_risk_study_rows_carry_the_family_and_floors():
    report = run_risk_study(RISK_CONFIG)
    assert report.fits is None
    assert report.config_items == resolved_items(RISK_CONFIG)
    assert len(report.rows) == 2
    for row, n, expected_k in zip(report.rows, (200.0, 2000.0), (3, 4)):
        assert row.d == 1 and row.n == n and row.seed == 3
        assert (row.k, row.m) == (expected_k, expected_k)
        assert row.spectrum_id == "matched:tau=1"
        assert row.K == 128  # level 6 basis: minimal level 3 plus three refinements
        assert row.exact_risk > 0 and row.mc_risk > 0 and row.mc_stderr > 0
        assert row.lemma4_bound > 0
        assert row.thm2_floor == pytest.approx(mean_risk_floor(1, n), rel=1e-15)
        assert row.contraction_prob is None and row.radius is None and row.slope is None


def test_run_risk_study_reruns_byte_identically():
    first = render_csv(run_risk_study(RISK_CONFIG))
    second = render_csv(run_risk_study(RISK_CONFIG))
    assert first == second


RATE_CONFIG = ExperimentConfig(
    mode="rates", n_grid=(200.0, 2000.0, 20000.0), seed=9, replications=50
)


def test_run_rate_study_pairs_rows_and_fits_one_slope():
    report = run_rate_study(RATE_CONFIG)
    assert len(report.rows) == 6
    fits = report.fits
    assert {"slope", "intercept", "stderr", "low", "high"} <= set(fits)
    assert fits["low"] <= fits["slope"] <= fits["high"]
    for i in range(0, 6, 2):
        near, far = report.rows[i], report.rows[i + 1]
        shared = ("d", "n", "k", "m", "spectrum_id", "K", "exact_risk", "mc_risk",
                  "mc_stderr", "lemma4_bound", "thm2_floor", "slope", "seed")
        for name in shared:
            assert getattr(near, name) == getattr(far, name)
        assert near.radius == pytest.approx(math.sqrt(near.exact_risk) / 4.0, rel=1e-15)
        assert far.radius == pytest.approx(math.sqrt(far.exact_risk) / 5.0, rel=1e-15)
        assert near.radius / far.radius == pytest.approx(1.25, rel=1e-12)
        assert 0.0 <= near.contraction_prob <= 1.0
        assert near.slope == fits["slope"]
    for row in report.rows:
        assert all(getattr(row, column) is not None for column in COLUMNS)


STUDY_RUNNERS = {
    "rates": run_rate_study,
    "risk": run_risk_study,
    "contraction": run_contraction_study,
    "wavelet": run_wavelet_study,
}


def radius_probe(spectrum, theta, n, radii):
    """Stand-in probe that reports the radii it was given."""
    return radii


def test_rates_and_contraction_report_the_same_seed_free_probes(monkeypatch):
    # Real probes saturate at 1.0 here, so only a fake tells the rows apart.
    monkeypatch.setattr(study, "contraction_mass", radius_probe)
    rates = [row.contraction_prob for row in run_rate_study(RATE_CONFIG).rows]
    contraction = run_contraction_study(replace(RATE_CONFIG, mode="contraction"))
    assert rates == [row.contraction_prob for row in contraction.rows]
    assert len(set(rates)) == 6
    reseeded = run_contraction_study(replace(RATE_CONFIG, mode="contraction", seed=10))
    assert rates == [row.contraction_prob for row in reseeded.rows]


def test_probes_measure_the_full_space_distance(monkeypatch):
    radii, truth_tails = [], []

    def record(spectrum, theta, n, radius):
        radii.extend(radius)
        truth_tails.append(theta.tail)
        return [0.5] * len(radius)

    monkeypatch.setattr(study, "contraction_mass", record)
    config = ExperimentConfig(mode="contraction", n_grid=(500.0,), K=16)
    near, far = run_contraction_study(config).rows
    k, _ = grid_count(1, 500.0, "ceil")
    coeffs = compute_coefficients(build_pyramid_family(1, k), haar_tensor_basis(1, 6), 16)
    spectrum = tk_matched_spectrum(coeffs)
    tails = [pyramid_norm_sq(1, k) - float(r @ r) for r in coeffs.entries]
    risks = [
        exact_risk(spectrum, TruthCoefficients(r, coeffs.basis_id), 500.0) + tail
        for r, tail in zip(coeffs.entries, tails)
    ]
    tail = tails[int(np.argmax(risks))]
    assert near.exact_risk == pytest.approx(max(risks), rel=1e-13) and tail > 0.0
    # the probe takes the full radii and a truth carrying the tail it subtracts
    assert truth_tails == [tail]
    assert radii == [near.radius, far.radius]
    assert near.contraction_prob == far.contraction_prob == 0.5


def test_probes_inside_the_truncation_tail_report_full_mass_unsampled(monkeypatch):
    def never(*args):
        raise AssertionError("the probe was evaluated although its radius is inside the tail")

    monkeypatch.setattr(sequence_core, "_ladder_settles", never)
    monkeypatch.setattr(sequence_core, "_imhof_tail", never)
    config = ExperimentConfig(mode="contraction", n_grid=(500.0,), K=1)
    assert [row.contraction_prob for row in run_contraction_study(config).rows] == [1.0, 1.0]


@pytest.mark.parametrize("mode", list(STUDY_RUNNERS))
def test_each_study_takes_one_exact_risk_per_grid_point(monkeypatch, mode):
    calls = []
    real_exact_risk = study.exact_risk

    def counted(*args):
        calls.append(args[2])
        return real_exact_risk(*args)

    monkeypatch.setattr(study, "exact_risk", counted)
    config = replace(RATE_CONFIG, mode=mode)
    STUDY_RUNNERS[mode](config)
    assert calls == list(config.n_grid)


def test_default_rate_probes_are_settled_by_the_chernoff_ladder(monkeypatch):
    # all 14 probes of `gplb rates` are saturated; none needs Imhof
    calls = []
    real_imhof = sequence_core._imhof_tail

    def counted(*args):
        calls.append("_imhof_tail")
        return real_imhof(*args)

    monkeypatch.setattr(sequence_core, "_imhof_tail", counted)
    probes = []
    real_mass = study.contraction_mass

    def per_point(spectrum, theta, n, radii):
        probes.append(len(radii))
        return real_mass(spectrum, theta, n, radii)

    monkeypatch.setattr(study, "contraction_mass", per_point)
    report = run_rate_study(ExperimentConfig(mode="rates"))
    assert probes == [2] * 7 and len(report.rows) == 14  # one call per grid point
    assert {row.contraction_prob for row in report.rows} == {1.0}
    assert calls == []


def test_polynomial_rate_rows_equal_the_worst_member_built_directly(monkeypatch):
    # at n = 10 and 100 the polynomial prior's probes are open, so they reach Imhof
    calls = []
    real_imhof = sequence_core._imhof_tail

    def counted(*args):
        calls.append(args)
        return real_imhof(*args)

    monkeypatch.setattr(sequence_core, "_imhof_tail", counted)
    config = ExperimentConfig(mode="rates", spectrum="polynomial", n_grid=(10.0, 100.0))
    rows = run_rate_study(config).rows
    assert calls and len(rows) == 4
    for n, (near, far) in zip(config.n_grid, zip(rows[::2], rows[1::2])):
        k, _ = grid_count(1, n, "ceil")
        basis = haar_tensor_basis(1, minimal_basis_level(k) + 3)
        coeffs = compute_coefficients(build_pyramid_family(1, k), basis, basis.size)
        spectrum = polynomial_spectrum(basis.size, basis_id=coeffs.basis_id, tau=1.0, alpha=1.0, d=1)
        truths = [TruthCoefficients(coeffs.row(j), coeffs.basis_id, pyramid_norm_sq(1, k))
                  for j in range(coeffs.m)]
        risks = [exact_risk(spectrum, truth, n) for truth in truths]
        j = worst_member(risks)
        truth, mu_sq = truths[j], risks[j]
        radii = [math.sqrt(mu_sq) / 4.0, math.sqrt(mu_sq) / 5.0]
        assert near.exact_risk == far.exact_risk == mu_sq
        assert [near.radius, far.radius] == radii
        masses = contraction_mass(spectrum, truth, n, radii).tolist()
        assert [near.contraction_prob, far.contraction_prob] == masses


def test_worst_member_pick_ignores_rounding_ties(monkeypatch):
    # d = 1, n = 1e3, ceil rule: members 0-3 tie up to rounding; member 0 is picked.
    picked = []

    def capture(spectrum, truth, n, replications, rng):
        picked.append(truth.theta)
        return 0.0, 0.0

    monkeypatch.setattr(study, "mc_risk", capture)
    run_risk_study(ExperimentConfig(mode="risk", n_grid=(1e3,), replications=10))
    k, _ = grid_count(1, 1e3, "ceil")
    basis = haar_tensor_basis(1, minimal_basis_level(k) + 3)
    coeffs = compute_coefficients(build_pyramid_family(1, k), basis, basis.size)
    risks = dense_risks(tk_matched_spectrum(coeffs).eigenvalues, coeffs.entries, 1e3)
    assert k == 4 and np.ptp(risks) <= 1e-12 * risks.max()
    assert np.array_equal(picked[0], coeffs.entries[0])


def test_risk_rows_below_the_full_basis_carry_the_truncation_tail():
    n = 2000.0
    report = run_risk_study(replace(RISK_CONFIG, K=10, n_grid=(n,)))
    k, _ = grid_count(1, n, "ceil")
    basis = haar_tensor_basis(1, minimal_basis_level(k) + 3)
    coeffs = compute_coefficients(build_pyramid_family(1, k), basis, 10)
    spectrum = tk_matched_spectrum(coeffs)
    in_span = [exact_risk(spectrum, TruthCoefficients(r, coeffs.basis_id), n) for r in coeffs.entries]
    tails = [pyramid_norm_sq(1, k) - float(r @ r) for r in coeffs.entries]
    row = report.rows[0]
    assert row.K == 10 and basis.size > 10
    assert row.exact_risk == pytest.approx(max(a + b for a, b in zip(in_span, tails)), rel=1e-13)
    assert row.exact_risk > 1.01 * max(in_span)
    assert abs(row.mc_risk - row.exact_risk) <= 5.0 * row.mc_stderr


def test_run_contraction_study_reports_transfer_context():
    config = ExperimentConfig(mode="contraction", n_grid=(500.0,), seed=2)
    report = run_contraction_study(config)
    assert len(report.rows) == 2
    near, far = report.rows
    assert near.mc_risk is None and near.mc_stderr is None
    assert near.exact_risk == far.exact_risk > 0
    assert near.radius / far.radius == pytest.approx(1.25, rel=1e-12)
    assert 0.0 <= near.contraction_prob <= 1.0
    assert 0.0 <= far.contraction_prob <= 1.0
    fits = report.fits
    assert fits["n_gamma_sq"] == [pytest.approx(500.0 * near.exact_risk, rel=1e-15)]
    assert fits["threshold"] == pytest.approx(99.17765801020667, rel=1e-12)
    assert fits["mass_target"] == 0.15


def test_run_minimax_battery_matches_closed_form():
    config = ExperimentConfig(
        mode="minimax", m_values=(1, 4), sigma_values=(0.5, 1.0), grid_size=4001
    )
    report = run_minimax_battery(config)
    assert len(report.rows) == 4
    step = 1.0 / (config.grid_size - 1)
    worst = 0.0
    for row, (m, sigma) in zip(report.rows, [(1, 0.5), (1, 1.0), (4, 0.5), (4, 1.0)]):
        closed = m * sigma**2 / (1.0 + m * sigma**2)
        assert row.m == m and row.spectrum_id == f"one_sparse:sigma={sigma:g}"
        assert row.exact_risk == pytest.approx(closed, rel=1e-15)
        gap = row.mc_risk - row.exact_risk
        assert 0.0 <= gap <= (1.0 + m * sigma**2) * (step / 2.0) ** 2 * (1.0 + 1e-9)
        worst = max(worst, gap)
        assert row.d is None and row.n is None and row.k is None and row.K is None
    assert report.fits["grid_size"] == config.grid_size
    assert report.fits["max_abs_gap"] == pytest.approx(worst, abs=1e-18)


def test_minimax_battery_matches_the_per_pair_oracle_row_for_row():
    config = ExperimentConfig(mode="minimax", m_values=tuple(range(1, 65)), grid_size=100003)
    report = run_minimax_battery(config)
    pairs = [(m, sigma) for m in config.m_values for sigma in config.sigma_values]
    assert len(report.rows) == len(pairs) == 256
    for row, (m, sigma) in zip(report.rows, pairs):
        assert row.m == m and row.spectrum_id == f"one_sparse:sigma={sigma:g}"
        assert row.mc_risk == per_pair_grid_minimum(m, sigma, config.grid_size)


def test_minimax_grid_over_the_byte_limit_fails_before_allocating(monkeypatch):
    class Searched(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Searched

    monkeypatch.setattr(study, "brute_force_minimax", refuse)
    largest = sparse_linear.MAX_GRID_SIZE
    assert largest == study.MAX_COEFFICIENT_BYTES // 8 == 2**27  # the boundary of the coefficient byte cap
    with pytest.raises(Searched):  # the largest allowed grid passes the check
        run_minimax_battery(ExperimentConfig(mode="minimax", grid_size=largest))
    with pytest.raises(ConfigError, match=rf"grid_size = {largest + 1} is over the {largest} = 2\^27 points"):
        run_minimax_battery(ExperimentConfig(mode="minimax", grid_size=largest + 1))


def test_run_wavelet_study_reproduces_its_own_decomposition():
    config = ExperimentConfig(
        mode="wavelet",
        d=1,
        level=4,
        n_grid=(100.0, 1000.0),
        seed=4,
        replications=60,
        tau=2.0,
        alpha=1.5,
    )
    report = run_wavelet_study(config)

    basis = haar_tensor_basis(1, 4)
    surrogate = SawtoothSurrogate(1, 2)
    theta = surrogate.haar_coefficients(basis)[: basis.size]
    tail = max(surrogate.norm_sq() - float(theta @ theta), 0.0)
    assert tail > 0.0  # the piecewise-linear ridge is not in the Haar span
    truth = TruthCoefficients(theta, basis.basis_id)
    full = wavelet_prior_preset(basis, tau=2.0, alpha=1.5).to_spectrum()
    spectrum = Spectrum(full.eigenvalues[: basis.size], full.basis_id)

    assert report.fits["sawtooth_level"] == 2
    assert report.fits["sawtooth_norm_sq"] == pytest.approx(surrogate.norm_sq(), rel=1e-15)
    assert len(report.rows) == 2
    for row, n in zip(report.rows, (100.0, 1000.0)):
        assert row.d == 1 and row.m == 1 and row.K == 32 and row.k is None
        assert row.spectrum_id == "wavelet:tau=2:alpha=1.5"
        expected = exact_risk(spectrum, truth, n) + tail
        assert row.exact_risk == pytest.approx(expected, rel=1e-12)
        assert row.mc_risk >= tail
        assert abs(row.mc_risk - row.exact_risk) <= 10.0 * row.mc_stderr
        assert row.lemma4_bound == pytest.approx(single_function_risk_bound(truth, n), rel=1e-15)
        assert row.thm2_floor == pytest.approx(mean_risk_floor(1, n), rel=1e-15)
        assert row.slope == report.fits["slope"]


def test_run_wavelet_study_derives_level_from_dimension():
    config = ExperimentConfig(
        mode="wavelet", d=1, n_grid=(100.0,), seed=1, replications=10
    )
    report = run_wavelet_study(config)
    assert report.fits["sawtooth_level"] == 4  # default level 6 minus two octaves
    assert report.rows[0].K == 128


def test_runners_reject_infeasible_truncation_and_level():
    with pytest.raises(ConfigError, match="cannot resolve"):
        run_risk_study(replace(RISK_CONFIG, level=1))
    with pytest.raises(ConfigError, match="exceeds"):
        run_risk_study(replace(RISK_CONFIG, K=100000))
    with pytest.raises(ConfigError, match="exceeds"):
        run_wavelet_study(
            ExperimentConfig(mode="wavelet", level=4, K=33, n_grid=(100.0,), replications=10)
        )


@pytest.fixture
def priced_budgets(monkeypatch):
    """The budget of every _checked_K call, with fresh bases so the cache holds none."""
    budgets = []
    checked_K = study._checked_K

    def spy(config, level, m, where, work_bytes):
        K = checked_K(config, level, m, where, work_bytes)
        budgets.append(work_bytes(K))
        return K

    monkeypatch.setattr(study, "_checked_K", spy)
    monkeypatch.setattr(study, "haar_tensor_basis", HaarTensorBasis)
    return budgets


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "d,level,n,K,stages",
    [(2, 7, 1e5, None, ("mc",)), (2, 6, 1e4, None, ("mc", "probes")), (3, 5, 1e4, None, ("mc",)),
     (3, 4, 1e6, None, ("mc",)), (2, 7, 1e5, 1000, ("mc",)), (3, 5, 1e4, None, ("mc", "probes"))],
)
def test_grid_point_peak_stays_within_its_refusal_budget(priced_budgets, d, level, n, K, stages):
    # the budget _checked_K prices a point at covers its traced peak, from
    # the coefficient pass (with a fresh basis) to the last stage
    config = ExperimentConfig(mode="risk", d=d, level=level, n_grid=(n,), replications=10, K=K)
    points = study._family_points(config)
    assert traced_peak(lambda: study._run_grid(config, points, stages)) <= priced_budgets[0]


@pytest.mark.parametrize(
    "d,level,n_grid",
    [(1, 10, (1e3, 10**3.5, 1e4, 10**4.5, 1e5, 10**5.5, 1e6)),
     (2, 6, (1e3, 10**3.5, 1e4, 10**4.5, 1e5))],
    ids=["d1-level10", "d2-level6"],
)
def test_whole_study_peak_stays_within_its_largest_point_budget(priced_budgets, d, level, n_grid):
    # the points run one at a time, so the per-point price caps the whole study
    config = ExperimentConfig(mode="rates", d=d, level=level, n_grid=n_grid)
    peak = traced_peak(lambda: run_rate_study(config))
    assert len(priced_budgets) == len(n_grid)
    assert peak <= max(priced_budgets)


def test_oversized_grid_points_fail_before_any_work():
    config = ExperimentConfig(mode="risk", d=3, level=8, n_grid=(1e3, 1e4), replications=10)
    began = time.perf_counter()
    with pytest.raises(ConfigError, match=r"K = 134217728") as caught:
        run_risk_study(config)
    assert time.perf_counter() - began < 1.0
    message = str(caught.value)
    for part in ("d = 3", "n = 1000", "k = 2", "m = 8", "level = 8", "bytes"):
        assert part in message
    # the size check covers the whole grid, not only the first point
    later = replace(RISK_CONFIG, n_grid=(200.0, 1e15), level=21)
    with pytest.raises(ConfigError, match="n = 1e\\+15"):
        run_risk_study(later)
    # the wavelet study sizes its one basis (m = 1) the same way
    began = time.perf_counter()
    with pytest.raises(ConfigError, match=r"d = 3: m = 1, level = 8, K = 134217728 .* bytes"):
        run_wavelet_study(replace(config, mode="wavelet"))
    assert time.perf_counter() - began < 1.0


# ---------------------------------------------------------------------------
# property checks


@pytest.mark.parametrize("seed", [1, 186, 286])
def test_verify_battery_passes_with_one_line_per_check(seed):
    passed, lines = run_verify(ExperimentConfig(mode="verify", seed=seed))
    assert passed
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name, _ in properties.CHECKS]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [1, 186])
def test_verify_lines_equal_the_golden_output(seed):
    # the golden files are `gplb verify --seed <seed>` stdout before verify was batched
    passed, lines = run_verify(ExperimentConfig(mode="verify", seed=seed))
    assert passed
    expected = (GOLDEN / f"verify-seed-{seed}.txt").read_bytes()
    assert "".join(line + "\n" for line in lines).encode() == expected


@pytest.mark.parametrize(
    "mode,name",
    [("risk", "risk-d2"), ("risk", "risk-d3"), ("wavelet", "wavelet-d3"), ("rates", None),
     ("contraction", None), ("risk", "risk-polynomial"), ("risk", "risk-exponential"),
     ("rates", "rates-flat")],
)
def test_study_reports_equal_the_golden_output(capsys, mode, name):
    # the golden files are `gplb <mode> [--config <name>.ini] --seed 1` stdout
    # before the coefficient engine became one stacked pass (contraction's:
    # before the Chernoff ladder and the stacked probes; the polynomial,
    # exponential and flat presets': before the one grid runner), except
    # the slope cells of rates, rates-flat and wavelet-d3, which moved by
    # 3-5 ulp to the exact least-squares slope when the fit stopped using
    # np.polyfit
    config = [] if name is None else ["--config", str(GOLDEN / f"{name}.ini")]
    assert main([mode, *config, "--seed", "1"]) == 0
    expected = (GOLDEN / f"{name or mode}-seed-1.csv").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_contraction_json_report_equals_the_golden_output(capsys):
    # `gplb contraction --seed 1 --format json` stdout before the Newton
    # minimiser of the Chernoff bound was deleted
    assert main(["contraction", "--seed", "1", "--format", "json"]) == 0
    expected = (GOLDEN / "contraction-seed-1.json").read_bytes()
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize(
    "name",
    ["rates", "contraction", "risk-d2", "risk-d3", "risk-d3-level6", "risk-polynomial",
     "risk-exponential", "rates-flat"],
)
def test_every_family_golden_row_clears_its_linear_minimax_floor(name):
    # Donoho, Liu & MacGibbon (1990): the k^d members share the squared norm
    # c_k^2, so every linear estimator, each GP posterior mean among them, has
    # worst-case risk over them of at least c_k^2 times the one-sparse linear
    # minimax risk at noise 1 / sqrt(n c_k^2).  The closest rows reach 0.984
    # of their exact risk (risk-d3) and 0.940 (risk-d3-level6).
    rows = read_report(str(GOLDEN / f"{name}-seed-1.csv")).rows
    assert rows
    for row in rows:
        c_k_sq = pyramid_norm_sq(row.d, row.k)
        floor = c_k_sq * sparse_linear.linear_minimax_risk(row.m, 1.0 / math.sqrt(row.n * c_k_sq)).risk
        assert 0.0 < floor <= row.exact_risk, (row.n, floor, row.exact_risk)


@pytest.mark.parametrize("name", ["rates", "rates-flat", "wavelet-d3"])
def test_golden_slope_is_the_correctly_rounded_least_squares_slope(name):
    rows = read_report(str(GOLDEN / f"{name}-seed-1.csv")).rows
    ns, risks = np.array(list(dict.fromkeys((row.n, row.exact_risk) for row in rows))).T  # one per grid point
    slope, _ = exact_line(np.log(ns).tolist(), np.log(risks).tolist())
    assert {row.slope for row in rows} == {float(slope)}


def test_verify_passes_at_every_seed():
    # the README's claim: `gplb verify` passes at every seed 0..299
    failing = [seed for seed in range(300) if not run_verify(ExperimentConfig(mode="verify", seed=seed))[0]]
    assert failing == []


def check_index(name):
    return [check_name for check_name, _ in properties.CHECKS].index(name)


def check_rng(full, seed, name):
    """The generator a check reads: `gplb verify`'s at the quick size, its criterion's at the full size."""
    return np.random.default_rng(seed) if full else task_rng(seed, check_index(name))


def stacked_cases(criterion_seed):
    """Quick runs at seeds 0..299, as `gplb verify` draws, and the full run of the check's criterion.

    The checks of criteria 2-4 read a fresh generator: minimax_identity,
    which runs before diagonal_domination in criterion 3, draws nothing.
    """
    return pytest.mark.parametrize(
        "full, seeds", [(False, range(300)), (True, (criterion_seed,))], ids=["quick", "full"])


def recorded(monkeypatch, owner, attribute, check, rng, full, implementation=None):
    """Run ``check`` while recording what ``owner.attribute`` returns; returns (outputs, result).

    With ``implementation`` given, it stands in for ``owner.attribute``.
    """
    outputs, original = [], implementation or getattr(owner, attribute)

    def recording(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(owner, attribute, recording)
        result = check(rng, full)
    return outputs, result


def per_draw_small_error_hits(spectrum, theta, n, mu_sq, draws, rng):
    """The loop over single draws that ``properties._small_error_hits`` batches."""
    hits = 0
    for _ in range(draws):
        err = posterior_update(spectrum, sample_observation(theta, n, rng)).means - theta.theta
        hits += float(err @ err) <= mu_sq / 4.0
    return hits


@pytest.mark.parametrize("full, seeds", [(False, range(300)), (True, (707, 1))], ids=["quick", "full"])
def test_risk_concentration_hits_equal_the_per_draw_loop(monkeypatch, full, seeds):
    # quick runs draw as `gplb verify` does, full runs as acceptance criterion 7
    for seed in seeds:
        outcomes = [
            recorded(monkeypatch, properties, "_small_error_hits", properties.risk_concentration,
                     check_rng(full, seed, "risk-concentration"), full, count_hits)
            for count_hits in (properties._small_error_hits, per_draw_small_error_hits)
        ]
        assert outcomes[0] == outcomes[1], seed
        assert len(outcomes[0][0]) == (20 if full else 2)


def per_pair_overlaps(family, points):
    """The per-pair loop that ``properties._pair_overlaps`` stacks.

    Members are evaluated one at a time, and each pair's product and
    center margin are formed alone.
    """
    def value(j, pts):
        return np.maximum(family.bandwidth - np.abs(pts - family.centers[j]).sum(axis=1), 0.0)

    values = [value(j, points) for j in range(family.m)]
    products, margins = [], []
    for a in range(family.m):
        for b in range(a + 1, family.m):
            products.append(float(np.max(values[a] * values[b])))
            distance = float(np.abs(family.centers[a] - family.centers[b]).sum())
            margins.append(family.k * (distance - 2.0 * family.bandwidth))
    return np.array(products), np.array(margins)


@stacked_cases(202)
def test_disjoint_supports_stacks_equal_the_per_pair_loop(monkeypatch, full, seeds):
    for seed in seeds:
        (stacked, result), (looped, expected) = [
            recorded(monkeypatch, properties, "_pair_overlaps", properties.disjoint_supports,
                     check_rng(full, seed, "disjoint-supports"), full, overlaps)
            for overlaps in (properties._pair_overlaps, per_pair_overlaps)
        ]
        assert len(stacked) == len(looped) == (5 if full else 1)
        for (products, margins), (loop_products, loop_margins) in zip(stacked, looped):
            assert np.array_equal(products, loop_products), seed
            assert np.array_equal(margins, loop_margins), seed
        assert result == expected, seed


def test_sigma_drawn_by_index_reads_the_stream_choice_read():
    # diagonal-domination draws sigma as SIGMAS[int(rng.integers(4))], where it
    # drew float(rng.choice([0.1, 0.5, 1.0, 3.0])) before; a NumPy whose choice
    # reads the stream otherwise fails here
    sigmas = list(properties.SIGMAS)
    assert sigmas == [0.1, 0.5, 1.0, 3.0]
    for seed in range(300):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            m = int(by_choice.integers(2, 9))
            assert int(by_index.integers(2, 9)) == m
            assert float(by_choice.choice(sigmas)) == sigmas[int(by_index.integers(len(sigmas)))]
            assert np.array_equal(by_choice.standard_normal((m, m)), by_index.standard_normal((m, m)))


def per_matrix_worst_case_risk(A, sigma):
    """The worst-case risk of one matrix, as computed before the stacked form."""
    columns = A.T.copy()
    columns.flat[:: len(A) + 1] -= 1.0
    bias_sq = (columns[:, None, :] @ columns[:, :, None]).max()
    return float(bias_sq) + sparse_linear._noise_load(float(np.sum(A * A)), sigma)


def per_draw_diagonal_domination(rng, full):
    """The per-draw loop of the diagonal-domination check before stacking.

    Returns the drawn sizes m, the worst-case risks of a_bar I and of A, and
    the dominated flags, one per draw, and the check's (ok, detail).
    """
    draws = 500 if full else 100
    sizes, risks = [], []
    for _ in range(draws):
        m = int(rng.integers(2, 9))
        sigma = float(rng.choice([0.1, 0.5, 1.0, 3.0]))
        A = rng.standard_normal((m, m))
        a_bar = float(np.sqrt(np.mean(np.diagonal(A) ** 2)))
        sizes.append(m)
        risks.append([per_matrix_worst_case_risk(M, sigma) for M in (a_bar * np.eye(m), A)])
    scalar, matrix = np.array(risks).T
    dominated = scalar <= matrix
    violations = int(np.count_nonzero(~dominated))
    return (np.array(sizes), scalar, matrix, dominated), (
        violations == 0, f"{violations} violations in {draws} random matrices")


@stacked_cases(303)
def test_diagonal_domination_stacks_equal_the_per_draw_loop(monkeypatch, full, seeds):
    for seed in seeds:
        outputs, result = recorded(
            monkeypatch, sparse_linear, "_worst_case_risk", properties.diagonal_domination,
            check_rng(full, seed, "diagonal-domination"), full)
        (sizes, scalar, matrix, dominated), expected = per_draw_diagonal_domination(
            check_rng(full, seed, "diagonal-domination"), full)
        # one stacked call per size m, in increasing m: a_bar I first, then A
        order = np.argsort(sizes, kind="stable")
        stacked_scalar, stacked_matrix = np.concatenate(outputs[0::2]), np.concatenate(outputs[1::2])
        assert np.array_equal(stacked_scalar, scalar[order]), seed
        assert np.array_equal(stacked_matrix, matrix[order]), seed
        assert np.array_equal(stacked_scalar <= stacked_matrix, dominated[order]), seed
        assert result == expected, seed


def per_draw_risk_floors(rng, full):
    """The per-draw loop of the risk-floors check before stacking.

    Returns each draw's member risks, summed over the dense rows as one
    spectrum's risks were summed before the stacked form, and the check's
    (ok, detail).
    """
    configs = ((1, 4, 1000.0, 8), (2, 3, 10000.0, 4)) if full else ((1, 4, 1000.0, 6),)
    draws = 500 if full else 100
    violations = checked = 0
    closest = math.inf
    sizes, rows = [], []
    for d, k, n, level in configs:
        basis = haar_tensor_basis(d, level)
        sizes.append(str(basis.size))
        coeffs = compute_coefficients(build_pyramid_family(d, k), basis, basis.size)
        bound = properties.risk_lower_bound(coeffs, n)
        floor = mean_risk_floor(d, n)
        levels = np.arange(basis.level + 1)
        for i in range(draws):
            if i % 2 == 0:
                tau = 10.0 ** rng.uniform(-2.0, 2.0)
                per_level = tau * 2.0 ** (-rng.uniform(0.0, 3.0) * levels)
            else:
                per_level = 10.0 ** rng.uniform(-6.0, 2.0, levels.size)
            weights, one_minus, _ = sequence_core._shrinkage(per_level[basis.groups], n)
            risks = np.sum((one_minus * coeffs.entries) ** 2, axis=1) + float(np.sum(weights**2)) / n
            rows.append(risks)
            worst = float(risks.max())
            violations += (worst < bound - 1e-12) + (worst < floor - 1e-12)
            closest = min(closest, worst / bound)
            checked += 1
    return rows, (violations == 0, (
        f"{violations} violations of the coordinatewise and mean floors (tolerance 1e-12) in "
        f"{checked} random spectra on tensor Haar bases of size {' and '.join(sizes)}; smallest "
        f"worst-member-risk / floor ratio {closest:.3f}"
    ))


@stacked_cases(404)
def test_risk_floors_stacks_equal_the_per_draw_loop(monkeypatch, full, seeds):
    for seed in seeds:
        outputs, result = recorded(
            monkeypatch, CoefficientMatrix, "risks", properties.risk_floors,
            check_rng(full, seed, "risk-floors"), full)
        rows, expected = per_draw_risk_floors(check_rng(full, seed, "risk-floors"), full)
        stacked_rows = [row for risks in outputs for row in risks]
        assert len(stacked_rows) == len(rows), seed
        # the store sums each row's nonzeros in another grouping than the dense row
        assert all(within_ulps(a, b) for a, b in zip(stacked_rows, rows)), seed
        # the per-draw worst-member risks
        assert within_ulps([a.max() for a in stacked_rows], [b.max() for b in rows]), seed
        assert result == expected, seed


# check name -> (owner, attribute, wrapper that breaks the original), one or more per check
BREAKS = {
    "pyramid-norms": [(properties, "pyramid_norm_sq", lambda f: lambda d, k: 1.01 * f(d, k))],
    "disjoint-supports": [
        # every member evaluated as member 0, in each stacked evaluation
        (properties, "evaluate_pyramid",
         lambda f: lambda family, j, x: f(family, np.zeros_like(j), x)),
        # neighbours overlap in a sliver that no sampled point hits
        (PyramidFamily, "bandwidth", lambda f: property(lambda family: f.fget(family) * (1 + 1e-6))),
    ],
    "family-membership": [
        (properties, "evaluate_pyramid", lambda f: lambda family, j, x: 1.01 * f(family, j, x))],
    "minimax-identity": [(
        properties, "linear_minimax_risk",
        lambda f: lambda m, sigma: f(m, sigma)._replace(risk=f(m, sigma).risk + 1e-6))],
    # the best column in place of the worst, for each matrix of a stack
    "diagonal-domination": [(
        sparse_linear, "_worst_case_risk",
        lambda f: lambda estimator, sigmas: np.array([
            min(sparse_linear.linear_estimator_risk(sparse_linear.LinearEstimator(A), j, sigma)
                for j in range(len(A)))
            for A, sigma in zip(estimator.matrix, sigmas)]))],
    # risks at a thousandfold sample size, for each spectrum of a stack
    "risk-floors": [(
        CoefficientMatrix, "risks", lambda f: lambda coeffs, spectrum, n: f(coeffs, spectrum, 1e3 * n))],
    "one-sparse-law": [(sparse_linear, "pyramid_norm_sq", lambda f: lambda d, k: 1.01 * f(d, k))],
    # a posterior that ignores the prior's scale barely shrinks
    "risk-concentration": [(
        properties, "posterior_update",
        lambda f: lambda spectrum, observation: f(
            Spectrum(1e6 * spectrum.eigenvalues, spectrum.basis_id), observation))],
    "basis-orthonormality": [(
        HaarTensorBasis, "analyze", lambda f: lambda basis, cells: (1.0 + 1e-9) * f(basis, cells))],
    "constant-identities": [(
        properties, "lower_bound_constants",
        lambda f: lambda d: f(d)._replace(rate_exponent=1.0 / (2.0 + d)))],
}
# (check index, break index): a check's first break keeps the check's name as its id
BREAK_CASES = [
    (index, case) for index, (name, _) in enumerate(properties.CHECKS) for case in range(len(BREAKS[name]))]


@pytest.mark.parametrize(
    "index, case", BREAK_CASES,
    ids=[properties.CHECKS[index][0] + (f"-{case + 1}" if case else "") for index, case in BREAK_CASES])
def test_every_check_fails_when_the_code_it_guards_breaks(monkeypatch, index, case):
    name, check = properties.CHECKS[index]
    owner, attribute, breaks = BREAKS[name][case]
    assert check(task_rng(1, index), False)[0]
    monkeypatch.setattr(owner, attribute, breaks(getattr(owner, attribute)))
    ok, detail = check(task_rng(1, index), False)
    assert not ok, detail


def test_basis_orthonormality_fails_when_evaluate_and_the_transform_disagree(monkeypatch):
    # Shifting evaluate by one member keeps the Gram matrix the identity;
    # only the comparison at the cell midpoints sees it.
    index = [name for name, _ in properties.CHECKS].index("basis-orthonormality")
    check = properties.CHECKS[index][1]
    evaluate = HaarTensorBasis.evaluate
    monkeypatch.setattr(
        HaarTensorBasis, "evaluate", lambda basis, p, x: evaluate(basis, (p + 1) % basis.size, x))
    ok, detail = check(task_rng(1, index), False)
    assert not ok and detail == "max Gram deviation 4.44e-16"


# ---------------------------------------------------------------------------
# command-line interface


MINIMAX_INI = """
[minimax]
m_values = 1, 2
sigma_values = 1.0
grid_size = 101
"""

RISK_INI = """
[experiment]
n_grid = 200, 2000
seed = 3

[mc]
replications = 40
"""


def test_cli_writes_csv_to_stdout_by_default(tmp_path, capsys):
    path = write_ini(tmp_path, MINIMAX_INI)
    assert main(["minimax", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    assert "# config mode=minimax" in lines
    assert ",".join(COLUMNS) in lines
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 2  # header + rows


def test_cli_out_flag_and_json_format(tmp_path, capsys):
    path = write_ini(tmp_path, MINIMAX_INI)
    out = tmp_path / "battery.json"
    assert main(["minimax", "--config", path, "--out", str(out), "--format", "json"]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["config"]["mode"] == "minimax"
    assert len(payload["rows"]) == 2


def test_cli_risk_report_is_byte_identical_across_runs(tmp_path):
    path = write_ini(tmp_path, RISK_INI)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["risk", "--config", path, "--out", str(first)]) == 0
    assert main(["risk", "--config", path, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = read_report(str(first))
    assert len(report.rows) == 2
    assert dict(report.config_items)["seed"] == "3"


def test_cli_exit_code_two_on_config_errors(tmp_path, capsys):
    bad_key = write_ini(tmp_path, "[experiment]\nbogus = 1\n", name="bad.ini")
    assert main(["risk", "--config", bad_key]) == 2
    assert "configuration error" in capsys.readouterr().err
    # feasibility failures inside the runner exit the same way
    infeasible = write_ini(
        tmp_path,
        "[experiment]\nn_grid = 1000\n[spectrum]\nlevel = 1\n[mc]\nreplications = 2\n",
        name="infeasible.ini",
    )
    assert main(["risk", "--config", infeasible]) == 2
    assert "cannot resolve" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["ceil", "round", "floor"])
def test_cli_refuses_an_oversize_n_under_every_grid_rule(tmp_path, capsys, rule):
    path = write_ini(tmp_path, f"[experiment]\nn_grid = 1e40\ngrid_rule = {rule}\n")
    assert main(["risk", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: d = 1, n = 1e+40: k = ")
    for part in (", m = ", ", level = ", ", K = ", " bytes for coefficients"):
        assert part in err


def test_cli_exit_code_two_on_an_unwritable_out(tmp_path, capsys, monkeypatch):
    def runner(config):
        raise AssertionError("the study ran although --out cannot be written")

    monkeypatch.setitem(cli._RUNNERS, "minimax", runner)
    (tmp_path / "file").write_text("", encoding="utf-8")
    # a missing parent directory, and a parent that is a file
    for target in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv"):
        assert main(["minimax", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not target.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("output error: ") and str(target) in lines[0]


def test_cli_refuses_an_out_that_is_a_directory_before_any_work(tmp_path, capsys, monkeypatch):
    def runner(config):
        raise AssertionError("the study ran although --out is a directory")

    monkeypatch.setitem(cli._RUNNERS, "minimax", runner)
    assert main(["minimax", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and lines == [f"output error: {tmp_path} is a directory"]


def test_cli_verify_writes_its_lines_to_out_after_the_same_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gplb.harness.cli.run_verify", lambda config: (False, ["PASS a: ok", "FAIL b: no"]))
    target = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(target)]) == 1
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == b"PASS a: ok\nFAIL b: no\n"

    def battery(config):
        raise AssertionError("the battery ran although --out cannot be written")

    monkeypatch.setattr("gplb.harness.cli.run_verify", battery)
    (tmp_path / "file").write_text("", encoding="utf-8")
    # a directory, a missing parent directory and a parent that is a file
    for out in (tmp_path, tmp_path / "missing" / "x.txt", tmp_path / "file" / "x.txt"):
        assert main(["verify", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and lines[0].startswith(f"output error: {out}")


def test_cli_minimax_reports_risk_one_when_m_sigma_sq_overflows(tmp_path):
    path = write_ini(
        tmp_path, "[minimax]\nm_values = 1, 64\nsigma_values = 1e200, 0.5\ngrid_size = 101\n"
    )
    out = tmp_path / "overflow.json"
    assert main(["minimax", "--config", path, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    overflowing = [(row["m"], row["exact_risk"], row["mc_risk"]) for row in rows[::2]]
    assert overflowing == [(1, 1.0, 1.0), (64, 1.0, 1.0)]
    assert all(row["exact_risk"] <= row["mc_risk"] < 1.0 for row in rows[1::2])


def test_cli_refuses_a_minimax_grid_over_the_byte_limit(tmp_path, capsys):
    path = write_ini(tmp_path, "[minimax]\ngrid_size = 1000000000\n")
    assert main(["minimax", "--config", path]) == 2
    assert "grid_size = 1000000000 is over the 134217728 = 2^27 points" in capsys.readouterr().err


SCIPY_FREE_CALLS = """
import sys

sys.modules["scipy"] = None  # every import of scipy now fails
sys.path.insert(0, sys.argv[1])
import gplb.harness.cli
from gplb.harness.cli import _RUNNERS
from gplb.harness.config import load_config
from gplb.harness.properties import run_verify
from gplb.harness.report import render_csv

for mode in ("risk", "rates", "contraction", "wavelet", "verify", "minimax"):
    config = load_config(None, {"mode": mode}, env={})
    before = set(sys.modules)
    if mode == "verify":
        assert run_verify(config)[0]
    else:
        render_csv(_RUNNERS[mode](config))
    assert set(sys.modules) == before, (mode, sorted(set(sys.modules) - before))
print("ok")
"""


def test_default_cli_calls_run_without_scipy_and_import_nothing_mid_study():
    # SciPy is loaded only by Imhof's inversion, which no default call
    # reaches; every module a study uses is loaded with the CLI, so
    # start-up holds all of the import time.
    src = str(Path(gplb.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_CALLS, src], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["ok"]


def test_every_mode_runs_without_scipy_and_an_open_probe_needs_it(capsys, monkeypatch):
    # SciPy is an optional dependency: every mode runs at its defaults
    # without it, and only a contraction probe the Chernoff ladder leaves
    # open, which Imhof's inversion settles, imports it
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    for mode in ("rates", "contraction", "risk", "wavelet", "minimax", "verify"):
        assert main([mode]) == 0, mode
        out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "verify-seed-1.txt").read_bytes()
    open_probes = load_config(None, {"spectrum": "polynomial", "n_grid": (10.0, 100.0)}, env={})
    with pytest.raises(ModuleNotFoundError):
        run_rate_study(open_probes)


def test_every_name_and_workload_of_the_benchmark_resolves(monkeypatch):
    # bench/layers.py rebinds these names and bench/calls.py passes these
    # overrides; the files are read here, not changed, so a change to src
    # that drops a traced name or a setting a workload sets fails this test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    layers, calls = importlib.import_module("layers"), importlib.import_module("calls")
    missing = [(owner, name) for owner, name, _ in layers.BINDINGS if not hasattr(layers._owner(owner), name)]
    assert layers.BINDINGS and not missing, missing
    for workload in calls.WORKLOADS:
        for call in calls.call_overrides(workload, 1):
            assert load_config(None, call, env={}).mode == call["mode"], workload


def test_science_modules_import_no_harness_module():
    # the proof constants and transfer caps live beside the science they
    # serve; only the harness may import the harness
    src = str(Path(gplb.__file__).resolve().parents[1])
    science = "gplb.adversarial, gplb.sequence_core, gplb.wavelet, gplb.sparse_linear, gplb.integrate"
    probe = f"import sys; sys.path.insert(0, sys.argv[1]); import {science}; print(*sys.modules, sep='\\n')"
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()
    assert "gplb.adversarial" in loaded
    assert [name for name in loaded if name.startswith("gplb.harness")] == []


def test_each_public_name_is_bound_only_where_it_is_defined():
    # Every function and class a module exports is that module's own, and
    # the packages gplb and gplb.harness bind none: a name has one import path
    walked = pkgutil.walk_packages(gplb.__path__, "gplb.")
    modules = [gplb, *(importlib.import_module(info.name) for info in walked)]
    exported = [
        (module.__name__, name, getattr(module, name))
        for module in modules
        for name in getattr(module, "__all__", ())
    ]
    borrowed = [(home, name) for home, name, value in exported if callable(value) and value.__module__ != home]
    assert exported and not borrowed, borrowed
    for package in (gplb, gplb.harness):
        bound = [name for name, value in vars(package).items() if callable(value)]
        assert not bound, (package.__name__, bound)


def test_studies_describe_the_basis_without_index_objects(monkeypatch):
    # The risk, rates, contraction and wavelet studies use the basis's
    # integer order and groups only; asking for one member's axis pairs,
    # as evaluate and the tests' constant_panels do, fails here.
    def refuse(self, position):
        raise AssertionError("a study described a basis member by its axis pairs")

    monkeypatch.setattr(HaarTensorBasis, "_member_axes", refuse)
    with pytest.raises(AssertionError):
        haar_tensor_basis(1, 0).evaluate(0, [0.5])
    with pytest.raises(AssertionError):
        next(constant_panels(haar_tensor_basis(1, 0), 0))
    for runner, mode in (
        (run_risk_study, "risk"),
        (run_rate_study, "rates"),
        (run_contraction_study, "contraction"),
        (run_wavelet_study, "wavelet"),
    ):
        assert runner(load_config(None, {"mode": mode}, env={})).rows


def test_cli_environment_overrides_and_flag_precedence(tmp_path, capsys, monkeypatch):
    path = write_ini(tmp_path, MINIMAX_INI)
    monkeypatch.setenv("GPLB_CONFIG", path)
    monkeypatch.setenv("GPLB_SEED", "9")
    assert main(["minimax"]) == 0
    out = capsys.readouterr().out
    assert "# config seed=9" in out
    assert "# config grid_size=101" in out
    assert main(["minimax", "--seed", "11"]) == 0
    assert "# config seed=11" in capsys.readouterr().out
    monkeypatch.setenv("GPLB_FORMAT", "json")
    assert main(["minimax"]) == 0
    assert capsys.readouterr().out.lstrip().startswith("{")
    monkeypatch.setenv("GPLB_FORMAT", "xml")
    assert main(["minimax"]) == 2
    monkeypatch.delenv("GPLB_FORMAT")
    out_path = tmp_path / "env_out.csv"
    monkeypatch.setenv("GPLB_OUT", str(out_path))
    assert main(["minimax"]) == 0
    assert out_path.exists()


def test_cli_requires_a_mode():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_every_mode_lists_the_same_flags_and_help(capsys):
    flags = [
        "--config CONFIG path to an INI experiment config",
        "--seed SEED master seed (overrides config)",
        "--out OUT report path (default: stdout)",
        "--format {csv,json} report format",
    ]
    for mode in MODES:
        with pytest.raises(SystemExit) as err:
            main([mode, "--help"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert set(re.findall(r"--\w+", text)) == {"--help"} | {flag.split()[0] for flag in flags}
        assert all(flag in text for flag in flags), text


def test_cli_verify_maps_battery_outcome_to_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        "gplb.harness.cli.run_verify", lambda config: (True, ["PASS stub: ok"])
    )
    assert main(["verify"]) == 0
    assert "PASS stub: ok" in capsys.readouterr().out
    monkeypatch.setattr(
        "gplb.harness.cli.run_verify", lambda config: (False, ["FAIL stub: broken"])
    )
    assert main(["verify"]) == 1
    assert "FAIL stub: broken" in capsys.readouterr().out
