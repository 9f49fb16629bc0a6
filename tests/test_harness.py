"""Harness tests: transfer formulas, config resolution, reports, studies, CLI.

Frozen scalars (threshold values, grid counts) were computed once from the
closed forms with independent arithmetic and pinned here; structural tests
run the study entry points on deliberately tiny grids so the whole module
stays fast.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gplb
import gplb.harness.properties as properties
import gplb.harness.study as study
import gplb.sparse_linear as sparse_linear
from gplb.adversarial import (
    build_pyramid_family,
    compute_coefficients,
    mean_risk_floor,
    pyramid_norm_sq,
    tk_matched_spectrum,
)
from gplb.errors import ConfigError, ContractError, SchemaVersionError
from gplb.harness import (
    COLUMNS,
    SCHEMA_VERSION,
    ExperimentConfig,
    RiskReport,
    RiskRow,
    anderson_transfer,
    concentration_bound,
    contraction_mass_floor,
    emit_report,
    fit_loglog_slope,
    grid_count,
    load_config,
    minimal_basis_level,
    read_report,
    render_csv,
    render_json,
    resolved_items,
    run_contraction_study,
    run_minimax_battery,
    run_rate_study,
    run_risk_study,
    run_verify,
    run_wavelet_study,
    task_rng,
    transfer_threshold,
)
from gplb.harness.cli import main
from gplb.sequence_core import Spectrum, TruthCoefficients, exact_risk, exact_risks
from gplb.wavelet import (
    HaarTensorBasis,
    SawtoothSurrogate,
    haar_tensor_basis,
    single_function_risk_bound,
    wavelet_prior_preset,
)
from test_sparse_linear import per_pair_grid_minimum


@pytest.fixture(autouse=True)
def _clean_gplb_env(monkeypatch):
    """Keep ambient GPLB_* variables from leaking into config resolution."""
    for key in ("GPLB_CONFIG", "GPLB_SEED", "GPLB_OUT", "GPLB_FORMAT", "GPLB_THREADS"):
        monkeypatch.delenv(key, raising=False)


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
        threads = 2
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
    assert config.seed == 11 and config.threads == 2
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
    for bad in ("logspace:3:6", "logspace:a:b:3", "1e3, pear"):
        broken = write_ini(tmp_path, f"[experiment]\nn_grid = {bad}\n", name="bad.ini")
        with pytest.raises(ConfigError):
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
    # the probes are exact, so there are no Monte Carlo sample counts to set
    for key in ("outer", "inner"):
        retired = write_ini(tmp_path, f"[mc]\n{key} = 200\n", name="mc.ini")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(retired, env={})


def test_precedence_defaults_file_env_overrides(tmp_path):
    path = write_ini(tmp_path, "[experiment]\nseed = 3\n")
    assert load_config(path, env={}).seed == 3
    assert load_config(path, env={"GPLB_SEED": "5"}).seed == 5
    assert load_config(path, {"seed": 7}, env={"GPLB_SEED": "5"}).seed == 7
    # None overrides are "flag not given" and must not mask lower layers
    assert load_config(path, {"seed": None}, env={}).seed == 3
    # empty environment strings are ignored too
    assert load_config(path, env={"GPLB_SEED": ""}).seed == 3


def test_gplb_config_environment_fallback(tmp_path):
    path = write_ini(tmp_path, "[experiment]\nd = 3\nn_grid = 10\n")
    config = load_config(None, env={"GPLB_CONFIG": path})
    assert config.d == 3 and config.n_grid == (10.0,)
    assert load_config(None, env={}).d == 1


def test_environment_values_are_cast_and_checked():
    assert load_config(None, env={"GPLB_THREADS": "4"}).threads == 4
    assert load_config(None, env={"GPLB_FORMAT": "json"}).format == "json"
    assert load_config(None, env={"GPLB_OUT": "r.csv"}).out == "r.csv"
    with pytest.raises(ConfigError, match="environment override"):
        load_config(None, env={"GPLB_SEED": "abc"})
    with pytest.raises(ConfigError, match="format"):
        load_config(None, env={"GPLB_FORMAT": "xml"})


@pytest.mark.parametrize(
    "kwargs",
    [
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
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_config_refuses_replications_beyond_two_to_the_53():
    assert ExperimentConfig(replications=2**53).replications == 2**53
    with pytest.raises(ConfigError, match=f"replications = {2**53 + 1} exceeds"):
        ExperimentConfig(replications=2**53 + 1)


def test_resolved_items_excludes_execution_knobs_and_orders_fields():
    config = ExperimentConfig(seed=5, K=16, out="x.csv", format="json", threads=8)
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


@pytest.mark.parametrize("mode", list(STUDY_RUNNERS))
def test_run_rate_study_is_invariant_to_thread_count(mode):
    runner, config = STUDY_RUNNERS[mode], replace(RATE_CONFIG, mode=mode)
    single = render_csv(runner(config))
    threaded = render_csv(runner(replace(config, threads=3)))
    assert single == threaded


def radius_probe(spectrum, theta, n, radius):
    """Stand-in probe that reports the in-span radius it was given."""
    return radius


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
    radii = []

    def record(spectrum, theta, n, radius):
        radii.append(radius)
        return 0.5

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
    for got, row in zip(radii, (near, far)):
        assert got == pytest.approx(math.sqrt(row.radius**2 - tail), rel=1e-12)
        assert row.contraction_prob == 0.5


def test_probes_inside_the_truncation_tail_report_full_mass_unsampled(monkeypatch):
    def never(*args):
        raise AssertionError("the probe was evaluated although its radius is inside the tail")

    monkeypatch.setattr(study, "contraction_mass", never)
    config = ExperimentConfig(mode="contraction", n_grid=(500.0,), K=1)
    assert [row.contraction_prob for row in run_contraction_study(config).rows] == [1.0, 1.0]


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
    risks = exact_risks(tk_matched_spectrum(coeffs), coeffs.entries, 1e3, basis_id=coeffs.basis_id)
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
    largest = study.MAX_GRID_SIZE
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
    later = replace(RISK_CONFIG, n_grid=(200.0, 1e12), level=17)
    with pytest.raises(ConfigError, match="n = 1e\\+12"):
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


# check name -> (owner, attribute, wrapper that breaks the original)
BREAKS = {
    "pyramid-norms": (properties, "pyramid_norm_sq", lambda f: lambda d, k: 1.01 * f(d, k)),
    "disjoint-supports": (
        properties, "evaluate_pyramid", lambda f: lambda family, j, x: f(family, 0, x)),
    "family-membership": (
        properties, "evaluate_pyramid", lambda f: lambda family, j, x: 1.01 * f(family, j, x)),
    "minimax-identity": (
        properties, "linear_minimax_risk",
        lambda f: lambda m, sigma: f(m, sigma)._replace(risk=f(m, sigma).risk + 1e-6)),
    # the best column in place of the worst
    "diagonal-domination": (
        sparse_linear, "_worst_case_risk",
        lambda f: lambda estimator, sigma: min(
            sparse_linear.linear_estimator_risk(estimator, j, sigma) for j in range(estimator.m))),
    # risks at a thousandfold sample size
    "risk-floors": (
        properties, "exact_risks",
        lambda f: lambda spectrum, thetas, n, basis_id: f(spectrum, thetas, 1e3 * n, basis_id=basis_id)),
    "one-sparse-law": (sparse_linear, "pyramid_norm_sq", lambda f: lambda d, k: 1.01 * f(d, k)),
    # a posterior that ignores the prior's scale barely shrinks
    "risk-concentration": (
        properties, "posterior_update",
        lambda f: lambda spectrum, observation: f(
            Spectrum(1e6 * spectrum.eigenvalues, spectrum.basis_id), observation)),
    "basis-orthonormality": (
        HaarTensorBasis, "pair_inner", lambda f: lambda basis, a, b: (1.0 + 1e-9) * f(basis, a, b)),
    "constant-identities": (
        properties, "lower_bound_constants",
        lambda f: lambda d: f(d)._replace(rate_exponent=1.0 / (2.0 + d))),
}


@pytest.mark.parametrize(
    "index", range(len(properties.CHECKS)), ids=[name for name, _ in properties.CHECKS])
def test_every_check_fails_when_the_code_it_guards_breaks(monkeypatch, index):
    name, check = properties.CHECKS[index]
    owner, attribute, breaks = BREAKS[name]
    assert check(task_rng(1, index), False)[0]
    monkeypatch.setattr(owner, attribute, breaks(getattr(owner, attribute)))
    ok, detail = check(task_rng(1, index), False)
    assert not ok, detail


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
import gplb
import gplb.harness.cli
from gplb.harness import load_config, render_csv, run_verify
from gplb.harness.cli import _RUNNERS

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


def test_studies_describe_the_basis_without_index_objects(monkeypatch):
    # The risk, rates, contraction and wavelet studies use the basis's
    # integer order and groups only; building a WaveletIndex fails here.
    def refuse(self):
        raise AssertionError("a study built a WaveletIndex")

    monkeypatch.setattr("gplb.wavelet.WaveletIndex.__post_init__", refuse)
    with pytest.raises(AssertionError):
        haar_tensor_basis(1, 0).indices
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
