"""Per-layer instrumentation: which gplb names the traced run wraps, and the metrics.

Each layer is one gplb module that does work: ``integrate``,
``sequence_core``, ``adversarial``, ``sparse_linear``, ``wavelet`` and
``harness``.  ``errors`` does no work and is not a layer.  A span is
recorded around every call to a public function of a layer, at the
binding the caller looks up; the harness spans (config, study, verify,
render) are opened by the benchmark around its own calls.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np

from spans import END, START, Tracer, summarize

# (module or "module:Class", attribute, span name).  The study and verify
# modules import these functions by name, so each binding is listed.
BINDINGS = (
    ("gplb.harness.study", "compute_coefficients", "adversarial.coefficients"),
    ("gplb.harness.properties", "compute_coefficients", "adversarial.coefficients"),
    ("gplb.harness.study", "build_pyramid_family", "adversarial.family"),
    ("gplb.harness.properties", "build_pyramid_family", "adversarial.family"),
    ("gplb.harness.study", "risk_lower_bound", "adversarial.floor"),
    ("gplb.harness.study", "mean_risk_floor", "adversarial.floor"),
    ("gplb.harness.properties", "risk_lower_bound", "adversarial.floor"),
    ("gplb.harness.properties", "mean_risk_floor", "adversarial.floor"),
    ("gplb.harness.study", "tk_matched_spectrum", "adversarial.spectrum"),
    ("gplb.adversarial", "pyramid_box_integral", "integrate.pyramid_box"),
    ("gplb.adversarial", "adaptive_box_integral", "integrate.adaptive"),
    ("gplb.harness.properties", "adaptive_box_integral", "integrate.adaptive"),
    ("gplb.wavelet", "ridge_box_integral", "integrate.ridge_box"),
    ("gplb.harness.study", "haar_tensor_basis", "wavelet.basis"),
    ("gplb.harness.properties", "haar_tensor_basis", "wavelet.basis"),
    ("gplb.wavelet:SawtoothSurrogate", "haar_coefficients", "wavelet.surrogate_coeff"),
    ("gplb.harness.study", "wavelet_prior_preset", "wavelet.prior"),
    ("gplb.wavelet:WaveletPrior", "to_spectrum", "wavelet.prior"),
    ("gplb.harness.study", "single_function_risk_bound", "wavelet.floor"),
    ("gplb.harness.study", "contraction_probability", "sequence_core.contraction"),
    ("gplb.harness.study", "mc_risk", "sequence_core.mc_risk"),
    ("gplb.harness.study", "exact_risk", "sequence_core.exact_risk"),
    ("gplb.harness.properties", "exact_risk", "sequence_core.exact_risk"),
    ("gplb.harness.study", "brute_force_minimax", "sparse_linear.brute_force"),
    ("gplb.harness.study", "linear_minimax_risk", "sparse_linear.closed_form"),
    ("gplb.harness.properties", "linear_minimax_risk", "sparse_linear.closed_form"),
    ("gplb.harness.study", "fit_loglog_slope", "harness.fit"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def instrument(tracer: Tracer) -> list[dict]:
    """Patch every binding; returns the sizes and time of each coefficient call, in order."""
    counters = tracer.counters
    coefficient_calls: list[dict] = []

    def coefficient_call(span, entries, k) -> int:
        nonzero = int(np.count_nonzero(entries))
        m, K = (1, entries.size) if entries.ndim == 1 else entries.shape
        coefficient_calls.append(
            {"k": k, "m": m, "K": K, "nonzeros": nonzero,
             "dense_bytes": int(entries.nbytes), "seconds": span[END] - span[START]}
        )
        return nonzero

    def coefficients(span, args, kwargs, coeffs):
        m, K, d = coeffs.m, coeffs.K, coeffs.family.d
        counters["coeff_entries"] += m * K
        counters["coeff_nonzero"] += coefficient_call(span, coeffs.entries, coeffs.family.k)
        counters["panel_candidates"] += m * K * 2**d

    def surrogate(span, args, kwargs, theta):
        coefficient_call(span, theta, None)

    def contraction(span, args, kwargs, result):
        call = _bound(contraction_probability, args, kwargs)
        counters["contraction_draws"] += (
            call["outer"] * (call["inner"] + 1) * call["spectrum"].size
        )
        counters["contraction_probes"] += 1
        counters["contraction_saturated"] += result[0] in (0.0, 1.0)

    def mc(span, args, kwargs, result):
        call = _bound(mc_risk, args, kwargs)
        counters["mc_draws"] += call["replications"] * call["spectrum"].size

    def basis(span, args, kwargs, result):
        counters["basis_size"] += result.size

    def brute_force(span, args, kwargs, result):
        counters["brute_force_evals"] += _bound(brute_force_minimax, args, kwargs)["grid_size"]

    sequence_core = importlib.import_module("gplb.sequence_core")
    sparse_linear = importlib.import_module("gplb.sparse_linear")
    contraction_probability = sequence_core.contraction_probability
    mc_risk = sequence_core.mc_risk
    brute_force_minimax = sparse_linear.brute_force_minimax
    callbacks = {
        "adversarial.coefficients": coefficients,
        "wavelet.surrogate_coeff": surrogate,
        "sequence_core.contraction": contraction,
        "sequence_core.mc_risk": mc,
        "wavelet.basis": basis,
        "sparse_linear.brute_force": brute_force,
    }
    for owner, attribute, name in BINDINGS:
        tracer.patch(_owner(owner), attribute, name, callbacks.get(name))
    return coefficient_calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, *, wall_s: float, untraced_wall_s: float, cpu_s: float,
                  points: int, report_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), for one traced study."""
    summary = summarize(tracer.spans)
    counters = tracer.counters

    def seconds(name: str) -> float:
        return summary[name]["total_s"] if name in summary else 0.0

    def calls(name: str) -> int:
        return summary[name]["calls"] if name in summary else 0

    study_self = summary["harness.study"]["self_s"] if "harness.study" in summary else 0.0
    return {
        "adversarial.coefficients_s": (seconds("adversarial.coefficients"), "s"),
        "adversarial.coeff_entries": (counters["coeff_entries"], "count"),
        "adversarial.coeff_nonzero_frac": (
            _ratio(counters["coeff_nonzero"], counters["coeff_entries"]), "ratio"),
        "adversarial.panel_hit_frac": (
            _ratio(calls("integrate.pyramid_box"), counters["panel_candidates"]), "ratio"),
        "adversarial.family_s": (seconds("adversarial.family"), "s"),
        "adversarial.floor_s": (seconds("adversarial.floor"), "s"),
        "adversarial.spectrum_s": (seconds("adversarial.spectrum"), "s"),
        "integrate.pyramid_box_calls": (calls("integrate.pyramid_box"), "count"),
        "integrate.pyramid_box_s": (seconds("integrate.pyramid_box"), "s"),
        "integrate.ridge_box_calls": (calls("integrate.ridge_box"), "count"),
        "integrate.ridge_box_s": (seconds("integrate.ridge_box"), "s"),
        "integrate.adaptive_calls": (calls("integrate.adaptive"), "count"),
        "integrate.adaptive_s": (seconds("integrate.adaptive"), "s"),
        "wavelet.basis_s": (seconds("wavelet.basis"), "s"),
        "wavelet.basis_size": (counters["basis_size"], "count"),
        "wavelet.surrogate_coeff_s": (seconds("wavelet.surrogate_coeff"), "s"),
        "wavelet.prior_s": (seconds("wavelet.prior"), "s"),
        "wavelet.floor_s": (seconds("wavelet.floor"), "s"),
        "sequence_core.contraction_s": (seconds("sequence_core.contraction"), "s"),
        "sequence_core.contraction_draws": (counters["contraction_draws"], "count"),
        "sequence_core.contraction_saturated_frac": (
            _ratio(counters["contraction_saturated"], counters["contraction_probes"]), "ratio"),
        "sequence_core.mc_risk_s": (seconds("sequence_core.mc_risk"), "s"),
        "sequence_core.mc_draws": (counters["mc_draws"], "count"),
        "sequence_core.draws_per_s": (
            _ratio(counters["mc_draws"], seconds("sequence_core.mc_risk")), "1/s"),
        "sequence_core.exact_risk_calls": (calls("sequence_core.exact_risk"), "count"),
        "sequence_core.exact_risk_s": (seconds("sequence_core.exact_risk"), "s"),
        "sparse_linear.brute_force_s": (seconds("sparse_linear.brute_force"), "s"),
        "sparse_linear.brute_force_evals": (counters["brute_force_evals"], "count"),
        "sparse_linear.closed_form_s": (seconds("sparse_linear.closed_form"), "s"),
        "harness.config_s": (seconds("harness.config"), "s"),
        "harness.verify_s": (seconds("harness.verify"), "s"),
        "harness.fit_s": (seconds("harness.fit"), "s"),
        "harness.render_s": (seconds("harness.render"), "s"),
        "harness.study_self_s": (study_self, "s"),
        "harness.points": (points, "count"),
        "harness.report_bytes": (report_bytes, "bytes"),
        "harness.cpu_util": (_ratio(cpu_s, wall_s), "ratio"),
        "harness.trace_overhead_s": (wall_s - untraced_wall_s, "s"),
    }
