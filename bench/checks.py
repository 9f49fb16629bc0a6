"""Invariant checks on the report bytes a workload produced.

The checks use invariants that hold for every correct report, not a
frozen reference, so a change that legitimately moves the numbers (an
exact method replacing a sampled one, an added truncation bias) is not
called a failure.  A grid point, a verify line or a minimax row is one
attempted unit; it fails if any of its checks fails or it is missing.

Configs are read by attribute only (``mode``, ``n_grid``, ``m_values``,
``sigma_values``, ``grid_size``), so the checks need no gplb import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Two-sided tail of 5 standard errors is about 6e-7 per grid point, so a
# correct Monte Carlo column essentially never trips it, while a value
# 10 stderr off always does.
MC_Z = 5.0


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(lines: list[str]) -> list[dict]:
    """Rows of a gplb CSV report as dicts; numeric cells become floats, empty ones None."""
    body = [line for line in lines if line.strip() and not line.startswith("#")]
    if not body:
        return []
    header = body[0].split(",")
    rows = []
    for line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            rows.append({"malformed": line})
            continue
        rows.append(dict(zip(header, map(_cell, cells))))
    return rows


def _finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def study_point_problems(rows: list[dict], n: float) -> list[str]:
    """Problems with the rows of one grid point of a risk, rates or wavelet report."""
    problems = []
    for row in rows:
        exact, mc, stderr = row.get("exact_risk"), row.get("mc_risk"), row.get("mc_stderr")
        bound, prob = row.get("lemma4_bound"), row.get("contraction_prob")
        if not (_finite(exact) and exact > 0.0):
            problems.append(f"n={n:g}: exact_risk {exact!r} is not a positive number")
            continue
        if not (_finite(mc) and _finite(stderr) and stderr >= 0.0):
            problems.append(f"n={n:g}: mc_risk {mc!r} or mc_stderr {stderr!r} is missing or invalid")
        elif abs(mc - exact) > MC_Z * stderr:
            problems.append(
                f"n={n:g}: |mc_risk - exact_risk| = {abs(mc - exact):.3g} exceeds "
                f"{MC_Z:g} stderr = {MC_Z * stderr:.3g}"
            )
        # Only half the coordinatewise floor is guaranteed for an arbitrary
        # prior; the matched prior sits below the full floor on rates-d1.
        if not (_finite(bound) and bound > 0.0):
            problems.append(f"n={n:g}: lemma4_bound {bound!r} is not a positive number")
        elif exact < bound / 2.0:
            problems.append(f"n={n:g}: exact_risk {exact:.6g} is below half the floor {bound:.6g}")
        if prob is not None and not (_finite(prob) and 0.0 <= prob <= 1.0):
            problems.append(f"n={n:g}: contraction_prob {prob!r} is outside [0, 1]")
    return problems


def check_study(rows: list[dict], config, result: CheckResult) -> None:
    by_n: dict[float, list[dict]] = {}
    for row in rows:
        if "malformed" in row:
            result.add([f"malformed row {row['malformed']!r}"])
            continue
        by_n.setdefault(row.get("n"), []).append(row)
    for n in config.n_grid:
        point = by_n.pop(float(n), None)
        result.add(study_point_problems(point, n) if point else [f"n={n:g}: no rows"])
    for n in by_n:
        result.add([f"unexpected rows for n={n!r}"])


def check_minimax(rows: list[dict], config, result: CheckResult) -> None:
    step = 1.0 / (config.grid_size - 1)
    expected = len(config.m_values) * len(config.sigma_values)
    for row in rows:
        closed, searched = row.get("exact_risk"), row.get("mc_risk")
        if not (_finite(closed) and _finite(searched)):
            result.add([f"minimax row {row!r} lacks its risks"])
        elif abs(searched - closed) > step:
            result.add(
                [f"minimax m={row.get('m')} {row.get('spectrum_id')}: gap "
                 f"{abs(searched - closed):.3g} exceeds the grid step {step:.3g}"]
            )
        else:
            result.add([])
    for _ in range(expected - len(rows)):
        result.add(["minimax report is missing a row"])


def check_verify(lines: list[str], result: CheckResult) -> None:
    if not lines:
        result.add(["verify printed no check lines"])
    for line in lines:
        result.add([] if line.startswith("PASS ") else [f"verify: {line}"])


def check_report(text: str, configs) -> CheckResult:
    """Check the concatenated output of a workload's calls (verify lines, then CSV)."""
    lines = text.splitlines()
    csv_start = next(
        (i for i, line in enumerate(lines) if line.startswith("# schema_version=")), len(lines)
    )
    verify_lines, csv_rows = lines[:csv_start], parse_csv(lines[csv_start:])
    result = CheckResult()
    for config in configs:
        if config.mode == "verify":
            check_verify(verify_lines, result)
        elif config.mode == "minimax":
            check_minimax(csv_rows, config, result)
        else:
            check_study(csv_rows, config, result)
    return result


def expected_units(configs) -> int:
    """Units a workload attempts, counted as failed when its calls raise."""
    total = 0
    for config in configs:
        if config.mode == "verify":
            total += 1
        elif config.mode == "minimax":
            total += len(config.m_values) * len(config.sigma_values)
        else:
            total += len(config.n_grid)
    return total
