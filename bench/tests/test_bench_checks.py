"""The report checker accepts a correct report and rejects corrupted ones.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import MC_Z, check_report, expected_units  # noqa: E402

HEADER = (
    "d,n,k,m,spectrum_id,K,exact_risk,mc_risk,mc_stderr,lemma4_bound,"
    "thm2_floor,contraction_prob,radius,slope,seed"
)
RATES = SimpleNamespace(mode="rates", n_grid=(1000.0, 10000.0))
MINIMAX = SimpleNamespace(mode="minimax", m_values=(1, 2), sigma_values=(0.5,), grid_size=11)
VERIFY = SimpleNamespace(mode="verify")


def study_report(exact=0.01, mc=0.0101, stderr=0.0002, bound=0.012, prob=1.0):
    lines = ["# schema_version=1", "# config mode=rates", HEADER]
    for n in (1000.0, 10000.0):
        for radius in (0.025, 0.02):
            lines.append(
                f"1,{n!r},4,4,matched:tau=1,128,{exact!r},{mc!r},{stderr!r},{bound!r},"
                f"0.02,{prob!r},{radius!r},-0.6,1"
            )
    return "\n".join(lines) + "\n"


def minimax_report(gap=0.01):
    lines = ["# schema_version=1", HEADER]
    for m in (1, 2):
        closed = m * 0.25 / (1 + m * 0.25)
        lines.append(f",,,{m},one_sparse:sigma=0.5,,{closed!r},{closed + gap!r},,,,,,,1")
    return "\n".join(lines) + "\n"


def test_a_correct_study_report_passes():
    result = check_report(study_report(), [RATES])
    assert (result.attempted, result.failed, result.problems) == (2, 0, [])


def test_a_negative_risk_is_rejected():
    result = check_report(study_report(exact=-0.01, mc=-0.0101), [RATES])
    assert result.failed == 2
    assert any("not a positive number" in problem for problem in result.problems)


def test_an_mc_value_ten_stderr_off_is_rejected():
    stderr = 0.0002
    result = check_report(study_report(mc=0.01 + 10 * stderr, stderr=stderr), [RATES])
    assert result.failed == 2
    assert all("stderr" in problem for problem in result.problems)
    just_inside = check_report(study_report(mc=0.01 + 0.99 * MC_Z * stderr), [RATES])
    assert just_inside.failed == 0


def test_exact_risk_may_sit_below_the_full_floor_but_not_below_half():
    assert check_report(study_report(bound=0.019), [RATES]).failed == 0
    assert check_report(study_report(bound=0.021), [RATES]).failed == 2


def test_a_probability_outside_the_unit_interval_is_rejected():
    assert check_report(study_report(prob=1.5), [RATES]).failed == 2


def test_a_missing_grid_point_counts_as_failed():
    text = "".join(line + "\n" for line in study_report().splitlines()[:-2])
    result = check_report(text, [RATES])
    assert (result.attempted, result.failed) == (2, 1)


def test_battery_needs_every_verify_line_to_pass_and_gaps_within_a_grid_step():
    verify = "PASS pyramid-norms: ok\nPASS disjoint-supports: ok\n"
    result = check_report(verify + minimax_report(gap=0.05), [VERIFY, MINIMAX])
    assert (result.attempted, result.failed) == (4, 0)
    failing = verify.replace("PASS disjoint", "FAIL disjoint")
    assert check_report(failing + minimax_report(gap=0.05), [VERIFY, MINIMAX]).failed == 1
    assert check_report(verify + minimax_report(gap=0.2), [VERIFY, MINIMAX]).failed == 2


def test_expected_units_match_what_a_correct_report_attempts():
    assert expected_units([RATES]) == 2
    assert expected_units([VERIFY, MINIMAX]) == 3
