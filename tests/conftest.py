"""Shared test wiring.

The acceptance battery records one PASS/FAIL line per criterion.  Lines
printed inside tests are swallowed by output capture when the test
passes, so the battery appends them here and they are replayed in the
terminal summary where they are always visible.  :func:`from_dense`
builds the sparse coefficient stores that tests write out densely, and
the wavelet tests and criterion 9 share their test functions here.  No
test sees ambient GPLB_* variables (:func:`_clean_gplb_env`).
"""

import math

import numpy as np
import pytest

from gplb.errors import ContractError
from gplb.harness.config import ENV_VARIABLES

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _clean_gplb_env(monkeypatch):
    """Keep ambient GPLB_* variables from leaking into config resolution."""
    for key in ("GPLB_CONFIG", *ENV_VARIABLES):
        monkeypatch.delenv(key, raising=False)


def from_dense(cls, rows, *args):
    """The nonzeros of the m x K array ``rows`` as a ``SparseRows`` ``cls``; ``args`` (the basis id first) follow K."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ContractError("dense rows must form a 2-d array, one truth per row")
    kept = rows != 0.0
    starts = np.concatenate(([0], np.cumsum(np.count_nonzero(kept, axis=1))))
    return cls(rows[kept], np.nonzero(kept)[1], starts, rows.shape[1], *args)


def resolution_groups(basis):
    """Indices of basis members sharing a preset variance level."""
    return {level: np.flatnonzero(basis.groups == level) for level in np.unique(basis.groups)}


def dispersed_test_functions(basis, n):
    """Five coefficient vectors with spread-out within-group energy.

    Each either concentrates far above the noise level 1/n or straddles
    it within a resolution group, so the level-profile risk infimum
    exceeds the unhalved single-function floor and dominance over every
    level-profile prior is a theorem rather than a sampling accident.
    """
    groups = resolution_groups(basis)
    noise = 1.0 / n

    lone = np.zeros(basis.size)
    lone[groups[2][0]] = 0.35

    pair = np.zeros(basis.size)
    pair[groups[1][0]] = 0.5
    pair[groups[4][0]] = 0.2 * math.sqrt(noise)

    zigzag = np.zeros(basis.size)
    for level in (1, 2, 3, 4):
        zigzag[groups[level][0]] = 4.0 * math.sqrt(noise)
        zigzag[groups[level][-1]] = 0.25 * math.sqrt(noise)

    comb = np.zeros(basis.size)
    comb[groups[4][::2]] = 2.0 * math.sqrt(noise)

    alternating = np.zeros(basis.size)
    for level, members in groups.items():
        scale = 0.04 * 2.0 ** (-level)
        for slot, position in enumerate(members):
            alternating[position] = math.sqrt(scale * (8.0 if slot % 2 == 0 else 0.125))

    return {
        "lone supra-noise spike": lone,
        "cross-scale pair": pair,
        "zigzag straddling 1/n": zigzag,
        "half-filled fine comb": comb,
        "alternating geometric": alternating,
    }
