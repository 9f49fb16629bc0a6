"""Shared test wiring.

The acceptance battery records one PASS/FAIL line per criterion.  Lines
printed inside tests are swallowed by output capture when the test
passes, so the battery appends them here and they are replayed in the
terminal summary where they are always visible.  :func:`from_dense`
builds the sparse coefficient stores that tests write out densely.
"""

import numpy as np

from gplb.errors import ContractError

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def from_dense(cls, rows, *args):
    """The nonzeros of the m x K array ``rows`` as a ``SparseRows`` ``cls``; ``args`` go on to a subclass."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ContractError("dense rows must form a 2-d array, one truth per row")
    kept = rows != 0.0
    starts = np.concatenate(([0], np.cumsum(np.count_nonzero(kept, axis=1))))
    return cls(rows[kept], np.nonzero(kept)[1], starts, rows.shape[1], *args)
