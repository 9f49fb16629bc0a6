"""Check a JSON risk report: its row count, and each Monte Carlo risk within 5 stderr of the exact risk.

    python .github/check_mc_report.py REPORT.json ROWS [MIN_DISTINCT_K]

MIN_DISTINCT_K, when given, is the fewest distinct grid counts k the rows may hold.
"""

import json
import sys

with open(sys.argv[1]) as report:
    rows = json.load(report)["rows"]
bad = [r for r in rows if not abs(r["mc_risk"] - r["exact_risk"]) <= 5 * r["mc_stderr"]]
assert len(rows) == int(sys.argv[2]), (len(rows), sys.argv[2])
if len(sys.argv) > 3:
    distinct_k = sorted({r["k"] for r in rows})
    assert len(distinct_k) >= int(sys.argv[3]), distinct_k
assert not bad, bad
