"""Check a JSON minimax report: 28 rows, each grid-search risk within half a grid step of the exact minimax risk.

    python .github/check_minimax_report.py REPORT.json ROUNDING_ULPS

A row passes when 0 <= mc_risk - exact_risk <= (1 + m theta^2) (h / 2)^2 (1 + 1e-9),
with m the row's m, theta the number after "=" in its spectrum_id and h the grid
step 1 / (grid_size - 1).  ROUNDING_ULPS widens both ends by that many units of
2^-53 times exact_risk, for grids fine enough that rounding competes with the
half-step bound.
"""

import json
import sys

with open(sys.argv[1]) as file:
    report = json.load(file)
ulps = int(sys.argv[2])
h = 1 / (report["fits"]["grid_size"] - 1)
rows = report["rows"]
bad = []
for r in rows:
    t = r["m"] * float(r["spectrum_id"].split("=")[1]) ** 2
    u = ulps * 2.0**-53 * r["exact_risk"]
    if not -u <= r["mc_risk"] - r["exact_risk"] <= (1 + t) * (h / 2) ** 2 * (1 + 1e-9) + u:
        bad.append(r)
assert len(rows) == 28, len(rows)
assert not bad, bad
