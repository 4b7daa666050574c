"""Print each suite's tightest check: its name and value against its bound.

    python tools/margins.py RUN/report.json

A check's share is the part of its bound that its value uses: value / bound
for "<=" (0 when both are 0), bound / value for ">=", and the distance from
the window's centre over its half-width for "in".  An exact order sweep (no
value) uses none of it and NaN all of it.  The tightest check has the largest
share; a share above 1 fails.  Report only: exits 0 whatever the shares.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def metric(metrics: dict, name: str):
    """The value a check names: ``deviation.slope`` is ``metrics["deviation"]["slope"]``."""
    for key in name.split("."):
        metrics = metrics[key]
    return metrics


def share(value, relation: str, bound) -> float:
    if value is None:
        return 0.0
    value = float(value)  # canonical JSON quotes "nan" and "inf"
    if math.isnan(value):
        return math.inf
    if relation == "in":
        lo, hi = bound
        return abs(value - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    if relation == ">=":
        return bound / value if value > 0 else math.inf
    return value / bound if bound else (0.0 if value <= 0 else math.inf)


def tightest(suite: dict) -> str:
    rows = [(share(metric(suite["metrics"], c["name"]), c["relation"], c["bound"]), c)
            for c in suite.get("checks", [])]
    if not rows:
        return f"{suite['name']} {suite['status']}: no checks"
    used, c = max(rows, key=lambda row: row[0])
    value = metric(suite["metrics"], c["name"])
    return (f"{suite['name']} {suite['status']}: tightest {c['name']} = {value} "
            f"{c['relation']} {c['bound']} (share {used:.3g})")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for suite in json.loads(Path(argv[0]).read_text())["suites"]:
        print(tightest(suite))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
