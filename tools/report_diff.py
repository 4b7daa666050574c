"""Print the leaf keys on which two ``report.json`` files differ.

    python tools/report_diff.py OLD/report.json NEW/report.json

Each differing leaf is printed as its key path, both values and, for two
numbers, the relative move (new - old) / |old|.  A key present in only one
report shows ``<absent>`` on the other side.  Exits 1 when anything differs,
0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ABSENT = "<absent>"


def leaves(node, prefix: str = "") -> dict:
    """Flatten nested dicts and lists to ``{"a.b[2].c": value}``.

    A list entry that is a dict with a string ``name`` is indexed by that
    name, so ``suites[gradient].metrics.fd_residual`` names one metric.
    """
    if isinstance(node, dict):
        out = {}
        for key, val in node.items():
            out.update(leaves(val, f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(node, list):
        out = {}
        for i, val in enumerate(node):
            name = val.get("name") if isinstance(val, dict) else None
            out.update(leaves(val, f"{prefix}[{name if isinstance(name, str) else i}]"))
        return out
    return {prefix: node}


def relative_move(old, new) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers or old == 0:
        return "-"
    return f"{(new - old) / abs(old):+.3g}"


def diff(old: dict, new: dict) -> list[tuple[str, object, object, str]]:
    a, b = leaves(old), leaves(new)
    rows = []
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key, ABSENT), b.get(key, ABSENT)
        if va != vb or type(va) is not type(vb):
            rows.append((key, va, vb, relative_move(va, vb)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = diff(old, new)
    for key, va, vb, rel in rows:
        print(f"{key}\t{va!r}\t{vb!r}\t{rel}")
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
