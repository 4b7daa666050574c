"""Deterministic report serialization: canonical JSON, CSV, plot data.

Identical (config, seed, version) inputs must produce byte-identical report
files, so serialization is hand-rolled: floats print through ``%.17g``
(round-trip exact), dict order is insertion order fixed by the suite runner,
and nothing time- or host-dependent enters the canonical artifacts.  Wall
times go to a sidecar file excluded from determinism comparisons.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "format_number",
    "canonical_json",
    "flatten_metrics",
    "render_csv",
    "write_report_files",
]


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x != x:  # NaN: representable in CSV/plotdata, not in strict JSON
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return "%.17g" % x


def canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        rep = format_number(obj)
        if rep in ("nan", "inf", "-inf"):
            # strict JSON has no non-finite literals; quote them
            return json.dumps(rep)
        return rep
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner + canonical_json(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k), ensure_ascii=True)}: {canonical_json(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def flatten_metrics(metrics: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, val in metrics.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(val, dict):
            rows.extend(flatten_metrics(val, name))
        elif isinstance(val, (list, tuple)):
            for i, item in enumerate(val):
                if isinstance(item, (dict, list, tuple)):
                    rows.extend(flatten_metrics({f"[{i}]": item}, name))
                else:
                    rows.append((f"{name}[{i}]", item))
        else:
            rows.append((name, val))
    return rows


def render_csv(report: dict) -> str:
    lines = ["suite,metric,value"]
    for suite in report["suites"]:
        lines.append(f"{suite['name']},status,{suite['status']}")
        for key, val in flatten_metrics(suite.get("metrics", {})):
            rendered = "" if val is None else val if isinstance(val, str) else format_number(val)
            lines.append(f"{suite['name']},{key},{rendered}")
        for c in suite.get("checks", []):  # a record's row: holds or fails, relation, bound
            state = "fails" if c["name"] in suite["failing"] else "holds"
            bound = c["bound"] if c["relation"] == "in" else [c["bound"]]
            lines.append(f"{suite['name']},check.{c['name']},{state} {c['relation']} "
                         + " ".join(map(format_number, bound)))
    lines.append(f",verdict,{report['verdict']}")
    return "\n".join(lines) + "\n"


def render_plotdata(columns: list[tuple]) -> str:
    lines = []
    for row in columns:
        lines.append(" ".join(format_number(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_report_files(report: dict, outdir: str | Path, emit: list[str],
                       plotdata: dict | None = None,
                       timings: dict | None = None) -> dict:
    """Write requested formats; returns {format-or-name: path}."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    if "json" in emit:
        path = outdir / "report.json"
        path.write_text(canonical_json(report) + "\n")
        written["json"] = path
    if "csv" in emit:
        path = outdir / "report.csv"
        path.write_text(render_csv(report))
        written["csv"] = path
    if "plotdata" in emit and plotdata:
        for name, columns in plotdata.items():
            path = outdir / f"{name}.txt"
            path.write_text(render_plotdata(columns))
            written[name] = path
    if timings:
        # informational only; never part of determinism comparisons
        path = outdir / "timings.txt"
        path.write_text("".join(f"{name} {secs:.6f}\n" for name, secs in timings.items()))
        written["timings"] = path
    return written
