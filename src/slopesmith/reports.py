"""Deterministic report rendering: paired text and structured output.

Every CLI command prints a human-readable text report and can mirror the
same content into BASE.txt and BASE.json.  The structured form carries a
schema version; rationals serialize as exact "p/q" strings so nothing is
lost to floating point.  Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

SCHEMA_VERSION = 1


def to_jsonable(value):
    """Recursively convert report values into JSON-safe primitives."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, complex):
        return {"re": to_jsonable(value.real), "im": to_jsonable(value.imag)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [to_jsonable(v) for v in items]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    # A numpy value exists only once numpy is loaded; never load it here.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return [to_jsonable(v) for v in value.tolist()]
        if isinstance(value, np.generic):
            return to_jsonable(value.item())
    return str(value)


def render_json(payload: dict) -> str:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(to_jsonable(body), sort_keys=True, indent=2) + "\n"


def format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[k] for k in range(len(headers))).rstrip(),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def write_report(base, text: str, payload: dict) -> tuple[Path, Path]:
    """Write BASE.txt and BASE.json next to each other; returns both paths."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    if base.suffix in (".txt", ".json"):
        base = base.with_suffix("")
    txt_path = Path(str(base) + ".txt")
    json_path = Path(str(base) + ".json")
    if not text.endswith("\n"):
        text += "\n"
    txt_path.write_text(text)
    json_path.write_text(render_json(payload))
    return txt_path, json_path
