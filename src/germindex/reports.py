"""Deterministic report serialization: stable-key JSON and aligned tables."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import is_dataclass
from fractions import Fraction

from .errors import PrecisionExhausted
from .germs import BranchRecord
from .surd import Surd


def exact_value(value):
    """Serialize an exact number: int when integral, 'p/q' when rational,
    a component dict otherwise."""
    if isinstance(value, Surd):
        if value.is_rational():
            value = value.a
        else:
            return value.to_json()
    return value.numerator if value.denominator == 1 else str(value)


def jsonable(obj):
    """Recursively convert domain objects to JSON-compatible values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction, Surd)):
        return exact_value(obj)
    if isinstance(obj, BranchRecord):
        return {
            "factor": repr(obj.defining_polynomial),
            "nu_p": obj.nu_p,
            "type": obj.branch_type,
            "mu_p": obj.mu_p,
        }
    if is_dataclass(obj):
        return {k: jsonable(v) for k, v in vars(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"no report value is a {type(obj).__name__}")


@contextmanager
def _printable():
    """Python refuses with a ValueError to write an integer of more digits
    than sys.get_int_max_str_digits() as text; report that value as
    PrecisionExhausted instead."""
    try:
        yield
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise PrecisionExhausted(f"a value is too large to print: {exc}") from None


def emit_json(payload) -> str:
    with _printable():
        return json.dumps(jsonable(payload), sort_keys=True, indent=2)


def render_table(rows: list[dict], columns: list[str]) -> str:
    """Aligned-column text table; values pass through jsonable first."""
    if not rows:
        return "(empty)"
    with _printable():
        cells = [[_cell(jsonable(r.get(c))) for c in columns] for r in rows]
    widths = [max(len(columns[i]), max(len(row[i]) for row in cells))
              for i in range(len(columns))]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)

