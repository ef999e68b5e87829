"""CSV emission for run traces.

The columns are the :class:`~zonewton.solver.TraceRecord` fields that the
CSV keeps, in field order, with ``iteration`` written as ``iter``; integer
fields are written as integers. Floats are written with 17 significant
digits so the file round-trips 64-bit values exactly; columns without
ground truth stay empty. Byte-identical output for identical traces makes
seeded reruns diffable.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_args, get_type_hints

from .solver import RunTrace, TraceRecord

__all__ = ["CSV_HEADER", "write_trace_csv"]

_FIELDS = tuple(f.name for f in fields(TraceRecord)
                if f.metadata.get("csv", True))
_INT_FIELDS = frozenset(
    name for name, hint in get_type_hints(TraceRecord).items()
    if name in _FIELDS and int in (hint, *get_args(hint)))
CSV_HEADER = ",".join("iter" if name == "iteration" else name
                      for name in _FIELDS)


def _format(name: str, value) -> str:
    if value is None:
        return ""
    if name in _INT_FIELDS:
        return str(int(value))
    return f"{float(value):.17g}"


def write_trace_csv(trace: RunTrace, path) -> None:
    """Write one row per iteration record under the fixed header."""
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for record in trace.records:
            fh.write(",".join(_format(name, getattr(record, name))
                              for name in _FIELDS) + "\n")
