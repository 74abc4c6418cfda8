"""Profile reports: per-phase breakdown tables from a trace.

Backs the CLI's global ``--profile`` flag and ``fastlsa trace``:
aggregates the span forest by span name into one row per phase —
recursion levels, FillCache bands, base-case solves, wavefront tiles by
Figure-13 phase, service stages — with counts, DP cells and wall time,
then appends the headline counters (cells filled vs. the ``m·n``
minimum, i.e. the paper's recomputation overhead, measured rather than
predicted).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.tables import format_rows
from .runtime import Instrumentation

__all__ = ["phase_rows", "phase_table"]


def phase_rows(inst: Instrumentation) -> List[Dict]:
    """One aggregate row per span name, ordered by total time.

    ``total_s`` counts only the outermost span of each name on a path
    from a root: a recursive span (``fastlsa.recurse`` inside
    ``fastlsa.recurse``) would otherwise count its nested time once per
    level and outgrow the root that contains it.  ``count``, ``cells``
    and ``self_s`` cover every span.
    """
    agg: Dict[str, Dict] = {}
    stack = [(span, frozenset()) for span in reversed(list(inst.tracer.roots))]
    while stack:
        span, outer = stack.pop()
        row = agg.setdefault(
            span.name,
            {
                "phase": span.name,
                "count": 0,
                "cells": 0,
                "total_s": 0.0,
                "self_s": 0.0,
            },
        )
        row["count"] += 1
        row["cells"] += int(span.attrs.get("cells", 0))
        if span.name not in outer:
            row["total_s"] += span.duration
        row["self_s"] += span.self_time
        inner = outer | {span.name}
        stack.extend((child, inner) for child in reversed(span.children))
    rows = sorted(agg.values(), key=lambda r: -r["total_s"])
    for row in rows:
        row["total_s"] = round(row["total_s"], 6)
        row["self_s"] = round(row["self_s"], 6)
    return rows


def phase_table(
    inst: Instrumentation,
    title: str = "profile",
    m: Optional[int] = None,
    n: Optional[int] = None,
) -> str:
    """The per-phase breakdown rendered as a printable table.

    With ``m``/``n`` given, a footer compares the measured cells-filled
    counter against the ``m·n`` full-matrix minimum (the recomputation
    overhead the paper bounds by ``(k+1)/(k−1)``).
    """
    rows = phase_rows(inst)
    if not rows:
        return f"{title}: no spans recorded"
    out = [format_rows(rows, title=title)]
    snapshot = inst.metrics.snapshot()
    cells = snapshot.get("fastlsa.cells_filled")
    if cells is not None:
        line = f"cells_filled={cells}"
        if m and n:
            line += f"  minimum={m * n}  ops_ratio={cells / (m * n):.4f}"
        out.append(line)
    return "\n".join(out)
