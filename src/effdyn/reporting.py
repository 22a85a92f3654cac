"""Report containers and the frozen CSV/JSON schema.

CSV columns: method,system,param,n,value,diag -- one row per grid entry,
deterministically ordered.  JSON mirrors the rows and carries run
metadata (config hash, seed) that the CSV schema has no room for.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

CSV_COLUMNS = ("method", "system", "param", "n", "value", "diag")


@dataclass(frozen=True)
class EntropyReport:
    """Per-n values of one estimator plus its extrapolated rate."""

    method: str
    system: str
    rows: Tuple[Tuple[str, int, float], ...]  # (param, n, value)
    rate: float
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def to_rows(self) -> List[Tuple[str, str, str, int, float, str]]:
        diag = ";".join(f"{k}={self.diagnostics[k]}" for k in sorted(self.diagnostics))
        out = [
            (self.method, self.system, param, n, value, diag)
            for param, n, value in self.rows
        ]
        out.append((self.method, self.system, "rate", 0, self.rate, diag))
        return out


def rows_to_csv(rows: Sequence[Tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        method, system, param, n, value, diag = row
        writer.writerow([method, system, param, n, f"{value:.10g}", diag])
    return buffer.getvalue()


def reports_to_json(reports, meta: Dict[str, object]) -> str:
    payload = {
        "meta": meta,
        "rows": [
            dict(zip(CSV_COLUMNS, (m, s, p, n, v, d)))
            for report in reports
            for (m, s, p, n, v, d) in report.to_rows()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def limsup_proxy(values: Sequence[float]) -> float:
    """Max over the top quarter of a grid-ordered value sequence."""
    if not values:
        raise ValueError("no values")
    tail = max(1, len(values) // 4)
    return max(values[-tail:])


def liminf_proxy(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no values")
    tail = max(1, len(values) // 4)
    return min(values[-tail:])
