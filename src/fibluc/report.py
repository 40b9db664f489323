"""Check reports shared by the identity catalog and the identity language.

A report is a flat list of grid cells in the order they were checked; each
cell records which case ran at which indices, whether both sides agreed, and
the rendered sides when they did not.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


class DomainError(ValueError):
    """An index or exponent fell outside its declared domain."""


@dataclass(frozen=True)
class CellResult:
    case_id: str
    n: int | None
    k: int | None
    passed: bool
    elapsed_ms: float
    lhs: str | None = None
    rhs: str | None = None


def render_side(value) -> str:
    """Failure-report form of one side: tuple parts joined by '; ', else ``str``."""
    if isinstance(value, tuple):
        return "(" + "; ".join(render_side(part) for part in value) + ")"
    return str(value)


def check_cell(case_id: str, n: int | None, k: int | None, sides) -> CellResult:
    """Check one grid cell: ``sides()`` returns (lhs, rhs), compared exactly.

    The cell's time covers both sides and the compare.  Errors raised while
    evaluating, such as a ``DomainError``, propagate to the caller.
    """
    start = time.perf_counter()
    left, right = sides()
    passed = left == right  # tuples compare elementwise and never equal a scalar
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if passed:
        return CellResult(case_id, n, k, True, elapsed_ms)
    return CellResult(case_id, n, k, False, elapsed_ms, render_side(left), render_side(right))


def grid_axis(name: str, low: int, high: int) -> range:
    """The values ``low`` .. ``high`` of the grid axis ``name``.

    The one rule for every grid axis: an empty axis raises ``ValueError``,
    because it would check no cell, and so does an axis of more than
    ``sys.maxsize`` values, the most a list can hold.
    """
    if low > high:
        raise ValueError(f"empty range '{name}={low}..{high}': low bound above high bound")
    if high - low >= sys.maxsize:
        raise ValueError(f"range '{name}={low}..{high}' has more than {sys.maxsize} values")
    return range(low, high + 1)


def select_ids(items: list, ids: list[str] | None, what: str) -> list:
    """The items whose ``case_id`` is in ``ids``, in the items' own order.

    ``ids=None`` keeps every item; an id no item has is a ``ValueError``.
    """
    if ids is None:
        return list(items)
    known = {item.case_id for item in items}
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ValueError(f"unknown {what} id(s): {', '.join(unknown)}")
    return [item for item in items if item.case_id in ids]


@dataclass(frozen=True)
class CheckReport:
    cells: tuple[CellResult, ...]

    @classmethod
    def from_cells(cls, cells) -> CheckReport:
        return cls(tuple(cells))

    @classmethod
    def combine(cls, reports) -> CheckReport:
        return cls(tuple(cell for report in reports for cell in report.cells))

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def failures(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.passed]

    def to_text(self) -> str:
        """Line-oriented table, one line per cell plus sides on failure."""
        lines: list[str] = []
        for cell in self.cells:
            n_text = "-" if cell.n is None else str(cell.n)
            k_text = "-" if cell.k is None else str(cell.k)
            status = "pass" if cell.passed else "FAIL"
            lines.append(
                f"{cell.case_id:<6} n={n_text:<4} k={k_text:<3} {status:<4} {cell.elapsed_ms:9.3f}ms"
            )
            if not cell.passed:
                lines.append(f"    lhs: {cell.lhs}")
                lines.append(f"    rhs: {cell.rhs}")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        """Structured form: one record per cell, lhs/rhs only on failure."""
        records = []
        for cell in self.cells:
            record: dict = {
                "id": cell.case_id,
                "n": cell.n,
                "k": cell.k,
                "status": "pass" if cell.passed else "fail",
                "elapsed_ms": round(cell.elapsed_ms, 3),
            }
            if not cell.passed:
                record["lhs"] = cell.lhs
                record["rhs"] = cell.rhs
            records.append(record)
        return records
