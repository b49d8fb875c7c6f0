"""Correctness checks on what the program printed and wrote.

Every check fails closed: anything it cannot confirm counts as a failed
operation. An operation is a grid cell, an audit line or a gradcheck case.
"""

from __future__ import annotations

import math
import re
from collections import Counter

# The result CSV prints six significant digits, so a row identity can be off
# by a few units in the sixth digit of each ratio.
ROW_TOL = 1e-5
# Golden rows are compared on every field but train_seconds. Ratios must
# agree to 1e-6 absolute; one changed decision moves a ratio by at least
# 1/n_test, more than 2e-4 on every grid here, so this requires the same
# decisions on every test row.
GOLDEN_TOL = 1e-6

_WROTE = re.compile(r"wrote \d+ rows to .* \((\d+) flagged\)")


def row_inconsistency(row, n_test: int) -> str | None:
    """Why a result row contradicts itself, or None when it is consistent."""
    for field in ("risk01c", "rejection_ratio", "accepted_error"):
        value = getattr(row, field)
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return f"{field}={value} outside [0, 1]"
    rr = row.rejection_ratio
    expected = row.cost * rr + (1.0 - rr) * row.accepted_error
    if abs(row.risk01c - expected) > ROW_TOL:
        return f"risk01c={row.risk01c} but c*rr + (1-rr)*err = {expected:.6g}"
    n_reject = row.n_reject_distance + row.n_reject_ambiguity
    if min(row.n_reject_distance, row.n_reject_ambiguity) < 0 or abs(n_reject - rr * n_test) > 0.5:
        return f"{n_reject} rejects of {n_test} test rows but rejection_ratio={rr}"
    return None


def golden_mismatch(row, golden) -> str | None:
    """The first field on which a row differs from its golden row."""
    for field in ("setting", "n_reject_distance", "n_reject_ambiguity"):
        if getattr(row, field) != getattr(golden, field):
            return f"{field}={getattr(row, field)} but golden {getattr(golden, field)}"
    for field in ("risk01c", "rejection_ratio", "accepted_error"):
        if abs(getattr(row, field) - getattr(golden, field)) > GOLDEN_TOL:
            return f"{field}={getattr(row, field)} but golden {getattr(golden, field)}"
    return None


def flagged_count(output: str, returncode: int) -> int:
    """Flagged cells as `bench run` reports them; rows on disk do not say which."""
    match = _WROTE.search(output)
    if match is None:
        return 1  # no summary line: the run did not finish normally
    n = int(match.group(1))
    return n if n or returncode == 0 else 1


def check_grid(grid, rows, n_flagged: int, golden_rows=None) -> tuple[int, list[str]]:
    """Check one grid's rows. Returns (cells attempted, one reason per failed cell)."""
    expected = grid.cells()
    failed: dict = {}
    seen = Counter(row.key() for row in rows)
    for key in expected:
        if seen[key] == 0:
            failed[key] = "missing"
    for key, n in seen.items():
        if n > 1:
            failed[key] = f"duplicated {n} times"
        elif key not in expected:
            failed[key] = "not in the grid"
    golden = {g.key(): g for g in golden_rows} if golden_rows is not None else None
    for row in rows:
        reason = row_inconsistency(row, grid.n_test)
        if reason is None and golden is not None:
            reason = "no golden row" if row.key() not in golden else golden_mismatch(row, golden[row.key()])
        if reason is not None:
            failed.setdefault(row.key(), reason)
    reasons = [f"{grid.name} cell {key}: {why}" for key, why in failed.items()]
    reasons += [f"{grid.name}: flagged cell"] * n_flagged
    attempted = max(len(expected), len(seen))
    return attempted, reasons[:attempted]


def check_lines(audit, output: str, returncode: int) -> tuple[int, list[str]]:
    """Check one audit or gradcheck run. Returns (lines attempted, one reason per failure)."""
    lines = [line for line in output.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
    reasons = [line for line in lines if line.startswith("[FAIL]")]
    missing = audit.expected_lines - len(lines)
    reasons += [f"{audit.args[0]}: expected line missing"] * max(missing, 0)
    if returncode != 0 and not reasons:
        reasons.append(f"{audit.args[0]}: exit code {returncode} without a FAIL line")
    attempted = max(len(lines), audit.expected_lines)
    return attempted, reasons[:attempted]
