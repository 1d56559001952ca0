"""Verification reports, and the one runner that every identity suite uses.

Every suite hands :func:`check` its grid as numbers, n = 0..n_max and a k
range (or a fixed text such as ``-`` for a report with no k axis), and
``check`` alone turns it into the printed grid.  A grid that yields no case
ends in the one zero-case rule of :class:`IdentityReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .exact import MultiPoly, format_poly
from .series import PowerSeries

__all__ = ["IdentityReport", "all_passed", "check"]

_WITNESS_LIMIT = 240


def _clip(text: str) -> str:
    if len(text) <= _WITNESS_LIMIT:
        return text
    return text[: _WITNESS_LIMIT - 3] + "..."


def _witness(label: str, lhs, rhs) -> str:
    """Narrow a tuple or series mismatch to its first differing part, then show that part.

    A polynomial part is shown by its difference, any other by both values.
    """
    series = isinstance(lhs, PowerSeries) and isinstance(rhs, PowerSeries)
    left, right = (lhs.coeffs, rhs.coeffs) if series else (lhs, rhs)
    if isinstance(left, tuple) and isinstance(right, tuple) and len(left) == len(right):
        i = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
        return _witness(f"{label} [{f't^{i}' if series else i}]", left[i], right[i])
    if isinstance(lhs, MultiPoly) or isinstance(rhs, MultiPoly):
        return f"{label}: diff {format_poly(lhs - rhs)}"
    return f"{label}: {lhs} vs {rhs}"


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity over a parameter grid.

    ``witness`` carries the first failing case and the discrepancy; it is
    empty exactly when the check passed.  ``cases`` counts the comparisons
    made (at least one: an identity that compared nothing has not passed),
    and ``elapsed_ms`` is their wall time, left out of equality so equal
    runs give equal reports.
    """

    identity_id: str
    detail: str
    n_range: str
    k_range: str
    passed: bool
    witness: str = ""
    cases: int = field(kw_only=True)
    elapsed_ms: float = field(default=0.0, compare=False, kw_only=True)

    def __post_init__(self):
        if self.cases < 1:
            raise ValueError(f"{self.identity_id} ({self.detail}) checked no cases")
        if self.passed and self.witness:
            raise ValueError("a passing report cannot carry a witness")
        if not self.passed and not self.witness:
            raise ValueError("a failing report must carry a witness")
        object.__setattr__(self, "witness", _clip(self.witness))

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"

    def as_json_obj(self) -> dict:
        obj = {
            "id": self.identity_id,
            "detail": self.detail,
            "n": self.n_range,
            "k": self.k_range,
            "status": "pass" if self.passed else "fail",
            "cases": self.cases,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.witness:
            obj["witness"] = self.witness
        return obj

    def format_line(self) -> str:
        k_text = "" if self.k_range == "-" else f"k={self.k_range}"
        line = f"{self.identity_id:<7} {self.status:<5} n={self.n_range:<9} {k_text:<13} {self.detail}"
        if self.witness:
            line += f"\n        witness: {self.witness}"
        return line


def check(
    identity_id: str, detail: str, n_max: int, ks: range | str, cases: Iterable[tuple]
) -> IdentityReport:
    """Compare each ``(label, lhs, rhs)`` case exactly, stopping at the first mismatch.

    ``cases`` is consumed lazily, so nothing past a failing case is computed.
    The first mismatch becomes the witness (see ``_witness``).  The report
    names its grid ``0..n_max`` and, for a contiguous range ``ks``, ``lo..hi``;
    a text ``ks`` is printed as given.  An empty range yields no case, so it
    fails the report's zero-case rule.
    """
    count = 0
    witness = None
    start = time.perf_counter()
    for label, lhs, rhs in cases:
        count += 1
        if lhs != rhs:
            witness = _witness(label, lhs, rhs)
            break
    elapsed_ms = (time.perf_counter() - start) * 1000
    k_text = ks if isinstance(ks, str) else f"{ks.start}..{ks.stop - 1}"
    return IdentityReport(identity_id, detail, f"0..{n_max}", k_text, witness is None,
                          witness or "", cases=count, elapsed_ms=elapsed_ms)


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
