"""Structured pass/fail records for the verification suites, and CSV output.

``within`` passes a check when |value - expected| <= tolerance (times |expected|
when relative) and records those three numbers; ``check`` records any other rule.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
DIVERGES_AS_EXPECTED = "DIVERGES_AS_EXPECTED"

_STATUSES = (PASS, FAIL, SKIP, DIVERGES_AS_EXPECTED)


@dataclass
class CheckEntry:
    """One identity check: an id, a status, and the numbers behind it.

    ``citation`` names the mathematical identity being exercised (a slug
    from this library's documented identity registry, e.g.
    "green-kelvin-relation").
    """

    check_id: str
    status: str
    value: float | None = None
    expected: float | list | None = None
    tolerance: float | None = None
    citation: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "value": _jsonable(self.value),
            "expected": _jsonable(self.expected),
            "tolerance": _jsonable(self.tolerance),
            "citation": self.citation,
        }


def _jsonable(v):
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def check(check_id: str, ok: bool, value=None, expected=None, tolerance=None,
          citation: str = "") -> CheckEntry:
    """Build a PASS/FAIL entry from a boolean outcome."""
    return CheckEntry(check_id, PASS if ok else FAIL, value=value,
                      expected=expected, tolerance=tolerance, citation=citation)


def within(check_id: str, value, expected, tolerance, citation: str = "",
           rel: bool = False) -> CheckEntry:
    """PASS when |value - expected| <= tolerance, times |expected| if rel; NaN
    fails.  The entry records value, expected and tolerance as given."""
    ok = abs(value - expected) <= (tolerance * abs(expected) if rel else tolerance)
    return check(check_id, ok, value, expected, tolerance, citation)


def diverges(check_id: str, did_diverge: bool, value=None,
             citation: str = "") -> CheckEntry:
    """Entry for a check whose expected outcome is divergence."""
    return CheckEntry(check_id, DIVERGES_AS_EXPECTED if did_diverge else FAIL,
                      value=value, expected="divergence", citation=citation)


@dataclass
class VerificationReport:
    """A suite's worth of entries plus the parameters it ran under."""

    suite: str
    params: dict
    entries: list[CheckEntry] = field(default_factory=list)

    def __post_init__(self):
        entries, self.entries = self.entries, []
        self.extend(entries)

    def extend(self, entries) -> None:
        self.entries.extend(entries)
        ids = [e.check_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("check ids must be unique within a report")

    @property
    def summary(self) -> dict:
        return {
            "pass": sum(e.status in (PASS, DIVERGES_AS_EXPECTED) for e in self.entries),
            "fail": sum(e.status == FAIL for e in self.entries),
            "skip": sum(e.status == SKIP for e in self.entries),
        }

    @property
    def ok(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "entries": [e.as_dict() for e in self.entries],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        # sorted keys and repr floats keep equal runs byte-identical
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def merge_reports(suite: str, params: dict,
                  reports: list[VerificationReport]) -> VerificationReport:
    merged = VerificationReport(suite, params)
    for r in reports:
        merged.extend([CheckEntry(f"{r.suite}/{e.check_id}", e.status, e.value,
                                  e.expected, e.tolerance, e.citation)
                       for e in r.entries])
    return merged


_CSV_BLOCK = 4096


def write_csv(path, meta: dict, rows, header=None) -> None:
    """Write '# key=value' metadata lines, an optional header row, then rows.

    rows is a 2-D array, one CSV row per array row, numbers as %.17g; a
    path of None writes to stdout.  Each block of 4096 rows is formatted by
    one % operation, which keeps memory flat for any row count.
    """
    rows = np.asarray(rows)
    line = ",".join(["%.17g"] * rows.shape[-1]) + "\n"
    with (open(path, "w") if path else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(f"# {k}={meta[k]}\n" for k in sorted(meta))
        if header:
            fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), _CSV_BLOCK):
            block = rows[i:i + _CSV_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
