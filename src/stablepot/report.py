"""Structured pass/fail records for the verification suites, and CSV output.

``within`` passes a check when |value - expected| <= tolerance (times |expected|
when relative) and records those three numbers; ``check`` records any other rule.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

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


# --- CSV ---------------------------------------------------------------------

_CSV_BLOCK = 4096       # values per formatted block, so that its arrays stay in cache

# The block formatter writes a finite v with 1e-290 <= |v| < 1e291 from its 17
# digits round(S), S = |v| 10^(16 - X), X = floor(log10|v|).  S is the sum p + q
# of Dekker's exact product p + e = |v| s and q = e + |v| t, where s + t equals
# 10^(16 - X) to 2^-106 relatively, so |S - (p + q)| < 5e-15 for S < 1e17.  The
# digits are proved wherever frac(p + q) lies further than _G17_TIE from 1/2
# and 1e16 <= floor(p + q) < 1e17 - 1 (so that X was right).
_G17_X = 290            # the largest |X| of the block formatter
_G17_TIE = 1e-14        # twice the bound on |S - (p + q)|
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter: halves whose products are exact


def _halves(x):
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _pow10(j: int) -> tuple[float, float]:
    # 10^j as s + t: s correctly rounded, t the rest to the nearest float
    num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
    s = num / den
    sn, sd = s.as_integer_ratio()
    return s, (num * sd - sn * den) / (den * sd)


def _word(text: bytes) -> int:
    # up to 8 bytes as one little-endian uint64, text[0] lowest
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _byte_masks(sel):
    # rows of 16 booleans as pairs of uint64 masks of 0xFF bytes, as two arrays
    return (255 * sel).astype(np.uint8).view("<u8").T.copy()


def _divmod10(n, k: int):
    hi = n // 10 ** k
    return hi, n - hi * 10 ** k


@functools.cache
def _g17_tables():
    """Lookup tables of _g17_lines, built on first use, or None where the
    block formatter fails a probe against the % operator (float64 arithmetic
    that breaks the error bound above).

    A value's field is 4 uint64 words, 32 bytes: byte 0 the sign, 1-5 the
    "0.000" of -4 <= X < 0, 7 the leading digit, 8-23 the other 16 digits
    (8-24 once the point is inserted), 25-29 the exponent, 30 the separator;
    unused bytes stay 0 and are dropped, and a value of the % operator fills
    bytes 0-29.  Row X + _G17_X + 1 of the X tables holds X; the first and
    last rows, X out of range, reject.
    """
    xs = range(-_G17_X - 1, _G17_X + 2)
    scale, tail = np.array([_pow10(16 - x) if abs(x) <= _G17_X else (0.0, 0.0)
                            for x in xs]).T
    m, e = np.frexp(scale)
    hi, lo = _halves(m)
    t = SimpleNamespace(
        scale=scale, scale_hi=np.ldexp(hi, e), scale_lo=np.ldexp(lo, e), tail=tail,
        # the notation class: 17 X for fixed notation with 0 <= X <= 16, 17 * 17
        # for -4 <= X < 0, 0 for exponent notation (the point follows digit 0)
        cls=np.array([17 * x if 0 <= x <= 16 else 17 * 17 if -4 <= x < 0 else 0
                      for x in xs], dtype=np.intp),
        prefix=np.array([_word(b"\0" + b"0.000"[:1 - x]) if -4 <= x < 0 else 0
                         for x in xs], dtype=np.uint64),
        suffix=np.array([_word(b"\0" + b"e%+03d" % x) if not -4 <= x <= 16 else 0
                         for x in xs], dtype=np.uint64),
        lead=np.array([_word((b"-" if neg else b"\0") + b"\0" * 6 + b"%d" % d)
                       for neg in (0, 1) for d in range(10)], dtype=np.uint64))
    # groups of 4 digits as text, and the place (1-4) of their last nonzero digit
    digits = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
    t.quad = (digits + ord("0")).view("<u4").ravel().astype(np.uint64)
    place = ((digits > 0) * np.arange(1, 5)).max(axis=1)
    t.last = [np.where(place > 0, place + 4 * i, 0).astype(np.uint8) for i in range(4)]
    # per key 17 class + last nonzero digit: masks of the digits of words 1
    # and 2 kept below and above the point, and the point, at byte 8 + k
    c = np.arange(18)[:, None]
    nz = np.arange(17)
    k = np.where(c == 17, 16, c)
    last = np.where(c == 17, nz, np.maximum(nz, k)).reshape(-1, 1)
    point = np.where(nz > k, 8 + k, 99).reshape(-1, 1)
    byte = np.arange(8, 24)             # before the shift digit b - 7 sits at byte b
    kept = byte - 7 <= last
    t.lo1, t.lo2 = _byte_masks(kept & (byte < point))
    t.hi1, t.hi2 = _byte_masks(kept & (byte >= point))
    dot = np.where(point // 8 == [1, 2], ord(".") << 8 * (point % 8), 0)
    t.dot1, t.dot2 = dot.astype(np.uint64).T.copy()
    probe = np.pi * 10.0 ** np.arange(-_G17_X, _G17_X + 1, 3.0)
    return t if _g17_lines(probe, 1, t) == "%.17g\n" * probe.size % tuple(probe) else None


def _g17_lines(v: np.ndarray, cols: int, t) -> str:
    # exactly the text of '%.17g' % x for each x of the float array v, cols to
    # a line, comma-separated; values the tables t cannot prove take the %
    # operator one at a time, and every value does when t is None
    if t is None:
        return (",".join(["%.17g"] * cols) + "\n") * (v.size // cols) % tuple(v.tolist())
    a = np.abs(v)
    a = np.where(a < 10.0 ** (_G17_X + 1), a, 0.0)     # inf and nan as 0, rejected
    # floor(log10 a) + _G17_X + 1: astype truncates a sum that is at least 0
    row = (np.log10(np.maximum(a, 10.0 ** (-_G17_X - 1))) + (_G17_X + 1)).astype(np.intp)
    p = a * t.scale[row]
    a_hi, a_lo = _halves(a)
    s_hi, s_lo = t.scale_hi[row], t.scale_lo[row]
    q = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo + a * t.tail[row]
    whole = np.floor(q)
    frac = q - whole - 0.5
    n = p.astype(np.int64) + whole.astype(np.int64)
    # 1e16 <= n < 1e17 - 1 as one unsigned comparison
    ok = (np.abs(frac) > _G17_TIE) & ((n - 10 ** 16).view(np.uint64) < 9 * 10 ** 16 - 1)
    n = (n + (frac > 0)) * ok
    lead, n = _divmod10(n, 16)
    hi8, lo8 = _divmod10(n, 8)
    q1, q2 = _divmod10(hi8, 4)
    q3, q4 = _divmod10(lo8, 4)
    w1 = t.quad[q1] | t.quad[q2] << 32
    w2 = t.quad[q3] | t.quad[q4] << 32
    key = (np.maximum(np.maximum(t.last[0][q1], t.last[1][q2]),
                      np.maximum(t.last[2][q3], t.last[3][q4])) + t.cls[row])
    h1 = w1 & t.hi1[key]
    h2 = w2 & t.hi2[key]
    sep = np.full(v.size, ord(",") << 48, dtype=np.uint64)
    sep[cols - 1::cols] = ord("\n") << 48
    field = np.empty((v.size, 4), dtype="<u8")     # little-endian: byte 0 lowest
    field[:, 0] = t.prefix[row] | t.lead[lead + 10 * (v < 0)]
    field[:, 1] = w1 & t.lo1[key] | h1 << 8 | t.dot1[key]
    field[:, 2] = w2 & t.lo2[key] | h2 << 8 | h1 >> 56 | t.dot2[key]
    field[:, 3] = t.suffix[row] | h2 >> 56 | sep
    text = field.view(np.uint8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text[bad, :30] = np.array(["%.17g" % x for x in v[bad].tolist()],
                                  dtype="S30").view(np.uint8).reshape(-1, 30)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(path, meta: dict, rows, header=None) -> None:
    """Write '# key=value' metadata lines, an optional header row, then rows.

    rows is a 2-D array of numbers (or a list of row tuples), one CSV row per
    array row; a path of None writes to stdout.  Each number is written as
    '%.17g' % float(x) writes it, byte for byte, as np.savetxt(fmt="%.17g")
    did.  The numbers are formatted 4096 at a time by array operations; 0,
    inf, nan, |x| outside [1e-290, 1e291) and values within 1e-14 units of
    the 17th digit of a rounding tie take the % operator one at a time, and
    so does every value on a platform where a probe of the block formatter
    fails.
    """
    rows = np.asarray(rows, dtype=float)
    cols = rows.shape[-1]
    step = max(_CSV_BLOCK // max(cols, 1), 1)
    tables = _g17_tables()
    with (open(path, "w") if path else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(f"# {k}={meta[k]}\n" for k in sorted(meta))
        if header:
            fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), step):
            fh.write(_g17_lines(rows[i:i + step].ravel(), cols, tables))
