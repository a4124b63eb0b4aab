"""The pass rule of the verification records, and the CSV writer against
np.savetxt and the '%.17g' % operator, the format it has always written."""

import io
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepot import report
from stablepot.report import CheckEntry, VerificationReport, within, write_csv


@pytest.mark.parametrize("value,expected,tol,rel,status", [
    (1.0 + 1e-7, 1.0, 1e-6, False, "PASS"),        # absolute
    (2.0 + 1.5e-6, 2.0, 1e-6, True, "PASS"),       # relative: 1.5e-6 <= 2e-6
    (2.0 + 1.5e-6, 2.0, 1e-6, False, "FAIL"),      # the same gap, absolute
    (0.75, 0.5, 0.25, False, "PASS"),              # a gap of exactly the tolerance
    (0.75, 0.5, np.nextafter(0.25, 0.0), False, "FAIL"),   # one ulp past it
    (-3.0, -3.0 + 3e-12, 1e-12, True, "PASS"),     # relative to |expected|
    (0.7, 0.7, 0.0, False, "PASS"),                # exact match at tolerance 0
    (0.7, np.nextafter(0.7, 1.0), 0.0, False, "FAIL"),   # 1 ulp off
    (0.7, np.nextafter(0.7, 1.0), 0.0, True, "FAIL"),
    (math.nan, 0.0, 1.0, False, "FAIL"),
    (math.nan, 1.0, 1.0, True, "FAIL"),
    (1.0, math.nan, 1.0, False, "FAIL"),
])
def test_within_pass_rule(value, expected, tol, rel, status):
    entry = within("probe", value, expected, tol, "cite", rel=rel)
    assert entry.status == status
    # the entry records exactly the numbers the rule compared
    assert (entry.check_id, entry.citation) == ("probe", "cite")
    for got, want in ((entry.value, value), (entry.expected, expected),
                      (entry.tolerance, tol)):
        assert got is want


def test_report_ids_unique_from_constructor_and_extend():
    with pytest.raises(ValueError, match="unique"):
        VerificationReport("s", {}, [CheckEntry("a", "PASS"), CheckEntry("a", "FAIL")])
    rep = VerificationReport("s", {}, [CheckEntry("a", "PASS")])
    rep.extend([CheckEntry("b", "PASS")])
    with pytest.raises(ValueError, match="unique"):
        rep.extend([CheckEntry("b", "SKIP")])

EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 1365, 1366, 2048, 2049, 4095, 4096, 4097])
def test_write_csv_bytes_match_savetxt(tmp_path, n, cols):
    # blocks of 4096 values, so 4096 rows of one column, 2048 of two and 1365
    # of three: none, one partial, one full, one full and one row
    rng = np.random.default_rng(n + cols)
    rows = rng.standard_cauchy((n, cols)) * 10.0 ** rng.integers(-300, 300, (n, cols))
    rows.flat[:3] = EXTREMES[:rows.size]
    meta = {"curve": "unit", "n": n}
    write_csv(tmp_path / "new.csv", meta, rows, ["a", "b", "c"][:cols])
    with open(tmp_path / "old.csv", "w") as fh:
        fh.write(f"# curve=unit\n# n={n}\n{','.join(['a', 'b', 'c'][:cols])}\n")
        np.savetxt(fh, rows, delimiter=",", fmt="%.17g")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_integer_column(tmp_path, capsys):
    # the fatou-decay depth column: integers print without a point, as before
    depth = np.arange(1, 21)
    rows = np.column_stack([depth, 2.0 ** -depth, np.full(20, 0.1)])
    write_csv(None, {"curve": "fatou-decay"}, rows, ["depth", "deviation", "running_max"])
    np.savetxt(tmp_path / "old.csv", rows, delimiter=",", fmt="%.17g")
    out = capsys.readouterr().out
    assert out == "# curve=fatou-decay\ndepth,deviation,running_max\n" + \
        (tmp_path / "old.csv").read_text()
    assert out.splitlines()[2].startswith("1,0.5,")


# both as lists of lines, "" after the last newline, which pytest compares
# quickly, where a diff of two long strings would take minutes
def percent_g(rows) -> list[str]:
    # the reference: each row through the % operator on its own
    return [",".join("%.17g" % x for x in row) for row in rows] + [""]


def csv_body(rows) -> list[str]:
    # what write_csv prints for rows, past its one metadata line
    with redirect_stdout(io.StringIO()) as out:
        write_csv(None, {"k": 1}, rows)
    meta, *lines = out.getvalue().split("\n")
    assert meta == "# k=1"
    return lines


BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(values=st.lists(st.floats() | BITS, min_size=1, max_size=60),
       cols=st.integers(1, 3))
def test_write_csv_is_percent_g_row_by_row(values, cols):
    rows = np.resize(np.array(values), (len(values) + cols - 1) // cols * cols).reshape(-1, cols)
    assert csv_body(rows) == percent_g(rows.tolist())


def exact_ties():
    # m 2^-k with exactly 18 significant digits: a tie at the 17th
    m = np.random.default_rng(5).integers(2 ** 52, 2 ** 53, 300) | 1
    return [math.ldexp(int(x), -k) for k in range(2, 40) for x in m
            if len(str(int(x) * 5 ** k).rstrip("0")) == 18]


def test_write_csv_explicit_values():
    # the block formatter passes its probe, so it is what these tests check
    assert report._g17_tables() is not None
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = exact_ties()
    assert len(ties) > 100
    assert all(Fraction(x) * 10 ** (16 - math.floor(math.log10(x))) % 1 == Fraction(1, 2)
               for x in ties)
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                             ties, 2.0 ** 53 + np.arange(0, 4096, 2), 2.0 ** np.arange(53, 64),
                             -tens, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]])
    for cols in (1, 2, 3):
        rows = np.resize(values, values.size // cols * cols).reshape(-1, cols)
        assert csv_body(rows) == percent_g(rows.tolist())


def test_write_csv_integer_and_tuple_rows():
    # integers print as the % operator prints them (through float), and
    # the hardy-schedule curve passes a list of (radius, norm) tuples
    ints = np.array([[0, 1], [-7, 2 ** 53 + 1], [10 ** 17, -(2 ** 62) - 1]])
    assert csv_body(ints) == percent_g(ints.tolist())
    rows = [(0.5, 1), (2.0, 1 / 3), (3.0, 1e-300)]
    assert csv_body(rows) == percent_g(rows) == ["0.5,1", "2,0.33333333333333331", "3,1e-300", ""]


def test_write_csv_every_value_one_at_a_time(monkeypatch):
    # values the block formatter cannot prove: zeros, inf, nan, subnormals,
    # |x| past its range and exact ties; then every value, as where the
    # platform's float64 arithmetic fails the formatter's probe
    odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2e-308, 1e-291,
                    1.7976931348623157e308, -1e291] + exact_ties()[:50])
    rows = np.resize(odd, 4100 * 3).reshape(-1, 3)
    assert csv_body(rows) == percent_g(rows.tolist())
    rows = np.random.default_rng(3).standard_cauchy((2000, 2))
    monkeypatch.setattr(report, "_g17_tables", lambda: None)
    assert csv_body(rows) == percent_g(rows.tolist())


def test_write_csv_to_replaced_stdout(monkeypatch):
    # path None writes text to whatever sys.stdout is at the call
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    write_csv(None, {"b": 2, "a": 1}, np.array([[1.5, -2e-5]]), ["x", "y"])
    assert out.getvalue() == "# a=1\n# b=2\nx,y\n1.5,-2.0000000000000002e-05\n"
