"""The pass rule of the verification records, and the CSV writer against
np.savetxt, the format it has always written."""

import math

import numpy as np
import pytest

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
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
def test_write_csv_bytes_match_savetxt(tmp_path, n, cols):
    # blocks of 4096 rows: none, one partial, one full, one full and one row
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
