"""The CSV writer against np.savetxt, the format it has always written."""

import numpy as np
import pytest

from stablepot.report import write_csv

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
