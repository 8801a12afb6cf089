import numpy as np
import pytest

from washburn._format import fmt17, write_csv


def csv_by_value(path, header, columns):
    """The per-value writer write_csv replaced: one fmt17 call per value."""
    cols = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(fmt17(x) for x in row) + "\n")


def awkward_columns(seed, rows, width):
    rng = np.random.default_rng(seed)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
               for _ in range(width)]
    specials = [-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1.7976931348623157e308,
                1.0, -1.0, 0.1, 1e-5, 123456789.0]
    columns[0][:len(specials)] = specials[:rows]
    return columns


class TestWriteCsv:
    @pytest.mark.parametrize("seed,rows,width", [(1, 40, 7), (2, 1, 1), (3, 4097, 7),
                                                 (4, 13, 2)])
    def test_same_bytes_as_the_per_value_writer(self, tmp_path, seed, rows, width):
        columns = awkward_columns(seed, rows, width)
        header = ",".join(f"c{k}" for k in range(width))
        write_csv(tmp_path / "new.csv", header, columns)
        csv_by_value(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "x.csv", "a,b", [np.zeros(0), np.zeros(0)])
        assert (tmp_path / "x.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_value_in_row_order_is_named(self, tmp_path, bad):
        columns = awkward_columns(5, 20, 3)
        columns[2][4] = bad
        columns[0][9] = np.inf if np.isnan(bad) else np.nan  # a later row, another value
        with pytest.raises(ValueError, match=f"non-finite value .*{bad!r}.* in output"):
            write_csv(tmp_path / "x.csv", "a,b,c", columns)
