import numpy as np

from gradecho.io import write_csv


def _per_value_csv(path, header, columns):
    """The writer write_csv replaced: one format(v, ".17g") call per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in np.column_stack(columns):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def test_write_csv_is_byte_identical_to_per_value_format(tmp_path):
    edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1, 1.0 / 3.0])
    rng = np.random.default_rng(5)
    columns = [edge, edge[::-1], rng.standard_normal(edge.size) * 1e-7,
               np.arange(edge.size, dtype=float)]
    header = "a,b,c,d"
    write_csv(tmp_path / "new.csv", header, columns)
    _per_value_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_of_empty_columns_is_the_header(tmp_path):
    write_csv(tmp_path / "e.csv", "x,y", [np.empty(0), np.empty(0)])
    assert (tmp_path / "e.csv").read_bytes() == b"x,y\n"
