import numpy as np

from spin1chain.reporting import fmt, write_csv


def per_value_csv(header, rows):
    """The writer's bytes as the per-value ``fmt`` loop rendered them."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{float(x):.17g}" for x in row) for row in rows)
    return "".join(line + "\n" for line in lines).encode()


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308,
           0.1, 1 / 3, -2.5e-17, 12345678901234567.0, 3, -7, 2**60]


def test_bulk_writer_matches_per_value_fmt(tmp_path):
    rng = np.random.default_rng(3)
    table = np.array(SPECIAL + list(rng.normal(size=45) * 10.0 ** rng.integers(-300, 300, 45)),
                     dtype=np.float64).reshape(-1, 3)
    header = ("t", "abs", "arg")
    write_csv(tmp_path / "a.csv", header, table)
    assert (tmp_path / "a.csv").read_bytes() == per_value_csv(header, table)


def test_fmt_matches_per_value_format():
    for x in SPECIAL:
        assert fmt(x) == f"{float(x):.17g}"


def test_integer_rows_match_per_value_fmt(tmp_path):
    rows = [(0, 1), (-3, 2**53 + 1), (10**20, -1)]
    write_csv(tmp_path / "i.csv", ("k", "v"), rows)
    assert (tmp_path / "i.csv").read_bytes() == per_value_csv(("k", "v"), rows)


def test_generator_and_array_give_same_bytes(tmp_path):
    table = np.array(SPECIAL, dtype=np.float64).reshape(5, 3)
    write_csv(tmp_path / "array.csv", ("a", "b", "c"), table)
    write_csv(tmp_path / "gen.csv", ("a", "b", "c"), (row for row in table))
    write_csv(tmp_path / "tuples.csv", ("a", "b", "c"), (tuple(row) for row in table))
    expected = (tmp_path / "array.csv").read_bytes()
    assert (tmp_path / "gen.csv").read_bytes() == expected
    assert (tmp_path / "tuples.csv").read_bytes() == expected


def test_empty_table_writes_header_only(tmp_path):
    write_csv(tmp_path / "e.csv", ("t", "p"), iter(()))
    write_csv(tmp_path / "z.csv", ("t", "p"), np.empty((0, 2)))
    assert (tmp_path / "e.csv").read_bytes() == b"t,p\n"
    assert (tmp_path / "z.csv").read_bytes() == b"t,p\n"
