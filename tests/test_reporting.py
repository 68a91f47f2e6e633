import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spin1chain import reporting
from spin1chain.reporting import CSV_CHUNK_ROWS, FAST_MAX, FAST_MIN, fmt, write_csv


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


def assert_renders_per_value(path, table):
    header = tuple(f"c{i}" for i in range(table.shape[1]))
    write_csv(path, header, table)
    assert path.read_bytes() == per_value_csv(header, table)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 4)),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_any_float_table_matches_per_value_fmt(tmp_path, table):
    assert_renders_per_value(tmp_path / "h.csv", table)


def both_signs_and_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    around = np.concatenate([np.nextafter(values, -np.inf), values,
                             np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


def test_powers_of_ten_and_neighbours(tmp_path):
    # correctly rounded 10**k, on both sides of each of which log10 may misjudge
    # the exponent and the 17 digits may carry into a new one
    powers = [float(f"1e{k}") for k in range(-307, 309)]
    assert_renders_per_value(tmp_path / "p.csv",
                             both_signs_and_neighbours(powers).reshape(-1, 4))


def decimal_exponent(x):
    """floor(log10(x)) of a positive float, exactly."""
    k = math.floor(math.log10(x))
    k -= Fraction(x) < Fraction(10) ** k
    return k + (Fraction(x) >= Fraction(10) ** (k + 1))


@pytest.mark.parametrize("shift", [-1, 1])
def test_exponent_estimate_one_off_is_corrected(tmp_path, monkeypatch, shift):
    # a log10 less exact than this platform's can misjudge the exponent by one
    # near powers of ten; the kernel corrects it on the unrounded scaled value
    powers = [float(f"1e{k}") for k in range(-279, 280, 7)]
    values = np.concatenate([both_signs_and_neighbours(powers),
                             np.random.default_rng(7).normal(size=300) * 1e3])
    monkeypatch.setattr(np, "log10", lambda a: np.array(
        [decimal_exponent(v) + shift + 0.5 for v in a.tolist()]))
    assert_renders_per_value(tmp_path / "s.csv", values.reshape(-1, 2))


def test_dyadic_halfway_values(tmp_path):
    # (k + 1/2) * 2**j: exact ties in their 18th digit take the %.17g fallback
    k = np.arange(0, 2000, 7, dtype=np.float64)
    j = np.arange(-70, 71)
    halfway = ((k[:, None] + 0.5) * 2.0 ** j).ravel()
    assert_renders_per_value(tmp_path / "d.csv", np.concatenate([halfway, -halfway])
                             .reshape(-1, 2))


def test_integers_up_to_two_to_the_63(tmp_path):
    rng = np.random.default_rng(63)
    exact = [2 ** b + d for b in range(64) for d in (-1, 0, 1)]
    exact += [10 ** k + d for k in range(20) for d in (-1, 0, 1)]
    values = np.concatenate([np.array(exact, dtype=np.float64), np.arange(-2000, 2000),
                             rng.integers(0, 2 ** 63, 4000).astype(np.float64)])
    assert_renders_per_value(tmp_path / "i.csv", values.reshape(-1, 4))


def test_fast_path_window_edges(tmp_path):
    edges = both_signs_and_neighbours([FAST_MIN, FAST_MAX, 1e-281, 1e-279, 1e280, 1e282])
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308])
    assert_renders_per_value(tmp_path / "w.csv",
                             np.concatenate([edges, special, special[:1]]).reshape(-1, 1))


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(1801).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    assert_renders_per_value(tmp_path / "b.csv", bits.view(np.float64).reshape(-1, 4))


@pytest.mark.parametrize("rows", [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                  3 * CSV_CHUNK_ROWS + 1])
def test_chunk_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
    # values that take the fallback on both sides of every chunk edge
    for edge in range(0, rows + 1, CSV_CHUNK_ROWS):
        for row in (edge - 1, edge):
            if 0 <= row < rows:
                table[row] = (np.nan, 1 + 2.0 ** -17, -np.inf)
    assert_renders_per_value(tmp_path / "c.csv", table)


def test_field_reused_across_blocks(tmp_path):
    # one field serves every block of a table, so a block of short values
    # follows one of the longest, and the other way round: no byte of an
    # earlier block may show through
    long_values = np.array([-2.2250738585072014e-308, -1.2345678901234567e-100,
                            -np.inf, np.nan, -1.0000000000000002e-5, 5e-324])
    short_values = np.array([0.0, 1.0, -2.0, 0.5, 1e20, np.inf])
    blocks = [np.resize(values, (CSV_CHUNK_ROWS, 3))
              for values in (long_values, short_values, long_values)]
    table = np.concatenate(blocks + [np.resize(short_values, (17, 3))])
    assert_renders_per_value(tmp_path / "r.csv", table)


def significant_digits(x):
    """Digits of ``%.17g`` of x from its first to its last nonzero one."""
    mantissa = f"{x:.17g}".lstrip("-").partition("e")[0]
    return len(mantissa.replace(".", "").strip("0"))


def field_span(text):
    """(start, end) of a fast-path value's characters in its 32-byte field: the
    lead digit sits in column 7 after the "0." and zeros of a number below 0.1,
    else in column 6, and the sign right before the first character."""
    body = text.lstrip("-")
    if body.startswith("0."):
        start = 7 - (len(body) - len(body[2:].lstrip("0")))
    else:
        start = 6
    start -= text.startswith("-")
    return start, start + len(text) - 1


def layout_spans():
    """Every (start, end) the field layout gives a fast-path value: q is the
    exponent of fixed notation (0 for scientific), ``last`` the place of the
    last nonzero digit after the lead, ``wide`` a 3-digit exponent."""
    spans = set()
    for neg in (0, 1):
        for last in range(17):
            spans |= {(6 + q - neg, 7 + last) for q in range(-4, 0)}
            spans |= {(6 - neg, 7 + last if last > q else 6 + q) for q in range(17)}
            digits_end = 7 + last if last > 0 else 6
            spans |= {(6 - neg, digits_end + 4 + wide) for wide in (0, 1)}
    return spans


def test_every_field_span_matches_per_value_fmt(tmp_path):
    # fixed notation at each q = -4..16, and scientific notation with 2- and
    # 3-digit exponents, each with 1..17 significant digits (so every run of
    # trailing zeros), the first such float of each, in both signs
    exponent_classes = [[q] for q in range(-4, 17)]
    exponent_classes += [[-5, -6, -7, 17, 18, -99, 99], [-100, -101, 100, 101, -280, 280]]
    values = [next(x for q in exponents for m in range(10 ** (k - 1), 10 ** k) if m % 10
                   for x in [float(f"{m}e{q - k + 1}")] if significant_digits(x) == k)
              for exponents in exponent_classes for k in range(1, 18)]
    values += [0.0]
    fast = values + [-x for x in values]
    assert {field_span(f"{x:.17g}") for x in fast} == layout_spans()
    fallback = [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
                1 + 2.0 ** -17, -(1 + 2.0 ** -17)]
    table = np.array(fast + fallback + [1.0] * (-len(fast + fallback) % 3)).reshape(-1, 3)
    assert_renders_per_value(tmp_path / "spans.csv", table)


def test_keep_table_matches_the_span_rule():
    # row start * 32 + end of the kept-columns table against the per-value rule
    # it replaced, (column - start) mod 256 <= end + 1 - start, on every pair
    # with end >= start (the layout gives no other)
    start, end = np.divmod(np.arange(32 * 32), 32)
    span = (end + 1 - start).astype(np.uint8)[:, None]
    rule = (np.arange(32, dtype=np.uint8) - start.astype(np.uint8)[:, None]) <= span
    used = end >= start
    assert np.array_equal(reporting._KEEP[used], rule[used])
