"""The CSV writer against np.savetxt(fmt="%.17g"), byte for byte."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gbass import simulate


def savetxt_bytes(data, header="h"):
    buf = io.BytesIO()
    with np.errstate(all="ignore"):
        np.savetxt(buf, data, delimiter=",", header=header, comments="", fmt="%.17g")
    return buf.getvalue()


def written(tmp_path, *columns, header="h"):
    path = tmp_path / "out.csv"
    simulate._write_csv(path, header, *columns)
    return path.read_bytes()


def check(tmp_path, data):
    data = np.asarray(data, dtype=float).reshape(len(data), -1)
    assert written(tmp_path, data) == savetxt_bytes(data)


def powers_of_ten():
    tens = np.array([float(f"1e{j}") for j in range(-6, 19)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def test_decade_table_holds_the_least_double_at_or_above_each_power():
    for j, x in zip(range(-5, 23), simulate._TENS):
        assert Fraction(x) >= Fraction(10) ** j > Fraction(np.nextafter(x, 0.0))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_any_floats(tmp_path_factory, data):
    check(tmp_path_factory.mktemp("csv"), data)


def test_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(5)
    check(tmp_path, rng.integers(0, 2 ** 64, (3000, 13), dtype=np.uint64).view(np.float64))


def test_exact_ties_and_their_neighbours(tmp_path):
    # x = m / 2**(17 - e), m odd, 10**e <= x < 10**(e+1), lies halfway between two
    # 17-digit decimals, and '%.17g' rounds it to the even one
    rng = np.random.default_rng(6)
    e = rng.integers(-4, 15, 3000)
    scale = 2.0 ** (17 - e)
    ties = (np.floor(rng.uniform(10.0 ** e, 10.0 ** (e + 1)) * scale / 2) * 2 + 1) / scale
    exact = [(Fraction(x) * 10 ** (16 - int(k))).denominator == 2 for x, k in zip(ties, e)]
    assert all(exact)
    check(tmp_path, np.column_stack([ties, -ties, np.nextafter(ties, 0.0),
                                     np.nextafter(ties, np.inf)]))


def test_powers_of_ten_and_one_ulp_either_side(tmp_path):
    tens = powers_of_ten()
    check(tmp_path, np.column_stack([tens, -tens]))


@pytest.mark.parametrize("x", [9.9999999999999995e-05, 99999999999999999.0, 0.0, -0.0,
                               5e-324, -np.inf, np.nan, 1.0, -1.0, 0.5])
def test_edge_values(tmp_path, x):
    check(tmp_path, [[x, 1.0], [2.0, x]])


def test_rows_cross_blocks(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-6, 18, (50, 3))
    data[::7, 1] = np.nan
    monkeypatch.setattr(simulate, "_CSV_CELLS", 7)
    assert written(tmp_path, data[:, :2], data[:, 2:]) == savetxt_bytes(data)
