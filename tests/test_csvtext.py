"""The array formatter writes, value for value, what repr(float(v)) writes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynosc import StateSpec, uniform_grid
from dynosc.cli import build_packet
from dynosc.config import preset_config
from dynosc.csvtext import CHUNK, CsvText, csv_bytes

from conftest import EDGE_VALUES


def per_value(header, columns):
    """The CSV of the columns, each value through repr(float(v))."""
    rows = zip(*[np.asarray(c, dtype=np.float64).tolist() for c in columns])
    return (header + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                    for row in rows)).encode("ascii")


def assert_same(values):
    values = np.asarray(values, dtype=np.float64)
    got = csv_bytes("v", [values]).split(b"\n")
    want = per_value("v", [values]).split(b"\n")
    bad = [(k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, bad[:5]
    assert len(got) == len(want)


def as_floats(bits):
    """Finite float64 values of 64-bit patterns, subnormals and ±0 kept."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(bits):
    assert_same(as_floats(bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_any_finite_floats(values):
    assert_same(values)


def test_edge_values():
    assert_same(EDGE_VALUES + [-v for v in EDGE_VALUES])


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([10.0 ** k for k in range(-300, 300)])
    assert_same(np.concatenate([tens, np.nextafter(tens, 0.0),
                                np.nextafter(tens, np.inf), -tens]))


def test_powers_of_two_and_integers():
    assert_same(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert_same(np.arange(-3000, 3001, dtype=np.float64))


@pytest.mark.parametrize("values", [
    np.ldexp(1.0, np.arange(50, 54)),
    np.nextafter(np.ldexp(1.0, np.arange(50, 54)), 0.0),
    np.array([10.0 ** k for k in range(15, 24)]),
    np.array([1.2345e15, 9999999999999998.0, 123456789012345.67])],
    ids=["2^50..2^53", "below-2^50..2^53", "1e15..1e23", "near-1e15-1e16"])
def test_large_values_take_repr(values):
    assert_same(np.concatenate([values, -values]))


def test_non_finite_values():
    assert_same([math.nan, math.inf, -math.inf, 1.5, -math.nan])


def test_layout_switches():
    # Positional from 1e-4 up to below 1e16, with every point position and
    # digit count; exponent form outside, with 2- and 3-digit exponents.
    rng = np.random.default_rng(3)
    digits = rng.integers(1, 10 ** rng.integers(1, 18, 4000), dtype=np.int64)
    assert_same([float(f"{d}e{k}") for d, k in zip(
        digits, rng.integers(-340, 292, 4000))])


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_across_the_chunk_boundary(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    assert_same(values)
    columns = [values, values[::-1], -values]
    assert csv_bytes("a,b,c", columns) == per_value("a,b,c", columns)


@pytest.mark.parametrize("rows,tables", [(300, 4), (16, 300), (3000, 3)])
def test_lead_column_and_reused_cells(rows, tables):
    # Several tables per pass of the cells (16 rows), one (300 rows), or
    # one table over several passes (3,000 rows of 2 columns).
    rng = np.random.default_rng(rows)
    grid = np.linspace(-12.0, 12.0, rows)
    table = CsvText(rows, 2, tables, lead=grid)
    for scale in (1e-20, 1e20):
        columns = [rng.standard_normal((tables, rows)) * scale,
                   rng.standard_normal((tables, rows))]
        assert table.texts("x,a,b", columns) == [
            per_value("x,a,b", [grid, columns[0][k], columns[1][k]])
            for k in range(tables)]


def example3_block():
    config = preset_config("example3")
    grid = uniform_grid(config.grid.x_min, config.grid.x_max,
                        config.grid.points)
    spec = StateSpec(config.params, config.n)
    times = np.array(config.time.times()[:8])
    header, columns = build_packet(spec, grid, times, "position")
    return header, grid, columns


def format_block(header, grid, columns):
    return CsvText(grid.size, 3, len(columns[0]), lead=grid).texts(
        header, columns)


def repr_block(header, grid, columns):
    return [per_value(header, [grid, *(c[k] for c in columns)])
            for k in range(len(columns[0]))]


@pytest.mark.skipif("not config.pluginmanager.hasplugin('benchmark')",
                    reason="the benchmark fixture comes from pytest-benchmark")
@pytest.mark.parametrize("formatter", [format_block, repr_block],
                         ids=["csvtext", "repr"])
def test_format_block_speed(benchmark, formatter):
    # One 8-frame example3 block, the size of an evolve job; the saved
    # benchmark gives the cost per value.  No speed is asserted.
    header, grid, columns = example3_block()
    benchmark.extra_info["values"] = grid.size * 4 * len(columns[0])
    texts = benchmark.pedantic(formatter, (header, grid, columns), rounds=5)
    assert texts == repr_block(header, grid, columns)
