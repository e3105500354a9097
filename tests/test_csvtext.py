"""The array formatter writes, value for value, what repr(float(v)) writes."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynosc import StateSpec, csvtext, uniform_grid
from dynosc.cli import build_packet
from dynosc.config import preset_config
from dynosc.csvtext import CHUNK, CsvText

from conftest import EDGE_VALUES, texts

try:
    import resource
except ImportError:             # not on Windows
    resource = None


def per_value(header, columns):
    """The CSV of the columns, each value through repr(float(v))."""
    rows = zip(*[np.asarray(c, dtype=np.float64).tolist() for c in columns])
    return (header + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                    for row in rows)).encode("ascii")


def assert_same(values):
    values = np.asarray(values, dtype=np.float64)
    [text] = texts(CsvText(values.size, 1), "v", [values[None]])
    got = text.split(b"\n")
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
    # Powers of two and exact integers take repr, so the array path needs
    # neither Ryū's interval of a power of two nor a layout for 123.0 or
    # 12000.0.  Every power of two with three neighbours each way (those
    # below 2^50 take the array path), integers to 3,000, d * 10^k of 1 to
    # 16 digits below 2^50, and the largest integers below 2^50.
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = [powers]
    for direction in (0.0, np.inf):
        near = powers
        for _ in range(3):
            near = np.nextafter(near, direction)
            values.append(near)
    values = np.concatenate(values)
    assert_same(np.concatenate([values, -values]))
    assert_same(np.arange(-3000, 3001, dtype=np.float64))
    rng = np.random.default_rng(50)
    digits = rng.integers(1, 10 ** rng.integers(1, 16, 4000), dtype=np.int64)
    shifts = rng.integers(0, 16, 4000)
    integers = [float(d * 10 ** k) for d, k in zip(digits.tolist(),
                                                   shifts.tolist())
                if d * 10 ** k < 2 ** 50] + [2.0 ** 50 - 1]
    assert_same(integers + [-v for v in integers])


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
    assert texts(CsvText(size, 3), "a,b,c",
                 [c[None] for c in columns]) == [
        per_value("a,b,c", columns)]


@pytest.mark.parametrize("rows,tables", [(300, 4), (16, 300), (3000, 3)])
def test_lead_column_and_reused_cells(rows, tables):
    # Several tables per pass of the cells (16 rows), one (300 rows), or
    # one table of 3,000 rows (6,000 values: one pass; the next test cuts
    # tables into passes).
    rng = np.random.default_rng(rows)
    grid = np.linspace(-12.0, 12.0, rows)
    table = CsvText(rows, 2, tables, lead=grid)
    for scale in (1e-20, 1e20):
        columns = [rng.standard_normal((tables, rows)) * scale,
                   rng.standard_normal((tables, rows))]
        assert texts(table, "x,a,b", columns) == [
            per_value("x,a,b", [grid, columns[0][k], columns[1][k]])
            for k in range(tables)]


# Values of each layout and each lane that takes repr, by generator.
LAYOUTS = {
    "positional": lambda rng, n: (rng.uniform(1.0, 10.0, n)
                                  * 10.0 ** rng.integers(0, 15, n)),
    "0.00x": lambda rng, n: rng.uniform(1e-4, 1.0, n),
    "scientific": lambda rng, n: (rng.uniform(1.0, 10.0, n)
                                  * 10.0 ** rng.integers(-307, -4, n)),
    "negative": lambda rng, n: -rng.uniform(0.0, 10.0, n) * 10.0 ** (
        rng.integers(-12, 12, n)),
    "zero": lambda rng, n: rng.choice([0.0, -0.0], n),
    "subnormal": lambda rng, n: np.ldexp(
        rng.integers(-2 ** 52, 2 ** 52, n).astype(float), -1074),
    "2^50 and up": lambda rng, n: rng.choice([-1.0, 1.0], n) * np.ldexp(
        rng.uniform(1.0, 2.0, n), rng.integers(50, 1024, n)),
    "inf/nan": lambda rng, n: rng.choice([math.inf, -math.inf, math.nan], n),
    # Integers and quarters all end on Ryū's trailing-zero branch.
    "trailing zeros": lambda rng, n: rng.integers(-2 ** 20, 2 ** 20, n) / 4.0,
}


@pytest.mark.parametrize("rows,tables", [(7, 3), (45, 1)])
def test_layouts_switch_between_calls(monkeypatch, rows, tables):
    # Every ordered pair of layouts follows in two calls through one table,
    # so a byte that one layout leaves in a cell shows if the next selects
    # it unwritten.  With CHUNK at 64, 7 rows of 2 columns share a pass
    # three tables at a time, and 45 rows take passes of 23 and 22 rows.
    monkeypatch.setattr(csvtext, "CHUNK", 64)
    rng = np.random.default_rng(rows)
    grid = np.linspace(-12.0, 12.0, rows)
    table = CsvText(rows, 2, tables, lead=grid)

    def check(*names, count=tables):
        columns = [LAYOUTS[names[k % len(names)]](rng, (count, rows))
                   for k in range(2)]
        assert texts(table, "x,a,b", columns) == [
            per_value("x,a,b", [grid, columns[0][k], columns[1][k]])
            for k in range(count)]

    for first in LAYOUTS:
        for second in LAYOUTS:
            check(first)
            check(second)
    check(*LAYOUTS, count=2 * tables + 1)       # a shorter last block
    check("positional", "inf/nan", count=max(1, tables - 1))


def example3_block():
    config = preset_config("example3")
    grid = uniform_grid(config.grid.x_min, config.grid.x_max,
                        config.grid.points)
    spec = StateSpec(config.params, config.n)
    times = np.array(config.time.times()[:8])
    header, columns = build_packet(spec, grid, times, "position")
    return header, grid, columns


def repr_block(header, grid, columns):
    return [per_value(header, [grid, *(c[k] for c in columns)])
            for k in range(len(columns[0]))]


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(resource is None or sys.platform != "linux",
                    reason="counts Linux minor faults (glibc's allocator)")
def test_warm_call_faults_in_no_pages():
    # Every buffer of a call is made with the table and reused: a warmed
    # call on an 8-frame example3 block faults in no page afresh (a pass
    # that allocates its temporaries faults in ~800 pages a call).
    header, grid, columns = example3_block()
    table = CsvText(grid.size, 3, len(columns[0]), lead=grid)
    table.views(header, columns)
    faults = []
    for _ in range(3):
        before = minor_faults()
        table.views(header, columns)
        faults.append(minor_faults() - before)
    assert min(faults) < 100, faults


@pytest.mark.skipif("not config.pluginmanager.hasplugin('benchmark')",
                    reason="the benchmark fixture comes from pytest-benchmark")
@pytest.mark.parametrize("formatter", ["csvtext", "repr"])
def test_format_block_speed(benchmark, formatter):
    # One 8-frame example3 block, the size of an evolve job, through a
    # warmed table as an evolve worker reuses it; the saved benchmark gives
    # the cost per value and the minor faults of each call.  No speed is
    # asserted.
    header, grid, columns = example3_block()
    if formatter == "csvtext":
        table = CsvText(grid.size, 3, len(columns[0]), lead=grid)
        table.views(header, columns)
        format_block = table.views
    else:
        def format_block(header, columns):
            return repr_block(header, grid, columns)
    faults = []

    def call(*args):
        before = minor_faults() if resource else 0
        texts = format_block(*args)
        faults.append(minor_faults() - before if resource else None)
        return texts

    benchmark.extra_info["values"] = grid.size * 4 * len(columns[0])
    benchmark.extra_info["minor_faults"] = faults
    texts = benchmark.pedantic(call, (header, columns), rounds=5)
    assert texts == repr_block(header, grid, columns)
