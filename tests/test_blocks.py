"""Blocks of frames through the quadrature-Fourier oracle, bit for bit.

`moments --check` and the momentum-map check evaluate their frames in blocks
of times and pass the rows to one transform call, which builds the kernel
in strips of rows and applies each strip to every row.  Each test pins a
block path to the per-frame arithmetic with the kernel built whole, with
exact (bitwise) comparisons.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dynosc import StateSpec, eval_psi, uniform_grid
from dynosc import cli, oracle
from dynosc import verification as ver
from dynosc.config import GridSpec, TimeSpec, preset_config
from dynosc.flows import BETA0_QUARTIC, BETA0_SQUARED, momentum_params
from dynosc.stencils import l2_norm


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def full_kernel(phase, grid, rows=slice(None)):
    """Rows of exp(phase * outer(k, x)), built whole as before strips."""
    return np.exp(phase * np.multiply.outer(grid[rows], grid))


def frame_transform(grid, amplitudes, kernel):
    """The per-frame trapezoid transform: kernel @ (weights f) / sqrt(2 pi)."""
    dx = float(grid[1] - grid[0])
    weights = np.full(grid.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    return kernel @ (weights * amplitudes) / math.sqrt(2.0 * math.pi)


def frame_moment(grid, amplitudes, power):
    """The per-frame trapezoid <x^power> of |amplitudes|^2."""
    dx = float(grid[1] - grid[0])
    density = np.abs(amplitudes) ** 2
    return float(np.trapezoid(grid ** power * density, dx=dx)
                 / np.trapezoid(density, dx=dx))


def signed_zero_grid():
    rng = np.random.default_rng(13)
    grid = np.sort(rng.normal(scale=5.0, size=999))
    grid[400:410] = 0.0
    grid[405:410] = -0.0
    return grid


# Not uniform: the row oracles refuse it, and the strip tests give it to the
# transform underneath them, whose arithmetic takes any grid.
SIGNED_ZERO_GRID = signed_zero_grid()


def full_product(phase, grid, rows):
    """full_kernel(phase, grid) @ (weights row) / sqrt(2 pi) for each row of
    a (T, N) block or one (N,) row, the kernel held whole."""
    kernel = np.empty((grid.size, grid.size), dtype=complex)
    for r0 in range(0, grid.size, 256):
        kernel[r0:r0 + 256] = full_kernel(phase, grid, slice(r0, r0 + 256))
    dx = float(grid[1] - grid[0])
    weights = np.full(grid.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    weighted = weights * rows
    out = np.empty_like(weighted)
    for row, values in zip(out.reshape(-1, grid.size),
                           weighted.reshape(-1, grid.size)):
        np.matmul(kernel, values, out=row)
    return out / math.sqrt(2.0 * math.pi)


def decaying_rows(grid, count):
    """Random complex rows under a Gaussian envelope, so the boundary density
    stays below DFT_DECAY_THRESHOLD."""
    rng = np.random.default_rng(grid.size)
    values = rng.normal(size=(count, grid.size, 2)).view(complex)[..., 0]
    return values * np.exp(-0.5 * grid * grid)


def streamed(grid, rows):
    """The strip-built e^{-ipx} transform of one row or a block, without the
    row check of `dft_momentum_rows`."""
    return oracle._quadrature_transform(grid, rows)


class TestStripKernel:
    """The transform builds its kernel in near-equal strips of at most
    KERNEL_STRIP rows; every row it returns has the bits of the product with
    the kernel built whole.  At 65 and 1,025 points a plain 64-row split
    would leave a 1-row strip, whose product sums in another order."""

    @pytest.mark.parametrize("phase", [-1j])
    @pytest.mark.parametrize("grid", [
        uniform_grid(-12.0, 12.0, 16), uniform_grid(-12.0, 12.0, 17),
        uniform_grid(-12.0, 12.0, 65), uniform_grid(-14.0, 14.0, 1000),
        uniform_grid(-12.0, 12.0, 1024), uniform_grid(-12.0, 12.0, 1025),
        SIGNED_ZERO_GRID],
        ids=["16", "17", "65", "1000", "1024", "1025", "random-signed-zeros"])
    def test_equals_full_build(self, grid, phase):
        block = decaying_rows(grid, 5)
        want = full_product(phase, grid, block)
        assert np.array_equal(bits(streamed(grid, block)), bits(want))
        for k in (0, 4):
            assert np.array_equal(bits(streamed(grid, block[k])),
                                  bits(want[k]))

    @pytest.mark.slow
    @pytest.mark.parametrize("phase", [-1j])
    def test_equals_full_build_at_4096_points(self, phase):
        # The reference holds one 256 MiB kernel.
        grid = uniform_grid(-12.0, 12.0, 4096)
        block = decaying_rows(grid, 3)
        want = full_product(phase, grid, block)
        assert np.array_equal(bits(streamed(grid, block)), bits(want))
        assert np.array_equal(bits(streamed(grid, block[1])),
                              bits(want[1]))

    def test_strips_tile_the_rows_without_a_1_row_strip(self):
        # Every grid size up to the config cap: near-equal strips of 2 to
        # KERNEL_STRIP rows, one 1-row strip only for a 1-row kernel.
        for n in range(1, 8193):
            strips = oracle._strips(n)
            assert strips[0].start == 0 and strips[-1].stop == n
            assert ([s.start for s in strips[1:]]
                    == [s.stop for s in strips[:-1]])
            sizes = [s.stop - s.start for s in strips]
            assert max(sizes) <= oracle.KERNEL_STRIP
            assert max(sizes) - min(sizes) <= 1
            assert n == 1 or min(sizes) >= 2

    def test_memory_stays_far_below_the_full_kernel(self):
        # The full 4,096-point kernel took 16 N^2 bytes = 256 MiB.
        grid = uniform_grid(-12.0, 12.0, 4096)
        block = decaying_rows(grid, 4)
        tracemalloc.start()
        try:
            oracle.dft_momentum_rows(grid, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_block_memory_is_its_result_and_one_strip(self):
        # A call holds its result and one strip buffer, and no weighted copy
        # of its rows (which would add the size of the result again).
        grid = uniform_grid(-12.0, 12.0, 1024)
        block = decaying_rows(grid, 64)
        tracemalloc.start()
        try:
            out = oracle.dft_momentum_rows(grid, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        strip = oracle.KERNEL_STRIP * grid.size * 16
        assert peak <= out.nbytes + strip + out.nbytes // 4


class TestRowTransforms:
    def test_block_rows_equal_frame_calls(self, presets):
        grid = uniform_grid(-12.0, 12.0, 1024)
        times = np.linspace(0.0, 2.0 * math.pi, 7)
        kernel = full_kernel(-1j, grid)
        for cfg in presets.values():
            spec = StateSpec(cfg.params, cfg.n)
            block = np.stack([eval_psi(spec, grid, t) for t in times])
            rows = oracle.dft_momentum_rows(grid, block)
            mean, var = oracle.quadrature_moment_rows(grid, rows)
            for k, amplitudes in enumerate(block):
                want = frame_transform(grid, amplitudes, kernel)
                assert np.array_equal(bits(rows[k]), bits(want))
                first = frame_moment(grid, want, 1)
                assert mean[k] == first
                assert np.array_equal(bits(var[k]), bits(
                    frame_moment(grid, want, 2) - first * first))


def per_frame_moment_errors(config):
    """The err_* columns of `moments --check`, one frame at a time."""
    times = config.time.times()
    m = cli.classical_moments(config.params, config.n, times)
    checked = (m.mean_x, m.mean_p, m.var_x, m.var_p)
    spec = StateSpec(config.params, config.n)
    grid = uniform_grid(config.grid.x_min, config.grid.x_max, config.grid.points)
    kernel = full_kernel(-1j, grid)
    errors = []
    for k, t in enumerate(times):
        pos = eval_psi(spec, grid, t)
        mom = frame_transform(grid, pos, kernel)
        qx = frame_moment(grid, pos, 1)
        qp = frame_moment(grid, mom, 1)
        quad = (qx, qp, frame_moment(grid, pos, 2) - qx * qx,
                frame_moment(grid, mom, 2) - qp * qp)
        errors.append([abs(q - c[k]) / max(1.0, abs(c[k]))
                       for q, c in zip(quad, checked)])
    return np.array(errors, dtype=float)


def with_clock(name, frames, points=1024):
    return dataclasses.replace(preset_config(name),
                               grid=GridSpec(-12.0, 12.0, points),
                               time=TimeSpec(0.0, 2.0 * math.pi, frames))


class TestMomentsCheckBlocks:
    # 37 frames of 1,024 points: blocks of 16, 16 and 5.
    @pytest.mark.parametrize("name", ["example3", "minuncert", "example2"])
    def test_rows_equal_per_frame_reference(self, name):
        config = with_clock(name, 37)
        assert 37 % (oracle.BLOCK_SAMPLES // 1024) != 0
        text = cli._moment_rows(config, check=True)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        got = np.array([[float(v) for v in row[7:]] for row in rows])
        assert np.array_equal(bits(got), bits(per_frame_moment_errors(config)))
        # The closed-form columns are those of the table without --check.
        plain = cli._moment_rows(config).splitlines()
        assert [",".join(row[:7]) for row in rows] == plain[1:]

    def test_rows_across_transform_chunks_equal_per_frame_reference(self):
        # 600 frames of 128 points: transform chunks of 256, 256 and 88
        # frames, each evaluated in blocks of at most 128.
        config = with_clock("example3", 600, 128)
        text = cli._moment_rows(config, check=True)
        got = np.array([[float(v) for v in line.split(",")[7:]]
                        for line in text.splitlines()[1:]])
        assert np.array_equal(bits(got), bits(per_frame_moment_errors(config)))

    @pytest.mark.parametrize("frames,points",
                             [(37, 1024), (600, 64), (20, 2048), (300, 1024)])
    def test_blocks_stay_under_the_cap(self, monkeypatch, frames, points):
        shapes, times, chunks = [], [], []
        real = oracle.eval_psi
        real_rows = cli.dft_momentum_rows

        def recording(spec, x, t):
            out = real(spec, x, t)
            shapes.append(out.shape)
            times.extend(np.asarray(t).tolist())
            return out

        def transforms(grid, rows):
            chunks.append(rows.shape)
            return real_rows(grid, rows)

        monkeypatch.setattr(oracle, "eval_psi", recording)
        monkeypatch.setattr(cli, "dft_momentum_rows", transforms)
        config = with_clock("example3", frames, points)
        cli._moment_rows(config, check=True)
        assert times == config.time.times()
        cap = max(1, oracle.BLOCK_SAMPLES // points)
        assert all(len(shape) == 2 and shape[0] <= cap and shape[1] == points
                   for shape in shapes)
        sizes = [min(cli.CHECK_FRAMES, frames - k)
                 for k in range(0, frames, cli.CHECK_FRAMES)]
        assert chunks == [(size, points) for size in sizes]
        assert len(shapes) == sum(math.ceil(size / cap) for size in sizes)


class TestMomentumGapBlocks:
    @pytest.mark.parametrize("denominator", [BETA0_QUARTIC, BETA0_SQUARED])
    def test_worst_gap_equals_per_frame_maximum(self, presets, denominator):
        grid = uniform_grid(*ver.TRANSFORM_GRID)
        kernel = full_kernel(-1j, grid)
        dx = float(grid[1] - grid[0])
        rows, numeric = ver._momentum_map_rows(presets, ver.EIGHT_TIMES,
                                               denominator)
        for k, cfg in enumerate(presets.values()):
            gaps = []
            for n in range(5):
                mapped = StateSpec(momentum_params(cfg.params, denominator), n)
                for t in ver.EIGHT_TIMES:
                    pos = eval_psi(StateSpec(cfg.params, n), grid, t)
                    closed = eval_psi(mapped, grid, t)
                    gaps.append(l2_norm(frame_transform(grid, pos, kernel)
                                        - closed, dx))
            got = ver._momentum_gaps(numeric[k], cfg.params,
                                     ver.EIGHT_TIMES, denominator)
            assert np.array_equal(bits(got), bits(np.reshape(gaps, (5, 8))))
            assert type(rows[k].value) is float
            assert rows[k].value == max(gaps)

    def test_negative_control_equals_its_frame(self):
        grid = uniform_grid(*ver.TRANSFORM_GRID)
        params = preset_config("example3").params
        pos = eval_psi(StateSpec(params, 0), grid, 0.0)
        closed = eval_psi(StateSpec(momentum_params(params, BETA0_SQUARED), 0),
                          grid, 0.0)
        want = l2_norm(frame_transform(grid, pos, full_kernel(-1j, grid))
                       - closed, float(grid[1] - grid[0]))
        control = ver.momentum_representation()[-1]
        assert control.name == ("momentum_map_negative_control"
                                "[example3, beta0sq]")
        assert control.value == want
        assert type(control.value) is float and control.passed is True

    def test_gap_blocks_stay_under_the_cap(self, monkeypatch):
        shapes = []
        real = oracle.eval_psi

        def recording(spec, x, t):
            out = real(spec, x, t)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(oracle, "eval_psi", recording)
        params = preset_config("example1").params
        times = np.linspace(0.0, 1.0, 40)
        numeric = ver._momentum_transforms([params], times)
        ver._momentum_gaps(numeric[0], params, times, BETA0_QUARTIC)
        cap = oracle.BLOCK_SAMPLES // ver.TRANSFORM_GRID[2]
        assert sorted({shape[0] for shape in shapes}) == [40 % cap, cap]
        assert sum(shape[0] for shape in shapes) == 2 * 5 * 40


class TestOneTransformPerCaller:
    """Each caller passes all of its rows to one transform call, which
    builds the kernel once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []
        real = oracle._quadrature_transform

        def counting(grid, rows):
            shapes.append(rows.shape)
            return real(grid, rows)

        monkeypatch.setattr(oracle, "_quadrature_transform", counting)
        return shapes

    def test_textbook_limit(self, calls):
        ver.textbook_limit()
        assert calls == [(5, 1024)]

    def test_momentum_representation_with_its_control(self, calls):
        ver.momentum_representation()
        assert calls == [(200, 1024)]

    def test_scoped_leading_rows(self, calls):
        ver._scoped_leading_rows(preset_config("example3"), BETA0_QUARTIC)
        assert calls == [(20, 1024)]

    def test_moments_check(self, calls):
        cli._moment_rows(with_clock("example3", 101), check=True)
        assert calls == [(101, 1024)]
