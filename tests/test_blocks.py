"""Blocks of frames through the quadrature-Fourier oracle, bit for bit.

`moments --check` and the momentum-map check evaluate their frames in blocks
of times and transform every row with one matrix-vector product against a
kernel built from its upper triangle.  Each test pins a block path to the
per-frame arithmetic it replaced, with exact (bitwise) comparisons.
"""

import dataclasses
import math

import numpy as np
import pytest

from dynosc import (POSITION, StateSpec, dft_momentum, quadrature_moment,
                    sample_frame, uniform_grid)
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


def frame_transform(frame, kernel):
    """The per-frame trapezoid transform: kernel @ (weights f) / sqrt(2 pi)."""
    weights = np.full(frame.grid.size, frame.dx)
    weights[0] = weights[-1] = 0.5 * frame.dx
    return kernel @ (weights * frame.amplitudes) / math.sqrt(2.0 * math.pi)


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


class TestStripKernel:
    @pytest.mark.parametrize("phase", [-1j, 1j])
    @pytest.mark.parametrize("grid", [
        uniform_grid(-12.0, 12.0, 17), uniform_grid(-14.0, 14.0, 1000),
        uniform_grid(-12.0, 12.0, 1024), signed_zero_grid()],
        ids=["17", "1000", "1024", "random-signed-zeros"])
    def test_equals_full_build(self, grid, phase):
        kernel = oracle._kernel.__wrapped__(phase, grid.tobytes())
        assert not kernel.flags.writeable
        assert np.array_equal(bits(kernel), bits(full_kernel(phase, grid)))

    @pytest.mark.parametrize("phase", [-1j, 1j])
    def test_equals_full_build_at_4096_points(self, phase):
        # Compared 256 rows at a time, so only one 256 MiB kernel is held.
        grid = uniform_grid(-12.0, 12.0, 4096)
        kernel = oracle._kernel.__wrapped__(phase, grid.tobytes())
        for r0 in range(0, grid.size, 256):
            rows = slice(r0, r0 + 256)
            assert np.array_equal(bits(kernel[rows]),
                                  bits(full_kernel(phase, grid, rows)))


class TestRowTransforms:
    def test_block_rows_equal_frame_calls(self, presets):
        grid = uniform_grid(-12.0, 12.0, 1024)
        times = np.linspace(0.0, 2.0 * math.pi, 7)
        kernel = full_kernel(-1j, grid)
        for cfg in presets.values():
            spec = StateSpec(cfg.params, cfg.n)
            frames = [sample_frame(spec, POSITION, grid, t) for t in times]
            block = np.stack([f.amplitudes for f in frames])
            rows = oracle.dft_momentum_rows(grid, block)
            first, second = oracle.quadrature_moment_rows(grid, rows)
            for k, frame in enumerate(frames):
                want = frame_transform(frame, kernel)
                assert np.array_equal(bits(rows[k]), bits(want))
                assert np.array_equal(bits(dft_momentum(frame).amplitudes),
                                      bits(want))
                assert first[k] == frame_moment(grid, want, 1)
                assert second[k] == frame_moment(grid, want, 2)
                for power in (1, 2):
                    assert (quadrature_moment(frame, power)
                            == frame_moment(grid, frame.amplitudes, power))


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
        pos = sample_frame(spec, POSITION, grid, t)
        mom = frame_transform(pos, kernel)
        qx = frame_moment(grid, pos.amplitudes, 1)
        qp = frame_moment(grid, mom, 1)
        quad = (qx, qp, frame_moment(grid, pos.amplitudes, 2) - qx * qx,
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

    @pytest.mark.parametrize("frames,points", [(37, 1024), (600, 64), (20, 2048)])
    def test_blocks_stay_under_the_cap(self, monkeypatch, frames, points):
        shapes, times = [], []
        real = cli.eval_psi

        def recording(spec, x, t):
            out = real(spec, x, t)
            shapes.append(out.shape)
            times.extend(np.asarray(t).tolist())
            return out

        monkeypatch.setattr(cli, "eval_psi", recording)
        config = with_clock("example3", frames, points)
        cli._moment_rows(config, check=True)
        assert times == config.time.times()
        cap = max(1, oracle.BLOCK_SAMPLES // points)
        assert all(len(shape) == 2 and shape[0] <= cap and shape[1] == points
                   for shape in shapes)
        assert len(shapes) == math.ceil(frames / cap)


class TestMomentumGapBlocks:
    @pytest.mark.parametrize("denominator", [BETA0_QUARTIC, BETA0_SQUARED])
    def test_worst_gap_equals_per_frame_maximum(self, presets, denominator):
        grid = uniform_grid(*ver.TRANSFORM_GRID)
        kernel = full_kernel(-1j, grid)
        for cfg in presets.values():
            gaps = []
            for n in range(5):
                mapped = StateSpec(momentum_params(cfg.params, denominator), n)
                for t in ver.EIGHT_TIMES:
                    pos = sample_frame(StateSpec(cfg.params, n), POSITION, grid, t)
                    closed = sample_frame(mapped, POSITION, grid, t)
                    gaps.append(l2_norm(frame_transform(pos, kernel)
                                        - closed.amplitudes, pos.dx))
            got = ver._worst_momentum_gap(cfg.params, ver.EIGHT_TIMES,
                                          denominator)
            assert type(got) is float
            assert got == max(gaps)

    def test_gap_blocks_stay_under_the_cap(self, monkeypatch):
        shapes = []
        real = ver.eval_psi

        def recording(spec, x, t):
            out = real(spec, x, t)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(ver, "eval_psi", recording)
        ver._worst_momentum_gap(preset_config("example1").params,
                                np.linspace(0.0, 1.0, 40), BETA0_QUARTIC)
        cap = oracle.BLOCK_SAMPLES // ver.TRANSFORM_GRID[2]
        assert sorted({shape[0] for shape in shapes}) == [40 % cap, cap]
        assert sum(shape[0] for shape in shapes) == 2 * 5 * 40
