import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracvol import (
    FbmConfig,
    TimeGrid,
    build_kernel_matrix,
    fbm_cov,
    hyp2f1,
    kernel_K,
    sample_paths,
)
from fracvol import volterra
from fracvol.pricing import w_increments
from fracvol.volterra import HypergeometricError, transform_increments

mp.mp.dps = 30


def mp_hyp2f1(a, b, c, z):
    return float(mp.hyp2f1(a, b, c, z))


class TestHyp2f1:
    def test_zero_argument(self):
        assert hyp2f1(0.3, -1.2, 0.9, 0.0) == 1.0

    def test_zero_first_parameter(self):
        assert hyp2f1(0.0, 2.5, 1.1, -42.0) == 1.0

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z
        assert hyp2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-13)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (-0.2, 0.2, 1.2, -3.0),
            (-0.45, 0.45, 0.95, -700.0),
            (0.25, -0.25, 0.75, -0.4),
            (1.3, 0.7, 2.4, -12.0),
        ],
    )
    def test_against_high_precision(self, a, b, c, z):
        assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-10)

    def test_positive_argument_rejected(self):
        with pytest.raises(ValueError, match="z <= 0"):
            hyp2f1(0.5, 0.5, 1.5, 0.5)

    def test_nonpositive_integer_c_rejected(self):
        with pytest.raises(ValueError, match="non-positive integer"):
            hyp2f1(0.5, 0.5, -1.0, -1.0)

    def test_kernel_arguments_against_50_digits(self):
        # 2F1(1/2 - H, H - 1/2; H + 1/2; z) as the kernel evaluates it, over H
        # in [0.26, 0.99] with the near-half band and 0.976-0.99 sampled
        # densely, and z down to -1e24, where the quadrature nodes reach.
        # scipy 1.17.1 erred by at most 1.9e-15 here (at H = 0.983,
        # z = -2.37); the bound leaves a margin of 5x.
        hursts = np.concatenate(
            [np.linspace(0.26, 0.99, 16), np.linspace(0.476, 0.524, 7), [0.976, 0.98, 0.985]]
        )
        z = np.concatenate([-np.logspace(-8, 24, 97), [0.0]])
        worst = 0.0
        with mp.workdps(50):
            for h in hursts:
                a, b, c = 0.5 - h, h - 0.5, h + 0.5
                got = volterra._hyp2f1(a, b, c, z)
                for zk, value in zip(z, got):
                    ref = mp.hyp2f1(a, b, c, zk)
                    worst = max(worst, float(abs((value - ref) / ref)))
        assert worst <= 1e-14

    def test_non_finite_value_raises(self):
        def overflowing(a, b, c, z):
            return np.where(np.asarray(z) < -3.0, np.inf, 1.0)

        with mock.patch.object(volterra.special, "hyp2f1", overflowing):
            assert hyp2f1(-0.2, 0.2, 1.2, -2.0) == 1.0
            with pytest.raises(HypergeometricError, match=r"not finite at z = -4\.0"):
                hyp2f1(-0.2, 0.2, 1.2, -4.0)
            with pytest.raises(HypergeometricError, match="not finite"):
                volterra._kernel_matrix_cached.__wrapped__(1.0, 16, 0.7)


class TestKernel:
    def test_zero_beyond_target(self):
        assert kernel_K(1.0, 1.0, 0.7) == 0.0
        assert kernel_K(1.0, 1.5, 0.7) == 0.0

    def test_brownian_case_is_one(self):
        assert kernel_K(1.0, 0.5, 0.5) == 1.0
        assert kernel_K(0.9, 0.1, 0.5) == 1.0

    def test_source_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_K(1.0, 0.0, 0.7)

    def test_high_precision_value(self):
        # frozen from the 30-digit evaluation of the defining formula, c_H included
        assert kernel_K(1.0, 0.5, 0.7) == pytest.approx(0.97714049739361676, abs=1e-8)

    def test_matches_high_precision_formula(self):
        for t, s, h in [(1.0, 0.25, 0.7), (0.8, 0.3, 0.3), (2.0, 1.9, 0.6)]:
            c_h = mp.sqrt(2 * h * mp.gamma(1.5 - h) * mp.gamma(h + 0.5) / mp.gamma(2 - 2 * h))
            ref = float(
                c_h
                * (t - s) ** (h - 0.5)
                / mp.gamma(h + 0.5)
                * mp.hyp2f1(0.5 - h, h - 0.5, h + 0.5, 1 - t / s)
            )
            assert kernel_K(t, s, h) == pytest.approx(ref, rel=1e-10)


class TestKernelMatrix:
    def test_brownian_entries_are_one(self):
        km = build_kernel_matrix(TimeGrid(1.0, 8), 0.5)
        rows, cols = np.tril_indices(8)
        assert np.array_equal(km.entries[rows, cols], np.ones(rows.size))

    @given(
        steps=st.integers(1, 64),
        horizon=st.floats(0.25, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_half_hurst_kernel_is_the_cumulative_sum(self, steps, horizon, seed):
        grid = TimeGrid(horizon, steps)
        km = build_kernel_matrix(grid, 0.5)
        assert np.array_equal(km.entries, np.tril(np.ones((steps, steps))))
        dw = np.random.default_rng(seed).standard_normal((3, steps, 2)) * math.sqrt(grid.dt)
        b = transform_increments(dw, km)
        assert np.array_equal(b[:, 0], np.zeros((3, 2)))
        assert np.max(np.abs(b[:, 1:] - np.cumsum(dw, axis=1))) <= 1e-14

    def test_strictly_lower_triangular_support(self):
        km = build_kernel_matrix(TimeGrid(1.0, 6), 0.7)
        assert np.array_equal(km.entries, np.tril(km.entries))
        assert np.all(np.diag(km.entries) > 0)

    def test_interior_entries_match_midpoint_kernel(self):
        grid = TimeGrid(1.0, 6)
        km = build_kernel_matrix(grid, 0.7)
        dt = grid.dt
        for i in range(6):
            for j in range(1, i):
                mid = (j + 0.5) * dt
                assert km.entries[i, j] == pytest.approx(
                    kernel_K(grid.times[i + 1], mid, 0.7), rel=1e-12
                )

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_edge_entries_match_quadrature_oracle(self, h):
        # singular cells carry the cell root mean square of the kernel
        grid = TimeGrid(1.0, 6)
        km = build_kernel_matrix(grid, h)
        dt = grid.dt
        for i in [1, 3, 5]:
            t = grid.times[i + 1]
            first, _ = quad(lambda s: kernel_K(t, s, h) ** 2, 0.0, dt, limit=200)
            assert km.entries[i, 0] == pytest.approx(math.sqrt(first / dt), rel=2e-6)
            diag, _ = quad(lambda s: kernel_K(t, s, h) ** 2, t - dt, t, limit=200)
            assert km.entries[i, i] == pytest.approx(math.sqrt(diag / dt), rel=2e-6)

    @pytest.mark.parametrize("hurst", [0.976, 0.99])
    def test_builds_close_to_one(self, hurst):
        # the hand-summed series these entries once came from did not converge
        entries = build_kernel_matrix(TimeGrid(1.0, 16), hurst).entries
        assert np.all(np.isfinite(entries))
        assert np.all(np.diag(entries) > 0)

    def test_cache_returns_same_object(self):
        a = build_kernel_matrix(TimeGrid(1.0, 16), 0.7)
        b = build_kernel_matrix(TimeGrid(1.0, 16), 0.7)
        assert a is b

    def test_oversized_grid_rejected_before_allocation(self):
        # 2^20 steps need 8 TiB for the matrix alone
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                build_kernel_matrix(TimeGrid(1.0, 2**20), 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    # a slice of 1 cell makes each row its own slice, and one of 7 cells
    # every row past the third; the larger slices take whole runs of rows.
    # Each build is made on the calling thread alone and with one and two
    # pool threads beside it, on grids below the pool's crossover (96 steps)
    # and above it
    @pytest.mark.parametrize(
        "steps, chunks",
        [(1, (1, 7)), (2, (1, 7)), (3, (1, 7)), (5, (1, 7)), (64, (1, 7, 128)), (257, (1, 7, 2048)),
         (96, ()), (128, ()), (1024, ()), (2048, ())],
    )
    @pytest.mark.parametrize("hurst", [0.51, 0.55, 0.85, 0.3, 0.49, 0.5, 0.7, 0.976])
    def test_banded_build_matches_one_pass_build_bit_for_bit(self, steps, chunks, hurst):
        expected = _one_pass_kernel(1.0, steps, hurst)
        for chunk in chunks + (volterra._SLICE_CELLS,):
            for helpers in (0, 1, 2):
                with mock.patch.object(volterra, "_SLICE_CELLS", chunk), \
                        mock.patch.object(volterra, "_build_helpers", return_value=helpers):
                    got = volterra._kernel_matrix_cached.__wrapped__(1.0, steps, hurst)
                np.testing.assert_array_equal(got.entries, expected)

    # the times of these grids are not binary fractions, so a gap formed as
    # (i - j + 1/2) dt in place of t - s would differ from it in thousands of cells
    @pytest.mark.parametrize("horizon, steps", [(0.3, 1000), (2.5, 129), (1 / 3, 300), (7.0, 130)])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.85])
    def test_build_off_binary_fraction_times_matches_one_pass_build(self, horizon, steps, hurst):
        expected = _one_pass_kernel(horizon, steps, hurst)
        for helpers in (0, 1, 2):
            with mock.patch.object(volterra, "_build_helpers", return_value=helpers):
                got = volterra._kernel_matrix_cached.__wrapped__(horizon, steps, hurst)
            np.testing.assert_array_equal(got.entries, expected)

    def test_build_holds_the_matrix_and_one_band(self):
        # a 1024-step build traced 55.6 MiB in one pass over the triangle;
        # tracemalloc traces the pool's threads too
        steps = 1024
        for helpers in (0, 1, 2):
            tracemalloc.start()
            try:
                with mock.patch.object(volterra, "_build_helpers", return_value=helpers):
                    volterra._kernel_matrix_cached.__wrapped__(1.0, steps, 0.7)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < steps**2 * 8 + 12 * 2**20, helpers

    def test_pool_starts_above_the_crossover(self):
        # steps (steps + 1) / 2 cells: 8128 at 127 steps, 8256 at 128
        cores = len(os.sched_getaffinity(0))
        assert [volterra._build_helpers(steps) for steps in (1, 16, 127)] == [0, 0, 0]
        assert [volterra._build_helpers(steps) for steps in (128, 1024)] == [cores - 1] * 2

    def test_small_build_starts_no_thread(self):
        # c09's 16-step grid stays on the calling thread whatever the cores
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("thread")):
            built = volterra._kernel_matrix_cached.__wrapped__(1.0, 16, 0.7)
        np.testing.assert_array_equal(built.entries, _one_pass_kernel(1.0, 16, 0.7))

    def test_pooled_build_joins_its_threads(self):
        start = threading.Thread.start
        before = threading.active_count()
        with mock.patch.object(volterra, "_build_helpers", return_value=2), \
                mock.patch.object(threading.Thread, "start", autospec=True,
                                  side_effect=start) as started:
            volterra._kernel_matrix_cached.__wrapped__(1.0, 256, 0.7)
        assert started.call_count >= 1
        assert threading.active_count() == before

    def test_pooled_build_under_fast_thread_switching(self):
        # five threads on the shared slice iterator, switching every
        # microsecond: a slice that no thread took would leave its cells unset
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(volterra, "_build_helpers", return_value=4):
                got = volterra._kernel_matrix_cached.__wrapped__(1.0, 300, 0.7)
        finally:
            sys.setswitchinterval(switch)
        np.testing.assert_array_equal(got.entries, _one_pass_kernel(1.0, 300, 0.7))

    def test_pooled_build_raises_the_serial_builds_error(self):
        # 2F1 is NaN where z < -600, which at 1024 steps first happens in row
        # 901 (z = 1 - t_i / s_1 at the second midpoint), a late row block: the
        # pooled build names the same first argument in row order
        hyp2f1 = volterra.special.hyp2f1

        def nan_late(a, b, c, z, out=None):
            values = np.where(np.asarray(z) < -600.0, np.nan, hyp2f1(a, b, c, z))
            if out is None:
                return values
            out[...] = values
            return out

        grid = TimeGrid(1.0, 1024)
        z = 1.0 - grid.times[1:] / (grid.times[1] + 0.5 * grid.dt)
        first = float(z[np.argmax(z < -600.0)])
        messages = []
        for helpers in (0, 1, 2):
            with mock.patch.object(volterra.special, "hyp2f1", nan_late), \
                    mock.patch.object(volterra, "_build_helpers", return_value=helpers), \
                    pytest.raises(HypergeometricError) as raised:
                volterra._kernel_matrix_cached.__wrapped__(1.0, 1024, 0.7)
            messages.append(str(raised.value))
        assert messages == [messages[0]] * 3
        assert messages[0].endswith(f"is not finite at z = {first!r}")

    def test_pooled_build_raises_the_first_columns_error(self):
        # 2F1 is NaN only where z < -1e6, which at 1024 steps only the first
        # column's quadrature nodes reach (the interior's least z is -681.7):
        # every build names the first of them in C order, row 0's first node
        hyp2f1 = volterra.special.hyp2f1

        def nan_far(a, b, c, z, out=None):
            values = np.where(np.asarray(z) < -1e6, np.nan, hyp2f1(a, b, c, z))
            if out is None:
                return values
            out[...] = values
            return out

        for helpers in (0, 1, 2):
            with mock.patch.object(volterra.special, "hyp2f1", nan_far), \
                    mock.patch.object(volterra, "_build_helpers", return_value=helpers), \
                    pytest.raises(HypergeometricError) as raised:
                volterra._kernel_matrix_cached.__wrapped__(1.0, 1024, 0.7)
            assert str(raised.value).endswith("is not finite at z = -2573485501354568.0"), helpers


def _one_pass_kernel(horizon: float, steps: int, hurst: float) -> np.ndarray:
    """Kernel entries as built before the row blocks, in one pass over the triangle."""
    grid = TimeGrid(horizon, steps)
    dt = grid.dt
    targets = grid.times[1:]
    mids = grid.times[:-1] + 0.5 * dt
    entries = np.zeros((steps, steps))
    rows, cols = np.tril_indices(steps)
    if abs(hurst - 0.5) < volterra._NEAR_HALF_BAND:
        entries[rows, cols] = volterra._kernel_values(targets[rows], mids[cols], hurst)
        return entries
    interior = (cols > 0) & (cols < rows)
    entries[rows[interior], cols[interior]] = volterra._kernel_values(
        targets[rows[interior]], mids[cols[interior]], hurst
    )
    # first column: cells (0, dt]
    entries[:, 0] = np.sqrt(volterra._cell_mean_square(targets, 0.0, dt, hurst))
    if steps > 1:
        # diagonal cells (t_i - dt, t_i]
        diag_sq = volterra._cell_mean_square(targets[1:], targets[1:] - dt, targets[1:], hurst)
        entries[np.arange(1, steps), np.arange(1, steps)] = np.sqrt(diag_sq)
    return entries


class TestDuTransform:
    """`transform_increments` on the increments of one path (steps + 1, d)."""

    def test_identity_at_half(self):
        grid = TimeGrid(1.0, 64)
        w = brownian_path(grid, seed=4)
        km = build_kernel_matrix(grid, 0.5)
        b = transform_path(w, km)
        assert np.max(np.abs(b - w)) <= 1e-12

    def test_zero_in_zero_out(self):
        grid = TimeGrid(1.0, 16)
        km = build_kernel_matrix(grid, 0.7)
        assert np.array_equal(transform_increments(np.zeros((16, 2)), km), np.zeros((17, 2)))

    def test_linearity(self):
        grid = TimeGrid(1.0, 32)
        km = build_kernel_matrix(grid, 0.7)
        w1 = brownian_path(grid, seed=41)
        w2 = brownian_path(grid, seed=42)
        lhs = transform_path(2.5 * w1 + w2, km)
        rhs = 2.5 * transform_path(w1, km) + transform_path(w2, km)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_causality(self):
        grid = TimeGrid(1.0, 16)
        km = build_kernel_matrix(grid, 0.7)
        w = brownian_path(grid, seed=43)
        cut = 9
        bumped = w.copy()
        bumped[cut + 1 :] += 3.0
        b0 = transform_path(w, km)
        b1 = transform_path(bumped, km)
        assert np.array_equal(b0[: cut + 1], b1[: cut + 1])
        assert not np.array_equal(b0[cut + 1 :], b1[cut + 1 :])

    def test_grid_mismatch_rejected(self):
        km = build_kernel_matrix(TimeGrid(1.0, 8), 0.7)
        w = brownian_path(TimeGrid(1.0, 16), seed=1)
        with pytest.raises(ValueError, match="increments on 16 steps .* kernel on 8 steps"):
            transform_path(w, km)

    def test_covariance_fidelity(self):
        h, steps, n_paths = 0.7, 16, 20_000
        grid = TimeGrid(1.0, steps)
        scenario_like = _FakeScenario(grid, dims=1)
        dw = w_increments(scenario_like, seed=123, start=0, count=n_paths)
        km = build_kernel_matrix(grid, h)
        b = transform_increments(dw, km)[:, 1:, 0]
        _assert_covariance_close(b, grid, h)

    @pytest.mark.parametrize("h", [0.55, 0.7, 0.85])
    def test_row_variance_is_fbm_variance(self, h):
        # Var B(t_i) = sum_j K[i, j]^2 dt for unit Brownian increments, and a
        # standard fBm has t_i^(2H); rows >= 16 are clear of the coarse start
        grid = TimeGrid(1.0, 256)
        entries = build_kernel_matrix(grid, h).entries
        ratio = np.sum(entries**2, axis=1) * grid.dt / grid.times[1:] ** (2 * h)
        assert np.all(np.abs(ratio[16:] - 1.0) <= 0.01)

    def test_covariance_fidelity_low_hurst(self):
        h, steps, n_paths = 0.3, 16, 20_000
        grid = TimeGrid(1.0, steps)
        scenario_like = _FakeScenario(grid, dims=1)
        dw = w_increments(scenario_like, seed=321, start=0, count=n_paths)
        km = build_kernel_matrix(grid, h)
        b = transform_increments(dw, km)[:, 1:, 0]
        _assert_covariance_close(b, grid, h)


class _FakeScenario:
    def __init__(self, grid, dims):
        self.grid = grid
        self.dims = dims


def brownian_path(grid: TimeGrid, seed: int) -> np.ndarray:
    """One H = 1/2 Wood–Chan path, shape (steps + 1, 1)."""
    return sample_paths(grid, FbmConfig(0.5, 1, seed), 1)[0]


def transform_path(w: np.ndarray, km) -> np.ndarray:
    """The transform (steps + 1, d) of one path (steps + 1, d) that starts at 0."""
    return transform_increments(np.diff(w, axis=0), km)


def _assert_covariance_close(b, grid, h):
    times = grid.times[1:]
    n = times.size
    for i in range(n):
        for j in range(i, n):
            prod = b[:, i] * b[:, j]
            emp = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(prod.shape[0])
            target = fbm_cov(times[i], times[j], h)
            if i < 2 or j < 2:
                assert abs(emp - target) <= max(3.5 * se, 0.05 * abs(target))
            else:
                assert abs(emp - target) <= 3.5 * se
