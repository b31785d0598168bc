import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvol import (
    CirculantEmbeddingError,
    FbmConfig,
    TimeGrid,
    fbm_cov,
    fgn_autocov,
    p_variation,
    sample_paths,
)
from fracvol import fbm
from fracvol.cli import main
from fracvol.fbm import _clip_eigenvalues

SRC = Path(__file__).resolve().parents[1] / "src"


def products_se(values):
    """Standard error of a mean of per-path products."""
    return values.std(ddof=1) / np.sqrt(values.shape[0])


class TestCovariance:
    @pytest.mark.parametrize("t,h", [(0.5, 0.3), (1.0, 0.5), (2.0, 0.7)])
    def test_variance_case(self, t, h):
        assert fbm_cov(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-14)

    def test_brownian_case_is_min(self):
        assert fbm_cov(1.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_direct_formula_value(self):
        assert fbm_cov(1.0, 2.0, 0.7) == pytest.approx(2**0.4, rel=1e-14)

    def test_symmetry(self):
        assert fbm_cov(0.3, 1.7, 0.62) == fbm_cov(1.7, 0.3, 0.62)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.1, 1.2])
    def test_hurst_domain(self, h):
        with pytest.raises(ValueError):
            fbm_cov(1.0, 1.0, h)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fbm_cov(-1.0, 1.0, 0.5)

    @pytest.mark.parametrize("h", [0.05, 0.25, 0.5, 0.7, 0.99])
    def test_same_bits_as_the_plain_expression(self, h):
        times = np.linspace(0.0, 2.5, 65)[1:]
        for s, t in [(times[:, None], times[None, :]), (times[7], times), (0.3, 1.7)]:
            s2, t2 = np.asarray(s), np.asarray(t)
            want = 0.5 * (s2 ** (2 * h) + t2 ** (2 * h) - np.abs(t2 - s2) ** (2 * h))
            got = fbm_cov(s, t, h)
            assert type(got) is type(want) and np.asarray(got).tobytes() == want.tobytes()

    def test_matrix_build_holds_two_full_size_arrays(self):
        # the plain expression held three steps x steps arrays at its peak
        times = np.linspace(0.0, 1.0, 513)[1:]
        tracemalloc.start()
        try:
            fbm_cov(times[:, None], times[None, :], 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * times.size**2 * 8 < peak <= 2 * times.size**2 * 8 + 2**18


class TestFgnAutocov:
    @pytest.mark.parametrize("h", [0.2, 0.5, 0.8])
    def test_lag_zero_is_one(self, h):
        assert fgn_autocov(0, h) == pytest.approx(1.0, abs=1e-15)

    def test_brownian_increments_uncorrelated(self):
        assert np.allclose(fgn_autocov(np.arange(1, 10), 0.5), 0.0, atol=1e-15)


class TestCholeskySample:
    def test_single_step_variance(self):
        grid = TimeGrid(0.7, 1)
        cfg = FbmConfig(hurst=0.6, dims=1, seed=2024)
        draws = sample_paths(grid, cfg, 100_000, method="cholesky")[:, 1, 0]
        target = 0.7**1.2
        se = products_se(draws**2)
        assert abs(np.mean(draws**2) - target) <= 3 * se

    def test_brownian_increments_independent(self):
        grid = TimeGrid(1.0, 4)
        cfg = FbmConfig(hurst=0.5, dims=1, seed=5)
        paths = sample_paths(grid, cfg, 20_000, method="cholesky")[:, :, 0]
        inc = np.diff(paths, axis=1)
        prod = inc[:, 0] * inc[:, 2]
        assert abs(prod.mean()) <= 3 * products_se(prod)

    def test_deterministic_given_seed(self):
        grid = TimeGrid(1.0, 16)
        cfg = FbmConfig(hurst=0.7, dims=2, seed=99)
        a = sample_paths(grid, cfg, 1, "cholesky")
        b = sample_paths(grid, cfg, 1, "cholesky")
        assert np.array_equal(a, b)
        c = sample_paths(grid, FbmConfig(hurst=0.7, dims=2, seed=100), 1, "cholesky")
        assert not np.array_equal(a, c)

    def test_components_differ(self):
        grid = TimeGrid(1.0, 8)
        path = sample_paths(grid, FbmConfig(0.7, 2, 1), 1, "cholesky")[0]
        assert not np.array_equal(path[:, 0], path[:, 1])


class TestWoodChanSample:
    def test_deterministic_given_seed(self):
        grid = TimeGrid(1.0, 32)
        cfg = FbmConfig(hurst=0.3, dims=1, seed=7)
        a = sample_paths(grid, cfg, 1)
        b = sample_paths(grid, cfg, 1)
        assert np.array_equal(a, b)

    def test_single_step_grid(self):
        grid = TimeGrid(1.0, 1)
        paths = sample_paths(grid, FbmConfig(0.8, 1, 3), 1)
        assert paths.shape == (1, 2, 1)
        assert paths[0, 0, 0] == 0.0

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_matches_cholesky_covariance(self, h):
        # both samplers target the same law; compare with combined errors
        grid = TimeGrid(1.0, 16)
        n_paths = 10_000
        wc = sample_paths(grid, FbmConfig(h, 1, 11), n_paths, "wood-chan")[:, 1:, 0]
        ch = sample_paths(grid, FbmConfig(h, 1, 12), n_paths, "cholesky")[:, 1:, 0]
        for i, j in itertools.combinations_with_replacement(range(16), 2):
            pw = wc[:, i] * wc[:, j]
            pc = ch[:, i] * ch[:, j]
            se = np.hypot(products_se(pw), products_se(pc))
            assert abs(pw.mean() - pc.mean()) <= 3.5 * se

    def test_self_similarity_proxy(self):
        grid = TimeGrid(2.0, 8)
        h = 0.7
        paths = sample_paths(grid, FbmConfig(h, 1, 21), 10_000, "wood-chan")[:, 1:, 0]
        for i, t in enumerate(grid.times[1:]):
            sq = paths[:, i] ** 2
            assert abs(sq.mean() - t ** (2 * h)) <= 3.5 * products_se(sq)

    def test_stationary_increments_proxy(self):
        grid = TimeGrid(1.0, 8)
        h = 0.7
        paths = sample_paths(grid, FbmConfig(h, 1, 31), 10_000, "wood-chan")[:, :, 0]
        lag = 2
        variances = []
        ses = []
        for start in range(4):
            inc = paths[:, start + lag] - paths[:, start]
            sq = inc**2
            variances.append(sq.mean())
            ses.append(products_se(sq))
        for v, s in zip(variances[1:], ses[1:]):
            assert abs(v - variances[0]) <= 3 * np.hypot(s, ses[0])

    def test_clip_policy(self):
        eigs = np.array([4.0, 1.0, -1e-14])
        clipped = _clip_eigenvalues(eigs)
        assert clipped.min() == 0.0
        with pytest.raises(CirculantEmbeddingError, match="minimum eigenvalue"):
            _clip_eigenvalues(np.array([4.0, -0.5]))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            sample_paths(TimeGrid(1.0, 4), FbmConfig(0.5), 2, method="hosking")


class TestInputValidation:
    @pytest.mark.parametrize("steps", [4.0, True, 0])
    def test_grid_steps_must_be_a_positive_integer(self, steps):
        # 4.0 and True were accepted, and every engine call then failed
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            TimeGrid(1.0, steps)

    @pytest.mark.parametrize("dims", [1.5, 2.0, True, 0])
    def test_dims_must_be_a_positive_integer(self, dims):
        # 1.5 was accepted, and sampling then failed with a bare TypeError
        with pytest.raises(ValueError, match="dims must be an integer >= 1"):
            FbmConfig(0.7, dims)

    @pytest.mark.parametrize("count", [2.5, True])
    def test_path_count_must_be_an_integer(self, count):
        # 2.5 failed in `range` with a bare TypeError
        with pytest.raises(ValueError, match=f"n_paths must be an integer, got {count!r}"):
            sample_paths(TimeGrid(1.0, 4), FbmConfig(0.7), count)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_outside_the_key_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            FbmConfig(0.7, 1, seed)
        assert FbmConfig(0.7, 1, 2**64 - 1).seed == 2**64 - 1

    # the 10^6-step covariance alone needs 7.3 TiB and the stack of 10^11
    # paths 1.5 PiB; numpy's allocation of them failed with a MemoryError
    @pytest.mark.parametrize(
        "steps, count, method, what",
        [
            (10**6, 1, "cholesky", "factoring the 1000000-step covariance"),
            (1024, 10**11, "wood-chan", "a stack of 100000000000 x 1025 x 2 path values"),
            (1024, 10**11, "cholesky", "a stack of 100000000000 x 1025 x 2 path values"),
        ],
    )
    def test_input_too_large_for_memory_rejected_before_allocation(
        self, steps, count, method, what
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{what} needs .* physical memory"):
                sample_paths(TimeGrid(1.0, steps), FbmConfig(0.7, 2), count, method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_factor_build_peak_is_the_one_the_memory_check_assumes(self):
        # the check charges a Cholesky grid 3 steps^2 doubles: numpy's
        # factorization holds the covariance, the factor and a column-major
        # copy of the covariance that it allocates outside Python's allocator,
        # where tracemalloc does not see it, so a fresh process's resident
        # high-water mark measures the peak (VmHWM, not ru_maxrss, which a
        # child inherits from the process that started it).  The factor's
        # untouched zero pages may stay out of it, so the peak reads between 2
        # and 3 steps^2 doubles and, with the libraries' own buffers, up to 3.5
        steps = 2048
        program = (
            "from fracvol import fbm\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(ln.split()[1]) for ln in status if ln[:6] == 'VmHWM:')\n"
            "fbm._cholesky_factor.__wrapped__(1.0, 64, 0.7)\n"
            "base = peak()\n"
            f"fbm._cholesky_factor.__wrapped__(1.0, {steps}, 0.7)\n"
            "print(peak() - base)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        grown = int(done.stdout) * 1024
        assert 2 * steps**2 * 8 < grown < 3.5 * steps**2 * 8


@pytest.fixture
def indefinite_covariance(monkeypatch):
    """`fbm_cov` returns a matrix that is not positive definite."""
    fbm._cholesky_factor.cache_clear()
    monkeypatch.setattr(fbm, "fbm_cov", lambda s, t, hurst: -np.eye(np.size(s)))
    yield
    fbm._cholesky_factor.cache_clear()


@pytest.mark.usefixtures("indefinite_covariance")
class TestCholeskyFailure:
    def test_sampler_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="^fBm covariance factorization failed: "):
            sample_paths(TimeGrid(1.0, 8), FbmConfig(0.7), 2, method="cholesky")

    def test_command_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fbm"
        argv = ["fbm", "--hurst", "0.7", "--steps", "8", "--method", "cholesky", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: fBm covariance factorization failed: ")
        assert not out.exists()


@pytest.mark.parametrize("method", ["wood-chan", "cholesky"])
class TestOneSeed:
    """FbmConfig.seed is the only seed of a draw, and a path does not depend on
    how many are drawn beside it."""

    def test_prefix_of_larger_stack(self, method):
        grid = TimeGrid(1.0, 16)
        cfg = FbmConfig(0.7, 2, 41)
        three = sample_paths(grid, cfg, 3, method).tobytes()
        assert sample_paths(grid, cfg, 5, method)[:3].tobytes() == three
        # 200 streams of at most 64 draws take batch_uniforms' vectorised path
        assert sample_paths(grid, cfg, 100, method)[:3].tobytes() == three

    def test_blocks_move_no_bits(self, method, monkeypatch):
        grid = TimeGrid(1.0, 16)
        cfg = FbmConfig(0.7, 2, 41)
        whole = sample_paths(grid, cfg, 5, method).tobytes()
        monkeypatch.setattr(fbm, "_DRAW_CHUNK", 1)  # one path per block
        assert sample_paths(grid, cfg, 5, method).tobytes() == whole

    def test_seed_changes_paths(self, method):
        grid = TimeGrid(1.0, 16)
        a = sample_paths(grid, FbmConfig(0.7, 2, 41), 3, method)
        b = sample_paths(grid, FbmConfig(0.7, 2, 42), 3, method)
        assert not np.any(np.all(a[:, 1:] == b[:, 1:], axis=1))


def brute_force_p_variation(x, p):
    """Exhaustive dissection maximum; endpoints always included.

    Increments are raised elementwise (the same primitive the implementation
    uses) and summed left to right, so equal dissections give bit-equal sums.
    """
    n = len(x)
    best = 0.0
    for r in range(n - 1):
        for interior in itertools.combinations(range(1, n - 1), r):
            points = [0, *interior, n - 1]
            terms = np.abs(np.diff(x[points])) ** p
            total = 0.0
            for term in terms:
                total += term
            best = max(best, total)
    return best ** (1.0 / p)


class TestPVariation:
    def test_monotone_path_total_variation(self):
        x = np.array([0.0, 0.5, 1.1, 2.0, 3.7])
        assert p_variation(x, 1.0) == pytest.approx(3.7, abs=1e-14)

    def test_two_point_path(self):
        assert p_variation(np.array([1.0, -2.0]), 3.0) == pytest.approx(3.0, rel=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(size=10)
            p = rng.uniform(1.0, 4.0)
            assert p_variation(x, p) == brute_force_p_variation(x, p)

    def test_accepts_sample_path(self):
        # a (steps + 1, dims) path is read at `component`
        path = sample_paths(TimeGrid(1.0, 4), FbmConfig(0.5, 2, 17), 1)[0]
        direct = p_variation(path[:, 1], 2.0)
        assert p_variation(path, 2.0, component=1) == direct

    @given(
        values=st.lists(st.floats(-10, 10), min_size=2, max_size=12),
        p_low=st.floats(1.0, 3.0),
        bump=st.floats(0.1, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_non_increasing_in_p(self, values, p_low, bump):
        x = np.asarray(values)
        assert p_variation(x, p_low) >= p_variation(x, p_low + bump) - 1e-9

    def test_p_domain(self):
        with pytest.raises(ValueError):
            p_variation(np.array([0.0, 1.0]), 0.5)
