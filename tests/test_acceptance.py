"""End-to-end acceptance checks, one test per numbered criterion.

Tolerances and sample sizes are pinned here.  Every test prints a single
`[criterion NN] ...` line (visible with -v plus -s, and in failure output).

Two criteria test what the model promises rather than a stronger property:

* 05 (viability): unprojected Euler paths of the worked example stay inside
  K(xi) only on the faces the hyperplane-mode checker certifies.  The first
  face is not certified (its diffusion column is transversal there), and
  about 60 % of unprojected paths cross it; with the per-path projection that
  pricing uses, no face is crossed.
* 08 (martingale identity): the weighted discounted price is an exact discrete
  martingale, but its terminal value has an explosive second moment (the
  volatility is unbounded above and rises with the price), so its sample mean
  has no usable standard error.  The test checks the identity on the process
  stopped when the volatility first exceeds a fixed level, whose variance is
  finite, after verifying that its path-level reconstruction reproduces the
  program's own weights and prices.

The figures behind both choices are recorded in CHANGES.md.
"""

import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest

from fracvol import (
    FbmConfig,
    MCConfig,
    Call,
    TimeGrid,
    agreement_zscore,
    bs_reference_price,
    build_kernel_matrix,
    check_viability_conditions,
    fbm_cov,
    hyp2f1,
    p_variation,
    physical_terminal_sample,
    price_physical_weighted,
    price_riskneutral,
    sample_paths,
    xi_normalizer,
)
from fracvol.cli import main
from fracvol.pricing import _constraint_data, w_increments, xi_draws
from fracvol.rde import euler_paths
from fracvol.scenario import constant_vol_scenario, section4_scenario
from fracvol.volterra import transform_increments

from test_fbm import brute_force_p_variation


def report(num, text):
    print(f"[criterion {num:02d}] {text}")


def product_se(values):
    return values.std(ddof=1) / math.sqrt(values.shape[0])


def test_c01_normalizer_reproduction():
    start = time.perf_counter()
    value = xi_normalizer(3, 1.0, 1.0)
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(15.7604, abs=1e-3)
    assert elapsed < 1.0
    report(1, f"normalizer {value:.6f} within 1e-3 of 15.7604 in {elapsed:.3f}s: PASS")


def test_c02_fbm_covariance_both_samplers():
    start = time.perf_counter()
    seed = 202
    grid = TimeGrid(1.0, 8)
    times = grid.times[1:]
    worst = 0.0
    for h in (0.3, 0.5, 0.7):
        for method in ("wood-chan", "cholesky"):
            b = sample_paths(grid, FbmConfig(h, 1, seed), 20_000, method)[:, 1:, 0]
            for i, j in itertools.combinations_with_replacement(range(8), 2):
                prod = b[:, i] * b[:, j]
                z = abs(prod.mean() - fbm_cov(times[i], times[j], h)) / product_se(prod)
                worst = max(worst, z)
                assert z <= 3.0, f"{method} H={h} entry ({i},{j}) off by {z:.2f} SE"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"max |z| {worst:.2f} over 3 Hurst x 2 samplers in {elapsed:.1f}s: PASS")


def test_c03_kernel_identity_at_half():
    grid = TimeGrid(1.0, 256)
    w = sample_paths(grid, FbmConfig(0.5, 1, 77), 1)
    km = build_kernel_matrix(grid, 0.5)
    gap = float(np.max(np.abs(transform_increments(np.diff(w, axis=1), km) - w)))
    assert gap <= 1e-12
    report(3, f"transform at hurst 1/2 is the identity to {gap:.2e}: PASS")


class _GridOnly:
    def __init__(self, grid, dims):
        self.grid = grid
        self.dims = dims


def test_c04_transform_covariance_fidelity():
    seed, h, steps, n_paths = 12, 0.7, 64, 20_000
    grid = TimeGrid(1.0, steps)
    dw = w_increments(_GridOnly(grid, 1), seed, 0, n_paths)
    km = build_kernel_matrix(grid, h)
    b = transform_increments(dw, km)[:, 1:, 0]
    times = grid.times[1:]
    worst_z = 0.0
    worst_rel = 0.0
    for i in range(steps):
        prods = b[:, i : i + 1] * b
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(n_paths)
        target = fbm_cov(times[i], times, h)
        z = np.abs(emp - target) / se
        rel = np.abs(emp - target) / np.abs(target)
        for j in range(i, steps):
            if i < 2 or j < 2:
                worst_rel = max(worst_rel, rel[j])
                assert rel[j] <= 0.05, f"entry ({i},{j}) off by {rel[j]:.3f} relative"
            else:
                worst_z = max(worst_z, z[j])
                assert z[j] <= 3.0, f"entry ({i},{j}) off by {z[j]:.2f} SE"
    report(
        4,
        f"transform covariance: max |z| {worst_z:.2f} away from the first two "
        f"times, max rel {worst_rel:.3f} there: PASS",
    )


def _certified_faces(sc):
    """Faces of K(xi) that pass the hyperplane-mode check at every xi probe of
    the scenario check that pricing runs (the cutoff and half of it)."""
    law = sc.xi
    certified = None
    for xi in (law.cutoff, 0.5 * law.cutoff):
        checked = check_viability_conditions(
            sc.coefficients, sc.polyhedron(xi), xi, mode="hyperplane"
        )
        passed = {f.face for f in checked.faces if f.status == "pass"}
        certified = passed if certified is None else certified & passed
    return sorted(certified)


def _face_margins(sc, xi, b, project):
    """Smallest slack <h_k, U> - xi of each path on each face k, shape (paths, faces).

    With `project`, every step is projected onto the path's own K(xi), one
    constraint row per path, exactly as pricing does.
    """
    constraint = _constraint_data(sc, xi) if project else None
    states = euler_paths(
        sc.coefficients,
        xi,
        np.diff(b, axis=1),
        sc.initial_state,
        sc.grid.dt,
        project_onto=constraint,
    )
    vol = states @ sc.market.projections.T
    return np.min(vol - xi[:, None, None], axis=1)


def test_c05_viability_of_worked_example_paths():
    seed, n_paths = 1, 1000
    fine_steps = 2**10
    fine = section4_scenario(steps=fine_steps, seed=seed)
    certified = _certified_faces(fine)
    assert certified, "the hyperplane-mode checker certifies no face of K(xi)"
    xi = xi_draws(fine.xi, seed, 0, n_paths)
    # one fBm path per sample, drawn on the finest grid and subsampled for the
    # coarser one (as rde.convergence_probe does), so both grids see the same paths
    b_fine = sample_paths(fine.grid, FbmConfig(fine.hurst, 2, seed), n_paths, "wood-chan")
    runs = {}
    for steps in (2**8, 2**10):
        sc = section4_scenario(steps=steps, seed=seed)
        b = b_fine[:, :: fine_steps // steps]
        threshold = -1e-2 * (1.0 / steps) ** 0.7
        free = _face_margins(sc, xi, b, project=False)
        projected = _face_margins(sc, xi, b, project=True)
        runs[steps] = (free, projected, threshold)

    for steps, (free, projected, threshold) in runs.items():
        crossed = np.any(free[:, certified] < threshold, axis=1)
        assert not crossed.any(), (
            f"{crossed.mean():.1%} of unprojected paths cross a certified face "
            f"{certified} at dt = 1/{steps} (worst margin {free[:, certified].min():.3e})"
        )
        assert projected.min() >= threshold, (
            f"projected paths leave K(xi) by {-projected.min():.3e} at dt = 1/{steps}"
        )
    assert runs[2**10][0][:, certified].min() >= runs[2**8][0][:, certified].min()

    uncertified = [k for k in range(fine.dims) if k not in certified]
    exits = "; ".join(
        f"face {k} crossed by {np.mean(runs[2**8][0][:, k] < runs[2**8][2]):.1%} / "
        f"{np.mean(runs[2**10][0][:, k] < runs[2**10][2]):.1%} of paths, worst "
        f"{runs[2**8][0][:, k].min():.3f} / {runs[2**10][0][:, k].min():.3f}"
        for k in uncertified
    )
    report(
        5,
        f"unprojected Euler paths at 2^-8 / 2^-10 stay in certified faces {certified} "
        f"(min margin {min(r[0][:, certified].min() for r in runs.values()):.2e}); "
        f"uncertified: {exits or 'none'}; projected paths stay in every face "
        f"(min margin {min(r[1].min() for r in runs.values()):.1e}): PASS",
    )


BOX = ([-1.0, -3.0], [4.0, 3.0])


def test_c06_condition_checker_modes():
    sc = section4_scenario(steps=16)
    xi = 0.8
    cone = check_viability_conditions(
        sc.coefficients, sc.polyhedron(xi), xi, mode="cone", box=BOX
    )
    assert cone.passed
    assert cone.exact_for_affine
    hyper = check_viability_conditions(
        sc.coefficients, sc.polyhedron(xi), xi, mode="hyperplane", box=BOX
    )
    assert not hyper.passed
    assert hyper.faces[0].status == "fail"
    assert "diffusion column 0" in hyper.faces[0].worst_kind
    assert hyper.faces[1].status == "pass"
    report(
        6,
        "cone mode certified on both faces, hyperplane mode reports the "
        f"first-face violation ({hyper.faces[0].worst_violation:.2f}): PASS",
    )


@pytest.fixture(scope="module")
def weighted_terminal_run():
    sc = section4_scenario(steps=2**8, seed=11)
    start = time.perf_counter()
    terminal, weight, breached = physical_terminal_sample(
        sc, MCConfig(paths=100_000, seed=11)
    )
    elapsed = time.perf_counter() - start
    assert not breached.any()
    return sc, terminal, weight, elapsed


def test_c07_weight_mean_one(weighted_terminal_run):
    _, _, weight, elapsed = weighted_terminal_run
    mean = weight.mean()
    se = product_se(weight)
    z = (mean - 1.0) / se
    assert abs(z) <= 3.0
    assert elapsed < 120.0
    report(7, f"terminal weight mean {mean:.4f} (z = {z:+.2f}) in {elapsed:.0f}s: PASS")


# Volatility level at which c08 stops the weighted discounted prices.  Before
# the stop |sigma + theta| <= STOP_LEVEL + 0.95 / xi, so the stopped value has
# finite variance (E exp(c / xi^2) is finite for the singular xi law), while
# about a quarter of the worked example's paths stop before the horizon.
STOP_LEVEL = 5.0


@pytest.fixture(scope="module")
def stopped_discounted_run(weighted_terminal_run):
    """Rebuild the physical estimator's paths of the c07/c08 run batch by batch.

    Returns the unstopped terminal prices and weights, computed from the
    physical estimator's draws by a path-major Euler loop (`euler_paths`) and
    the market formulas written out, which c08 compares with the estimator's
    own within 1e-12, the weighted discounted prices
    w(tau) exp(-r tau) S(tau) stopped at tau, the first grid time at which
    some volatility component exceeds STOP_LEVEL (the horizon if none does),
    and the fraction of paths stopped before the horizon.
    """
    sc, terminal, _, _ = weighted_terminal_run
    mc = MCConfig(paths=terminal.shape[0], seed=sc.seed)
    market, dt, n = sc.market, sc.grid.dt, sc.grid.steps
    km = build_kernel_matrix(sc.grid, sc.hurst)
    parts = []
    for start in range(0, mc.paths, MCConfig.batch_size):
        count = min(MCConfig.batch_size, mc.paths - start)
        xi = xi_draws(sc.xi, mc.seed, start, count)
        dw = w_increments(sc, mc.seed, start, count)
        db = np.diff(transform_increments(dw, km), axis=1)
        states = euler_paths(
            sc.coefficients,
            xi,
            db,
            sc.initial_state,
            dt,
            project_onto=_constraint_data(sc, xi) if mc.project else None,
        )
        vol = states @ market.projections.T
        v_left = vol[:, :-1, :]
        # market price of risk at the left grid point t_i, which sees only dw_0 .. dw_{i-1}
        th = (market.rate - market.drifts) / v_left
        log_incr = (market.drifts - 0.5 * v_left**2) * dt + v_left * dw
        weight = np.exp(
            np.sum(th * dw, axis=(1, 2)) - 0.5 * dt * np.sum(th * th, axis=(1, 2))
        )
        prices = market.initial_prices * np.exp(np.sum(log_incr, axis=1))

        over = np.max(vol, axis=2) > STOP_LEVEL
        stop = np.where(over.any(axis=1), np.argmax(over, axis=1), n)
        live = (np.arange(n)[None, :] < stop[:, None])[:, :, None]
        stopped_weight = np.exp(
            np.sum(th * dw * live, axis=(1, 2))
            - 0.5 * dt * np.sum(th * th * live, axis=(1, 2))
        )
        stopped_prices = market.initial_prices * np.exp(np.sum(log_incr * live, axis=1))
        discounted = (
            stopped_weight[:, None]
            * np.exp(-market.rate * sc.grid.times[stop])[:, None]
            * stopped_prices
        )
        parts.append((prices, weight, discounted, stop < n))
    return tuple(np.concatenate(p) for p in zip(*parts))


def test_c08_weighted_discounted_prices(weighted_terminal_run, stopped_discounted_run):
    sc, terminal, weight, _ = weighted_terminal_run
    prices, rebuilt_weight, stopped, early = stopped_discounted_run
    # the stopped statistic is built from the program's own weights and prices
    np.testing.assert_allclose(prices, terminal, rtol=1e-12)
    np.testing.assert_allclose(rebuilt_weight, weight, rtol=1e-12)

    discount = math.exp(-sc.market.rate * sc.grid.horizon)
    lines = []
    zs = []
    for k in range(2):
        spot = sc.market.initial_prices[k]
        values = stopped[:, k]
        z = (values.mean() - spot) / product_se(values)
        zs.append(z)
        unstopped = weight * discount * terminal[:, k]
        z_unstopped = (unstopped.mean() - spot) / product_se(unstopped)
        lines.append(
            f"asset {k + 1}: mean {values.mean():.4f} z = {z:+.2f} "
            f"(unstopped {unstopped.mean():.4f}, z = {z_unstopped:+.2f})"
        )
    for k, z in enumerate(zs):
        assert abs(z) <= 3.0, (
            f"weighted discounted price of asset {k + 1}, stopped when the "
            f"volatility first exceeds {STOP_LEVEL:g}, is {z:+.2f} sample SEs "
            "from spot; the measure change does not make it a martingale"
        )
    report(
        8,
        f"weighted discounted prices stopped at volatility {STOP_LEVEL:g} "
        f"({early.mean():.0%} of paths stop early): " + "; ".join(lines) + ": PASS",
    )


def test_c09_degenerate_black_scholes():
    sc = constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.1, 0.02), steps=16, seed=71)
    mc = MCConfig(paths=100_000, seed=71)
    worst = 0.0
    for asset, sigma in ((0, 0.5), (1, 0.2)):
        target = bs_reference_price(1.0, 1.0, sc.market.rate, sigma, 1.0, "call")
        for pricer in (price_physical_weighted, price_riskneutral):
            res = pricer(Call(asset, 1.0), sc, mc)
            z = (res.estimate - target) / res.stderr
            worst = max(worst, abs(z))
            assert abs(z) <= 3.0
    report(9, f"both estimators within 3 SE of the closed form (max |z| {worst:.2f}): PASS")


def test_c10_estimator_agreement_at_the_money():
    sc = section4_scenario(steps=2**8, seed=21)
    mc = MCConfig(paths=50_000, seed=21)
    start = time.perf_counter()
    physical = price_physical_weighted(Call(0, 1.0), sc, mc)
    riskneutral = price_riskneutral(Call(0, 1.0), sc, mc)
    elapsed = time.perf_counter() - start
    z = agreement_zscore(physical, riskneutral)
    assert abs(z) <= 3.0
    assert elapsed < 300.0
    report(
        10,
        f"at-the-money call {physical.estimate:.4f} vs {riskneutral.estimate:.4f} "
        f"(z = {z:+.2f}) in {elapsed:.0f}s: PASS",
    )


def test_c11_p_variation_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        length = rng.integers(2, 13)
        x = rng.normal(size=length)
        p = rng.uniform(1.0, 4.0)
        assert p_variation(x, p) == brute_force_p_variation(x, p)
    report(11, "dynamic program equals exhaustive dissection on 200 paths: PASS")


def test_c12_hypergeometric_accuracy_grid():
    mp.mp.dps = 40
    worst = 0.0
    for h in np.linspace(0.56, 0.94, 10):
        a, b, c = 0.5 - h, h - 0.5, h + 0.5
        for z in np.linspace(-1000.0, 0.0, 10):
            ours = hyp2f1(a, b, c, z)
            ref = float(mp.hyp2f1(a, b, c, z))
            rel = abs(ours - ref) / abs(ref)
            worst = max(worst, rel)
            assert rel <= 1e-10
    report(12, f"hypergeometric grid max relative error {worst:.2e}: PASS")


def test_c13_reproduction_bundle_determinism(tmp_path):
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            ["reproduce-section4", "--seed", "20240", "--paths", "3", "--out", str(out)]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        blobs.append([(f, (out / f).read_bytes()) for f in files])
    assert blobs[0] == blobs[1]
    report(13, f"two reproduction bundles byte-identical ({len(blobs[0])} files): PASS")
