import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fracvol import (
    ConstantXi,
    ModelCoefficients,
    SingularXi,
    eval_mu,
    eval_sigma,
    xi_inverse_cdf,
    xi_normalizer,
)
from fracvol import coefficients
from fracvol.pricing import xi_draws
from fracvol.scenario import section4_scenario


class TestNormalizer:
    def test_reference_value(self):
        assert xi_normalizer(3, 1.0, 1.0) == pytest.approx(15.7604, abs=1e-3)

    def test_vanishing_scale_tends_to_uniform(self):
        # the residual mass deficit near zero is O(scale^(1/3))
        assert xi_normalizer(3, 1e-9, 1.0) == pytest.approx(1.0, abs=5e-3)

    def test_against_riemann_oracle(self):
        step = 1e-6
        nodes = (np.arange(1_000_000) + 0.5) * step
        riemann = np.sum(np.exp(-1.0 / nodes**2)) * step
        assert xi_normalizer(2, 1.0, 1.0) == pytest.approx(1.0 / riemann, rel=1e-6)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 1.0, 1.0), (3, -1.0, 1.0), (3, 1.0, 0.0), (3.0, 1.0, 1.0),
            (3, math.inf, 1.0), (3, 1.0, math.inf), (3, math.nan, 1.0),
        ],
    )
    def test_parameter_domain(self, args):
        with pytest.raises(ValueError):
            xi_normalizer(*args)


def _reference_integral(exponent: int, scale: float, cutoff: float) -> mpmath.mpf:
    """The integral of exp(-scale / x^exponent) over (0, cutoff] at 40 digits:
    u = scale / x^exponent turns it into scale^(1/p) / p * Gamma(-1/p, scale / cutoff^p)."""
    with mpmath.workdps(40):
        p, s, c = mpmath.mpf(exponent), mpmath.mpf(scale), mpmath.mpf(cutoff)
        return s ** (1 / p) / p * mpmath.gammainc(-1 / p, s / c**p)


class TestNormalizerAgainstReference:
    @pytest.mark.parametrize("args", [(3, 1.0, 1.0), (2, 0.1, 0.5), (6, 10.0, 4.0)])
    def test_reference_is_the_integral(self, args):
        # the closed form against mpmath's own quadrature, on the presets
        with mpmath.workdps(40):
            direct = mpmath.quad(
                lambda x: mpmath.exp(-args[1] / x ** args[0]), mpmath.linspace(0, args[2], 9)
            )
            assert abs(direct / _reference_integral(*args) - 1) < mpmath.mpf(10) ** -30

    @pytest.mark.parametrize("exponent", [2, 3, 4, 5, 6])
    def test_within_epsrel_of_reference(self, exponent):
        # 1e-12 is the relative accuracy the normaliser was always asked for;
        # the grid includes the presets' (3, 1, 1), (2, 0.1, 0.5) and (6, 10, 4)
        for scale in (1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.0, 10.0, 30.0):
            for cutoff in (0.5, 1.0, 2.0, 3.0, 4.0):
                integral = _reference_integral(exponent, scale, cutoff)
                if integral < 1e-300:  # the integrand underflows
                    with pytest.raises(ArithmeticError, match="did not converge"):
                        xi_normalizer(exponent, scale, cutoff)
                    continue
                got = xi_normalizer(exponent, scale, cutoff)
                assert abs(got * integral - 1) <= 1e-12, (exponent, scale, cutoff)

    @pytest.mark.parametrize("exponent", [8, 16, 40])
    def test_sharp_rise_inside_the_interval(self, exponent):
        # exp(-scale / x^p) rises from 0 to nearly 1 within about x/p of the
        # knot scale^(1/p), far inside (0, cutoff] for small scales
        for scale in (1e-9, 1e-3, 1.0):
            integral = _reference_integral(exponent, scale, 10.0)
            assert abs(xi_normalizer(exponent, scale, 10.0) * integral - 1) <= 1e-12

    def test_disagreeing_rules_are_reported(self, monkeypatch):
        # weights scaled by 1 + step leave the two rules' sums 1 % apart
        rule = coefficients._tanh_sinh_unit
        monkeypatch.setattr(
            coefficients, "_tanh_sinh_unit", lambda step: (*rule(step)[:2], rule(step)[2] * (1 + step))
        )
        with pytest.raises(ArithmeticError, match="normalizing quadrature did not converge"):
            xi_normalizer(3, 1.0, 1.0)


class TestSingularLaw:
    def test_density_integrates_to_one(self):
        law = SingularXi(3, 1.0, 1.0)
        total, _ = quad(lambda x: law.density(np.array([x]))[0], 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("q", [0.1, 1.0])
    def test_reciprocal_square_exponential_moment_finite(self, q):
        # the curb near zero beats exp(q/x^2) for any q when the exponent is > 2;
        # exponents are combined before exponentiating to avoid spurious overflow
        law = SingularXi(3, 1.0, 1.0)
        value, _ = quad(
            lambda x: law.normalizer * math.exp(q / x**2 - 1.0 / x**3), 0.0, 1.0
        )
        assert np.isfinite(value)
        assert value < 1e3

    def test_cdf_monotone(self):
        law = SingularXi(3, 1.0, 1.0)
        xs = np.linspace(0, 1, 200)
        cdf = law.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_constant_law(self):
        law = ConstantXi(0.2)
        assert np.all(xi_draws(law, seed=5, start=0, count=7) == 0.2)

    def test_support_contract(self):
        law = SingularXi(3, 1.0, 1.0)
        draws = xi_draws(law, seed=9, start=0, count=5_000)
        assert np.all(draws > 0)
        assert np.all(draws <= 1.0)

    def test_empirical_cdf_matches_quadrature(self):
        law = SingularXi(3, 1.0, 1.0)
        draws = xi_draws(law, seed=13, start=0, count=100_000)
        lam = law.normalizer
        for x in (0.4, 0.6, 0.8):
            target, _ = quad(lambda s: lam * math.exp(-1.0 / s**3), 0.0, x)
            emp = np.mean(draws <= x)
            se = math.sqrt(target * (1 - target) / draws.size)
            assert abs(emp - target) <= 3 * se

    def test_inverse_cdf_monotone(self):
        law = SingularXi(3, 1.0, 1.0)
        u = np.linspace(0.01, 0.99, 25)
        q = xi_inverse_cdf(law, u)
        assert np.all(np.diff(q) > 0)

    @pytest.mark.parametrize(
        "law", [SingularXi(3, 1.0, 1.0), SingularXi(2, 0.1, 0.5), SingularXi(6, 10.0, 4.0)]
    )
    def test_inverse_cdf_round_trip(self, law):
        # the inverse is exact on the table, so the CDF maps each quantile back
        # to its level up to rounding, from 2^-54 to 1 - 2^-53
        u = np.concatenate([
            2.0 ** -np.arange(54, 0, -1),
            np.linspace(0.0, 1.0, 1001)[1:-1],
            1.0 - 2.0 ** -np.arange(1, 54),
        ])
        q = xi_inverse_cdf(law, u)
        assert np.all(np.abs(law.cdf(q) - u) <= 1e-13 * u)

    @pytest.mark.parametrize("exponent", [2, 3, 4, 5, 6])
    def test_cdf_table_rises_strictly_after_its_last_zero(self, exponent):
        # xi_inverse_cdf interpolates over this part, and np.interp needs its
        # abscissae strictly increasing without checking them
        for scale in (0.1, 1.0, 10.0):
            for cutoff in (0.5, 1.0, 4.0):
                _, table = SingularXi(exponent, scale, cutoff)._cdf_table
                rise = np.count_nonzero(table == 0) - 1
                assert np.all(table[:rise + 1] == 0)
                assert np.all(np.diff(table[rise:]) > 0), (scale, cutoff)
                assert table[-1] == 1.0

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantXi(0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_constant_rejects_non_finite(self, value):
        # inf failed only in simulate, as "state became non-finite at step 1"
        with pytest.raises(ValueError, match="positive and finite"):
            ConstantXi(value)


def reference_preset():
    return section4_scenario(steps=8).coefficients


class TestFieldEvaluation:
    def test_reference_drift_display(self):
        coeffs = reference_preset()
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi = rng.uniform(0.1, 1.0)
            x, y = rng.normal(size=2)
            assert np.allclose(eval_mu(coeffs, xi, [x, y]), [x, y - xi], atol=1e-14)

    def test_reference_diffusion_display(self):
        coeffs = reference_preset()
        rng = np.random.default_rng(4)
        for _ in range(5):
            xi = rng.uniform(0.1, 1.0)
            x, y = rng.normal(size=2)
            expected = (x - xi) * np.array([[1.0, 1.0], [0.0, -1.0]])
            assert np.allclose(eval_sigma(coeffs, xi, [x, y]), expected, atol=1e-14)

    def test_zero_inputs_zero_drift(self):
        coeffs = ModelCoefficients(
            drift_matrix=np.eye(2),
            xi_drift=np.array([1.0, -2.0]),
            drift_const=np.zeros(2),
            weights=np.zeros((2, 2)),
            xi_weights=np.zeros(2),
            offsets=np.zeros(2),
            directions=np.eye(2),
        )
        assert np.array_equal(eval_mu(coeffs, 0.0, np.zeros(2)), np.zeros(2))

    def test_random_coefficients_match_reexpansion(self):
        rng = np.random.default_rng(11)
        d = 3
        coeffs = ModelCoefficients(
            drift_matrix=rng.normal(size=(d, d)),
            xi_drift=rng.normal(size=d),
            drift_const=rng.normal(size=d),
            weights=rng.normal(size=(d, d)),
            xi_weights=rng.normal(size=d),
            offsets=rng.normal(size=d),
            directions=rng.normal(size=(d, d)),
        )
        for _ in range(5):
            xi = rng.uniform(0.0, 2.0)
            x = rng.normal(size=d)
            mu_ref = np.array(
                [
                    sum(coeffs.drift_matrix[i, j] * x[j] for j in range(d))
                    + xi * coeffs.xi_drift[i]
                    + coeffs.drift_const[i]
                    for i in range(d)
                ]
            )
            assert np.allclose(eval_mu(coeffs, xi, x), mu_ref, atol=1e-12)
            sig = eval_sigma(coeffs, xi, x)
            for j in range(d):
                factor = (
                    sum(coeffs.weights[j, k] * x[k] for k in range(d))
                    + xi * coeffs.xi_weights[j]
                    + coeffs.offsets[j]
                )
                assert np.allclose(sig[:, j], factor * coeffs.directions[j], atol=1e-12)

    def test_columns_parallel_to_directions(self):
        coeffs = reference_preset()
        rng = np.random.default_rng(6)
        for _ in range(10):
            sig = eval_sigma(coeffs, rng.uniform(0, 1), rng.normal(size=2))
            for j in range(2):
                col, direction = sig[:, j], coeffs.directions[j]
                cross = col[0] * direction[1] - col[1] * direction[0]
                assert abs(cross) <= 1e-12

    def test_batched_evaluation(self):
        coeffs = reference_preset()
        xs = np.random.default_rng(7).normal(size=(6, 2))
        batch = eval_mu(coeffs, 0.5, xs)
        for i in range(6):
            assert np.allclose(batch[i], eval_mu(coeffs, 0.5, xs[i]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ModelCoefficients(
                drift_matrix=np.eye(2),
                xi_drift=np.zeros(3),
                drift_const=np.zeros(2),
                weights=np.zeros((2, 2)),
                xi_weights=np.zeros(2),
                offsets=np.zeros(2),
                directions=np.eye(2),
            )
