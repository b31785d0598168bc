import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import fracvol.pricing as pricing
from fracvol import (
    Basket,
    BreachRateError,
    Call,
    MCConfig,
    ModelCoefficients,
    Put,
    agreement_zscore,
    bs_reference_price,
    payoff_values,
    physical_terminal_sample,
    price_physical_weighted,
    price_riskneutral,
    simulate_scenario_paths,
)
from fracvol.coefficients import XI_STREAM, xi_inverse_cdf
from fracvol.rng import RandomSource
from fracvol.scenario import constant_vol_scenario, section4_scenario


def bond_payoff(terminal):
    return np.ones(terminal.shape[0])


class TestBlackScholesReference:
    def test_zero_strike_call_is_spot(self):
        assert bs_reference_price(1.7, 0.0, 0.05, 0.2, 1.0, "call") == 1.7
        assert bs_reference_price(1.7, 0.0, 0.05, 0.2, 1.0, "put") == 0.0

    def test_put_call_parity(self):
        s0, k, r, sigma, t = 1.2, 0.9, 0.07, 0.35, 2.0
        call = bs_reference_price(s0, k, r, sigma, t, "call")
        put = bs_reference_price(s0, k, r, sigma, t, "put")
        assert call - put == pytest.approx(s0 - k * math.exp(-r * t), abs=1e-12)

    def test_atm_zero_rate_value(self):
        # 2 Phi(0.1) - 1 with a 30-digit normal CDF
        mp.mp.dps = 30
        target = float(2 * mp.ncdf(mp.mpf("0.1")) - 1)
        assert bs_reference_price(1.0, 1.0, 0.0, 0.2, 1.0, "call") == pytest.approx(
            target, abs=1e-12
        )

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            bs_reference_price(1.0, 1.0, 0.0, 0.2, 1.0, "straddle")


class TestPayoffs:
    def test_variants(self):
        terminal = np.array([[1.5, 0.5], [0.8, 2.0]])
        assert np.allclose(payoff_values(Call(0, 1.0), terminal), [0.5, 0.0])
        assert np.allclose(payoff_values(Put(1, 1.0), terminal), [0.5, 0.0])
        basket = Basket(np.array([0.5, 0.5]), 1.0)
        assert np.allclose(payoff_values(basket, terminal), [0.0, 0.4])
        assert np.allclose(
            payoff_values(lambda s: s[:, 0] ** 2, terminal), [2.25, 0.64]
        )

    def test_unknown_payoff_rejected(self):
        with pytest.raises(TypeError):
            payoff_values(object(), np.ones((2, 2)))


class TestDegenerateBlackScholes:
    def test_both_estimators_match_closed_form(self):
        sc = constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.1, 0.02))
        mc = MCConfig(paths=20_000, seed=31)
        for asset, sigma in ((0, 0.5), (1, 0.2)):
            target = bs_reference_price(1.0, 1.0, sc.market.rate, sigma, 1.0, "call")
            for pricer in (price_physical_weighted, price_riskneutral):
                res = pricer(Call(asset, 1.0), sc, mc)
                assert abs(res.estimate - target) <= 3 * res.stderr
                assert res.breached == 0

    def test_discounted_bond_identity(self):
        sc = constant_vol_scenario()
        target = math.exp(-sc.market.rate * sc.grid.horizon)
        mc = MCConfig(paths=10_000, seed=33)
        for pricer in (price_physical_weighted, price_riskneutral):
            res = pricer(bond_payoff, sc, mc)
            assert abs(res.estimate - target) <= 3 * max(res.stderr, 1e-12)

    def test_riskneutral_martingale_property(self):
        sc = constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.1, 0.02))
        mc = MCConfig(paths=20_000, seed=35)
        for k in range(2):
            res = price_riskneutral(lambda s, k=k: s[:, k], sc, mc)
            assert abs(res.estimate - sc.market.initial_prices[k]) <= 3 * res.stderr


class TestEstimatorCoupling:
    def test_equal_drift_and_rate_coincide_exactly(self):
        sc = constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.05, 0.05), rate=0.05)
        mc = MCConfig(paths=4_000, seed=41)
        a = price_physical_weighted(Call(0, 1.0), sc, mc)
        b = price_riskneutral(Call(0, 1.0), sc, mc)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_reference_preset_agreement(self):
        sc = section4_scenario(steps=32, seed=43)
        mc = MCConfig(paths=8_000, seed=43)
        a = price_physical_weighted(Call(0, 1.0), sc, mc)
        b = price_riskneutral(Call(0, 1.0), sc, mc)
        assert abs(agreement_zscore(a, b)) <= 3

    def test_strike_ladder_monotone_with_common_draws(self):
        sc = constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.1, 0.02))
        mc = MCConfig(paths=4_000, seed=45)
        strikes = [0.6, 0.8, 1.0, 1.2, 1.4]
        prices = [
            price_physical_weighted(Call(0, k), sc, mc).estimate for k in strikes
        ]
        assert all(a >= b for a, b in zip(prices, prices[1:]))


class TestRunMechanics:
    def test_deterministic_results(self):
        sc = constant_vol_scenario()
        mc = MCConfig(paths=3_000, seed=47)
        a = price_physical_weighted(Call(0, 1.0), sc, mc)
        b = price_physical_weighted(Call(0, 1.0), sc, mc)
        assert a == b

    def test_seed_defaults_to_scenario(self):
        sc = constant_vol_scenario(seed=123)
        res = price_physical_weighted(Call(0, 1.0), sc, MCConfig(paths=2_000))
        assert res.seed == 123

    def test_threaded_run_matches_serial(self):
        sc = constant_vol_scenario()
        serial = price_riskneutral(
            Call(0, 1.0), sc, MCConfig(paths=6_000, seed=49, batch_size=1024)
        )
        threaded = price_riskneutral(
            Call(0, 1.0), sc, MCConfig(paths=6_000, seed=49, batch_size=1024, threads=4)
        )
        assert serial == threaded

    @staticmethod
    def _drifting_down_scenario():
        # deterministic drift pushes the second volatility component through
        # the floor xi/2 = 0.25 around t = 0.35
        base = constant_vol_scenario(vol=(1.0, 0.6), xi_value=0.5, steps=64)
        drifting = ModelCoefficients(
            drift_matrix=base.coefficients.drift_matrix,
            xi_drift=base.coefficients.xi_drift,
            drift_const=np.array([-1.0, 0.0]),
            weights=base.coefficients.weights,
            xi_weights=base.coefficients.xi_weights,
            offsets=base.coefficients.offsets,
            directions=base.coefficients.directions,
        )
        return dataclasses.replace(base, coefficients=drifting)

    def test_breach_rate_error_without_projection(self):
        sc = self._drifting_down_scenario()
        mc = MCConfig(paths=2_000, seed=51, project=False, check_conditions=False)
        with pytest.raises(BreachRateError, match="breached"):
            price_physical_weighted(Call(0, 1.0), sc, mc)

    def test_projection_prevents_breach(self):
        sc = self._drifting_down_scenario()
        mc = MCConfig(paths=2_000, seed=51, check_conditions=False)
        res = price_physical_weighted(Call(0, 1.0), sc, mc)
        assert res.breached == 0

    @staticmethod
    def _outward_drift_scenario():
        sc = section4_scenario(steps=16)
        bad = ModelCoefficients(
            drift_matrix=sc.coefficients.drift_matrix,
            xi_drift=sc.coefficients.xi_drift,
            drift_const=np.array([-5.0, 0.0]),
            weights=sc.coefficients.weights,
            xi_weights=sc.coefficients.xi_weights,
            offsets=sc.coefficients.offsets,
            directions=sc.coefficients.directions,
        )
        return dataclasses.replace(sc, coefficients=bad)

    def test_condition_check_rejects_outward_drift(self):
        broken = self._outward_drift_scenario()
        with pytest.raises(ValueError, match="cone-mode"):
            price_physical_weighted(Call(0, 1.0), broken, MCConfig(paths=500, seed=1))

    def test_terminal_sample_checks_scenario(self):
        broken = self._outward_drift_scenario()
        with pytest.raises(ValueError, match="cone-mode"):
            physical_terminal_sample(broken, MCConfig(paths=500, seed=1))
        sample = physical_terminal_sample(
            broken, MCConfig(paths=500, seed=1, check_conditions=False)
        )
        assert sample[0].shape == (500, 2)

    def test_minimum_paths(self):
        with pytest.raises(ValueError, match="paths"):
            MCConfig(paths=1)

    def test_rough_regime_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(pricing, "xi_draws", no_draws)
        monkeypatch.setattr(pricing, "w_increments", no_draws)
        sc = section4_scenario(steps=32, hurst=0.4)
        mc = MCConfig(paths=100, seed=1)
        for run in (
            lambda: price_physical_weighted(Call(0, 1.0), sc, mc),
            lambda: price_riskneutral(Call(0, 1.0), sc, mc),
            lambda: physical_terminal_sample(sc, mc),
            lambda: simulate_scenario_paths(sc, 2),
        ):
            with pytest.raises(ValueError, match="rough regime"):
                run()

    def test_simulated_paths_are_the_priced_paths(self):
        sc = section4_scenario(steps=2**8)
        paths = simulate_scenario_paths(sc, 8, project=True)
        terminal, _, _ = physical_terminal_sample(sc, MCConfig(paths=8, seed=sc.seed))
        # cumsum along the path and sum over it add in different orders
        np.testing.assert_allclose(
            np.array([p["prices"][-1] for p in paths]), terminal, rtol=1e-12
        )

    def test_terminal_sample_shapes(self):
        sc = constant_vol_scenario()
        term, wt, br = physical_terminal_sample(sc, MCConfig(paths=250, seed=3))
        assert term.shape == (250, 2)
        assert wt.shape == (250,)
        assert br.shape == (250,)

    def test_simulate_batching_moves_no_bits(self, monkeypatch):
        sc = section4_scenario(steps=32, seed=5)
        whole = simulate_scenario_paths(sc, 5, project=True)
        monkeypatch.setattr(pricing, "DEFAULT_BATCH_SIZE", 2)
        split = simulate_scenario_paths(sc, 5, project=True)
        assert len(split) == len(whole) == 5
        for a, b in zip(whole, split):
            assert a.keys() == b.keys()
            for key in a:
                assert np.asarray(a[key]).tobytes() == np.asarray(b[key]).tobytes()


class TestScenarioCheckMemo:
    """Pricing certifies a scenario once per instance, at each of its xi probes."""

    @pytest.fixture
    def checked(self, monkeypatch):
        probes = []
        real = pricing.check_viability_conditions

        def counting(coeffs, poly, xi, **kwargs):
            probes.append(xi)
            return real(coeffs, poly, xi, **kwargs)

        monkeypatch.setattr(pricing, "check_viability_conditions", counting)
        return probes

    def test_one_check_per_probe(self, checked):
        sc = section4_scenario(steps=16)
        mc = MCConfig(paths=64, seed=3)
        price_physical_weighted(Call(0, 1.0), sc, mc)
        price_riskneutral(Call(0, 1.0), sc, mc)
        physical_terminal_sample(sc, mc)
        assert checked == [1.0, 0.5]

    def test_new_instance_checked_afresh(self, checked):
        mc = MCConfig(paths=64, seed=3)
        for _ in range(2):
            physical_terminal_sample(constant_vol_scenario(), mc)
        assert checked == [0.1, 0.1]

    def test_rejection_raises_on_every_call(self, checked):
        broken = TestRunMechanics._outward_drift_scenario()
        for _ in range(2):
            with pytest.raises(ValueError, match="cone-mode"):
                price_physical_weighted(Call(0, 1.0), broken, MCConfig(paths=64, seed=1))
        assert checked == [1.0, 1.0]

    def test_unchecked_runs_make_no_call(self, checked):
        sc = section4_scenario(steps=16)
        mc = MCConfig(paths=64, seed=3, check_conditions=False)
        price_physical_weighted(Call(0, 1.0), sc, mc)
        price_riskneutral(Call(0, 1.0), sc, mc)
        physical_terminal_sample(sc, mc)
        assert checked == []


class TestScenarioArrays:
    def test_arrays_are_read_only(self):
        sc = section4_scenario(steps=16)
        for arr in (sc.coefficients.drift_const, sc.market.projections, sc.initial_state):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7.0

    def test_caller_arrays_stay_writable(self):
        base = section4_scenario(steps=16)
        drift_const = np.zeros(2)
        projections = np.array([[1.0, 1.0], [1.0, 0.0]])
        initial = np.array([1.0, 0.0])
        coefficients = dataclasses.replace(base.coefficients, drift_const=drift_const)
        market = dataclasses.replace(base.market, projections=projections)
        sc = dataclasses.replace(
            base, coefficients=coefficients, market=market, initial_state=initial
        )
        drift_const[0] = projections[0, 0] = initial[0] = 7.0
        assert sc.coefficients.drift_const[0] == 0.0
        assert sc.market.projections[0, 0] == 1.0
        assert sc.initial_state[0] == 1.0


class TestKeyedDraws:
    """The batched draws equal one Philox stream per (path, component)."""

    @pytest.mark.parametrize("chunk", [None, 3 * 32 * 2 - 1])
    def test_batched_draws_equal_per_stream(self, monkeypatch, chunk):
        if chunk is not None:  # split the 7 paths into blocks of 2 paths
            monkeypatch.setattr(pricing, "_DRAW_CHUNK", chunk)
        sc = section4_scenario(steps=32, seed=5)
        seed, start, count = 29, 5, 7
        base = RandomSource(seed)
        paths = [base.for_path(p) for p in range(start, start + count)]

        u = np.array([src.stream(XI_STREAM).uniforms(1)[0] for src in paths])
        xi = pricing.xi_draws(sc.xi, seed, start, count)
        assert xi.tobytes() == xi_inverse_cdf(sc.xi, u).tobytes()

        n, d = sc.grid.steps, sc.dims
        dw = np.stack([[src.stream(k).normals(n) for k in range(d)] for src in paths])
        dw = np.ascontiguousarray(dw.transpose(0, 2, 1)) * math.sqrt(sc.grid.dt)
        got = pricing.w_increments(sc, seed, start, count)
        assert got.shape == (count, n, d)
        assert got.flags.c_contiguous
        assert got.tobytes() == dw.tobytes()
