import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracvol.pricing as pricing
import fracvol.rde as rde
from fracvol import (
    Basket,
    BreachRateError,
    Call,
    MCConfig,
    MCResult,
    ModelCoefficients,
    Put,
    agreement_zscore,
    bs_reference_price,
    payoff_values,
    physical_terminal_sample,
    price_both,
    price_physical_weighted,
    price_riskneutral,
    simulate_scenario_paths,
)
from fracvol.coefficients import XI_STREAM, xi_inverse_cdf
from fracvol.market import asset_prices, floor_breach, log_price_increments, theta, volatility
from fracvol.pricing import _batch_draws, _constraint_data, _weighted_terminal
from fracvol.rde import check_finite, euler_stepper
from fracvol.rng import NormalStream, stream_key
from fracvol.scenario import constant_vol_scenario, section4_scenario
from fracvol.volterra import transform_increments
from test_rde import reference_step


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

    @pytest.mark.parametrize(
        "a, b, z",
        [(0.25, 0.25, 0.0), (0.0, 0.0, 0.0), (0.5, 0.25, math.inf), (0.25, 0.5, -math.inf)],
    )
    def test_zscore_without_error_bars(self, a, b, z):
        first = MCResult(a, 0.0, 64, 1)
        second = MCResult(b, 0.0, 64, 1)
        assert agreement_zscore(first, second) == z

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
        pricing._last_draws = None  # draw the batch again rather than reuse it
        b = price_physical_weighted(Call(0, 1.0), sc, mc)
        assert a == b

    def test_seed_defaults_to_scenario(self):
        sc = constant_vol_scenario(seed=123)
        res = price_physical_weighted(Call(0, 1.0), sc, MCConfig(paths=2_000))
        assert res.seed == 123

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


class TestBatchDrawMemo:
    """Pricing draws each batch's xi and dW once per (scenario, seed, batch)."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """Slot contents seen at each `w_increments` call, starting from an empty slot."""
        monkeypatch.setattr(pricing, "_last_draws", None)
        seen = []
        real = pricing.w_increments

        def counting(*args, **kwargs):
            seen.append(pricing._last_draws)
            return real(*args, **kwargs)

        monkeypatch.setattr(pricing, "w_increments", counting)
        return seen

    @staticmethod
    def _pricings(sc, mc, before=lambda: None):
        runs = [
            (price_physical_weighted, Call(0, 1.0)),
            (price_riskneutral, Call(0, 1.0)),
            (price_physical_weighted, Put(1, 1.1)),
            (price_riskneutral, Basket([0.5, 0.5], 1.0)),
        ]
        results = []
        for pricer, payoff in runs:
            before()
            results.append(pricer(payoff, sc, mc))
        return results

    def test_one_draw_for_every_estimator_and_payoff(self, draws):
        sc = section4_scenario(steps=16)
        self._pricings(sc, MCConfig(paths=256, seed=3))
        assert len(draws) == 1
        assert sc.seed != 3
        simulate_scenario_paths(sc, 256)  # draws the batch of the scenario's seed
        physical_terminal_sample(sc, MCConfig(paths=256, seed=sc.seed))  # and reuses it
        assert len(draws) == 2

    def test_equals_fresh_draws(self, draws):
        sc = section4_scenario(steps=16)
        mc = MCConfig(paths=256, seed=3)
        shared = self._pricings(sc, mc)

        def empty_slot():
            pricing._last_draws = None

        fresh = self._pricings(sc, mc, before=empty_slot)
        assert len(draws) == 1 + 4
        assert shared == fresh

    def test_other_keys_miss(self, draws):
        sc = section4_scenario(steps=16)
        runs = [
            (sc, MCConfig(paths=256, seed=3)),
            (sc, MCConfig(paths=256, seed=4)),  # seed
            (sc, MCConfig(paths=256, seed=4, batch_size=128)),  # two batches
            (dataclasses.replace(sc), MCConfig(paths=256, seed=4, batch_size=128)),
        ]
        for scenario, mc in runs:
            price_physical_weighted(Call(0, 1.0), scenario, mc)
        assert len(draws) == 1 + 1 + 2 + 2

    def test_memoised_arrays_are_read_only(self, draws):
        sc = section4_scenario(steps=16)
        price_riskneutral(Call(0, 1.0), sc, MCConfig(paths=64, seed=3))
        xi, dw = pricing._batch_draws(sc, 3, 0, 64)
        assert len(draws) == 1
        with pytest.raises(ValueError, match="read-only"):
            xi[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dw[0, 0, 0] = 1.0

    def test_slot_empty_while_drawing(self, draws):
        sc = section4_scenario(steps=16)
        price_riskneutral(Call(0, 1.0), sc, MCConfig(paths=300, seed=3, batch_size=100))
        assert draws == [None, None, None]
        assert pricing._last_draws[:4] == (sc, 3, 200, 100)


@pytest.fixture
def runs(monkeypatch):
    """Calls of the per-batch path work so far, starting from an empty slot; a
    call that raises is followed by "<name> raised"."""
    monkeypatch.setattr(pricing, "_last_draws", None)
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            try:
                return real(*args, **kwargs)
            except Exception:
                calls.append(f"{name} raised")
                raise

        return wrapper

    for module, name in [
        (pricing, "euler_stepper"),
        (rde, "euler_stepper"),
        (pricing, "transform_increments"),
        (pricing, "_paired_batch"),
    ]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


class TestBatchOutputMemo:
    """Each estimator computes a batch's outputs once per (scenario, seed, batch)."""

    @pytest.mark.parametrize("pricer", [price_physical_weighted, price_riskneutral])
    def test_second_payoff_reuses_outputs(self, runs, pricer):
        sc, mc = section4_scenario(steps=16), MCConfig(paths=256, seed=3)
        pricer(Call(0, 1.0), sc, mc)
        first = list(runs)
        assert "euler_stepper" in first
        pricer(Put(1, 1.1), sc, mc)
        pricer(Basket([0.5, 0.5], 1.0), sc, mc)
        assert runs == first

    def test_other_keys_miss(self, runs):
        sc = constant_vol_scenario()
        mc = MCConfig(paths=256, seed=3)
        cases = [
            (sc, mc),
            (sc, dataclasses.replace(mc, project=False)),  # projection
            (sc, dataclasses.replace(mc, seed=4)),  # seed
            (sc, dataclasses.replace(mc, seed=4, batch_size=128)),  # two batches
            (dataclasses.replace(sc), dataclasses.replace(mc, seed=4, batch_size=128)),
        ]
        batches = []
        for scenario, config in cases:
            price_physical_weighted(Call(0, 1.0), scenario, config)
            batches.append(runs.count("transform_increments"))
        assert batches == [1, 2, 3, 5, 7]

    def test_failed_batch_stores_nothing(self, runs):
        # every state overflows at the first step: 1e308 + 8e308 * dt, dt = 1/4
        base = constant_vol_scenario(steps=4)
        coeffs = dataclasses.replace(base.coefficients, drift_matrix=np.diag([8.0, 0.0]))
        sc = dataclasses.replace(
            base, coefficients=coeffs, initial_state=np.array([1e308, 0.2])
        )
        mc = MCConfig(paths=16, seed=3, check_conditions=False, project=False)
        for pricer in (price_physical_weighted, price_riskneutral) * 2:
            with pytest.raises(FloatingPointError, match="step 1"):
                pricer(Call(0, 1.0), sc, mc)
        assert pricing._last_draws[:4] == (sc, 3, 0, 16)
        assert pricing._last_draws[6] == {}
        assert runs.count("euler_stepper") == 4

    def test_outputs_read_only(self, runs):
        sc, mc = section4_scenario(steps=16), MCConfig(paths=64, seed=3)
        terminal, weight, breached = physical_terminal_sample(sc, mc)
        terminal[0, 0] = weight[0] = 0.0  # the caller's copies
        outputs = pricing._last_draws[6][(pricing._physical_batch, True)]
        assert outputs[0][0, 0] != 0.0 and outputs[1][0] != 0.0
        for array in outputs:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        price_riskneutral(Call(0, 1.0), sc, mc)
        for array in pricing._last_draws[6][(pricing._riskneutral_batch, True)]:
            assert not array.flags.writeable

    def test_emptying_the_slot_recomputes(self, runs):
        sc, mc = section4_scenario(steps=16), MCConfig(paths=64, seed=3)
        a = price_riskneutral(Call(0, 1.0), sc, mc)
        pricing._last_draws = None
        b = price_riskneutral(Put(1, 1.1), sc, mc)
        assert runs.count("euler_stepper") == 2
        pricing._last_draws = None
        assert price_riskneutral(Call(0, 1.0), sc, mc) == a
        assert price_riskneutral(Put(1, 1.1), sc, mc) == b
        assert runs.count("euler_stepper") == 3


class TestPairedBatch:
    """A batch priced under both measures steps the next batch's two measures
    through one loop; what each estimator returns or raises is unchanged."""

    PRESETS = {
        "worked": section4_scenario(steps=32, seed=5),
        "constant": constant_vol_scenario(),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        project=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 10**6),
        count=st.integers(1, 700),
    )
    def test_paired_equals_lone(self, preset, project, seed, start, count):
        # the unprojected worked example breaches the floor, so frozen paths
        # are covered too
        self._check_paired_equals_lone(self.PRESETS[preset], project, seed, start, count)

    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("preset", ["worked", "constant"])
    def test_paired_equals_lone_at_batch_size(self, preset, project):
        # a full default batch stacks 8192 rows, where BLAS may pick other kernels
        sc = {
            "worked": section4_scenario(steps=8, seed=5),
            "constant": constant_vol_scenario(steps=8),
        }[preset]
        self._check_paired_equals_lone(sc, project, 11, 300, pricing.DEFAULT_BATCH_SIZE)

    @staticmethod
    def _check_paired_equals_lone(sc, project, seed, start, count):
        km = pricing._kernel_matrix(sc)
        args = (sc, km, seed, start, count, project)
        lone = (pricing._physical_batch(*args), pricing._riskneutral_batch(*args))
        paired = pricing._paired_batch(*args)
        for lone_out, paired_out in zip(lone, paired):
            for a, b in zip(lone_out, paired_out):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("order", [1, -1])
    def test_next_batch_pairs(self, runs, order):
        sc = section4_scenario(steps=16, seed=5)
        pricers = (price_physical_weighted, price_riskneutral)[::order]
        for pricer in pricers:
            pricer(Call(0, 1.0), sc, MCConfig(paths=64, seed=3))
        assert runs.count("euler_stepper") == 2
        del runs[:]
        mc = MCConfig(paths=64, seed=4)
        paired = [pricer(Put(1, 1.1), sc, mc) for pricer in pricers]
        # one loop for both measures, and the second call hits
        assert runs == ["_paired_batch", "transform_increments", "euler_stepper"]
        assert pricing._last_draws[6].keys() == {
            (pricing._physical_batch, True), (pricing._riskneutral_batch, True)
        }
        pricing._last_draws = None
        assert [pricer(Put(1, 1.1), sc, mc) for pricer in pricers] == paired
        assert "_paired_batch" not in runs[3:]

    def test_lone_patterns_never_pair(self, runs):
        sc = constant_vol_scenario()
        mc = MCConfig(paths=64, seed=3)
        for seed in (3, 4, 5):  # one estimator
            price_physical_weighted(Call(0, 1.0), sc, dataclasses.replace(mc, seed=seed))
        for seed in (6, 7):
            physical_terminal_sample(sc, dataclasses.replace(mc, seed=seed))
        for seed in (8, 9, 10):  # both estimators over two batches each
            config = dataclasses.replace(mc, seed=seed, batch_size=32)
            price_physical_weighted(Call(0, 1.0), sc, config)
            price_riskneutral(Call(0, 1.0), sc, config)
        assert "_paired_batch" not in runs
        assert runs.count("euler_stepper") == 3 + 2 + 3 * 4
        # both estimators under one projection setting pair no batch under the other
        price_physical_weighted(Call(0, 1.0), sc, dataclasses.replace(mc, seed=11))
        price_riskneutral(Call(0, 1.0), sc, dataclasses.replace(mc, seed=11))
        price_riskneutral(
            Call(0, 1.0), sc, dataclasses.replace(mc, seed=12, project=False)
        )
        assert "_paired_batch" not in runs

    def test_transitions_after_a_paired_batch(self, runs):
        sc = constant_vol_scenario()
        mc = MCConfig(paths=64, seed=3)

        def both_then(*calls):
            for pricer in (price_physical_weighted, price_riskneutral):
                pricer(Call(0, 1.0), sc, mc)
            del runs[:]
            for call in calls:
                call()
            return runs.count("_paired_batch"), runs.count("euler_stepper")

        def lone(seed, **changes):
            config = dataclasses.replace(mc, seed=seed, **changes)
            return lambda: price_physical_weighted(Call(0, 1.0), sc, config)

        # the first one-batch call of one measure pairs and wastes a half, once
        assert both_then(lone(4), lone(5), lone(6)) == (1, 3)
        # runs of several batches neither pair nor let the next batch pair
        assert both_then(lone(4, batch_size=32), lone(5)) == (0, 3)
        assert both_then(
            lambda: physical_terminal_sample(sc, dataclasses.replace(mc, seed=4, batch_size=32))
        ) == (0, 2)
        several = dataclasses.replace(mc, seed=4, batch_size=32)
        assert both_then(
            lambda: price_physical_weighted(Call(0, 1.0), sc, several),
            lambda: price_riskneutral(Call(0, 1.0), sc, several),
        ) == (0, 4)
        price_both(Call(0, 1.0), sc, several)
        del runs[:]
        lone(5)()
        assert runs.count("_paired_batch") == 0

    def test_price_both_pairs_every_batch(self, runs):
        sc = section4_scenario(steps=16, seed=5)
        mc = MCConfig(paths=80, seed=3, batch_size=32)
        paired = price_both(Put(1, 1.1), sc, mc)
        assert runs.count("_paired_batch") == runs.count("euler_stepper") == 3
        pricing._last_draws = None
        assert paired == (
            price_physical_weighted(Put(1, 1.1), sc, mc),
            price_riskneutral(Put(1, 1.1), sc, mc),
        )
        # a batch that holds one measure's outputs runs the other's loop alone
        one_batch = dataclasses.replace(mc, paths=32)
        for index, pricer in enumerate((price_physical_weighted, price_riskneutral)):
            del runs[:]
            pricing._last_draws = None
            alone = pricer(Put(1, 1.1), sc, one_batch)
            assert price_both(Put(1, 1.1), sc, one_batch)[index] == alone
            assert runs.count("_paired_batch") == 0
            assert runs.count("euler_stepper") == 2

    @staticmethod
    def _riskneutral_overflow():
        # one step of length 1, state noise 1e307 * dB on U0, and a market price
        # of risk of 30 on V0 = 0.5: the risk-neutral driver increment, about
        # 30, takes U0 past the largest float, while the physical one, about
        # N(0, 1), keeps it finite and the weights (about e^-450) positive
        base = constant_vol_scenario(steps=1)
        coeffs = dataclasses.replace(base.coefficients, offsets=np.array([1e307, 0.0]))
        good = dataclasses.replace(base, coefficients=coeffs)
        market = dataclasses.replace(base.market, drifts=np.array([0.05 - 30 * 0.5, 0.02]))
        return good, dataclasses.replace(good, market=market)

    @pytest.mark.parametrize("order", [1, -1])
    def test_failed_paired_batch_stores_nothing(self, runs, order):
        good, bad = self._riskneutral_overflow()
        mc = MCConfig(paths=64, seed=3, check_conditions=False)
        pricers = (price_physical_weighted, price_riskneutral)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pricing._last_draws = None
            lone = price_physical_weighted(Call(1, 1.0), bad, mc)
            pricing._last_draws = None
            with pytest.raises(FloatingPointError) as lone_error:
                price_riskneutral(Call(1, 1.0), bad, mc)
            assert str(lone_error.value) == (
                "state became non-finite at step 1 (path 0 of the batch)"
            )
            for pricer in pricers:
                pricer(Call(1, 1.0), good, mc)
            del runs[:]
            for pricer in pricers[::order]:
                if pricer is price_riskneutral:
                    with pytest.raises(FloatingPointError) as error:
                        pricer(Call(1, 1.0), bad, mc)
                    assert str(error.value) == str(lone_error.value)
                else:
                    assert pricer(Call(1, 1.0), bad, mc) == lone
        # the paired loop raised once, and each measure then ran alone
        assert runs[:4] == [
            "_paired_batch", "transform_increments", "euler_stepper", "_paired_batch raised"
        ]
        assert runs.count("_paired_batch") == 1
        assert runs.count("euler_stepper") == 1 + 2
        assert pricing._last_draws[6].keys() == {(pricing._physical_batch, True)}

    @pytest.mark.parametrize("batch_size", [64, 32])
    def test_failed_price_both_raises_as_the_estimators(self, runs, batch_size):
        _, bad = self._riskneutral_overflow()
        mc = MCConfig(paths=64, seed=3, check_conditions=False, batch_size=batch_size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(FloatingPointError) as lone_error:
                price_riskneutral(Call(1, 1.0), bad, mc)
            pricing._last_draws = None
            del runs[:]
            with pytest.raises(FloatingPointError) as error:
                price_both(Call(1, 1.0), bad, mc)
        assert str(error.value) == str(lone_error.value)
        # the paired loop of the first batch raised; then each measure ran alone
        assert runs.count("_paired_batch") == 1
        assert runs[:4] == [
            "_paired_batch", "transform_increments", "euler_stepper", "_paired_batch raised"
        ]
        assert runs.count("euler_stepper") == 1 + 64 // batch_size + 1


class TestKeyedDraws:
    """The batched draws equal one Philox stream per (path, component)."""

    @pytest.mark.parametrize("chunk", [None, 3 * 32 * 2 - 1])
    def test_batched_draws_equal_per_stream(self, monkeypatch, chunk):
        if chunk is not None:  # split the 7 paths into blocks of 2 paths
            monkeypatch.setattr(pricing, "_DRAW_CHUNK", chunk)
        sc = section4_scenario(steps=32, seed=5)
        seed, start, count = 29, 5, 7
        paths = range(start, start + count)

        def stream(path, component):
            return NormalStream(stream_key(seed, path, component))

        u = np.array([stream(p, XI_STREAM).uniforms(1)[0] for p in paths])
        xi = pricing.xi_draws(sc.xi, seed, start, count)
        assert xi.tobytes() == xi_inverse_cdf(sc.xi, u).tobytes()

        n, d = sc.grid.steps, sc.dims
        dw = np.stack([[stream(p, k).normals(n) for k in range(d)] for p in paths])
        dw = np.ascontiguousarray(dw.transpose(0, 2, 1)) * math.sqrt(sc.grid.dt)
        got = pricing.w_increments(sc, seed, start, count)
        assert got.shape == (count, n, d)
        assert got.flags.c_contiguous
        assert got.tobytes() == dw.tobytes()


def riskneutral_reference(scenario, km, seed, start, count, project):
    """The risk-neutral batch written plainly: every write and every step spelled out."""
    n, d, dt = scenario.grid.steps, scenario.dims, scenario.grid.dt
    params = scenario.market
    xi = pricing.xi_draws(scenario.xi, seed, start, count)
    dw_star = pricing.w_increments(scenario, seed, start, count)
    dw = np.empty((n, count * d))
    constraint = pricing._constraint_data(scenario, xi) if project else None
    x = np.tile(scenario.initial_state, (count, 1))
    b_prev, s_log = np.zeros((count, d)), np.zeros((count, d))
    breached = np.zeros(count, dtype=bool)
    for i in range(n):
        low, v_safe = floor_breach(volatility(x, params), xi)
        breached |= low
        th_i = theta(v_safe, params)
        th_i[breached] = 0.0
        dw[i] = (dw_star[:, i] + th_i * dt).reshape(-1)
        b_next = np.dot(km.entries[i, None, : i + 1], dw[: i + 1]).reshape(count, d)
        db = b_next - b_prev
        db[breached] = 0.0
        x = reference_step(scenario.coefficients, xi, x, db, dt, constraint)
        b_prev = b_next
        s_log += log_price_increments(v_safe, dw_star[:, i], params.rate, dt)
    with np.errstate(over="ignore"):
        return params.initial_prices * np.exp(s_log), breached


class TestRiskNeutralLoop:
    @staticmethod
    def _breaching_scenario():
        # state noise takes some paths' second volatility component U1 below its
        # floor xi/2 = 0.25, at different steps; once frozen, the drift pulls
        # U1 back towards 0.6, so a breached path need not stay below the floor
        base = constant_vol_scenario(vol=(1.0, 0.6), xi_value=0.5, steps=64)
        coeffs = dataclasses.replace(
            base.coefficients,
            drift_matrix=np.diag([-2.0, 0.0]),
            drift_const=np.array([1.2, 0.0]),
            offsets=np.full(2, 0.4),
        )
        return dataclasses.replace(base, coefficients=coeffs)

    @pytest.mark.parametrize("case", ["breach", "projected"])
    def test_equals_plain_loop(self, case):
        if case == "breach":
            sc, project = self._breaching_scenario(), False
        else:
            sc, project = section4_scenario(steps=64), True
        km = pricing._kernel_matrix(sc)
        terminal, weight, breached = pricing._riskneutral_batch(sc, km, 3, 10, 300, project)
        want_terminal, want_breached = riskneutral_reference(sc, km, 3, 10, 300, project)
        assert terminal.tobytes() == want_terminal.tobytes()
        assert np.array_equal(breached, want_breached)
        assert np.all(weight == 1.0)
        if case == "breach":  # some paths breach, at different steps, and some never do
            assert 0 < np.count_nonzero(breached) < breached.size
            assert np.unique(terminal[breached], axis=0).shape[0] > 1

    def test_overflow_names_step_and_path(self):
        # from U1 = 1e308, the drift U1 + xi * c overflows at the first step exactly on
        # the paths with xi * c > max - 1e308; c puts that level between the
        # largest two draws, so one path breaks, and it is not the first
        sc = section4_scenario(steps=8)
        seed, count = 5, 40
        xi = pricing.xi_draws(sc.xi, seed, 0, count)
        top, second = np.sort(xi)[-2:][::-1]
        bad = int(np.argmax(xi))
        assert bad > 0 and top - second > 1e-6 * top
        c = (np.finfo(float).max - 1e308) / (0.5 * (top + second))
        coeffs = dataclasses.replace(
            sc.coefficients,
            drift_matrix=np.diag([1.0, 0.0]),
            xi_drift=np.array([c, 0.0]),
            weights=np.zeros((2, 2)),  # no diffusion
            xi_weights=np.zeros(2),
        )
        sc = dataclasses.replace(sc, coefficients=coeffs, initial_state=np.array([1e308, 0.0]))
        km = pricing._kernel_matrix(sc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raises before any overflow warning
            with pytest.raises(FloatingPointError, match=rf"step 1 \(path {bad} of the batch\)"):
                pricing._riskneutral_batch(sc, km, seed, 0, count, False)


def _parent_feedback_loop(scenario, km, seed, start, count, project, paired):
    """`pricing._feedback_loop` as it was before the log-price sum left the
    loop, verbatim: (physical outputs or None, risk-neutral outputs) of a batch.

    When `paired`, the state stacks the physical rows, driven by the kernel
    transform as in `_physical_paths`, over the risk-neutral rows, driven by
    the feedback; every operation acts row by row, so each row keeps the bits
    of its measure's lone loop.
    """
    grid = scenario.grid
    n, d = grid.steps, scenario.dims
    dt = grid.dt
    params = scenario.market
    xi, dw_star = _batch_draws(scenario, seed, start, count)
    xi_rows = np.concatenate([xi, xi]) if paired else xi
    rows = xi_rows.size
    rn = slice(rows - count, rows)  # the risk-neutral rows
    if paired:
        db_physical = np.diff(transform_increments(dw_star, km), axis=1)
        states = np.empty((count, n + 1, d))
    dw = np.empty((n, count * d))  # row i: physical increments of step i, all paths
    constraint = _constraint_data(scenario, xi_rows) if project else None

    step = euler_stepper(scenario.coefficients, xi_rows, dt, constraint)
    x = np.broadcast_to(scenario.initial_state, (rows, d)).copy()
    db = np.empty((rows, d))  # one step's driver increments, all rows
    b_prev = np.zeros((count, d))
    s_log = np.zeros((count, d))
    breached = np.zeros(count, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            low, v_safe = floor_breach(volatility(x[rn], params), xi)
            breached |= low
            frozen = breached.any()  # breached paths are frozen, and discarded later
            th_i = theta(v_safe, params)
            if frozen:
                th_i[breached] = 0.0
            dw_i = np.multiply(th_i, dt, out=dw[i].reshape(count, d))
            dw_i += dw_star[:, i]
            b_next = np.dot(km.entries[i, None, : i + 1], dw[: i + 1]).reshape(count, d)
            db_step = np.subtract(b_next, b_prev, out=db[rn])
            if frozen:
                db_step[breached] = 0.0
            if paired:
                states[:, i] = x[:count]
                db[:count] = db_physical[:, i]
            x = step(x, db)
            check_finite(x, i + 1)
            b_prev = b_next
            s_log += log_price_increments(v_safe, dw_star[:, i], params.rate, dt)
    with np.errstate(over="ignore"):  # breached paths may overflow; discarded later
        terminal = asset_prices(s_log, params)
    riskneutral = terminal, np.ones(count), breached
    if not paired:
        return None, riskneutral
    del dw, db_physical  # before the weight computation's temporaries
    states[:, n] = x[:count]
    return _weighted_terminal(scenario, xi, dw_star, states), riskneutral


class TestFeedbackLoop:
    """`_feedback_loop` equals the per-step loop it replaced byte for byte,
    frozen paths, blocks of steps and a full default batch included."""

    PRESETS = {
        "worked": section4_scenario(steps=32, seed=5),
        "constant": constant_vol_scenario(),
        "breach": TestRiskNeutralLoop._breaching_scenario(),
    }

    @staticmethod
    def _check_equals_parent(sc, seed, start, count, project, paired):
        km = pricing._kernel_matrix(sc)
        args = (sc, km, seed, start, count, project, paired)
        got, want = pricing._feedback_loop(*args), _parent_feedback_loop(*args)
        assert (got[0] is None) == (want[0] is None) == (not paired)
        for got_out, want_out in zip(got, want):
            for a, b in zip(got_out or (), want_out or ()):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        return got[1]

    @settings(max_examples=60, deadline=None)
    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        project=st.booleans(),
        paired=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 10**6),
        count=st.integers(1, 700),
    )
    def test_equals_parent_loop(self, preset, project, paired, seed, start, count):
        self._check_equals_parent(self.PRESETS[preset], seed, start, count, project, paired)

    @pytest.mark.parametrize("paired", [False, True])
    def test_frozen_paths_over_several_blocks(self, paired):
        # 300 paths keep 13 steps a block, so 64 steps make five blocks, the
        # last one short; paths breach at different steps and some never do
        count = 300
        assert pricing._HISTORY_BYTES // (8 * count * 2) == 13
        sc = self.PRESETS["breach"]
        _, _, breached = self._check_equals_parent(sc, 3, 10, count, False, paired)
        assert 0 < np.count_nonzero(breached) < count

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("project", [False, True])
    def test_equals_parent_loop_at_batch_size(self, project, paired):
        # a full default batch keeps one step a block
        sc = section4_scenario(steps=8, seed=5)
        self._check_equals_parent(sc, 11, 300, pricing.DEFAULT_BATCH_SIZE, project, paired)

    def test_peaks_of_a_full_batch(self, monkeypatch):
        # a batch of 4096 paths x 256 steps; its increments take 16 MiB
        monkeypatch.setattr(pricing, "_last_draws", None)
        sc = section4_scenario(steps=256)
        count, n, d = pricing.DEFAULT_BATCH_SIZE, sc.grid.steps, sc.dims
        km = pricing._kernel_matrix(sc)
        _batch_draws(sc, 7, 0, count)  # drawn before tracing
        peaks = {}
        for batch_fn in (pricing._paired_batch, pricing._riskneutral_batch):
            tracemalloc.start()
            try:
                batch_fn(sc, km, 7, 0, count, True)
                _, peaks[batch_fn] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        size = count * n * d * 8
        # the lone loop holds its physical increments and a few rows beside
        # them (a history of the whole batch traced 32.8 MiB)
        assert peaks[pricing._riskneutral_batch] < size + 16 * count * d * 8
        # the paired loop's peak is the weight computation, once its own
        # increments are freed (97.2 MiB while a view kept them alive)
        assert peaks[pricing._paired_batch] < 5.25 * size


class TestWeightChecks:
    """The physical estimator raises where its weights say nothing."""

    @staticmethod
    def _theta_overflow():
        # a drift of -1e200 makes the market price of risk about 1e200, whose
        # square overflows, so every log-weight is -inf
        base = section4_scenario(steps=16, seed=5)
        market = dataclasses.replace(base.market, drifts=np.array([-1e200, 0.05]))
        return dataclasses.replace(base, market=market)

    def test_non_finite_log_weight_raises(self):
        sc = self._theta_overflow()
        mc = MCConfig(paths=64, seed=3, check_conditions=False)
        message = r"log-weight became non-finite \(path 0 of the batch\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pricer in (price_physical_weighted, price_both):
                pricing._last_draws = None
                with pytest.raises(FloatingPointError, match=message):
                    pricer(Call(0, 1.0), sc, mc)

    def test_every_weight_zero_raises(self):
        # a market price of risk of -60 on V0 = 0.5 over a unit horizon puts
        # every log-weight near -1800: finite, but its exponential is 0
        sc = constant_vol_scenario(drifts=(0.05 + 60 * 0.5, 0.02))
        mc = MCConfig(paths=64, seed=3)
        _, weight, breached = physical_terminal_sample(sc, mc)
        assert not np.count_nonzero(weight) and not np.count_nonzero(breached)
        with pytest.raises(FloatingPointError, match="every kept path's .* weight underflowed"):
            price_physical_weighted(Call(0, 1.0), sc, mc)
        assert price_riskneutral(Call(0, 1.0), sc, mc).estimate > 0
