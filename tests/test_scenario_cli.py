import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fracvol import ConstantXi, SingularXi
from fracvol import cli
from fracvol.cli import _write_csv, main
from fracvol.scenario import (
    ScenarioError,
    constant_vol_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    section4_scenario,
)
from fracvol.volterra import HypergeometricError

SRC = Path(__file__).resolve().parents[1] / "src"


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=2))
    return str(path)


PRESETS = {
    "worked": lambda: section4_scenario(steps=8),
    "constant": lambda: constant_vol_scenario(steps=8),
}


def set_field(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


class TestScenarioFormat:
    @pytest.mark.parametrize("preset", ["worked", "constant"])
    def test_round_trip(self, preset):
        doc = scenario_to_dict(PRESETS[preset]())
        assert scenario_to_dict(parse_scenario(doc)) == doc

    def test_reference_preset_structure(self):
        sc = section4_scenario()
        assert sc.grid.steps == 1024
        assert sc.hurst == 0.7
        assert isinstance(sc.xi, SingularXi)
        assert np.array_equal(sc.market.projections, [[1.0, 1.0], [1.0, 0.0]])
        assert sc.market.anchor_indices == (0, 0)
        assert np.array_equal(sc.initial_state, [1.0, 0.0])
        assert np.array_equal(sc.market.drifts, [1.0, 1.0])

    def test_unknown_field_rejected(self):
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc["volatility_cap"] = 3.0
        with pytest.raises(ScenarioError, match="volatility_cap"):
            parse_scenario(doc)

    def test_unknown_nested_field_rejected(self):
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc["market"]["dividends"] = [0.0, 0.0]
        with pytest.raises(ScenarioError, match="dividends"):
            parse_scenario(doc)

    def test_missing_field_named(self):
        doc = scenario_to_dict(section4_scenario(steps=8))
        del doc["hurst"]
        with pytest.raises(ScenarioError, match="hurst"):
            parse_scenario(doc)

    def test_parse_error_carries_location(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "market": [,]\n}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    def test_constant_xi_round_trip(self):
        sc = constant_vol_scenario()
        back = parse_scenario(scenario_to_dict(sc))
        assert isinstance(back.xi, ConstantXi)
        assert back.xi.value == sc.xi.value

    def test_dimension_mismatch_rejected(self):
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc["initial_state"] = [1.0, 0.0, 0.0]
        with pytest.raises(ScenarioError, match="initial_state"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("grid", "steps"), 8.7),
            (("grid", "steps"), True),
            (("seed",), 3.9),
            (("seed",), True),
            (("seed",), -1),
            (("seed",), 2**64),
            (("xi", "exponent"), 3.5),
            (("xi", "exponent"), True),
            (("market", "anchor_indices"), [0.5, 0]),
            (("market", "anchor_indices"), [True, 0]),
        ],
    )
    def test_invalid_integer_field_rejected(self, keys, value):
        # a float was truncated (steps 8.7 ran 8 steps) and True ran as 1; a
        # seed outside [0, 2**64) repeated the paths of the seed it wraps to
        doc = scenario_to_dict(section4_scenario(steps=8))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        with pytest.raises(ScenarioError, match=keys[-1]):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "preset, keys, value",
        [
            ("worked", ("market", "rate"), True),
            ("worked", ("market", "rate"), "0.05"),
            ("worked", ("market", "initial_riskfree"), False),
            ("worked", ("hurst",), "0.7"),
            ("worked", ("grid", "horizon"), True),
            ("constant", ("xi", "value"), "0.1"),
            ("worked", ("xi", "scale"), True),
            ("worked", ("xi", "cutoff"), None),
            ("worked", ("coefficients", "diffusion", 0, "xi_weight"), True),
            ("worked", ("coefficients", "diffusion", 0, "offset"), "0"),
            ("worked", ("market", "drifts"), [True, False]),
            ("worked", ("market", "initial_prices"), ["1", 1.0]),
            ("worked", ("market", "projections"), [[1.0, True], [1.0, 0.0]]),
            ("worked", ("initial_state",), [None, 0.0]),
            ("worked", ("coefficients", "drift_matrix"), [[1.0, 0.0], [0.0, "1"]]),
            ("worked", ("coefficients", "xi_drift"), [0.0, False]),
            ("worked", ("coefficients", "drift_const"), [{}, 0.0]),
            ("worked", ("coefficients", "diffusion", 0, "weight"), [True, 0.0]),
            ("worked", ("coefficients", "diffusion", 1, "direction"), [1.0, "-1"]),
        ],
    )
    def test_non_number_real_field_rejected(self, preset, keys, value):
        # float() read true as 1.0 and "0" as 0.0, and arrays took booleans
        doc = scenario_to_dict(PRESETS[preset]())
        set_field(doc, keys, value)
        field = next(key for key in reversed(keys) if isinstance(key, str))
        with pytest.raises(ScenarioError, match=f"'{field}' in .* must (be a|hold only) number"):
            parse_scenario(doc)

    def test_integer_real_field_parses_as_float(self):
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc["market"]["rate"] = 1
        doc["market"]["drifts"] = [1, 0]
        dumped = scenario_to_dict(parse_scenario(doc))["market"]
        assert json.dumps([dumped["rate"], dumped["drifts"]]) == "[1.0, [1.0, 0.0]]"

    @pytest.mark.parametrize("column", ["abc", 5, None, []])
    def test_non_object_diffusion_column_rejected(self, column):
        # "abc" raised "unknown field(s) ['a', 'b', 'c']", and 5 or null
        # "'int' object is not iterable"
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc["coefficients"]["diffusion"][0] = column
        message = rf"^coefficients\.diffusion\[0\] must be an object, got {type(column).__name__}$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid", 5), ("grid", None), ("grid", []),
            ("market", 5), ("xi", None), ("coefficients", []),
        ],
    )
    def test_non_object_section_rejected(self, key, value):
        # a non-object grid raised a bare TypeError outside the parser's try
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc[key] = value
        with pytest.raises(ScenarioError, match=f"'{key}' in scenario must be an object"):
            parse_scenario(doc)

    def test_foreign_coefficients_rejected(self):
        # a field object of another type, even one with the wrong `dims`, is
        # rejected by type rather than let through unchecked
        sc = section4_scenario(steps=8)
        foreign = SimpleNamespace(dims=3, mu=None, sigma=None)
        with pytest.raises(ScenarioError, match="ModelCoefficients, got SimpleNamespace"):
            dataclasses.replace(sc, coefficients=foreign)


class TestFbmCommand:
    def test_writes_paths_and_summary(self, tmp_path, capsys):
        out = tmp_path / "fbm"
        code = main(
            [
                "fbm", "--hurst", "0.7", "--steps", "16", "--paths", "3",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "fbm_path000.csv", "fbm_path001.csv", "fbm_path002.csv", "fbm_summary.csv",
        ]
        header, first = (out / "fbm_path000.csv").read_text().splitlines()[:2]
        assert header == "t,b1"
        assert first == "0.0,0.0"

    def test_domain_error_exit_code(self, capsys):
        assert main(["fbm", "--hurst", "1.2", "--steps", "8"]) == 2
        assert "hurst" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_path_count_rejected(self, tmp_path, capsys, count):
        out = tmp_path / "fbm"
        argv = ["fbm", "--hurst", "0.7", "--steps", "8", "--paths", count, "--out", str(out)]
        assert main(argv) == 2
        assert f"need at least 1 path, got {count}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--steps", "1000000", "--method", "cholesky"], ["--steps", "1024", "--paths", "100000000000"]],
    )
    def test_input_too_large_for_memory_rejected(self, tmp_path, capsys, argv):
        # these died in numpy's allocation with a MemoryError traceback
        out = tmp_path / "fbm"
        assert main(["fbm", "--hurst", "0.7", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("GiB of physical memory on this machine\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_methods_agree_within_reported_errors(self, tmp_path):
        stats = {}
        for method in ("woodchan", "cholesky"):
            out = tmp_path / method
            main(
                [
                    "fbm", "--hurst", "0.7", "--steps", "8", "--paths", "4000",
                    "--seed", "11", "--method", method, "--out", str(out),
                ]
            )
            rows = (out / "fbm_summary.csv").read_text().splitlines()[1:]
            data = np.array([[float(v) for v in row.split(",")] for row in rows])
            stats[method] = data
        for a, b in zip(stats["woodchan"], stats["cholesky"]):
            combined = math.hypot(a[2], b[2])
            assert abs(a[1] - b[1]) <= 3.5 * combined

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "fbm", "--hurst", "0.5", "--steps", "8", "--paths", "2",
                    "--seed", "3", "--out", str(out),
                ]
            )
            outs.append((out / "fbm_path000.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCheckViabilityCommand:
    def test_reference_cone_mode_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        assert main(["check-viability", path, "--mode", "cone"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_reference_hyperplane_mode_fails(self, tmp_path, capsys):
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        assert main(["check-viability", path, "--mode", "hyperplane"]) == 1
        out = capsys.readouterr().out
        assert "fail" in out

    def test_json_report(self, tmp_path, capsys):
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        assert main(["check-viability", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert len(doc["faces"]) == 2

    def test_degenerate_fields_pass_both_modes(self, tmp_path):
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["check-viability", path, "--mode", "cone"]) == 0
        assert main(["check-viability", path, "--mode", "hyperplane"]) == 0

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check-viability", "no-such-file.json"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_invalid_tol_is_usage_error(self, tmp_path, capsys, tol):
        # a NaN tolerance failed every face, and a negative one failed faces
        # whose worst score is exactly 0
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        assert main(["check-viability", path, "--tol", tol]) == 2
        assert capsys.readouterr().err.startswith("error: tol must be finite and nonnegative")

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--xi", "nan"], "xi must be finite"),
            (["--xi", "inf"], "xi must be finite"),
            (["--box", "0", "nan"], "box bounds must be finite"),
        ],
    )
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, option, message):
        # these failed inside the linear program, with scipy's message on b_ub
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        assert main(["check-viability", path, *option]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_box_missing_the_set_is_usage_error(self, tmp_path, capsys):
        # the box [-5, -4]^2 lies where every volatility is negative
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        assert main(["check-viability", path, "--box", "-5", "-4"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: polyhedron has no interior point inside the box; widen the box"
        )

    def test_samples_option_is_gone(self, tmp_path, capsys):
        # the checker scores polytope vertices only, so there is nothing to sample
        path = write_scenario(tmp_path, section4_scenario(steps=16))
        with pytest.raises(SystemExit) as exit_info:
            main(["check-viability", path, "--samples", "64"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --samples 64" in capsys.readouterr().err


class TestSimulateCommand:
    def test_constant_state_rows(self, tmp_path):
        path = write_scenario(tmp_path, constant_vol_scenario(steps=8))
        out = tmp_path / "sim"
        assert main(["simulate", path, "--paths", "2", "--out", str(out)]) == 0
        rows = (out / "sim_path000.csv").read_text().splitlines()
        assert rows[0] == "t,u1,u2,v1,v2,s1,s2,margin"
        u_cols = np.array([[float(v) for v in r.split(",")[1:3]] for r in rows[1:]])
        assert np.allclose(u_cols, u_cols[0])
        report = json.loads((out / "run_report.json").read_text())
        assert report["paths"] == 2
        assert report["rate"] == 0.05

    def test_rough_regime_rejected(self, tmp_path, capsys):
        sc = constant_vol_scenario(steps=8)
        doc = scenario_to_dict(sc)
        doc["hurst"] = 0.4
        path = tmp_path / "rough.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 2
        assert "rough regime" in capsys.readouterr().err

    def test_seed_repetition_identical_files(self, tmp_path):
        path = write_scenario(tmp_path, section4_scenario(steps=32))
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["simulate", path, "--paths", "2", "--out", str(out)]) == 0
            blobs.append(
                (out / "sim_path000.csv").read_bytes()
                + (out / "run_report.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_projection_flag_keeps_margins_nonnegative(self, tmp_path):
        path = write_scenario(tmp_path, section4_scenario(steps=64, seed=2))
        out = tmp_path / "proj"
        assert main(
            ["simulate", path, "--paths", "3", "--project", "--out", str(out)]
        ) == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["projected"] is True
        assert all(m >= -1e-9 for m in report["worst_margin"])

    def test_non_finite_state_is_domain_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, overflowing_scenario())
        assert main(["simulate", path, "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: state became non-finite at step 6")
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_path_count_rejected(self, tmp_path, capsys, count):
        path = write_scenario(tmp_path, constant_vol_scenario(steps=8))
        out = tmp_path / "sim"
        assert main(["simulate", path, "--paths", count, "--out", str(out)]) == 2
        assert f"need at least 1 path, got {count}" in capsys.readouterr().err
        assert not out.exists()


def overflowing_scenario():
    """A scenario whose states overflow to inf at step 6 of 8 on every path."""
    base = constant_vol_scenario(steps=8)
    coeffs = dataclasses.replace(base.coefficients, drift_matrix=np.diag([1e60, 1e60]))
    return dataclasses.replace(base, coefficients=coeffs)


class TestPriceCommand:
    def test_non_object_grid_exits_2(self, tmp_path, capsys):
        # it exited 1 with a TypeError traceback
        doc = scenario_to_dict(section4_scenario(steps=8))
        doc["grid"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["price", str(path)]) == 2
        assert "error: 'grid' in scenario must be an object, got int" in capsys.readouterr().err

    def test_bond_payoff(self, tmp_path, capsys):
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(
            ["price", path, "--payoff", "bond", "--paths", "2000"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        target = math.exp(-0.05)
        assert abs(doc["estimate"] - target) <= 3 * max(doc["stderr"], 1e-12)
        assert doc["estimator"] == "physical"

    def test_degenerate_call_against_closed_form(self, tmp_path, capsys):
        from fracvol import bs_reference_price

        path = write_scenario(
            tmp_path, constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.1, 0.02))
        )
        assert main(
            [
                "price", path, "--payoff", "call", "--asset", "0",
                "--strike", "1.0", "--paths", "20000", "--estimator", "riskneutral",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        target = bs_reference_price(1.0, 1.0, 0.05, 0.5, 1.0, "call")
        assert abs(doc["estimate"] - target) <= 3 * doc["stderr"]

    def test_both_reports_z(self, tmp_path, capsys):
        path = write_scenario(tmp_path, constant_vol_scenario(vol=(0.5, 0.2)))
        assert main(
            ["price", path, "--payoff", "call", "--strike", "1.0",
             "--paths", "4000", "--both"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["agreement_z"]) <= 3
        assert doc["physical"]["estimator"] == "physical"
        assert doc["riskneutral"]["paths"] == 4000

    def test_both_equals_each_estimator(self, tmp_path, capsys):
        # 5000 paths make two batches, each stepped through one paired loop
        path = write_scenario(tmp_path, section4_scenario(steps=16, seed=5))
        argv = ["price", path, "--payoff", "put", "--strike", "1.1", "--paths", "5000"]
        assert main(argv + ["--both"]) == 0
        both = json.loads(capsys.readouterr().out)
        for estimator in ("physical", "riskneutral"):
            assert main(argv + ["--estimator", estimator]) == 0
            assert json.loads(capsys.readouterr().out) == both[estimator]

    def test_both_with_zero_error_bars(self, tmp_path, capsys):
        # every payoff is 0 under both measures, so both standard errors are 0
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["price", path, "--strike", "1e6", "--paths", "64", "--both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["physical"]["stderr"] == doc["riskneutral"]["stderr"] == 0.0
        assert doc["agreement_z"] == 0.0

    def test_non_finite_log_weight_is_domain_error(self, tmp_path, capsys):
        # a drift of -1e200 makes theta about 1e200, whose square overflows,
        # so every log-weight of the physical estimator is -inf
        base = section4_scenario(steps=16, seed=5)
        market = dataclasses.replace(base.market, drifts=np.array([-1e200, 0.05]))
        path = write_scenario(tmp_path, dataclasses.replace(base, market=market))
        assert main(["price", path, "--paths", "64", "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: log-weight became non-finite")

    @pytest.mark.parametrize("estimator", ["--both", "--estimator=riskneutral"])
    def test_non_finite_state_is_domain_error(self, tmp_path, capsys, estimator):
        path = write_scenario(tmp_path, overflowing_scenario())
        assert main(["price", path, "--paths", "16", estimator]) == 2
        assert capsys.readouterr().err.startswith("error: state became non-finite at step 6")

    def test_series_failure_is_domain_error(self, tmp_path, capsys, monkeypatch):
        def diverging(*args):
            raise HypergeometricError("2F1 is not finite")

        monkeypatch.setattr(cli, "load_scenario", diverging)
        assert main(["price", "unused.json"]) == 2
        assert capsys.readouterr().err == "error: 2F1 is not finite\n"

    @pytest.mark.parametrize("hurst", [0.976, 0.99])
    def test_hurst_close_to_one_prices(self, tmp_path, capsys, hurst):
        scenario = dataclasses.replace(section4_scenario(steps=16, seed=5), hurst=hurst)
        path = write_scenario(tmp_path, scenario)
        assert main(["price", path, "--paths", "64", "--both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert math.isfinite(doc["physical"]["estimate"])
        assert math.isfinite(doc["riskneutral"]["estimate"])

    @pytest.mark.parametrize(
        "argv", [["--strike", "nan"], ["--payoff", "put", "--strike", "inf", "--both"]]
    )
    def test_non_finite_strike_is_usage_error(self, tmp_path, capsys, argv):
        # printed as "estimate": NaN or Infinity, which is not JSON
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["price", path, "--paths", "64", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: strike must be finite and nonnegative")

    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys):
        # -1 priced the paths of seed 2**64 - 1
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["price", path, "--paths", "64", "--seed", "-1"]) == 2
        assert "seed must be an integer in [0, 2**64), got -1" in capsys.readouterr().err

    def test_basket_requires_weights(self, tmp_path, capsys):
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["price", path, "--payoff", "basket"]) == 2
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--asset", "2"], "asset index 2 out of range for 2 assets"),
            (["--payoff", "put", "--asset", "-1", "--both"], "asset must be a nonnegative integer"),
            (["--payoff", "basket", "--weights", "1", "1", "1"], "got shape (3,)"),
        ],
    )
    def test_claim_that_does_not_fit_the_scenario_is_usage_error(
        self, tmp_path, capsys, argv, message
    ):
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["price", path, "--paths", "64", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_breach_rate_exit_code(self, tmp_path, capsys):
        # initial volatility already sits at half the mixing floor, so every
        # path aborts regardless of the projection
        sc = constant_vol_scenario(vol=(0.9, 0.2), xi_value=0.5)
        path = write_scenario(tmp_path, sc)
        assert main(["price", path, "--payoff", "bond", "--paths", "500"]) == 3
        assert "breached" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "simulate", "check-viability"])
def test_mixing_law_quadrature_failure_is_domain_error(tmp_path, capsys, command):
    # exp(-1e6 / x^3) underflows to 0 on all of (0, 1], so the normalizing
    # integral is 0; the ArithmeticError exited 1 with a traceback
    doc = scenario_to_dict(section4_scenario(steps=8))
    doc["xi"] = {"kind": "singular", "exponent": 3, "scale": 1e6, "cutoff": 1.0}
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, str(path), *out]) == 2
    assert capsys.readouterr().err.startswith("error: normalizing quadrature did not converge")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_initial_state_rejected(value):
    # a NaN state failed late, as "state became non-finite at step 1"
    base = section4_scenario(steps=8)
    with pytest.raises(ScenarioError, match="initial_state contains non-finite entries"):
        dataclasses.replace(base, initial_state=np.array([value, 0.0]))


def test_non_finite_initial_price_is_usage_error(tmp_path, capsys):
    # it exited 0 and printed "estimate": Infinity, "stderr": NaN
    doc = scenario_to_dict(constant_vol_scenario())
    doc["market"]["initial_prices"] = [math.inf, 1.0]
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc))
    assert '"initial_prices": [Infinity, 1.0]' in path.read_text()
    assert main(["price", str(path), "--paths", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "invalid scenario value: initial_prices contains non-finite entries"
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["price", "simulate"])
def test_file_system_error_is_usage_error(tmp_path, capsys, command):
    # `price DIR` raised IsADirectoryError and `simulate --out FILE`
    # FileExistsError; each printed a traceback and exited 1, the check-failed code
    path = write_scenario(tmp_path, section4_scenario(steps=8))
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {
        "price": ["price", str(tmp_path)],
        "simulate": ["simulate", path, "--paths", "1", "--out", str(taken)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno ")


@pytest.mark.parametrize("command", ["simulate", "reproduce-section4", "fbm"])
def test_out_naming_a_file_fails_before_simulating(tmp_path, capsys, monkeypatch, command):
    # the commands simulated or sampled every path before mkdir found the file
    calls = []
    monkeypatch.setattr(cli, "simulate_scenario_paths", lambda *a, **k: calls.append(a) or [])
    monkeypatch.setattr(cli, "sample_paths", lambda *a, **k: calls.append(a) or [])
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {
        "simulate": ["simulate", write_scenario(tmp_path, section4_scenario(steps=8))],
        "reproduce-section4": ["reproduce-section4", "--steps", "8"],
        "fbm": ["fbm", "--hurst", "0.7", "--steps", "8"],
    }[command]
    # an --out below the file failed only at mkdir, after the simulation
    for out, code in ((taken, errno.EEXIST), (taken / "sub", errno.ENOTDIR)):
        assert main([*argv, "--paths", "1", "--out", str(out)]) == 2
        want = f"error: [Errno {code}] {os.strerror(code)}: '{out}'"
        assert capsys.readouterr().err.startswith(want)
    assert calls == []
    assert taken.read_text() == ""


ONE_PROCESS = """
import json
import sys

from fracvol.cli import build_parser, main

for argv in json.loads(sys.argv[1]):
    print("exit", main(argv))
print("parsers built:", build_parser.cache_info().misses)
"""


def test_commands_in_one_process_match_fresh_processes(tmp_path):
    # `main` reuses one parser per process; a command run after others
    # prints and writes what it does in a process of its own
    scenario = write_scenario(tmp_path, section4_scenario(steps=8))
    commands = [
        ["fbm", "--hurst", "0.7", "--steps", "8", "--paths", "2", "--seed", "3", "--out", "f1"],
        ["check-viability", scenario, "--json"],
        ["simulate", scenario, "--paths", "2", "--project", "--out", "s1"],
        ["fbm", "--hurst", "0.6", "--steps", "4", "--out", "f2"],
        ["price", scenario, "--paths", "16", "--both"],
        ["reproduce-section4", "--steps", "8", "--paths", "2", "--out", "r1"],
        ["simulate", scenario, "--paths", "1", "--out", "s2"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", ONE_PROCESS, json.dumps(commands)],
        cwd=shared, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    want = ""
    for argv in commands:
        alone = subprocess.run(
            [sys.executable, "-m", "fracvol.cli", *argv],
            cwd=fresh, env=env, capture_output=True, text=True, timeout=120,
        )
        want += f"{alone.stdout}exit {alone.returncode}\n"
    assert done.stdout == want + "parsers built: 1\n"
    files = {
        root: {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        for root in (shared, fresh)
    }
    assert len(files[fresh]) == 15 and files[shared] == files[fresh]


def row_wise_csv(path, header, columns):
    """The row-at-a-time writer that `_write_csv` replaced: the reference for its bytes."""
    rows = np.asarray(np.column_stack(columns), dtype=float).tolist()
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1 / 3])
BLOCK = np.arange(24, dtype=float).reshape(8, 3) / 7


class TestCsvCells:
    def test_cells_are_float_reprs(self, tmp_path):
        values = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1 / 3])
        columns = [values, values[::-1], np.arange(values.size)]
        _write_csv(tmp_path / "cells.csv", ["a", "b", "i"], columns)
        lines = (tmp_path / "cells.csv").read_text().split("\n")
        assert lines[0] == "a,b,i" and lines[-1] == ""
        want = [",".join(repr(float(col[r])) for col in columns) for r in range(values.size)]
        assert lines[1:-1] == want

    @pytest.mark.parametrize(
        "columns",
        [
            # -0.0 beside 0.0: equal values, different bytes, different cells
            [np.zeros(8), -np.zeros(8), SPECIAL, -SPECIAL],
            [np.arange(8), SPECIAL],
            [SPECIAL, BLOCK, SPECIAL],
            # bit-equal duplicates, within a block and beside it
            [BLOCK[:, 0], np.column_stack([BLOCK[:, 0], BLOCK[:, 1], BLOCK[:, 0]]), BLOCK],
            [SPECIAL[:1], BLOCK[:1], np.arange(1)],
        ],
        ids=["signed-zeros", "integers", "block", "duplicates", "one-row"],
    )
    def test_same_bytes_as_the_row_wise_writer(self, tmp_path, columns):
        header = [f"c{j}" for j in range(np.column_stack(columns).shape[1])]
        row_wise_csv(tmp_path / "want.csv", header, columns)
        _write_csv(tmp_path / "got.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_formatted_column_is_written_as_given(self, tmp_path):
        # a shared column formatted once, whole and sliced, as the bundle
        # commands pass their time column
        times = np.linspace(0.0, 1.0, 9)
        cells = cli._cells(times)
        for name, shared, column in [("whole", cells, times), ("tail", cells[1:], times[1:])]:
            row_wise_csv(tmp_path / f"{name}-want.csv", ["t", "x"], [column, column**2])
            _write_csv(tmp_path / f"{name}-got.csv", ["t", "x"], [shared, column**2])
            got = (tmp_path / f"{name}-got.csv").read_bytes()
            assert got == (tmp_path / f"{name}-want.csv").read_bytes()

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


class TestReproduceCommand:
    def test_bundle_contents(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(
            ["reproduce-section4", "--steps", "64", "--paths", "2", "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["normalizer"] == pytest.approx(15.7604, abs=1e-3)
        assert report["viability_passed"] is True
        assert report["projected"] is False
        assert report["assumptions"]["rate"] == 0.05
        scenario = json.loads((out / "scenario.json").read_text())
        assert scenario["market"]["projections"] == [[1.0, 1.0], [1.0, 0.0]]
        viability = json.loads((out / "viability_report.json").read_text())
        assert viability["passed"] is True
        assert (out / "sim_path000.csv").exists()
        assert (out / "sim_path001.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(
                [
                    "reproduce-section4", "--steps", "64", "--paths", "2",
                    "--seed", "9", "--out", str(out),
                ]
            ) == 0
            blob = b"".join(
                (out / f).read_bytes()
                for f in sorted(p.name for p in out.iterdir())
            )
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_path_count_rejected(self, tmp_path, capsys, count):
        out = tmp_path / "bundle"
        argv = ["reproduce-section4", "--steps", "64", "--paths", count, "--out", str(out)]
        assert main(argv) == 2
        assert f"need at least 1 path, got {count}" in capsys.readouterr().err
        assert not out.exists()
