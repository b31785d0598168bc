import dataclasses
import json
import math
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


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=2))
    return str(path)


class TestScenarioFormat:
    def test_round_trip(self):
        sc = section4_scenario(steps=64)
        doc = scenario_to_dict(sc)
        back = parse_scenario(doc)
        assert scenario_to_dict(back) == doc

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
            raise HypergeometricError("series did not converge")

        monkeypatch.setattr(cli, "load_scenario", diverging)
        assert main(["price", "unused.json"]) == 2
        assert capsys.readouterr().err == "error: series did not converge\n"

    def test_basket_requires_weights(self, tmp_path, capsys):
        path = write_scenario(tmp_path, constant_vol_scenario())
        assert main(["price", path, "--payoff", "basket"]) == 2
        assert "--weights" in capsys.readouterr().err

    def test_breach_rate_exit_code(self, tmp_path, capsys):
        # initial volatility already sits at half the mixing floor, so every
        # path aborts regardless of the projection
        sc = constant_vol_scenario(vol=(0.9, 0.2), xi_value=0.5)
        path = write_scenario(tmp_path, sc)
        assert main(["price", path, "--payoff", "bond", "--paths", "500"]) == 3
        assert "breached" in capsys.readouterr().err


class TestCsvCells:
    def test_cells_are_float_reprs(self, tmp_path):
        values = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1 / 3])
        columns = [values, values[::-1], np.arange(values.size)]
        _write_csv(tmp_path / "cells.csv", ["a", "b", "i"], columns)
        lines = (tmp_path / "cells.csv").read_text().split("\n")
        assert lines[0] == "a,b,i" and lines[-1] == ""
        want = [",".join(repr(float(col[r])) for col in columns) for r in range(values.size)]
        assert lines[1:-1] == want


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
