"""Batch command-line front end: scenario files in, CSV/JSON results out.

Exit codes: 0 success, 1 check failure, 3 runtime breach, and 2 for a usage,
domain or file-system error, an arithmetic failure included (a state that
became non-finite, a kernel 2F1 value that was not finite, a failed mixing-law
quadrature or circulant embedding).  Every command is deterministic given its
full argument vector (seeds included); CSV and JSON outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .fbm import FbmConfig, fbm_cov, sample_paths
from .grids import TimeGrid
from .pricing import (
    Basket,
    BreachRateError,
    Call,
    MCConfig,
    Put,
    agreement_zscore,
    price_both,
    price_physical_weighted,
    price_riskneutral,
    simulate_scenario_paths,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_to_dict,
    section4_scenario,
)
from .viability import check_viability_conditions

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BREACH = 3


def _cells(column: np.ndarray) -> list[str]:
    """A column's CSV cells, repr(float(v)): the shortest round-trip decimal."""
    return list(map(repr, column.tolist()))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray | list[str]]) -> None:
    """Write `columns` under `header`, laid out as np.column_stack lays them
    out: a 1-D array is one column and a 2-D block one column per column.  A
    list of str is a column that `_cells` already formatted.  A column whose
    float64 bytes equal an earlier one's in the file reuses its cells (bytes,
    not values, keep -0.0 and 0.0 apart).  Byte-stable across runs."""
    cells, formatted = [], {}
    for column in columns:
        if isinstance(column, list):
            cells.append(column)
            continue
        block = np.asarray(column, dtype=float)
        for col in block.T if block.ndim == 2 else [block]:
            key = col.tobytes()
            if key not in formatted:
                formatted[key] = _cells(col)
            cells.append(formatted[key])
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


def _check_out(out: Path) -> None:
    """Fail, with the error `mkdir` would raise, if `out` names a file or lies
    below one; the bundle commands call this before they draw any path."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))


def _simulate_to(out: Path, scenario: Scenario, paths: int, project: bool):
    """Simulate `paths` paths into one out/sim_pathNNN.csv each: time, state,
    volatility, prices and margin.  Returns the paths and the report's lists
    of them."""
    _check_out(out)
    results = simulate_scenario_paths(scenario, paths, project=project)
    out.mkdir(parents=True, exist_ok=True)
    header = ["t"] + [f"{c}{k + 1}" for c in "uvs" for k in range(scenario.dims)] + ["margin"]
    times = _cells(scenario.grid.times)
    for i, res in enumerate(results):
        columns = [times, res["state"], res["vol"], res["prices"], res["margin"]]
        _write_csv(out / f"sim_path{i:03d}.csv", header, columns)
    return results, {
        "xi": [res["xi"] for res in results],
        "worst_margin": [float(np.min(res["margin"])) for res in results],
    }


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="\n") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_fbm(args) -> int:
    grid = TimeGrid(args.horizon, args.steps)
    cfg = FbmConfig(args.hurst, args.dims, args.seed)
    method = {"woodchan": "wood-chan", "cholesky": "cholesky"}[args.method]
    out = Path(args.out)
    _check_out(out)
    paths = sample_paths(grid, cfg, args.paths, method=method)
    out.mkdir(parents=True, exist_ok=True)
    times = grid.times
    header = ["t"] + [f"b{k + 1}" for k in range(cfg.dims)]
    time_cells = _cells(times)
    for i in range(args.paths):
        _write_csv(out / f"fbm_path{i:03d}.csv", header, [time_cells, paths[i]])

    # pooled over components: each is an independent copy of the same law
    pooled = np.moveaxis(paths[:, 1:, :], 2, 1).reshape(args.paths * cfg.dims, grid.steps)
    sq = pooled**2
    emp_var = sq.mean(axis=0)
    if pooled.shape[0] > 1:
        emp_se = sq.std(axis=0, ddof=1) / np.sqrt(pooled.shape[0])
    else:
        emp_se = np.full(grid.steps, np.nan)
    theo = np.array([fbm_cov(t, t, args.hurst) for t in times[1:]])
    _write_csv(
        out / "fbm_summary.csv",
        ["t", "empirical_var", "empirical_se", "theoretical_var"],
        [time_cells[1:], emp_var, emp_se, theo],
    )
    print(f"wrote {args.paths} path file(s) and fbm_summary.csv to {out}")
    return EXIT_OK


def _representative_xi(scenario: Scenario, override: float | None) -> float:
    if override is not None:
        if override <= 0:
            raise ValueError(f"xi must be positive, got {override}")
        return override
    return scenario.xi.upper


def cmd_check_viability(args) -> int:
    scenario = load_scenario(args.scenario)
    xi = _representative_xi(scenario, args.xi)
    box = None
    if args.box is not None:
        box = (args.box[0], args.box[1])
    report = check_viability_conditions(
        scenario.coefficients,
        scenario.polyhedron(xi),
        xi,
        mode=args.mode,
        box=box,
        tol=args.tol,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.format_table())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    _, path_lists = _simulate_to(out, scenario, args.paths, args.project)
    report = {
        "paths": args.paths,
        "seed": scenario.seed,
        "hurst": scenario.hurst,
        "horizon": scenario.grid.horizon,
        "steps": scenario.grid.steps,
        "rate": scenario.market.rate,
        "initial_riskfree": scenario.market.initial_riskfree,
        "projected": bool(args.project),
        **path_lists,
    }
    _write_json(out / "run_report.json", report)
    print(f"wrote {args.paths} path file(s) and run_report.json to {out}")
    return EXIT_OK


def _build_payoff(args):
    kind = args.payoff
    if kind == "bond":
        return lambda terminal: np.ones(terminal.shape[0])
    if kind == "basket":
        weights = args.weights
        if weights is None:
            raise ValueError("--weights is required for a basket payoff")
        return Basket(np.asarray(weights, dtype=float), args.strike)
    cls = Call if kind == "call" else Put
    return cls(args.asset, args.strike)


def cmd_price(args) -> int:
    scenario = load_scenario(args.scenario)
    payoff = _build_payoff(args)
    mc = MCConfig(paths=args.paths, seed=args.seed, project=not args.no_project)
    if args.both:
        first, second = price_both(payoff, scenario, mc)
        doc = {
            "physical": {**first.to_dict(), "estimator": "physical"},
            "riskneutral": {**second.to_dict(), "estimator": "riskneutral"},
            "agreement_z": agreement_zscore(first, second),
        }
    else:
        estimators = {
            "physical": price_physical_weighted,
            "riskneutral": price_riskneutral,
        }
        result = estimators[args.estimator](payoff, scenario, mc)
        doc = {**result.to_dict(), "estimator": args.estimator}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_reproduce_section4(args) -> int:
    scenario = section4_scenario(
        steps=args.steps, horizon=args.horizon, rate=args.rate, seed=args.seed
    )
    out = Path(args.out)
    results, path_lists = _simulate_to(out, scenario, args.paths, project=False)
    normalizer = scenario.xi.normalizer

    xi_rep = scenario.xi.upper
    report = check_viability_conditions(
        scenario.coefficients, scenario.polyhedron(xi_rep), xi_rep, mode="cone"
    )
    _write_json(out / "viability_report.json", report.to_dict())
    _write_json(out / "scenario.json", scenario_to_dict(scenario))
    summary = {
        "normalizer": normalizer,
        "viability_passed": report.passed,
        "paths": args.paths,
        "seed": args.seed,
        "projected": False,
        "assumptions": {
            "rate": args.rate,
            "horizon": args.horizon,
            "steps": args.steps,
            "initial_riskfree": 1.0,
            "independent_driver_components": True,
        },
        **path_lists,
        "min_vol_minus_xi": [float(np.min(res["vol"] - res["xi"])) for res in results],
    }
    _write_json(out / "report.json", summary)
    print(f"normalizer = {normalizer:.6f}")
    print(f"viability (cone mode): {'pass' if report.passed else 'FAIL'}")
    print(f"wrote bundle to {out}")
    return EXIT_OK


# one parser per process: `main` called again (in-process runs, tests) skips
# its forty-odd add_argument calls
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvol",
        description="Constrained fractional stochastic volatility simulator and pricer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fbm = sub.add_parser("fbm", help="sample fractional Brownian paths to CSV")
    p_fbm.add_argument("--hurst", type=float, required=True)
    p_fbm.add_argument("--steps", type=int, default=256)
    p_fbm.add_argument("--horizon", type=float, default=1.0)
    p_fbm.add_argument("--dims", type=int, default=1)
    p_fbm.add_argument("--paths", type=int, default=1)
    p_fbm.add_argument("--seed", type=int, default=0)
    p_fbm.add_argument("--method", choices=["woodchan", "cholesky"], default="woodchan")
    p_fbm.add_argument("--out", default="fbm_out")
    p_fbm.set_defaults(func=cmd_fbm)

    p_check = sub.add_parser("check-viability", help="boundary condition report")
    p_check.add_argument("scenario")
    p_check.add_argument("--mode", choices=["cone", "hyperplane"], default="cone")
    p_check.add_argument("--xi", type=float, default=None,
                         help="mixing value to check (default: the law's upper bound)")
    p_check.add_argument("--tol", type=float, default=1e-10)
    p_check.add_argument("--box", type=float, nargs=2, default=None,
                         metavar=("LO", "HI"),
                         help="same bounds applied to every coordinate")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check_viability)

    p_sim = sub.add_parser("simulate", help="simulate state/volatility/price paths")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--paths", type=int, default=4)
    p_sim.add_argument("--project", action="store_true",
                       help="project the state onto the constraint set each step")
    p_sim.add_argument("--out", default="sim_out")
    p_sim.set_defaults(func=cmd_simulate)

    p_price = sub.add_parser("price", help="Monte Carlo price of a European claim")
    p_price.add_argument("scenario")
    p_price.add_argument("--payoff", choices=["call", "put", "basket", "bond"],
                         default="call")
    p_price.add_argument("--asset", type=int, default=0)
    p_price.add_argument("--strike", type=float, default=1.0)
    p_price.add_argument("--weights", type=float, nargs="+", default=None)
    p_price.add_argument("--paths", type=int, default=10_000)
    p_price.add_argument("--seed", type=int, default=None,
                         help="override the scenario seed")
    p_price.add_argument("--estimator", choices=["physical", "riskneutral"],
                         default="physical")
    p_price.add_argument("--both", action="store_true",
                         help="run both estimators and report the agreement z-score")
    p_price.add_argument("--no-project", action="store_true",
                         help="skip the per-step projection onto the constraint set "
                              "(floor breaches then abort paths and can fail the run)")
    p_price.set_defaults(func=cmd_price)

    p_rep = sub.add_parser("reproduce-section4",
                           help="one-command reproduction of the worked example")
    p_rep.add_argument("--steps", type=int, default=1024)
    p_rep.add_argument("--horizon", type=float, default=1.0)
    p_rep.add_argument("--rate", type=float, default=0.05)
    p_rep.add_argument("--paths", type=int, default=5)
    p_rep.add_argument("--seed", type=int, default=20_240)
    p_rep.add_argument("--out", default="section4_out")
    p_rep.set_defaults(func=cmd_reproduce_section4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BreachRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREACH
    except (ScenarioError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
