"""Scenario container: everything needed to simulate and price one market.

Scenarios serialize to JSON with field names mirroring the dataclasses; parsing
is strict (unknown fields are an error, so config typos surface immediately).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    ConstantXi,
    ModelCoefficients,
    SingularXi,
    XiLaw,
)
from .grids import TimeGrid
from .market import MarketParams
from .rng import check_seed
from .viability import Polyhedron, shifted_polyhedron


class ScenarioError(ValueError):
    """Raised for malformed scenario documents, with field diagnostics."""


@dataclass(frozen=True, eq=False)
class Scenario:
    """One market, its state equation and its driver.

    `initial_state` is a read-only copy, and the market and coefficient arrays
    are read-only too, so results cached per instance (pricing's scenario
    check) stay valid.
    """

    market: MarketParams
    coefficients: ModelCoefficients
    xi: XiLaw
    hurst: float
    grid: TimeGrid
    initial_state: np.ndarray
    seed: int

    def __post_init__(self):
        initial = np.atleast_1d(np.array(self.initial_state, dtype=float))
        initial.setflags(write=False)
        object.__setattr__(self, "initial_state", initial)
        check_seed(self.seed)
        if not (0.0 < self.hurst < 1.0):
            raise ScenarioError(f"hurst must lie in (0, 1), got {self.hurst}")
        d = self.market.dims
        if initial.shape != (d,):
            raise ScenarioError(
                f"initial_state must have {d} entries to match the market, got {initial.shape}"
            )
        if not np.all(np.isfinite(initial)):
            raise ScenarioError("initial_state contains non-finite entries")
        if not isinstance(self.coefficients, ModelCoefficients):
            raise ScenarioError(
                "coefficients must be ModelCoefficients, got "
                f"{type(self.coefficients).__name__}"
            )
        if self.coefficients.dims != d:
            raise ScenarioError(
                f"coefficients are {self.coefficients.dims}-dimensional, market is {d}"
            )

    @property
    def dims(self) -> int:
        return self.market.dims

    def polyhedron(self, xi: float) -> Polyhedron:
        """Constraint set for a given value of the mixing variable."""
        return shifted_polyhedron(
            self.market.projections, self.market.anchor_indices, xi
        )


def _take(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing field '{key}' in {where}")
    return mapping[key]


def _take_object(mapping: dict, key: str, where: str) -> dict:
    value = _take(mapping, key, where)
    if not isinstance(value, dict):
        raise ScenarioError(f"'{key}' in {where} must be an object, got {type(value).__name__}")
    return value


def _check_no_extras(mapping: dict, allowed: set[str], where: str) -> None:
    extras = sorted(set(mapping) - allowed)
    if extras:
        raise ScenarioError(f"unknown field(s) {extras} in {where}")


def _parse_xi(doc: dict) -> XiLaw:
    kind = _take(doc, "kind", "xi")
    if kind == "constant":
        _check_no_extras(doc, {"kind", "value"}, "xi")
        return ConstantXi(float(_take(doc, "value", "xi")))
    if kind == "singular":
        _check_no_extras(doc, {"kind", "exponent", "scale", "cutoff"}, "xi")
        return SingularXi(
            _take(doc, "exponent", "xi"),
            float(_take(doc, "scale", "xi")),
            float(_take(doc, "cutoff", "xi")),
        )
    raise ScenarioError(f"xi kind must be 'constant' or 'singular', got {kind!r}")


def _parse_coefficients(doc: dict) -> ModelCoefficients:
    _check_no_extras(
        doc, {"drift_matrix", "xi_drift", "drift_const", "diffusion"}, "coefficients"
    )
    diffusion = _take(doc, "diffusion", "coefficients")
    if not isinstance(diffusion, list) or not diffusion:
        raise ScenarioError("coefficients.diffusion must be a nonempty list of columns")
    weights, xi_weights, offsets, directions = [], [], [], []
    for j, col in enumerate(diffusion):
        where = f"coefficients.diffusion[{j}]"
        _check_no_extras(col, {"weight", "xi_weight", "offset", "direction"}, where)
        weights.append(_take(col, "weight", where))
        xi_weights.append(float(_take(col, "xi_weight", where)))
        offsets.append(float(_take(col, "offset", where)))
        directions.append(_take(col, "direction", where))
    return ModelCoefficients(
        drift_matrix=_take(doc, "drift_matrix", "coefficients"),
        xi_drift=_take(doc, "xi_drift", "coefficients"),
        drift_const=_take(doc, "drift_const", "coefficients"),
        weights=np.asarray(weights, dtype=float),
        xi_weights=np.asarray(xi_weights, dtype=float),
        offsets=np.asarray(offsets, dtype=float),
        directions=np.asarray(directions, dtype=float),
    )


def _parse_market(doc: dict) -> MarketParams:
    allowed = {
        "rate", "drifts", "initial_prices", "projections",
        "anchor_indices", "initial_riskfree",
    }
    _check_no_extras(doc, allowed, "market")
    return MarketParams(
        rate=float(_take(doc, "rate", "market")),
        drifts=_take(doc, "drifts", "market"),
        initial_prices=_take(doc, "initial_prices", "market"),
        projections=_take(doc, "projections", "market"),
        anchor_indices=_take(doc, "anchor_indices", "market"),
        initial_riskfree=float(doc.get("initial_riskfree", 1.0)),
    )


def parse_scenario(doc: dict) -> Scenario:
    """Build a scenario from a parsed JSON document; rejects unknown fields."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    allowed = {"market", "coefficients", "xi", "hurst", "grid", "initial_state", "seed"}
    _check_no_extras(doc, allowed, "scenario")
    grid_doc = _take_object(doc, "grid", "scenario")
    _check_no_extras(grid_doc, {"horizon", "steps"}, "grid")
    try:
        return Scenario(
            market=_parse_market(_take_object(doc, "market", "scenario")),
            coefficients=_parse_coefficients(_take_object(doc, "coefficients", "scenario")),
            xi=_parse_xi(_take_object(doc, "xi", "scenario")),
            hurst=float(_take(doc, "hurst", "scenario")),
            grid=TimeGrid(
                float(_take(grid_doc, "horizon", "grid")),
                _take(grid_doc, "steps", "grid"),
            ),
            initial_state=_take(doc, "initial_state", "scenario"),
            seed=_take(doc, "seed", "scenario"),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario value: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read and parse a scenario JSON file with location diagnostics."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return parse_scenario(doc)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of parse_scenario."""
    if isinstance(s.xi, ConstantXi):
        xi_doc = {"kind": "constant", "value": s.xi.value}
    else:
        xi_doc = {
            "kind": "singular",
            "exponent": s.xi.exponent,
            "scale": s.xi.scale,
            "cutoff": s.xi.cutoff,
        }
    c = s.coefficients
    return {
        "market": {
            "rate": s.market.rate,
            "drifts": s.market.drifts.tolist(),
            "initial_prices": s.market.initial_prices.tolist(),
            "projections": s.market.projections.tolist(),
            "anchor_indices": list(s.market.anchor_indices),
            "initial_riskfree": s.market.initial_riskfree,
        },
        "coefficients": {
            "drift_matrix": c.drift_matrix.tolist(),
            "xi_drift": c.xi_drift.tolist(),
            "drift_const": c.drift_const.tolist(),
            "diffusion": [
                {
                    "weight": c.weights[j].tolist(),
                    "xi_weight": float(c.xi_weights[j]),
                    "offset": float(c.offsets[j]),
                    "direction": c.directions[j].tolist(),
                }
                for j in range(c.dims)
            ],
        },
        "xi": xi_doc,
        "hurst": s.hurst,
        "grid": {"horizon": s.grid.horizon, "steps": s.grid.steps},
        "initial_state": s.initial_state.tolist(),
        "seed": s.seed,
    }


def section4_scenario(
    steps: int = 1024,
    horizon: float = 1.0,
    rate: float = 0.05,
    seed: int = 20_240,
    hurst: float = 0.7,
) -> Scenario:
    """Two-asset leverage example: state drift (x, y - xi), diffusion
    (x - xi) [[1, 1], [0, -1]], volatility (U1 + U2, U1), singular xi law."""
    coefficients = ModelCoefficients(
        drift_matrix=np.eye(2),
        xi_drift=np.array([0.0, -1.0]),
        drift_const=np.zeros(2),
        weights=np.array([[1.0, 0.0], [1.0, 0.0]]),
        xi_weights=np.array([-1.0, -1.0]),
        offsets=np.zeros(2),
        directions=np.array([[1.0, 0.0], [1.0, -1.0]]),
    )
    market = MarketParams(
        rate=rate,
        drifts=np.array([1.0, 1.0]),
        initial_prices=np.array([1.0, 1.0]),
        projections=np.array([[1.0, 1.0], [1.0, 0.0]]),
        anchor_indices=(0, 0),
        initial_riskfree=1.0,
    )
    return Scenario(
        market=market,
        coefficients=coefficients,
        xi=SingularXi(3, 1.0, 1.0),
        hurst=hurst,
        grid=TimeGrid(horizon, steps),
        initial_state=np.array([1.0, 0.0]),
        seed=seed,
    )


def constant_vol_scenario(
    vol=(0.5, 0.2),
    drifts=(0.1, 0.02),
    rate: float = 0.05,
    xi_value: float = 0.1,
    steps: int = 16,
    horizon: float = 1.0,
    seed: int = 71,
) -> Scenario:
    """Degenerate scenario with zero state fields, hence constant volatility.

    Prices reduce to independent lognormals, which is the closed-form
    cross-check for both estimators.
    """
    vol = np.asarray(vol, dtype=float)
    d = vol.size
    projections = np.array([[1.0, 1.0], [1.0, 0.0]]) if d == 2 else np.eye(d)
    zeros = np.zeros((d, d))
    coefficients = ModelCoefficients(
        drift_matrix=zeros,
        xi_drift=np.zeros(d),
        drift_const=np.zeros(d),
        weights=zeros,
        xi_weights=np.zeros(d),
        offsets=np.zeros(d),
        directions=np.eye(d),
    )
    market = MarketParams(
        rate=rate,
        drifts=np.asarray(drifts, dtype=float),
        initial_prices=np.ones(d),
        projections=projections,
        anchor_indices=tuple([0] * d),
        initial_riskfree=1.0,
    )
    return Scenario(
        market=market,
        coefficients=coefficients,
        xi=ConstantXi(xi_value),
        hurst=0.7,
        grid=TimeGrid(horizon, steps),
        initial_state=np.linalg.solve(projections, vol),
        seed=seed,
    )
