"""Scenario container: everything needed to simulate and price one market.

Scenarios serialize to JSON with field names mirroring the dataclasses.  Each
object of the document is one table of its fields, which both `parse_scenario`
and `scenario_to_dict` walk.  Parsing is strict: unknown fields are an error,
so config typos surface immediately, and a real-valued field must hold a JSON
number, not a boolean or a string.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def _plain(value):
    """JSON value of a stored field: arrays and tuples become lists of Python scalars."""
    return np.asarray(value).tolist()


class _Field(NamedTuple):
    """One field of a scenario document: `read(value, key, where)` checks its
    JSON value and returns what the dataclass takes, `dump(owner, key)` writes
    it back, and an optional field left out takes the dataclass default."""

    read: Callable
    dump: Callable = lambda owner, key: _plain(getattr(owner, key))
    optional: bool = False


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _number(value, key: str, where: str, what: str = "be a number"):
    """A JSON number: booleans and strings are rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"'{key}' in {where} must {what}, got {type(value).__name__}")
    return value


def _reals(value, key: str, where: str):
    """Numbers nested in lists to any depth; the dataclass checks the shape."""
    if isinstance(value, list):
        return [_reals(item, key, where) for item in value]
    return _number(value, key, where, "hold only numbers")


def _read(fields: dict, doc: dict, where: str) -> dict:
    """The value of each field of object `where`, as its reader returns it."""
    extras = sorted(set(doc) - set(fields))
    if extras:
        raise ScenarioError(f"unknown field(s) {extras} in {where}")
    values = {}
    for key, field in fields.items():
        if key in doc:
            values[key] = field.read(doc[key], key, where)
        elif not field.optional:
            raise ScenarioError(f"missing field '{key}' in {where}")
    return values


def _dump(fields: dict, owner) -> dict:
    return {key: field.dump(owner, key) for key, field in fields.items()}


def _section(build: Callable, fields: dict) -> _Field:
    """A nested object, built by `build` from the values of `fields`."""
    def read(value, key, where):
        return build(**_read(fields, _object(value, f"'{key}' in {where}"), key))

    return _Field(read, lambda owner, key: _dump(fields, getattr(owner, key)))


def _read_xi(value, key: str, where: str) -> XiLaw:
    doc = dict(_object(value, f"'{key}' in {where}"))
    kind = doc.pop("kind", None)
    if kind not in tuple(_XI_KINDS):
        kinds = " or ".join(map(repr, _XI_KINDS))
        raise ScenarioError(f"{key} kind must be {kinds}, got {kind!r}")
    law, fields = _XI_KINDS[kind]
    return law(**_read(fields, doc, key))


def _dump_xi(owner, key: str) -> dict:
    law = getattr(owner, key)
    kind = next(kind for kind, (cls, _) in _XI_KINDS.items() if isinstance(law, cls))
    return {"kind": kind, **_dump(_XI_KINDS[kind][1], law)}


def _read_columns(value, key: str, where: str) -> dict:
    """The diffusion columns as the arrays ModelCoefficients holds: field
    `weight` of every column is the array `weights`, and so on."""
    name = f"{where}.{key}"
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{name} must be a nonempty list of columns")
    columns = [
        _read(_COLUMN, _object(col, f"{name}[{j}]"), f"{name}[{j}]")
        for j, col in enumerate(value)
    ]
    return {f + "s": np.asarray([col[f] for col in columns], dtype=float) for f in _COLUMN}


def _dump_columns(owner, key: str) -> list[dict]:
    return [{f: _plain(getattr(owner, f + "s")[j]) for f in _COLUMN} for j in range(owner.dims)]


_REAL = _Field(lambda value, key, where: float(_number(value, key, where)))
_REALS = _Field(_reals)
_INTEGER = _Field(lambda value, key, where: value)  # its dataclass checks it

# One table per object of the document; `scenario_to_dict` writes the fields
# in table order.
_XI_KINDS = {
    "constant": (ConstantXi, {"value": _REAL}),
    "singular": (SingularXi, {"exponent": _INTEGER, "scale": _REAL, "cutoff": _REAL}),
}
_COLUMN = {"weight": _REALS, "xi_weight": _REAL, "offset": _REAL, "direction": _REALS}
_SCENARIO = {
    "market": _section(MarketParams, {
        "rate": _REAL, "drifts": _REALS, "initial_prices": _REALS, "projections": _REALS,
        "anchor_indices": _INTEGER, "initial_riskfree": _REAL._replace(optional=True),
    }),
    "coefficients": _section(
        lambda diffusion, **fields: ModelCoefficients(**fields, **diffusion),
        {
            "drift_matrix": _REALS, "xi_drift": _REALS, "drift_const": _REALS,
            "diffusion": _Field(_read_columns, _dump_columns),
        },
    ),
    "xi": _Field(_read_xi, _dump_xi),
    "hurst": _REAL,
    "grid": _section(TimeGrid, {"horizon": _REAL, "steps": _INTEGER}),
    "initial_state": _REALS,
    "seed": _INTEGER,
}


def parse_scenario(doc: dict) -> Scenario:
    """Build a scenario from a parsed JSON document; rejects unknown fields."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        return Scenario(**_read(_SCENARIO, doc, "scenario"))
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
    return _dump(_SCENARIO, s)


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
    if d == 2:
        projections, anchor_indices = np.array([[1.0, 1.0], [1.0, 0.0]]), (0, 0)
    else:
        projections, anchor_indices = np.eye(d), tuple(range(d))
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
        anchor_indices=anchor_indices,
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
