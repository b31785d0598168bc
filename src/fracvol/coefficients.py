"""Drift/diffusion fields parameterized by a scalar mixing variable, and its law.

The built-in family is affine in both the state and the mixing variable xi:

    mu(xi, x)          = A x + xi * beta + const
    sigma(xi, x)[:, j] = (<w_j, x> + kappa_j * xi + rho_j) * s_j

It is globally Lipschitz with bounded higher derivatives, is serializable in
scenario files, and its boundary behavior is affine in the state, so the
viability checker certifies it exactly at polytope vertices.  It is the only
family the engine accepts: its Jacobians, A for the drift and s_j w_j^T for
diffusion column j, are constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .grids import is_integer
from .volterra import _tanh_sinh_unit

# Reserved stream tag for the mixing-variable draw; driver components use 0..d-1.
XI_STREAM = 0x5A1

_CDF_TABLE_SIZE = 2**14


def xi_normalizer(exponent: int, scale: float, cutoff: float) -> float:
    """Constant that turns exp(-scale / x^exponent) on (0, cutoff] into a density.

    The tanh-sinh rule (`volterra._tanh_sinh_unit`) at steps 0.02 and 0.01,
    summed exactly, on each side of the rise at scale^(1/exponent); raises
    ArithmeticError when the sums differ by over 1e-8 of the integral, or
    when it or its reciprocal is not positive and finite.
    """
    if not (is_integer(exponent) and exponent >= 2):
        raise ValueError(f"exponent must be an integer >= 2, got {exponent}")
    if not all(math.isfinite(v) and v > 0 for v in (scale, cutoff)):
        raise ValueError(f"scale and cutoff must be positive and finite, got {scale}, {cutoff}")
    knot = scale ** (1.0 / exponent)
    edges = (0.0, knot, cutoff) if knot < cutoff else (0.0, cutoff)
    with np.errstate(divide="ignore", over="ignore"):  # x^exponent underflows near 0
        coarse, integral = (
            math.fsum(np.concatenate([
                (hi - lo) * (np.exp(-scale / (lo + (hi - lo) * x) ** exponent) * weight)
                for lo, hi in zip(edges, edges[1:])
            ]))
            for x, _, weight in map(_tanh_sinh_unit, (0.02, 0.01))
        )
    err = abs(integral - coarse)
    if not 1.0 / np.finfo(float).max <= integral < math.inf or err > 1e-8 * integral:
        raise ArithmeticError(
            f"normalizing quadrature did not converge: integral={integral}, error={err}"
        )
    return 1.0 / integral


@dataclass(frozen=True)
class ConstantXi:
    """Degenerate law: the mixing variable always equals `value`."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"value must be positive and finite, got {self.value}")

    @property
    def upper(self) -> float:
        return self.value


@dataclass(frozen=True)
class SingularXi:
    """Density proportional to exp(-scale / x^exponent) on (0, cutoff].

    The density vanishes to all orders at 0, so draws are bounded away from
    zero in practice and reciprocal moments of every order are finite for
    exponent > 2.
    """

    exponent: int
    scale: float
    cutoff: float

    def __post_init__(self):
        self.normalizer  # validates the parameters and caches the quadrature

    @property
    def upper(self) -> float:
        return self.cutoff

    @cached_property
    def normalizer(self) -> float:
        return xi_normalizer(self.exponent, self.scale, self.cutoff)

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = (x > 0) & (x <= self.cutoff)
        out[inside] = self.normalizer * np.exp(-self.scale / x[inside] ** self.exponent)
        return out

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(0.0, self.cutoff, _CDF_TABLE_SIZE + 1)
        pdf = np.zeros_like(xs)
        pdf[1:] = self.normalizer * np.exp(-self.scale / xs[1:] ** self.exponent)
        steps = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        cdf /= cdf[-1]
        return xs, cdf

    def cdf(self, x) -> np.ndarray:
        xs, table = self._cdf_table
        return np.interp(np.clip(np.asarray(x, float), 0.0, self.cutoff), xs, table)


XiLaw = ConstantXi | SingularXi


def xi_inverse_cdf(law: XiLaw, u) -> np.ndarray:
    """Quantiles of the law at u in (0, 1): the exact inverse of the piecewise
    linear CDF table.  The table is 0 up to its last zero, where the density
    underflows, and strictly rises after it, so u is interpolated over that part."""
    u = np.asarray(u, dtype=float)
    if isinstance(law, ConstantXi):
        return np.full_like(u, law.value)
    xs, table = law._cdf_table
    rise = np.count_nonzero(table == 0) - 1
    return np.interp(u, table[rise:], xs[rise:])


@dataclass(frozen=True, eq=False)
class ModelCoefficients:
    """The affine drift/diffusion family described in the module docstring.

    Row j of `weights` is w_j, row j of `directions` is s_j; diffusion column j
    is (<w_j, x> + xi_weights[j] * xi + offsets[j]) * directions[j].  The
    arrays are read-only copies of the inputs.
    """

    drift_matrix: np.ndarray
    xi_drift: np.ndarray
    drift_const: np.ndarray
    weights: np.ndarray
    xi_weights: np.ndarray
    offsets: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        d = self.drift_matrix.shape[0]
        shapes = {
            "drift_matrix": (d, d), "xi_drift": (d,), "drift_const": (d,),
            "weights": (d, d), "xi_weights": (d,), "offsets": (d,),
            "directions": (d, d),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} must have shape {want}, got {got}")

    @property
    def dims(self) -> int:
        return self.drift_matrix.shape[0]


def eval_mu(coeffs: ModelCoefficients, xi, x) -> np.ndarray:
    """Drift field at mixing value xi and state x; x may carry leading batch axes."""
    x = np.asarray(x, dtype=float)
    shift = np.multiply.outer(np.asarray(xi, dtype=float), coeffs.xi_drift)
    return x @ coeffs.drift_matrix.T + shift + coeffs.drift_const


def eval_sigma(coeffs: ModelCoefficients, xi, x) -> np.ndarray:
    """Diffusion matrix at (xi, x); column j is parallel to directions[j]."""
    x = np.asarray(x, dtype=float)
    shift = np.multiply.outer(np.asarray(xi, dtype=float), coeffs.xi_weights)
    factors = x @ coeffs.weights.T + shift + coeffs.offsets
    return factors[..., None, :] * coeffs.directions.T
