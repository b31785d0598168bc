"""Drift/diffusion fields parameterized by a scalar mixing variable, and its law.

The built-in family is affine in both the state and the mixing variable xi:

    mu(xi, x)          = A x + xi * beta + const
    sigma(xi, x)[:, j] = (<w_j, x> + kappa_j * xi + rho_j) * s_j

It is globally Lipschitz with bounded higher derivatives, is serializable in
scenario files, and its boundary behavior is affine in the state, so the
viability checker can certify it exactly at polytope vertices.  Arbitrary
callables are accepted through :class:`CallableCoefficients`; those get
sampling-based checks only, and their measurability with respect to the
initial information set is the caller's responsibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .rng import RandomSource

# Reserved stream tag for the mixing-variable draw; driver components use 0..d-1.
XI_STREAM = 0x5A1

_CDF_TABLE_SIZE = 2**14
_BISECTION_TOL = 1e-12


def xi_normalizer(exponent: int, scale: float, cutoff: float) -> float:
    """Constant that turns exp(-scale / x^exponent) on (0, cutoff] into a density."""
    if exponent < 2 or int(exponent) != exponent:
        raise ValueError(f"exponent must be an integer >= 2, got {exponent}")
    if scale <= 0 or cutoff <= 0:
        raise ValueError(f"scale and cutoff must be positive, got {scale}, {cutoff}")
    integral, err = quad(
        lambda x: math.exp(-scale / x**exponent), 0.0, cutoff, epsabs=0.0, epsrel=1e-12
    )
    if not np.isfinite(integral) or integral <= 0 or err > 1e-8 * integral:
        raise ArithmeticError(
            f"normalizing quadrature did not converge: integral={integral}, error={err}"
        )
    return 1.0 / integral


@dataclass(frozen=True)
class ConstantXi:
    """Degenerate law: the mixing variable always equals `value`."""

    value: float

    def __post_init__(self):
        if not (self.value > 0):
            raise ValueError(f"value must be positive, got {self.value}")

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
        xi_normalizer(self.exponent, self.scale, self.cutoff)  # validates parameters

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
    """Quantiles of the law at u in (0, 1), by bisection on the tabulated CDF."""
    u = np.asarray(u, dtype=float)
    if isinstance(law, ConstantXi):
        return np.full_like(u, law.value)
    lo = np.zeros_like(u)
    hi = np.full_like(u, law.cutoff)
    while np.max(hi - lo) > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        below = law.cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def xi_sample(law: XiLaw, rng: RandomSource) -> float:
    """Single draw of the mixing variable from the path's reserved substream."""
    if isinstance(law, ConstantXi):
        return law.value
    u = rng.stream(XI_STREAM).uniforms(1)
    return float(xi_inverse_cdf(law, u)[0])


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
        names = (
            "drift_matrix", "xi_drift", "drift_const",
            "weights", "xi_weights", "offsets", "directions",
        )
        for name in names:
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


@dataclass(frozen=True, eq=False)
class CallableCoefficients:
    """Escape hatch for user-supplied fields mu(xi, x) -> (d,), sigma(xi, x) -> (d, d)."""

    dims: int
    mu: callable
    sigma: callable


Coefficients = ModelCoefficients | CallableCoefficients


def eval_mu(coeffs: Coefficients, xi, x) -> np.ndarray:
    """Drift field at mixing value xi and state x; x may carry leading batch axes."""
    x = np.asarray(x, dtype=float)
    if isinstance(coeffs, ModelCoefficients):
        shift = np.multiply.outer(np.asarray(xi, dtype=float), coeffs.xi_drift)
        return x @ coeffs.drift_matrix.T + shift + coeffs.drift_const
    return np.asarray(coeffs.mu(xi, x), dtype=float)


def sigma_factors(coeffs: ModelCoefficients, xi, x) -> np.ndarray:
    """Scalar factor of each diffusion column for the affine family."""
    x = np.asarray(x, dtype=float)
    shift = np.multiply.outer(np.asarray(xi, dtype=float), coeffs.xi_weights)
    return x @ coeffs.weights.T + shift + coeffs.offsets


def eval_sigma(coeffs: Coefficients, xi, x) -> np.ndarray:
    """Diffusion matrix at (xi, x); column j is parallel to directions[j]."""
    if isinstance(coeffs, ModelCoefficients):
        factors = sigma_factors(coeffs, xi, x)
        return factors[..., None, :] * coeffs.directions.T
    return np.asarray(coeffs.sigma(xi, np.asarray(x, dtype=float)), dtype=float)
