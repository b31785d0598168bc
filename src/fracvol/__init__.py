"""Constrained fractional stochastic volatility simulation and pricing."""

from .coefficients import (
    ConstantXi,
    ModelCoefficients,
    SingularXi,
    eval_mu,
    eval_sigma,
    xi_inverse_cdf,
    xi_normalizer,
)
from .fbm import (
    CirculantEmbeddingError,
    FbmConfig,
    fbm_cov,
    fgn_autocov,
    p_variation,
    sample_paths,
)
from .grids import TimeGrid
from .market import MarketParams
from .pricing import (
    Basket,
    BreachRateError,
    Call,
    MCConfig,
    MCResult,
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
from .rde import convergence_probe
from .rng import NormalStream, stream_key
from .scenario import (
    Scenario,
    ScenarioError,
    constant_vol_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    section4_scenario,
)
from .viability import (
    ConditionReport,
    Polyhedron,
    check_viability_conditions,
    contains,
    default_box,
    normal_cone_generators,
    path_viability_margin,
    shifted_polyhedron,
    slack,
)
from .volterra import (
    HypergeometricError,
    KernelMatrix,
    build_kernel_matrix,
    hyp2f1,
    kernel_K,
    transform_increments,
)

__version__ = "0.1.0"
