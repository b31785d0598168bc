"""Price European claims with the two independent estimators.

The physical-measure estimator weights discounted payoffs by the terminal
exponential martingale of the market price of risk; the risk-neutral estimator
simulates driftless discounted prices directly, rebuilding the driver step by
step as the measure change feeds back into it.  With the same seed the two
share every uniform draw, so their difference is a sharp consistency check.
`price_both` runs the two with one time loop per batch, with the same bits.
"""

import math

from fracvol import Call, MCConfig, agreement_zscore, bs_reference_price
from fracvol.pricing import price_both, price_physical_weighted
from fracvol.scenario import constant_vol_scenario, section4_scenario

print("--- degenerate scenario: constant volatility, lognormal closed form ---")
scenario = constant_vol_scenario(vol=(0.5, 0.2), drifts=(0.1, 0.02))
mc = MCConfig(paths=40_000, seed=8)
for asset, sigma in ((0, 0.5), (1, 0.2)):
    target = bs_reference_price(1.0, 1.0, scenario.market.rate, sigma, 1.0, "call")
    physical, riskneutral = price_both(Call(asset, 1.0), scenario, mc)
    print(
        f"asset {asset + 1}: closed form {target:.4f} | "
        f"physical {physical.estimate:.4f} (se {physical.stderr:.4f}) | "
        f"risk-neutral {riskneutral.estimate:.4f} (se {riskneutral.stderr:.4f})"
    )

print("\n--- bond payoff sanity: price must be the discount factor ---")
bond = price_physical_weighted(lambda s: [1.0] * s.shape[0], scenario, mc)
print(f"bond {bond.estimate:.6f} vs exp(-rT) = {math.exp(-0.05):.6f}")

print("\n--- worked example: at-the-money call, both estimators ---")
scenario = section4_scenario(steps=128, seed=16)
mc = MCConfig(paths=20_000, seed=16)
physical, riskneutral = price_both(Call(0, 1.0), scenario, mc)
print(f"physical     : {physical.estimate:.4f} +- {physical.stderr:.4f}")
print(f"risk-neutral : {riskneutral.estimate:.4f} +- {riskneutral.stderr:.4f}")
print(f"agreement z  : {agreement_zscore(physical, riskneutral):+.2f}")
