"""Build a long-memory driver from a Brownian path through the Volterra kernel.

The kernel matrix acts on Brownian increments and produces a path whose law is
close to fractional Brownian motion of the chosen Hurst index, while staying
adapted to the Brownian filtration -- the property that makes the market
complete and the pricing formula usable.
"""

import numpy as np

from fracvol import (
    FbmConfig,
    TimeGrid,
    build_kernel_matrix,
    fbm_cov,
    hyp2f1,
    kernel_K,
    sample_paths,
)
from fracvol.pricing import w_increments
from fracvol.volterra import transform_increments

print("pointwise kernel values:")
for t, s, h in [(1.0, 0.5, 0.7), (1.0, 0.5, 0.5), (1.0, 0.999, 0.7)]:
    print(f"  K(t={t}, s={s}, H={h}) = {kernel_K(t, s, h):.6f}")
print(f"  gauss factor 2F1(1,1;2;-1) = {hyp2f1(1, 1, 2, -1):.12f} (= log 2)\n")

grid = TimeGrid(1.0, 64)

# at hurst 1/2 the transform is the identity
w = sample_paths(grid, FbmConfig(0.5, 1, 7), 1)  # a batch of one path
km_half = build_kernel_matrix(grid, 0.5)
gap = np.max(np.abs(transform_increments(np.diff(w, axis=1), km_half) - w))
print(f"hurst = 0.5: sup |transform(W) - W| = {gap:.2e}\n")

# at hurst 0.7 the output variance follows t^1.4
hurst = 0.7
km = build_kernel_matrix(grid, hurst)


class _Plain:
    def __init__(self, grid, dims):
        self.grid = grid
        self.dims = dims


dw = w_increments(_Plain(grid, 1), seed=3, start=0, count=4_000)
b = transform_increments(dw, km)
print("transformed-path variance vs the target t^1.4:")
print(f"{'t':>6} {'target':>10} {'matrix':>10} {'empirical':>10}")
for idx in (8, 16, 32, 64):
    t = grid.times[idx]
    exact = np.sum(km.entries[idx - 1] ** 2) * grid.dt  # the row's variance
    print(f"{t:6.3f} {fbm_cov(t, t, hurst):10.4f} {exact:10.4f} {np.var(b[:, idx, 0]):10.4f}")
print("\n(the matrix's row variance, sum_j K^2 dt, is within 0.05% of t^1.4; the")
print(" empirical gaps are sampling error: with 4000 paths a variance has a")
print(" relative standard error of about 2.2%)")
