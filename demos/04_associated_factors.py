"""Associated factors: which part of a price panel moves with a surface?

Two demonstrations. First, a planted rank-one link shows the surface-side
direction being recovered from noisy fields. Second, on a small grid the
two-stage route (svd of the cross-covariance, then canonical analysis on
the projected factors) is compared against the direct full-space
canonical analysis; on factor-model data the two agree to solver
precision even though the direct route needs an explicit inverse square
root of the surface covariance and the two-stage route never does.
"""

import numpy as np

from climfact import associated_factors, estimate_covariances, svd_cross
from climfact.factors import hat_matrix
from climfact.grid import build_domain
from climfact.synth import de_domain, exact_factor_model, planted_factor_instance

rng = np.random.default_rng(4)

# ---------------------------------------------------------------------------
# planted rank-one link: panel column 0 drives the field through a bump g
domain = de_domain(step=1.0)
panel, series, g = planted_factor_instance(domain, p=4, T=500, rng=rng,
                                           snr=10.0)
decomposition = svd_cross(estimate_covariances(panel, series), tol=0.1)
beta1 = decomposition.beta_surface(0).values[domain.mask]
w = domain.valid_weights
cos = abs(np.sum(w * beta1 * g[domain.mask])) / np.sqrt(
    np.sum(w * beta1**2) * np.sum(w * g[domain.mask] ** 2))
print(f"planted link: K={decomposition.k}, "
      f"cosine(beta_1, truth) = {cos:.3f}")

# ---------------------------------------------------------------------------
# two-stage pipeline vs direct full-space canonical analysis
small = build_domain((50.0, 52.0, 8.0, 11.0), 1.0)  # six cells
panel, series = exact_factor_model(small, p=3, k=2, T=500, rng=rng)
result = associated_factors(panel, series, tol=1e-6)

Y, X = panel.values, hat_matrix(series)
yc, xc = Y - Y.mean(0), X - X.mean(0)
T = len(yc)
syy, sxx = yc.T @ yc / (T - 1), xc.T @ xc / (T - 1)
syx = yc.T @ xc / (T - 1)


def inv_sqrt(S):
    vals, vecs = np.linalg.eigh(S)
    return (vecs / np.sqrt(vals)) @ vecs.T


rho_direct = np.linalg.svd(inv_sqrt(syy) @ syx @ inv_sqrt(sxx),
                           compute_uv=False)
print(f"\ntwo-stage rho: {np.round(result.rho, 6)}")
print(f"direct rho:    {np.round(rho_direct[:result.k], 6)}")
print(f"max difference: {np.abs(result.rho - rho_direct[:result.k]).max():.2e}")

# canonical coordinates have unit variance and slope rho on their partner
yf, xf = result.y_factors, result.x_factors
slopes = [(yf[:, k] - yf[:, k].mean()) @ (xf[:, k] - xf[:, k].mean())
          / ((xf[:, k] - xf[:, k].mean()) @ (xf[:, k] - xf[:, k].mean()))
          for k in range(result.k)]
print(f"structural slopes: {np.round(slopes, 6)} (equal rho)")

# ---------------------------------------------------------------------------
# decay diagnostic: growing partial sums warn that the surface spectrum
# decays too fast relative to the cross loadings
report = result.regularity  # the diagnostic of the pair the factors fit
print(f"\nregularity diagnostic over {report.n_components} components; "
      f"flagged sectors: {int(report.flagged.sum())} of {len(report.flagged)}")
