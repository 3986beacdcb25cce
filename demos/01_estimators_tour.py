"""
Pooled, within, and feasible GLS estimators on one panel
========================================================

Builds a balanced panel with unit effects, fits all three classical
estimators, and shows how the variance components drive the GLS
quasi-demeaning fraction.
"""

import numpy as np

from panelspec import (
    PanelDataset,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_random_effects,
    quasi_demean,
    within_transform,
)

# A 60-unit, 5-period panel: y = x1 - 1.5 x2 + alpha_i + eps.
rng = np.random.default_rng(1)
n, t = 60, 5
beta = np.array([1.0, -1.5])
x = rng.normal(size=(n, t, 2))
alpha = rng.normal(size=n)
y = x @ beta + alpha[:, np.newaxis] + 0.7 * rng.normal(size=(n, t))
panel = PanelDataset(
    tuple(f"firm{i:02d}" for i in range(n)), tuple(range(1, t + 1)), y, x
)

print("true slopes:", beta)
# Pooled OLS and the within fit are GLS at theta = 0 and theta = 1; the
# random-effects fit sits between them at its estimated theta.
re = fit_random_effects(panel)
for theta, fit in ((0.0, fit_pooled_ols(panel)),
                   (re.variance_components.theta, re),
                   (1.0, fit_fixed_effects(panel))):
    with np.printoptions(precision=4):
        print(f"{fit.method:>15} (theta {theta:.4f}): beta {fit.beta}  "
              f"se {fit.std_errors()}  R^2 {fit.r_squared:.3f}")

# The variance components behind the GLS fit. theta near 1 means the
# unit effects dominate and GLS behaves like the within estimator;
# theta near 0 recovers pooled OLS.
vc = re.variance_components
print(f"\nsigma2_eps {vc.sigma2_eps:.4f}  sigma2_alpha {vc.sigma2_alpha:.4f}"
      f"  theta {vc.theta:.4f}")

# The endpoints hold in the transformation itself: quasi-demeaning by
# 0 returns the data, by 1 it is the within transformation.
at_zero, at_one = quasi_demean(panel, 0.0), quasi_demean(panel, 1.0)
within = within_transform(panel)
print("theta=0 returns the data:", np.array_equal(at_zero.y, panel.y)
      and np.array_equal(at_zero.x, panel.x))
print("theta=1 equals within:", np.array_equal(at_one.y, within.y)
      and np.array_equal(at_one.x, within.x))
