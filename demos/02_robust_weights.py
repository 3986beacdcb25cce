"""
Weighted fixed effects under vertical outliers
==============================================

Contaminates a clean panel with a handful of wild response values and
compares the ordinary within fit against the weighted one. The weights
identify the planted cells without being told where they are.
"""

import numpy as np

from panelspec import fit_fixed_effects, fit_weighted_fixed_effects
from panelspec.mcstudy import (
    ContaminationConfig,
    DgpConfig,
    RANDOM_VERTICAL,
    apply_contamination,
    generate,
    substream,
)

# Clean panel, then 15 of its 300 responses replaced by U(10, 35) draws.
dgp = DgpConfig(n_units=100, n_periods=3, beta=(1.0, -1.5), seed=7)
rng = substream(dgp.seed, 0)
clean = generate(dgp, rng)
scheme = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15)
dirty = apply_contamination(clean, scheme, rng)
planted = dirty.y != clean.y

beta = np.array(dgp.beta)
fe_clean = fit_fixed_effects(clean)
fe_dirty = fit_fixed_effects(dirty)
wfe_dirty = fit_weighted_fixed_effects(dirty)

with np.printoptions(precision=4):
    print("true slopes:        ", beta)
    print("within on clean:    ", fe_clean.beta)
    print("within on dirty:    ", fe_dirty.beta)
    print("weighted on dirty:  ", wfe_dirty.beta,
          f"(converged={wfe_dirty.converged}, "
          f"iterations={wfe_dirty.iterations})")

print("\nslope error, within on dirty:  ",
      float(np.max(np.abs(fe_dirty.beta - beta))))
print("slope error, weighted on dirty:",
      float(np.max(np.abs(wfe_dirty.beta - beta))))

# The planted cells end up with weights near zero. A few clean cells
# that happen to sit in the thinned-out tails get downweighted too;
# the bulk keeps weights near 1.
w = wfe_dirty.weights
print(f"\nweights at planted cells: max {w[planted].max():.2e}")
print(f"clean cells with weight > 0.5: "
      f"{int((w[~planted] > 0.5).sum())} of {int((~planted).sum())}"
      f" (median {np.median(w[~planted]):.3f})")
print(f"cells with weight < 0.1: {int((w < 0.1).sum())} "
      f"(planted: {int(planted.sum())})")
