"""
Classical and weighted specification tests
==========================================

Runs the Hausman test and its outlier-resistant counterpart on three
panels: one where random effects are appropriate, one where the unit
effects are correlated with the regressors, and a contaminated version
of the second. The weighted test keeps its verdict when outliers push
the classical statistic around.
"""

from panelspec.mcstudy import (
    ALTERNATIVE,
    ContaminationConfig,
    DgpConfig,
    RANDOM_VERTICAL,
    apply_contamination,
    generate,
    specification_tests,
    substream,
)


def report(label, panel):
    # Within, GLS and weighted fits, then both contrasts against GLS.
    _, _, (h, w) = specification_tests(panel)
    print(f"{label}:")
    print(f"  hausman   stat {h.statistic:8.3f}  p {h.p_value:.4f}"
          f"  repaired={h.repaired}")
    print(f"  weighted  stat {w.statistic:8.3f}  p {w.p_value:.4f}"
          f"  repaired={w.repaired}")


# Under exogenous unit effects neither test should reject.
null_dgp = DgpConfig(n_units=150, n_periods=4, seed=11)
report("null panel (effects independent of X)", generate(null_dgp))

# Under correlated effects both should reject decisively.
alt_dgp = DgpConfig(
    n_units=150, n_periods=4, hypothesis=ALTERNATIVE, tau=(1.0, 1.0),
    seed=12,
)
report("\nalternative panel (effects track X)", generate(alt_dgp))

# Moderate contamination of the alternative panel: the classical
# statistic is disturbed by the outliers, the weighted one stays large.
# With heavier outliers the covariance difference behind the weighted
# statistic can lose positive definiteness; the eigenvalue repair then
# fires and `repaired=True` flags the statistic as clamp-inflated.
rng = substream(37, 0)
dirty = apply_contamination(
    generate(DgpConfig(n_units=100, n_periods=3, hypothesis=ALTERNATIVE,
                       seed=37), rng),
    ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15,
                        low=4.0, high=8.0),
    rng,
)
report("\ncontaminated alternative panel (15 outliers)", dirty)
