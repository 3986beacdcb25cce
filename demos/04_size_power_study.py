"""
Monte Carlo size and power in a few hundred replications
========================================================

Drives the study harness directly from Python: empirical size on a
clean null panel, power under the alternative, and the effect of
contamination on both tests. Replication counts are kept small so the
demo runs in seconds; the command line exposes the full-size presets.
"""

from panelspec.mcstudy import (
    ALTERNATIVE,
    ContaminationConfig,
    DgpConfig,
    RANDOM_VERTICAL,
    run_study,
    study_to_csv,
)

GAMMAS = (0.05, 0.10)


def show(label, study):
    print(f"{label} (S={study.s_replications}, failures={study.failures})")
    for kind, rates in sorted(study.rejection_rates.items()):
        for gamma, rate in zip(study.gamma_grid, rates):
            print(f"  {kind:>17} at level {gamma}: rejects {rate:.3f}")


# Size: rejection under the null should sit near the nominal levels.
null_dgp = DgpConfig(n_units=200, n_periods=4, seed=31)
show("clean null", run_study(null_dgp, s=200, gamma_grid=GAMMAS))

# Power: under the alternative both tests reject nearly always.
alt_dgp = DgpConfig(
    n_units=100, n_periods=4, hypothesis=ALTERNATIVE, seed=32
)
show("\nclean alternative", run_study(alt_dgp, s=200, gamma_grid=GAMMAS))

# Contamination: outliers sap the classical test's power while the
# weighted test keeps rejecting.
dirty_dgp = DgpConfig(
    n_units=100, n_periods=3, hypothesis=ALTERNATIVE, seed=33
)
outliers = ContaminationConfig(scheme=RANDOM_VERTICAL, n_outliers=15)
dirty = run_study(dirty_dgp, outliers, s=200, gamma_grid=GAMMAS)
show("\ncontaminated alternative", dirty)

# A study carries its design, so its report is the one
# `panelspec simulate --format csv` writes, ready for plotting.
print("\nCSV report of the last study:")
print(study_to_csv([dirty]), end="")
