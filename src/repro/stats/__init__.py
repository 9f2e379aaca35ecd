"""Low-level statistics substrate.

This package implements the statistical machinery Ziggy builds on: summary
statistics with streaming/mergeable sufficient statistics, histograms,
effect sizes ("Zig-Components" are effect sizes per the paper, citing
Hedges & Olkin), dependency measures (correlation, mutual information,
Cramér's V) and the asymptotic significance tests used by the
post-processing stage.

Everything operates on plain numpy arrays; NaNs denote missing values and
are handled explicitly by every function (they are either dropped or
counted, never silently propagated).
"""

from repro.stats.descriptive import (
    SummaryStats,
    summarize,
    merge_stats,
    quantile,
    standardize,
)
from repro.stats.robust import (
    median,
    mad,
    iqr,
    trimmed_mean,
    winsorize,
    robust_zscores,
)
from repro.stats.histogram import (
    Histogram,
    FrequencyProfile,
    equi_width_histogram,
    equi_depth_edges,
    frequency_profile,
)
from repro.stats.effect_sizes import (
    cohens_d,
    hedges_g,
    glass_delta,
    log_sd_ratio,
    cliffs_delta,
    correlation_gap,
    total_variation_distance,
    hellinger_distance,
    proportion_gap,
)
from repro.stats.correlation import (
    pearson,
    spearman,
    fisher_z,
    inverse_fisher_z,
    correlation_matrix,
    masked_correlation_matrix,
    PairMoments,
    PairwiseMoments,
    rankdata,
)
from repro.stats.entropy import (
    entropy,
    mutual_information,
    normalized_mutual_information,
    binned_mutual_information,
)
from repro.stats.tests_ import (
    TestResult,
    welch_t_test,
    f_test_variances,
    levene_test,
    fisher_z_test,
    chi2_independence_test,
    two_proportion_z_test,
    mann_whitney_u_test,
)

__all__ = [
    "SummaryStats",
    "summarize",
    "merge_stats",
    "quantile",
    "standardize",
    "median",
    "mad",
    "iqr",
    "trimmed_mean",
    "winsorize",
    "robust_zscores",
    "Histogram",
    "FrequencyProfile",
    "equi_width_histogram",
    "equi_depth_edges",
    "frequency_profile",
    "cohens_d",
    "hedges_g",
    "glass_delta",
    "log_sd_ratio",
    "cliffs_delta",
    "correlation_gap",
    "total_variation_distance",
    "hellinger_distance",
    "proportion_gap",
    "pearson",
    "spearman",
    "fisher_z",
    "inverse_fisher_z",
    "correlation_matrix",
    "masked_correlation_matrix",
    "PairMoments",
    "PairwiseMoments",
    "rankdata",
    "entropy",
    "mutual_information",
    "normalized_mutual_information",
    "binned_mutual_information",
    "TestResult",
    "welch_t_test",
    "f_test_variances",
    "levene_test",
    "fisher_z_test",
    "chi2_independence_test",
    "two_proportion_z_test",
    "mann_whitney_u_test",
]
