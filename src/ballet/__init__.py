"""Bayesian level-set clustering.

Sub-partitions (clusters plus a noise group) induced by density level sets,
an expected-loss-minimizing point estimate over posterior density draws,
credible-ball uncertainty bounds, a histogram-mixture density model, level
selection heuristics, persistence across levels, a DBSCAN* baseline, and a
replication harness for synthetic studies.
"""

__version__ = "0.1.0"

from .bench import (
    BalletStudyConfig,
    DbscanStudyConfig,
    EvalReport,
    SkySurveySpec,
    StudyResult,
    dbscan_parameters,
    evaluate,
    generate_noisy_circles,
    generate_sky_survey,
    generate_two_moons,
    run_simulation_study,
)
from .credible import (
    BoundStep,
    CredibleBall,
    compute_credible_ball,
    credible_radius,
)
from .density import (
    DensityDrawEnsemble,
    HistogramBins,
    HistogramDensity,
    HistogramMixtureConfig,
    HistogramPosterior,
    build_ensemble,
    default_domain,
    fit_histogram_posterior,
    kde_uniform,
    knn_density,
    sample_bins,
)
from .errors import (
    BalletError,
    ConfigError,
    DataIOError,
    InfeasibleError,
    NumericError,
    SearchPassCapWarning,
)
from .levels import (
    ClusterTree,
    ElbowResult,
    LevelSelectionWarning,
    LevelSpec,
    build_cluster_tree,
    elbow_level,
    persistent_clusters,
    resolve_level,
    tree_from_clusterings,
)
from .levelset import (
    AdaptiveDeltaConfig,
    PointSet,
    active_set_components,
    adaptive_delta,
    dbscan_star,
    default_k_dbscan,
    default_k_levelset,
    surrogate_cluster,
    unit_ball_volume,
)
from .risk import (
    BalletResult,
    CoClusteringStats,
    SearchConfig,
    ballet_estimate,
    draw_clusterings,
    empirical_risk,
    plugin_estimate,
    precompute_stats,
    search,
)
from .subpartition import (
    DEFAULT_LOSS_PARAMS,
    LossParams,
    SubPartition,
    enumerate_subpartitions,
    ia_binder_loss,
    pairwise_penalty_sum,
    rescaled_distance,
)
