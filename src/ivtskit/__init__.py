"""Classification toolkit for interval-valued time series.

The pipeline: measure interval distances with a kernel-parameterized
quadratic form, convert series into binary recurrence images, extract
features, and train a norm-capped linear max-loss classifier — plus
simulation generators and excess-risk bound calculators.
"""

from .errors import (
    BlockGridInvalid,
    DimMismatch,
    DimensionMismatch,
    EmptyInput,
    IvtsError,
    LengthMismatch,
    NegativeSquaredDistance,
    NonFinite,
    SeriesTooShort,
)
from .intervals import (
    Interval,
    IntervalSeries,
    Kernel2x2,
    KERNEL_PRESETS,
    MvIntervalSeries,
    distance_from_squared,
    dk_distance,
    dk_squared,
    kernel_preset,
    parse_kernel,
    series_dk_squared,
)
from .imaging import (
    DEFAULT_EPSILON,
    RecurrenceImage,
    TrajectoryConfig,
    export_csv,
    export_pgm,
    image_series,
    load_csv_image,
    load_pgm,
)
from .dgp import (
    DgpConfig,
    LabeledDataset,
    build_dgp_mix_dataset,
    build_multivariate_c1,
    build_multivariate_c2,
    build_univariate_dataset,
    gen_dgp1,
    gen_dgp2,
    gen_dgp3,
    load_dataset_csv,
    residual_covariance,
    sample_residuals,
    save_dataset_csv,
    train_test_split,
)
from .classify import (
    FeatureConfig,
    LinearClassifier,
    accuracy,
    empirical_phi_risk,
    featurize,
    knn_classify,
    knn_predict,
    load_model,
    predict,
    save_model,
    score,
    train,
)
from .theory import (
    RademacherEstimate,
    RiskBoundInputs,
    empirical_offset_rademacher,
    excess_risk_bound,
    g_bounds,
    heuristic_log_covering,
    lipschitz_constant,
    offset_rademacher_bound,
    optimal_varrho,
)

__version__ = "0.1.0"
