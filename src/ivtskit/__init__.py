"""Classification toolkit for interval-valued time series.

The pipeline: measure interval distances with a kernel-parameterized
quadratic form, convert series into binary recurrence images, extract
features, and train a norm-capped linear max-loss classifier — plus
simulation generators and excess-risk bound calculators.

The public names below are loaded on first use (PEP 562), so
``import ivtskit`` and the command line's ``--help`` do not import numpy.
"""

import importlib
import importlib.util

# Each submodule and the public names it provides.
_NAMES = {
    "errors": (
        "BlockGridInvalid", "DataError", "DimensionMismatch", "EmptyInput", "IvtsError",
        "LengthMismatch", "NegativeSquaredDistance", "NonFinite", "SeriesTooShort",
    ),
    "intervals": (
        "Interval", "IntervalSeries", "Kernel2x2", "KERNEL_PRESETS", "MvIntervalSeries",
        "distance_from_squared", "dk_distance", "dk_squared", "kernel_preset",
        "parse_kernel", "series_dk_squared",
    ),
    "imaging": (
        "DEFAULT_EPSILON", "RecurrenceImage", "TrajectoryConfig", "export_csv",
        "export_pgm", "image_series", "load_csv_image", "load_pgm",
    ),
    "dgp": (
        "DgpConfig", "LabeledDataset", "build_dgp_mix_dataset", "build_multivariate_c1",
        "build_multivariate_c2", "build_univariate_dataset", "gen_dgp1", "gen_dgp2",
        "gen_dgp3", "load_dataset_csv", "residual_covariance", "sample_residuals",
        "save_dataset_csv", "train_test_split",
    ),
    "classify": (
        "FeatureConfig", "LinearClassifier", "accuracy", "empirical_phi_risk",
        "featurize", "knn_classify", "load_model", "predict", "save_model", "train",
    ),
    "theory": (
        "RademacherEstimate", "empirical_offset_rademacher", "excess_risk_bound",
        "g_bounds", "lipschitz_constant", "offset_rademacher_bound", "optimal_varrho",
    ),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif not name.startswith("_") and importlib.util.find_spec(f".{name}", __name__):
        value = importlib.import_module(f".{name}", __name__)  # a submodule: ivtskit.dgp
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_OWNER))
