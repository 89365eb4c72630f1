"""Packing-type dimension estimates for fractional Gaussian images and graphs.

The package splits into small layers: exact numerics and discrete measures
at the bottom; nested-interval constructions and their covering counts;
Gaussian field sampling with a closed drift catalog; expectation kernels;
scaling-exponent estimators; closed-form predictions; brute-force checkers
for the inequalities that admit exact finite tests; and a reproducible
experiment runner with a CLI front end.
"""

from ._version import __version__
from .errors import (
    ConfigError,
    DegenerateRegimeError,
    DepthExhaustedError,
    GeometryError,
    InsufficientScalesError,
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    PackdimError,
    ResolutionError,
    ScaleUnrepresentableError,
)
from .numerics import Seed, cholesky_psd, gaussian_interval_prob
from .measures import (
    DiscreteMeasure,
    SubMeasure,
    ball_mass,
    read_measure_csv,
    rect_mass,
    slice_measure,
    write_measure_csv,
)
from .fractals import (
    ExtractedSubsystem,
    MinkowskiBounds,
    NestedIntervalSystem,
    SymbolicScaleSystem,
    build_tx_system,
    build_uniform_cantor,
    check_regularity_conditions,
    covering_count,
    extract_subsystem,
    minkowski_bounds,
    natural_measure,
    realize_explicit,
)
from .fields import (
    DriftSpec,
    FieldSpec,
    SamplePath,
    canonical_metric,
    fbm_covariance,
    graph_measure,
    graph_points,
    image_measure,
    sample,
    sample_many,
)
from .kernels import (
    KernelContext,
    ball_mass_profile,
    expected_ball_mass,
    increment_prob,
    profile_kernel,
    slice_kernel,
)
from .estimators import (
    ExponentEstimate,
    ScaleGrid,
    box_count,
    box_count_curve,
    box_counting_dim,
    dim_ball_mass,
    dim_field,
    dim_profile,
    dim_slice_kernel,
    scaling_exponent,
)
from .theory import (
    Regime,
    graph_lower,
    predict_graph_upper,
    predict_image,
    solve_crossing,
    tx_lower,
)
from .verify import (
    CheckReport,
    check_doubling,
    check_gaussian_interval_bound,
    check_graph_expectation_bound,
    check_parts,
    check_scale_doubling,
)
from .experiment import ExperimentConfig, PredictionReport, run_experiment, run_suite

__all__ = [
    "__version__",
    # errors
    "PackdimError",
    "InvalidArgumentError",
    "NotPositiveSemidefiniteError",
    "GeometryError",
    "ScaleUnrepresentableError",
    "DepthExhaustedError",
    "ResolutionError",
    "InsufficientScalesError",
    "DegenerateRegimeError",
    "ConfigError",
    # numerics
    "Seed",
    "cholesky_psd",
    "gaussian_interval_prob",
    # measures
    "DiscreteMeasure",
    "SubMeasure",
    "ball_mass",
    "rect_mass",
    "slice_measure",
    "read_measure_csv",
    "write_measure_csv",
    # fractals
    "NestedIntervalSystem",
    "SymbolicScaleSystem",
    "MinkowskiBounds",
    "ExtractedSubsystem",
    "build_uniform_cantor",
    "build_tx_system",
    "realize_explicit",
    "natural_measure",
    "covering_count",
    "minkowski_bounds",
    "check_regularity_conditions",
    "extract_subsystem",
    # fields
    "FieldSpec",
    "DriftSpec",
    "SamplePath",
    "fbm_covariance",
    "canonical_metric",
    "sample",
    "sample_many",
    "graph_points",
    "image_measure",
    "graph_measure",
    # kernels
    "KernelContext",
    "profile_kernel",
    "slice_kernel",
    "increment_prob",
    "ball_mass_profile",
    "expected_ball_mass",
    # estimators
    "ScaleGrid",
    "ExponentEstimate",
    "scaling_exponent",
    "dim_ball_mass",
    "dim_profile",
    "dim_slice_kernel",
    "dim_field",
    "box_count",
    "box_count_curve",
    "box_counting_dim",
    # theory
    "Regime",
    "predict_image",
    "predict_graph_upper",
    "tx_lower",
    "graph_lower",
    "solve_crossing",
    # verify
    "CheckReport",
    "check_doubling",
    "check_scale_doubling",
    "check_parts",
    "check_gaussian_interval_bound",
    "check_graph_expectation_bound",
    # experiment
    "ExperimentConfig",
    "PredictionReport",
    "run_experiment",
    "run_suite",
]
