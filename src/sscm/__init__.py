"""Spectral theory and robust statistics for spatial-sign covariance matrices.

The package covers, in order of the analysis pipeline:

- `sign_geometry`: spatial signs, the spatial median, and the sample
  spatial-sign covariance matrix (SSCM);
- `mp_law`: the generalized Marchenko-Pastur limiting spectral law of the
  SSCM (Stieltjes transform solver, density, support, moments);
- `lss_clt`: mean/covariance of linear spectral statistics via contour
  integration, plus closed forms for the trace-power statistics;
- `sphericity`: two robust sphericity tests;
- `shape_estimation`: six shape-matrix estimators, including
  spectrum-corrected variants;
- `simulation`: seeded Monte Carlo generators and benchmark experiments;
- `cli`: the `sscm` command-line entry point.
"""

from .errors import ConvergenceError, NumericError, SscmError, UnsupportedConfigError
from .lss_clt import (
    ContourSpec,
    NormalApprox,
    ShapeContext,
    beta_centering,
    beta_moments_normal,
    cov_kernel,
    default_contour,
    lss_normal_approx,
    mean_kernel,
    shape_to_sigma_eigs,
)
from .mp_law import (
    DiscreteMeasure,
    SpectralModel,
    StieltjesPair,
    lsd_density,
    lsd_moments,
    lsd_support,
    mass_at_zero,
    solve_stieltjes,
    solve_stieltjes_grid,
)
from .shape_estimation import (
    EstimatorKind,
    EstimatorReport,
    estimate_shape,
    expand_spectrum,
    moment_method_psd,
    psi_normalize,
    select_num_atoms,
    sigma_to_shape_eigs,
    tyler_m_estimator,
)
from .sign_geometry import (
    SampleBatch,
    SscmMatrix,
    estimate_rw,
    spatial_median,
    spatial_sign,
    spatial_signs,
    sscm,
)
from .simulation import (
    ModelSpec,
    RunConfig,
    generate_sample,
    model_context,
    model_shape,
    run_qq_experiment,
    run_shape_benchmark,
)
from .sphericity import TestReport, frobenius_sphericity_test, kl_sphericity_test

__version__ = "0.1.0"
