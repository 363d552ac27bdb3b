"""Monte Carlo and quadrature lab for GOE spectral statistics on desk-scale
matrices: invariant Gaussian ensembles, random quadratic fields on spheres,
Gaussian regression, and the Mehta integral recursion."""

from mehtalab.estimation import EstimatorResult, substream
from mehtalab.symspace import (
    EnsembleParams,
    SymMatrix,
    covariance_audit,
    ell_coords,
    goe_log_density,
    inner_product,
    omega_coords,
    sample_suv,
)
from mehtalab.spectral import (
    DensityEstimate,
    PointMeasure,
    eigenvalues,
    one_point_correlation,
    spectral_measure,
    weyl_expectation_mc,
    weyl_rhs_quadrature,
)
from mehtalab.regression import (
    GaussianVector,
    JointGaussian,
    RegressionResult,
    conditional_sample,
    empirical_correlator,
    hessian_regression_pair,
    regress,
)
from mehtalab.spherefield import (
    CriticalPoint,
    SpherePoint,
    discriminant_measure,
    find_critical_points,
    find_critical_points_batch,
    grad_phi,
    hess_phi,
    phi,
)
from mehtalab.mehta import (
    detmoment_identity_check,
    exp_abs_det_mc,
    exp_det_pointwise_check,
    kacrice_density,
    kacrice_intervals,
    kacrice_vs_empirical,
    mehta_closed_form,
    mehta_mc,
    mehta_quadrature,
    mehta_ratio,
    reproduce_zm,
)

__version__ = "0.1.0"
