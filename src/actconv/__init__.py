"""Convolution-type approximation operators with verified error bounds.

A symmetrized, deformation-parametrized sigmoid kernel drives three
positive linear operators (point-sample, local-average and shifted-sample
convolutions).  The package evaluates the operators, the closed-form
error bounds attached to them, and ships a measurement harness plus a CLI
that checks measured errors against the bounds.
"""

from .analysis import (
    CATALOG,
    ConvergenceRecord,
    MeasurementGrid,
    check_smoothness_preservation,
    estimate_modulus,
    fit_rate,
    get_test_function,
    run_convergence_sweep,
    sup_error,
)
from .bounds import (
    central_moment_bound,
    iterated_bound,
    jackson_bound,
    mixed_iterated_bound,
    omega_argument,
    taylor_bound,
)
from .errors import (
    HypothesisNotMetError,
    NonFiniteSampleError,
    QuadratureNonConvergedError,
)
from .kernel import KernelParams, g, moment_bound, nu, psi, psi_envelope, tail_mass_bound, window_edge
from .operators import (
    GridApproximant,
    OperatorKind,
    OperatorSpec,
    TestFunction,
    apply,
    apply_basic,
    apply_derivative,
    apply_kantorovich,
    apply_on_grid,
    apply_quadrature_kind,
    central_moment,
    compose_mixed,
    iterate,
    make_grid_approximant,
)
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    TailEnvelope,
    integrate_interval,
    integrate_real_line,
    truncation_radius,
)

__version__ = "0.1.0"
