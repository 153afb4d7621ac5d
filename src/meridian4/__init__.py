"""meridian4: static potential meridional vector fields in R^4 built from
radially holomorphic quaternionic functions, with closed-form spectra,
Bessel-type separable solutions, transform-generated fields, PDE verifiers,
and gradient-flow dynamics."""

from . import errors
from .quaternion import (Quaternion, AxialForm, CylindricalAngles, mul,
                         axial_split, from_axial, from_lift, angles)
from .holomorphic import (MeridianValue, RadialFunction, MoebiusRealCoeffs,
                          eval_lift, radial_derivative, antiholomorphy_residual,
                          elementary, qpow, qexp, qcos, qsin, qln, conjugate,
                          moebius, moebius_potential, primitive, default_fd_step)
from .specfun import (SeriesTail, factorial, gamma, bessel_j, bessel_j_series,
                      bessel_y, bessel_j_quat, power_to_bessel_partial)
from .transforms import (OriginalFunction, QuadratureSpec, chebyshev_kernel,
                         cheb_original, unit_original, exp_decay_original,
                         transform_detail, laplace_fueter, ff_cos, ff_sin,
                         bessel_integral_rep, transform_field)
from .fields import (RHO_MIN, MeridionalProfile, MeridionalField, SeparableParams,
                     from_holomorphic_potential, lifted_field, from_separable,
                     lift_to_r4, verify_epd, verify_stream, verify_stokes_beltrami,
                     verify_weinstein, verify_axial_hyperbolic,
                     verify_general_system, criterion_check, axial_symmetry_check)
from .spectral import (SpectralReport, jacobian, jacobian_stack, invariants,
                       closed_spectrum, eigen_closed, eigen_numeric, degenerate_set,
                       zero_divergence_scan, critical_points, CriticalPoint, LevelChain)
from .dynsys import Trajectory, StabilityVerdict, flow, classify, monotonicity_audit

__version__ = "0.1.0"
