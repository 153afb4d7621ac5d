"""Exception types shared across the package.

Everything raised on purpose derives from MeridianError so callers (and the
CLI exit-code mapping) can catch one base class.
"""


class MeridianError(Exception):
    """Base class for all domain/contract violations raised by meridian4."""


class ZeroQuaternion(MeridianError):
    """Inverse of the zero quaternion requested."""


class OnAxis(MeridianError):
    """Operation undefined on the real axis (rho = 0)."""


class BranchCut(MeridianError):
    """Evaluation on the branch cut of a principal-branch function."""


class Pole(MeridianError):
    """Evaluation at a pole."""


class StepTooLarge(MeridianError):
    """Finite-difference step does not fit inside the domain."""


class Unsupported(MeridianError):
    """Requested symbolic operation is not in the registered table."""


class NotHolomorphic(MeridianError):
    """Antiholomorphy probe failed for an alleged radially holomorphic input."""


class DomainError(MeridianError):
    """Argument outside the supported domain (rho floor, |z| cap, ...)."""


class ConvergenceFailure(MeridianError):
    """An iteration (series, quadrature refinement) did not converge."""


class IntegerOrderUnsupported(MeridianError):
    """Bessel Y at (near-)integer order is outside the implemented route."""


class AbscissaViolation(MeridianError):
    """Laplace transform evaluated left of the convergence abscissa."""


class KernelGrowth(MeridianError):
    """Transform kernel grows faster than the asserted decay of the original."""


class NoStream(MeridianError):
    """Profile carries no stream function but one is required."""


class NotSymmetric(MeridianError):
    """Matrix expected to be symmetric is not."""


class EmptyWindow(MeridianError):
    """Degenerate search window (empty or single-node grid)."""


class AlphaZero(MeridianError):
    """Operation requires alpha != 0."""

