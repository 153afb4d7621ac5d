"""Gradient flow of meridional potentials and equilibrium classification.

The flow integrates dx/dt = V(x) (the lifted field is the gradient of the
potential h(x) = g(x0, rho), so h is nondecreasing along trajectories) with
a fixed-step classical RK4.  Meridional fields are radial in the imaginary
part, so the axis direction I of the initial point is a conserved quantity;
this is checked at every accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import AxisDrift, DomainError
from .fields import RHO_MIN, MeridionalField, lift_to_r4
from .quaternion import Quaternion, axial_split
from .spectral import DEGENERACY_RTOL, SpectralReport, eigen_closed

__all__ = ["Trajectory", "StabilityVerdict", "flow", "classify", "monotonicity_audit",
           "CONVERGED_SPEED"]

CONVERGED_SPEED = 1e-10
_AXIS_TOL = 1e-10


@dataclass
class Trajectory:
    times: List[float]
    points: List[Quaternion]
    h_values: List[float]
    termination: str  # 'horizon' | 'converged' | 'left_domain'

    def samples(self) -> List[Tuple[float, Quaternion, float]]:
        return list(zip(self.times, self.points, self.h_values))


def _rhs(f: MeridionalField, x: Quaternion) -> Quaternion:
    return lift_to_r4(f, x)


def _rk4_step(f: MeridionalField, x: Quaternion, dt: float) -> Quaternion:
    k1 = _rhs(f, x)
    k2 = _rhs(f, x + (0.5 * dt) * k1)
    k3 = _rhs(f, x + (0.5 * dt) * k2)
    k4 = _rhs(f, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(f: MeridionalField, x_init: Quaternion, dt: float,
         horizon: float) -> Trajectory:
    """Integrate the gradient flow from x_init with fixed step dt.

    Terminates at the horizon, on convergence (||V|| <= 1e-10), or when a
    step would leave the domain rho > rho_min (the offending step is
    rejected and the trajectory reports 'left_domain').
    """
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
        raise DomainError(f"dt = {dt:g} and horizon = {horizon:g} must be positive and finite")
    if x_init.rho() < RHO_MIN:
        raise DomainError(f"initial point has rho = {x_init.rho():g} below the floor")

    axis0 = axial_split(x_init).axis

    t = 0.0
    x = x_init
    times = [0.0]
    points = [x]
    h_values = [f.g(x.x0, x.rho())]
    termination = "horizon"

    while t < horizon - 1e-12 * horizon:
        v = _rhs(f, x)
        if v.norm() <= CONVERGED_SPEED:
            termination = "converged"
            break
        step = min(dt, horizon - t)
        try:
            x_next = _rk4_step(f, x, step)
        except DomainError:
            termination = "left_domain"
            break
        if x_next.rho() <= RHO_MIN:
            termination = "left_domain"
            break
        axis1 = axial_split(x_next).axis
        drift = max(abs(axis1.x1 - axis0.x1), abs(axis1.x2 - axis0.x2),
                    abs(axis1.x3 - axis0.x3))
        if drift > _AXIS_TOL:
            raise AxisDrift(f"axis moved by {drift:g} in one step")
        x = x_next
        t += step
        times.append(t)
        points.append(x)
        h_values.append(f.g(x.x0, x.rho()))
    return Trajectory(times, points, h_values, termination)


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str  # 'source' | 'sink' | 'saddle' | 'degenerate'
    report: SpectralReport


def classify(f: MeridionalField, x: Quaternion) -> StabilityVerdict:
    """Classify the equilibrium type of the linearization at x by eigenvalue signs."""
    report = eigen_closed(f, x)
    lams = report.lambdas
    frob = math.sqrt(sum(l * l for l in lams))
    tol = DEGENERACY_RTOL * max(1.0, frob)
    if any(abs(l) <= tol for l in lams):
        kind = "degenerate"
    elif all(l > 0.0 for l in lams):
        kind = "source"
    elif all(l < 0.0 for l in lams):
        kind = "sink"
    else:
        kind = "saddle"
    return StabilityVerdict(kind, report)


def monotonicity_audit(tr: Trajectory) -> float:
    """Worst per-step decrease of h along the trajectory (0.0 when nondecreasing)."""
    worst = 0.0
    for a, b in zip(tr.h_values, tr.h_values[1:]):
        worst = max(worst, a - b)
    return worst
