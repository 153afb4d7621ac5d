"""Gradient flow of meridional potentials and equilibrium classification.

The flow integrates dx/dt = V(x) (the lifted field is the gradient of the
potential h(x) = g(x0, rho), so h is nondecreasing along trajectories) with
a fixed-step classical RK4.  A meridional field is radial in the imaginary
part, so a trajectory stays in the meridian half plane {x0 + rho*I} of its
start: the flow steps the planar system (x0, rho) and re-embeds each
row along the start axis I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DomainError
# lift_to_r4 stays bound here for bench/tracing.py, which wraps it at this name
from .fields import RHO_MIN, MeridionalField, lift_to_r4  # noqa: F401
from .quaternion import Quaternion, axial_split
from .spectral import SpectralReport, eigen_closed

__all__ = ["Trajectory", "StabilityVerdict", "flow", "classify", "monotonicity_audit",
           "CONVERGED_SPEED"]

CONVERGED_SPEED = 1e-10


@dataclass
class Trajectory:
    times: List[float]
    points: List[Quaternion]
    h_values: List[float]
    termination: str  # 'horizon' | 'converged' | 'left_domain'

    def samples(self) -> List[Tuple[float, Quaternion, float]]:
        return list(zip(self.times, self.points, self.h_values))


def _rk4_step(f: MeridionalField, x0: float, rho: float, dt: float,
              k1: Tuple[float, float]) -> Optional[Tuple[float, float]]:
    """One RK4 step from (x0, rho), or None when a stage's rho is below the
    floor (checked before the field is called there)."""
    half = 0.5 * dt
    ks = [k1]
    for c in (half, half, dt):
        stage_rho = rho + c * ks[-1][1]
        if stage_rho < RHO_MIN:
            return None
        ks.append(f.at(_VELOCITY, x0 + c * ks[-1][0], stage_rho))
    k1, k2, k3, k4 = ks
    w = dt / 6.0
    return (x0 + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            rho + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))


_VELOCITY = ("V0", "Vrho")
_ROW = ("g", "V0", "Vrho")


def flow(f: MeridionalField, x_init: Quaternion, dt: float,
         horizon: float) -> Trajectory:
    """Integrate the gradient flow from x_init with fixed step dt.

    Terminates at the horizon, on convergence (||V|| <= 1e-10), or when a
    step would leave the domain rho > rho_min (a stage below the floor, or a
    step landing on or below it, is rejected and the trajectory reports
    'left_domain').  Any DomainError the field raises propagates, and so
    does one for a row whose x0, rho or h is not finite.

    The field is evaluated once per RK4 stage through f.at: each row's h
    comes with the next step's k1 from one evaluation (h alone on the row
    at the horizon), so a step costs four evaluations.
    """
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
        raise DomainError(f"dt = {dt:g} and horizon = {horizon:g} must be positive and finite")
    if x_init.rho() < RHO_MIN:
        raise DomainError(f"initial point has rho = {x_init.rho():g} below the floor")

    axis = axial_split(x_init).axis
    t, x0, rho = 0.0, x_init.x0, x_init.rho()
    end = horizon - 1e-12 * horizon
    h, *k1 = f.at(_ROW, x0, rho)
    times = [0.0]
    points = [x_init]
    h_values = [h]
    termination = "horizon"

    while t < end:
        if math.hypot(*k1) <= CONVERGED_SPEED:
            termination = "converged"
            break
        step = min(dt, horizon - t)
        moved = _rk4_step(f, x0, rho, step, k1)
        if moved is None or moved[1] <= RHO_MIN:
            termination = "left_domain"
            break
        x0, rho = moved
        t += step
        if not (math.isfinite(x0) and math.isfinite(rho)):
            raise DomainError(f"flow row at t = {t:g} is not finite (x0 = {x0!r}, rho = {rho!r})")
        h, *k1 = f.at(_ROW if t < end else _ROW[:1], x0, rho)
        if not math.isfinite(h):
            raise DomainError(f"flow row at t = {t:g} is not finite (x0 = {x0!r}, rho = {rho!r})")
        times.append(t)
        points.append(Quaternion(x0, rho * axis.x1, rho * axis.x2, rho * axis.x3))
        h_values.append(h)
    return Trajectory(times, points, h_values, termination)


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str  # 'source' | 'sink' | 'saddle' | 'degenerate'
    report: SpectralReport


def classify(f: MeridionalField, x: Quaternion) -> StabilityVerdict:
    """Classify the equilibrium type of the linearization at x by eigenvalue signs."""
    report = eigen_closed(f, x)
    lams = report.lambdas
    if report.degenerate:
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
