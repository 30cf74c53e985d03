"""Polar form of the reduced dynamics and fixed-point analysis.

On the conjugate slice s1 = rho * e^{i theta}, s2 = conj(s1), with the phase
measured against the drive (psi = theta - Omega * t), the reduced flow
collapses to an autonomous planar field

    rho' = a(rho) + eps * (f1(rho) cos psi + f2(rho) sin psi)
    psi' = b(rho) - Omega + (eps/rho) * (g1(rho) cos psi - g2(rho) sin psi)

with a(rho) = sum a_i rho**(2i+1), b(rho) = sum b_i rho**(2i) from the
unforced stage, and f/g even polynomials assembled from the forced reduced
coefficients.  Periodic responses of the full system correspond to fixed
points u = (rho, Omega, psi) of this field; their stability is read off its
2x2 Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, SingularChartError
from .polyalg import even_dval, even_val
from .ssm_auto import AutonomousSsm
from .ssm_forced import ForcedReduction

#: |Re(eigenvalue)| below this times |lambda_master| is reported as
#: fold-degenerate, not classified (both scale with the time unit)
STABILITY_MARGIN = 1e-8


@dataclass
class ReducedDynamics:
    """Coefficients of the planar polar field at one forcing frequency.

    ``series[i, k]`` is the rho**(2i) coefficient of the even series k of
    a/rho, b, f1, f2, g1 and g2, in turn.  Stacked polar data of several
    frequencies add a trailing axis, one column per frequency (``omega``
    an array), and ``at`` then takes one rho per column.  The forcing
    amplitude eps is not part of them: the field's functions take it.
    """
    omega: float | np.ndarray
    series: np.ndarray

    def take(self, idx) -> ReducedDynamics:
        """Members ``idx`` of stacked polar data: an integer gives one
        frequency, an array of them a stack."""
        return ReducedDynamics(omega=self.omega[idx],
                               series=self.series[..., idx])

    def at(self, rho, slopes: bool = False):
        """(6, ...) values of a, b, f1, f2, g1 and g2 at rho, and with
        ``slopes`` their (6, ...) d/drho as well: one even_val (and one
        even_dval) for all six.  A stack takes one rho per column."""
        rho = np.asarray(rho, dtype=float)
        val = even_val(self.series, rho)
        if slopes:
            slope = even_dval(self.series, rho)
            slope[0] = val[0] + rho * slope[0]
        val[0] = rho * val[0]
        return (val, slope) if slopes else val


@dataclass
class FixedPointU:
    """One periodic-response point u = (rho, Omega, psi) with its tags."""
    rho: float
    omega: float
    psi: float
    stability: str = "fold-degenerate"  # "stable" | "unstable" | "fold-degenerate"
    branch: str | None = None  # "K+" | "K-" when traced by frc

    def __post_init__(self):
        if self.rho < 0:
            raise ValidationError("amplitude rho must be >= 0")
        self.psi = float(np.mod(self.psi, 2 * np.pi))


def assemble_polar(ssm: AutonomousSsm, fr: ForcedReduction
                   ) -> ReducedDynamics:
    """Combine the unforced and forced reduced coefficients into polar form.

    ``f1/g2`` share the real part and ``f2/g1`` the imaginary part of the
    diagonal forced coefficients; the off-diagonal contribution enters the
    four of them with alternating sign.  A stacked ForcedReduction gives
    the stacked polar data of its frequencies.
    """
    if fr.order != ssm.order:
        raise ValidationError(
            f"forced correction was computed at order {fr.order}, "
            f"manifold at order {ssm.order}")
    c, d = fr.c_res.T, fr.d_pm.T
    a, b = (x.reshape(x.shape + (1,) * (c.ndim - 1)) for x in
            (ssm.radial_coefficients(), ssm.phase_coefficients()))
    series = np.broadcast_arrays(a, b, c.real + d.real, c.imag - d.imag,
                                 c.imag + d.imag, c.real - d.real)
    return ReducedDynamics(omega=fr.omega, series=np.stack(series, axis=1))


def zero_problem(rd: ReducedDynamics, u, eps: float):
    """Fixed-point equations F(u) = (rho', rho * psi') at u = (rho, Omega, psi).

    Zeros of both components are periodic responses.  The second component
    carries the extra factor rho so the pair stays regular through rho -> 0.
    """
    rho, omega, psi = u
    rho = np.asarray(rho, dtype=float)
    a, b, f1, f2, g1, g2 = rd.at(rho)
    cp, sp = np.cos(psi), np.sin(psi)
    return (a + eps * (f1 * cp + f2 * sp),
            (b - omega) * rho + eps * (g1 * cp - g2 * sp))


def _polar_jacobian(rd: ReducedDynamics, rho, psi, eps: float) -> np.ndarray:
    """(..., 2, 2) Jacobian of the planar field (rho', psi') in (rho, psi),
    which the chart's 1/rho makes singular at rho <= 0."""
    if np.any(np.asarray(rho) <= 0):
        raise SingularChartError(
            "stability chart is singular at rho = 0; use a positive amplitude")
    cp, sp = np.cos(psi), np.sin(psi)
    val, slope = rd.at(rho, slopes=True)
    _, _, f1, f2, g1, g2 = val
    da, db, df1, df2, dg1, dg2 = slope

    j11 = da + eps * (df1 * cp + df2 * sp)
    j12 = eps * (-f1 * sp + f2 * cp)
    j21 = db + eps * ((dg1 / rho - g1 / rho ** 2) * cp
                      - (dg2 / rho - g2 / rho ** 2) * sp)
    j22 = eps * (-g1 * sp - g2 * cp) / rho
    jac = np.array([[j11, j12], [j21, j22]], dtype=float)
    return np.moveaxis(jac, (0, 1), (-2, -1))


def fixed_point_stability(rd: ReducedDynamics, u, eps: float):
    """Classify a fixed point u = (rho, Omega, psi) by the polar Jacobian.

    The Jacobian differentiates the true planar field (rho', psi') — with its
    1/rho forcing term — analytically in (rho, psi) at fixed Omega and eps.
    Both eigenvalue real parts negative means stable; a real part within
    STABILITY_MARGIN * |lambda_master| of zero is reported as
    fold-degenerate (lambda_master = a_0 + i b_0, the series' constant
    terms).  One point of one-frequency ``rd`` gives its label; arrays of
    points with stacked ``rd``, column j for point j, give an array of them.
    """
    rho, _, psi = u
    re = np.linalg.eigvals(_polar_jacobian(rd, rho, psi, eps)).real
    margin = STABILITY_MARGIN * np.hypot(rd.series[0, 0], rd.series[0, 1])
    labels = np.where(np.any(np.abs(re) < margin[..., None], axis=-1),
                      "fold-degenerate",
                      np.where(np.all(re < 0, axis=-1), "stable", "unstable"))
    return labels if labels.ndim else str(labels)
