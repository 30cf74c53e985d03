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
from .polyalg import even_dval, even_val, odd_dval
from .ssm_auto import AutonomousSsm
from .ssm_forced import ForcedReduction

#: |Re(eigenvalue)| below this times |lambda_master| is reported as
#: fold-degenerate, not classified (both scale with the time unit)
STABILITY_MARGIN = 1e-8


@dataclass
class ReducedDynamics:
    """Coefficients of the planar polar field at one forcing frequency.

    Stacked polar data of several frequencies keep the power on axis 0 of
    ``f1``/``f2``/``g1``/``g2`` and one column per frequency (``omega`` an
    array); every ``*_of`` then takes one rho per column.  The forcing
    amplitude eps is not part of them: the field's functions take it.
    """
    omega: float
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def a_of(self, rho):
        return np.asarray(rho) * even_val(self.a_coeffs, rho)

    def da_of(self, rho):
        return odd_dval(self.a_coeffs, rho)

    def b_of(self, rho):
        return even_val(self.b_coeffs, rho)

    def db_of(self, rho):
        return even_dval(self.b_coeffs, rho)

    def f1_of(self, rho):
        return even_val(self.f1, rho)

    def f2_of(self, rho):
        return even_val(self.f2, rho)

    def g1_of(self, rho):
        return even_val(self.g1, rho)

    def g2_of(self, rho):
        return even_val(self.g2, rho)


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
    return ReducedDynamics(omega=fr.omega,
                           a_coeffs=ssm.radial_coefficients(),
                           b_coeffs=ssm.phase_coefficients(),
                           f1=c.real + d.real, f2=c.imag - d.imag,
                           g1=c.imag + d.imag, g2=c.real - d.real)


def zero_problem(rd: ReducedDynamics, u, eps: float):
    """Fixed-point equations F(u) = (rho', rho * psi') at u = (rho, Omega, psi).

    Zeros of both components are periodic responses.  The second component
    carries the extra factor rho so the pair stays regular through rho -> 0.
    """
    rho, omega, psi = u
    rho = np.asarray(rho, dtype=float)
    f1 = rd.a_of(rho) + eps * (rd.f1_of(rho) * np.cos(psi)
                               + rd.f2_of(rho) * np.sin(psi))
    return f1, phase_residual(rd, rho, omega, eps, psi)


def phase_residual(rd: ReducedDynamics, rho, omega, eps: float, psi):
    """Second component of ``zero_problem``, rho * psi' at (rho, Omega,
    psi): (b - Omega) rho + eps (g1 cos psi - g2 sin psi)."""
    return ((rd.b_of(rho) - omega) * rho
            + eps * (rd.g1_of(rho) * np.cos(psi)
                     - rd.g2_of(rho) * np.sin(psi)))


@dataclass
class StabilityReport:
    """Classification of one polar fixed point."""
    eigenvalues: np.ndarray
    jacobian: np.ndarray
    label: str  # "stable" | "unstable" | "fold-degenerate"


def _polar_jacobian(rd: ReducedDynamics, rho, psi, eps: float) -> np.ndarray:
    """(..., 2, 2) Jacobian of the planar field (rho', psi') in (rho, psi)."""
    cp, sp = np.cos(psi), np.sin(psi)
    f1, f2 = rd.f1_of(rho), rd.f2_of(rho)
    g1, g2 = rd.g1_of(rho), rd.g2_of(rho)
    dg1, dg2 = even_dval(rd.g1, rho), even_dval(rd.g2, rho)

    j11 = rd.da_of(rho) + eps * (even_dval(rd.f1, rho) * cp
                                 + even_dval(rd.f2, rho) * sp)
    j12 = eps * (-f1 * sp + f2 * cp)
    j21 = rd.db_of(rho) + eps * ((dg1 / rho - g1 / rho ** 2) * cp
                                 - (dg2 / rho - g2 / rho ** 2) * sp)
    j22 = eps * (-g1 * sp - g2 * cp) / rho
    jac = np.array([[j11, j12], [j21, j22]], dtype=float)
    return np.moveaxis(jac, (0, 1), (-2, -1))


def _labels(rd: ReducedDynamics, eig: np.ndarray) -> np.ndarray:
    """Stability label of each row of eigenvalue pairs of ``rd``'s field."""
    re = eig.real
    margin = STABILITY_MARGIN * abs(complex(rd.a_coeffs[0], rd.b_coeffs[0]))
    return np.where(np.any(np.abs(re) < margin, axis=-1),
                    "fold-degenerate",
                    np.where(np.all(re < 0, axis=-1), "stable", "unstable"))


def stability_labels(rd: ReducedDynamics, rho, psi,
                     eps: float) -> np.ndarray:
    """Labels of the fixed points (rho[j], psi[j]) of stacked polar data
    ``rd``, column j each: fixed_point_stability's, for a batch at once."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise SingularChartError(
            "stability chart is singular at rho = 0; use a positive amplitude")
    return _labels(rd, np.linalg.eigvals(_polar_jacobian(rd, rho, psi, eps)))


def fixed_point_stability(rd: ReducedDynamics, u,
                          eps: float) -> StabilityReport:
    """Classify a fixed point u = (rho, Omega, psi) by the polar Jacobian.

    The Jacobian differentiates the true planar field (rho', psi') — with its
    1/rho forcing term — analytically in (rho, psi) at fixed Omega and eps.
    Both eigenvalue real parts negative means stable; a real part within
    STABILITY_MARGIN * |lambda_master| of zero is reported as
    fold-degenerate (lambda_master = a_coeffs[0] + i b_coeffs[0]).
    """
    rho, psi = float(u[0]), float(u[2])
    if rho <= 0:
        raise SingularChartError(
            "stability chart is singular at rho = 0; use a positive amplitude")
    jac = _polar_jacobian(rd, rho, psi, eps)
    eig = np.linalg.eigvals(jac)
    return StabilityReport(eigenvalues=eig, jacobian=jac,
                           label=str(_labels(rd, eig)))
