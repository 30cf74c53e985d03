"""Construction of the two-dimensional slow invariant manifold (unforced part).

The unforced system in modal coordinates is ``q' = Lambda q + G(q)``.  We seek
an embedding ``q = W0(s)``, polynomial in the two master coordinates
``s = (s1, s2)`` with s2 the conjugate partner, together with reduced dynamics
``s' = R0(s)`` such that the invariance equation

    Lambda W0(s) + G(W0(s)) = D_s W0(s) * R0(s)

holds to the expansion order.  R0 keeps the linear part plus only the
structurally resonant monomials: row 1 gets gamma_j * s1**(j+1) * s2**j and
row 2 its mirror — exactly the terms whose solve denominators degenerate to
multiples of 2*Re(lambda_1) for a lightly damped conjugate pair.  Everything
else is enslaved: coefficient by coefficient, a scalar division.

The solve marches degree by degree.  At degree d the unknowns enter only
through the diagonal term ``<(m1*lam1 + m2*lam2) - lam_i>`` because both the
composition G(W0) and the cross terms D_s W0 * (R0 - linear) at degree d are
assembled entirely from lower-degree data.

The composition G(W0) is graded (``Monomials.graded``): each active
physical coordinate ``x_v = T[v] W0`` is kept as a list of homogeneous
slices, one per degree, extended by projecting only the newly solved slice
of W0, and every partial product of the terms grows one slice per degree
from slices below it.  Slices that are zero by parity (odd nonlinearities
leave the even degrees unsolved) are carried as structural zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, InternalResonanceError
from .model import ModalModel, check_nonresonance, spectral_quotient
from .polyalg import dense_jet, dense_zero, horner

#: relative threshold on |lambda_i - <m, lambda_master>| for enslaved solves
#: (vs |lambda_i|); the forced solve holds its denominators, which carry
#: -/+ i*Omega, to it vs max(|lambda_i|, |Omega|)
RESONANCE_GUARD = 1e-8


@dataclass
class AutonomousSsm:
    """Result of the unforced manifold computation.

    ``gamma[j]`` is the coefficient of s1**(j+2) * s2**(j+1) in row 1 of the
    reduced field, j = 0..M-1: the resonant coefficient at polynomial degree
    2*j + 3.  ``gamma_row2`` holds the independently solved row-2 mirror
    values (equal to conj(gamma) when the computation is consistent;
    asserted in tests, not forced).  ``min_enslaved_den`` is the smallest
    ``|lambda_i - <m, lambda_master>| / |lambda_i|`` over the enslaved
    slots the solve divided by: the margin above ``RESONANCE_GUARD``, which
    aborts the construction (infinite when no degree was solved).
    """
    order: int
    lambda_master: complex
    gamma: np.ndarray
    gamma_row2: np.ndarray
    mm: ModalModel
    w0_dense: np.ndarray
    min_enslaved_den: float
    #: scratch space for the forced stage (built lazily, keyed by purpose)
    caches: dict = field(default_factory=dict, repr=False)

    @property
    def half_order(self) -> int:
        """Number of resonant coefficients M (order = 2M+1 when odd)."""
        return len(self.gamma)

    def radial_coefficients(self) -> np.ndarray:
        """Real coefficients of the radial field: rho' = sum a_i rho**(2i+1)."""
        return np.concatenate(([self.lambda_master.real], self.gamma.real))

    def phase_coefficients(self) -> np.ndarray:
        """Real coefficients of the phase field: psi' = sum b_i rho**(2i)."""
        return np.concatenate(([self.lambda_master.imag], self.gamma.imag))

    def r0_at(self, s1, s2) -> np.ndarray:
        """Evaluate the reduced field (2, npts) at points: each row a Horner
        sum in s1 s2 of its linear and resonant coefficients."""
        s1 = np.asarray(s1, dtype=complex)
        s2 = np.asarray(s2, dtype=complex)
        lam = self.lambda_master
        return np.stack([
            s1 * horner(np.concatenate(([lam], self.gamma)), s1 * s2),
            s2 * horner(np.concatenate(([np.conj(lam)], self.gamma_row2)),
                        s1 * s2)])


def compute_autonomous_ssm(mm: ModalModel, order: int, *,
                           check: bool = True) -> AutonomousSsm:
    """Solve the unforced invariance equation up to total degree ``order``.

    Parameters
    ----------
    mm : ModalModel
    order : int
        Truncation degree of the embedding (>= 1; odd orders add new resonant
        coefficients, even orders only extend the enslaved part).
    check : bool
        Run the low-order real-part resonance check first (orders up to
        min(spectral quotient, order+1)), which raises NonResonanceError;
        pass False to override after reviewing it.

    An enslaved denominator below ``RESONANCE_GUARD`` relative to its
    |lambda_i| means the spectrum is effectively internally resonant, and
    the construction aborts.
    """
    if order < 1:
        raise ValidationError("expansion order must be >= 1")
    if check:
        check_nonresonance(mm, min(spectral_quotient(mm), order + 1))

    n2 = len(mm.eigenvalues)
    lam = mm.eigenvalues
    lam1 = mm.lambda_master
    lam2 = lam[1]
    abs_lam = np.abs(lam)
    D = order

    W = dense_zero(D, rows=n2)
    W[0, 1, 0] = 1.0
    W[1, 0, 1] = 1.0
    flat = W.reshape(n2, -1)

    def degree(c: int) -> np.ndarray:
        """Degree-c slice of W as a view: entry p is slot (p, c-p)."""
        return flat[:, c:c * (D + 1) + 1:D]

    gam1: list[complex] = []
    gam2: list[complex] = []
    min_den = np.inf

    mono = mm.monomials
    t_active = mm.T[list(mono.active), :]
    comp = mono.graded(t_active @ degree(1))

    for d in range(2, D + 1):
        # each partial product's degree-d slice needs only slices below d
        comp.grow(d)
        # odd nonlinearity on a two-sided linear part keeps the manifold
        # odd: even-degree coefficients are exactly zero, so skip their
        # solve rather than solving for known zeros (even partial products
        # still grow there)
        if mono.odd and d % 2 == 0:
            comp.push(None)
            continue
        m1 = np.arange(d + 1)
        m2 = d - m1

        # -- composition slice: degree-d coefficients of G(W0)
        Gc = comp.value_slice(d)

        # -- cross terms: degree-d slice of D_s W0 * (R0 - linear part),
        # assembled from already-solved resonant coefficients; slot
        # (p, c-p) of the degree-c slice feeds slot (p+j, c-p+j)
        Cross = np.zeros((n2, d + 1), dtype=complex)
        for j, (g1, g2) in enumerate(zip(gam1, gam2), start=1):
            c = d - 2 * j
            p = np.arange(c + 1)
            Cross[:, j:j + c + 1] += (g1 * p + g2 * (c - p)) * degree(c)

        rhs = -Gc + Cross
        denom = lam[:, None] - (m1 * lam1 + m2 * lam2)

        resonant = np.zeros((n2, d + 1), dtype=bool)
        if d % 2 == 1:
            jj = (d - 1) // 2
            resonant[0, jj + 1] = True  # row 1 at (jj+1, jj)
            resonant[1, jj] = True      # row 2 at (jj, jj+1)

        mag = np.abs(denom)
        small = (mag < RESONANCE_GUARD * abs_lam[:, None]) & ~resonant
        if np.any(small):
            i, k = np.argwhere(small)[0]
            raise InternalResonanceError(
                f"internal resonance: |lambda_{i} - <({m1[k]},{m2[k]}), "
                f"lambda_master>| = {abs(denom[i, k]):.3e} "
                f"< {RESONANCE_GUARD:g} * |lambda_{i}|")

        min_den = min(min_den, (mag / abs_lam[:, None])[~resonant].min())

        vals = np.where(resonant, 0.0, rhs / denom)
        degree(d)[...] = vals
        comp.push(t_active @ vals)

        if d % 2 == 1:
            jj = (d - 1) // 2
            gam1.append(complex(Gc[0, jj + 1] - Cross[0, jj + 1]))
            gam2.append(complex(Gc[1, jj] - Cross[1, jj]))

    gamma = np.array(gam1, dtype=complex)
    gamma2 = np.array(gam2, dtype=complex)
    return AutonomousSsm(order=order, lambda_master=complex(lam1), gamma=gamma,
                         gamma_row2=gamma2, mm=mm, w0_dense=W,
                         min_enslaved_den=float(min_den))


def invariance_residual(ssm: AutonomousSsm, samples) -> dict:
    """Evaluate the unforced invariance defect at sample points.

    ``samples`` is an array of complex master coordinates s1; the conjugate
    coordinate is taken as s2 = conj(s1) (the physically meaningful slice).
    The nonlinearity is evaluated exactly (not through a truncated
    composition), so the returned defect measures the truncation error of the
    embedding itself.  Returns ``defect_report``'s maxima, relative values
    scaled by |Lambda W0| per sample.
    """
    s1 = np.atleast_1d(np.asarray(samples, dtype=complex))
    s2 = np.conj(s1)
    mm = ssm.mm
    w, dw_1, dw_2 = dense_jet(ssm.w0_dense, s1, s2)
    r0 = ssm.r0_at(s1, s2)
    lin = mm.eigenvalues[:, None] * w
    res = lin + mm.monomials.value(mm.T @ w) - dw_1 * r0[0] - dw_2 * r0[1]
    return defect_report(np.linalg.norm(res, axis=0),
                         np.linalg.norm(lin, axis=0))


def defect_report(defect: np.ndarray, scale: np.ndarray) -> dict:
    """The report of an invariance defect from its 2-norm and its scale per
    sample: the largest defect and the largest ratio of the two."""
    rel = defect / np.maximum(scale, 1e-300)
    return {"max_absolute": float(defect.max()),
            "max_relative": float(rel.max())}
