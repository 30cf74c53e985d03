"""Mechanical systems, first-order form, and diagonal (modal) coordinates.

The chain is::

    MechanicalSystem --to_first_order--> FirstOrderSystem --modal_decompose--> ModalModel

A mechanical system is ``M y'' + C y' + K y + g(y, y') = eps * f * cos(Omega t)``
with polynomial ``g``.  The first-order form stacks ``x = (y, y')``.  The modal
model diagonalizes the linear part, ``x = T q``, carrying the nonlinearity and
forcing into the new coordinates; the slowest underdamped pair is placed first
and everything downstream (manifold construction, reduction) works in these
coordinates.

The nonlinearity is one :class:`~ssm_resolve.polyalg.Monomials` from the
first-order form on: ``to_first_order`` builds it from the terms of ``g``, and
``modal_decompose`` keeps its coefficients and exponents and maps each
injection column through ``T^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonResonanceError, SemisimplicityError,
                     ValidationError)
from .polyalg import Monomials

#: normalization policies for eigenvectors (see modal_decompose)
NORMALIZATIONS = ("first-position", "largest")

# relative symmetry / SPD validation tolerance for structural matrices
_SYM_TOL = 1e-10
#: relative margin at or below which check_nonresonance flags a resonance
NONRESONANCE_TOL = 1e-8
#: unit-column eigenvector condition number at which modal_decompose refuses
COND_LIMIT = 1e8


@dataclass(frozen=True)
class PolyTerm:
    """One monomial of the nonlinearity: ``coeff * prod(z_v ** exponents[v])``.

    ``row`` is the 0-based equation it enters (second-order numbering, 0..n-1);
    ``exponents`` runs over the 2n first-order variables: positions 0..n-1,
    then velocities n..2n-1.
    """
    row: int
    coeff: float
    exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exponents)


@dataclass
class MechanicalSystem:
    """n-DOF mechanical system with polynomial nonlinearity and cosine forcing."""
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    g: list[PolyTerm]
    f: np.ndarray
    #: preferred eigenvector normalization for downstream analysis (optional)
    normalization: str | None = None

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.K = np.asarray(self.K, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.g = [t if isinstance(t, PolyTerm) else PolyTerm(*t)
                  for t in self.g]
        for name, arr in (("M", self.M), ("C", self.C), ("K", self.K),
                          ("f", self.f),
                          ("the coefficients of g", [t.coeff for t in self.g])):
            if not np.isfinite(arr).all():
                raise ValidationError(f"non-finite entry in {name}")
        n = self.M.shape[0]
        for name, mat in (("M", self.M), ("C", self.C), ("K", self.K)):
            if mat.shape != (n, n):
                raise ValidationError(f"{name} must be {n}x{n}, got {mat.shape}")
            scale = max(np.abs(mat).max(), 1e-300)
            if np.abs(mat - mat.T).max() > _SYM_TOL * scale:
                raise ValidationError(f"{name} is not symmetric")
        try:
            np.linalg.cholesky(self.M)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("mass matrix is not positive definite") from exc
        if self.f.shape != (n,):
            raise ValidationError(f"forcing vector must have length {n}")
        for t in self.g:
            if not 0 <= t.row < n:
                raise ValidationError(f"nonlinear term row {t.row} out of range")
            if len(t.exponents) != 2 * n:
                raise ValidationError(
                    f"nonlinear term exponents must have length {2*n}")
            if any(e < 0 for e in t.exponents):
                raise ValidationError("negative exponent in nonlinear term")
            if t.degree < 2:
                raise ValidationError(
                    "nonlinear terms must have total degree >= 2 "
                    f"(got degree {t.degree})")
        if self.normalization is not None and self.normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"unknown normalization {self.normalization!r}; "
                f"expected one of {NORMALIZATIONS}")

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass
class FirstOrderSystem:
    """x' = A x + G(x) + eps * F cos(Omega t), with x = (y, y')."""
    A: np.ndarray
    #: G: the monomials of the second-order terms, each injected by a
    #: column of shape (2n,) whose top half is zero
    monomials: Monomials
    F: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0] // 2

    def slowest_eigenvalue(self) -> complex:
        """The eigenvalue of A with the largest real part, with its imaginary
        part taken non-negative (the upper member of a conjugate pair)."""
        ev = np.linalg.eigvals(self.A)
        lam = ev[int(np.argmax(ev.real))]
        return complex(lam.real, abs(lam.imag))

    def nonlinearity(self, x: np.ndarray) -> np.ndarray:
        """Evaluate G at one state (2n,) or a batch (2n, npts); see
        :meth:`Monomials.value` for the summation order."""
        return self.monomials.value(x)


def to_first_order(sys: MechanicalSystem) -> FirstOrderSystem:
    """Embed the second-order system into first-order form.

    The nonlinearity keeps its monomial structure: each term's scalar monomial
    is unchanged, and its equation unit vector becomes an injection column
    ``-[0; M^{-1} e_row]`` (the mass matrix couples rows, so the injection is a
    dense vector in general).
    """
    n = sys.n
    Minv = np.linalg.inv(sys.M)
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -Minv @ sys.K
    A[n:, n:] = -Minv @ sys.C
    inject = np.zeros((2 * n, len(sys.g)))
    inject[n:] = -Minv[:, [t.row for t in sys.g]]
    F = np.zeros(2 * n)
    F[n:] = Minv @ sys.f
    return FirstOrderSystem(
        A=A, monomials=Monomials([t.coeff for t in sys.g],
                                 [t.exponents for t in sys.g], inject),
        F=F)


@dataclass
class ModalModel:
    """Diagonalized linear part plus transformed nonlinearity and forcing.

    ``eigenvalues`` holds the full spectrum with the master pair in slots 0, 1
    (the pair is exactly conjugate: eigenvalues[1] == conj(eigenvalues[0]))
    and the remaining modes in decreasing-real-part order, conjugate pairs
    adjacent.  Overdamped (real) eigenvalues appear as single real columns.
    """
    eigenvalues: np.ndarray   # (2n,) complex
    T: np.ndarray             # (2n, 2n) complex, columns are eigenvectors
    T_inv: np.ndarray
    #: G carried into modal coordinates: the monomials are still taken of
    #: the physical state x = T q, and each injection becomes T^{-1} inject
    monomials: Monomials
    F_m: np.ndarray           # (2n,) complex
    normalization: str

    @property
    def n(self) -> int:
        return self.T.shape[0] // 2

    @property
    def lambda_master(self) -> complex:
        return complex(self.eigenvalues[0])


def _normalize_vector(v: np.ndarray, n: int, policy: str) -> np.ndarray:
    """Apply the eigenvector scaling policy (deterministic)."""
    if policy == "first-position":
        pos = v[:n]
        scale_ref = np.abs(pos).max()
        if scale_ref == 0:
            raise ValidationError("eigenvector has zero position part")
        j = int(np.argmax(np.abs(pos) > 1e-12 * scale_ref))
        return v / v[j]
    if policy == "largest":
        v = v / np.linalg.norm(v)
        z = v[int(np.argmax(np.abs(v)))]
        return v * (np.conj(z) / abs(z))
    raise ValidationError(f"unknown normalization policy {policy!r}")


def _check_conditioning(groups) -> None:
    """The exact gate: the SVD condition number of unit eigenvector columns."""
    T_probe = np.column_stack([v for g in groups for v in g[3]])
    cond = np.linalg.cond(T_probe / np.linalg.norm(T_probe, axis=0))
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SemisimplicityError(
            f"eigenvector matrix condition number {cond:.3g} >= 1e8; "
            "the linear part is too close to defective for diagonal coordinates")


def modal_decompose(fos: FirstOrderSystem, master: int = 0,
                    normalization: str = "first-position") -> ModalModel:
    """Diagonalize the linear part and transform nonlinearity and forcing.

    Parameters
    ----------
    fos : FirstOrderSystem
    master : int
        0-based index into the list of underdamped (complex) mode pairs,
        sorted by decreasing real part; 0 selects the slowest-decaying pair.
    normalization : {"first-position", "largest"}
        Eigenvector scaling.  "first-position" scales the first nonzero
        position coordinate to 1; "largest" scales to unit 2-norm and rotates
        the largest-magnitude entry to the positive real axis.  Reduced-model
        coefficients are scaling-covariant, so results must always be quoted
        together with this policy.

    Raises
    ------
    SemisimplicityError
        If the eigenvector matrix, with its columns scaled to unit norm, is
        ill-conditioned (cond >= COND_LIMIT) or the similarity residual
        exceeds 1e-10 * ||A|| * ||T||.  Both gates are independent of the
        normalization policy.  The Frobenius bound
        cond(U) <= ||U||_F * ||U^-1||_F settles the first gate; the SVD runs
        only where the bound does not, so the verdict is the SVD's.
    ValidationError
        If the requested master pair does not exist.
    """
    A = fos.A
    n = fos.n
    lam, V = np.linalg.eig(A)

    # group spectrum into conjugate pairs (+ real singletons): each pair is
    # built from its upper member alone
    plus = [i for i in range(2 * n) if lam[i].imag > 0]
    if len(plus) != int(np.count_nonzero(lam.imag < 0)):
        raise SemisimplicityError("unpaired complex eigenvalue in real spectrum")
    groups = []  # (sort_key, [eigvals], [vectors])
    for i in sorted(plus, key=lambda i: (-lam[i].real, lam[i].imag)):
        v = _normalize_vector(V[:, i], n, normalization)
        groups.append(((-lam[i].real, abs(lam[i].imag)), True,
                       [lam[i], np.conj(lam[i])], [v, np.conj(v)]))
    for i in range(2 * n):
        if lam[i].imag != 0:
            continue
        vr = np.real(V[:, i])
        vr = _normalize_vector(vr.astype(complex), n, normalization)
        groups.append(((-lam[i].real, 0.0), False, [lam[i].real + 0j], [vr]))
    groups.sort(key=lambda g: g[0])

    # a defective spectrum reports that before a bad master index
    pair_positions = [gi for gi, g in enumerate(groups) if g[1]]
    if master >= len(pair_positions) or master < 0:
        _check_conditioning(groups)
        raise ValidationError(
            f"master pair index {master} out of range "
            f"({len(pair_positions)} underdamped pairs found)")
    master_gi = pair_positions[master]
    ordered = [groups[master_gi]] + [g for gi, g in enumerate(groups)
                                     if gi != master_gi]

    lam_sorted = np.array([l for g in ordered for l in g[2]])
    T = np.column_stack([v for g in ordered for v in g[3]])
    try:
        T_inv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        _check_conditioning(groups)
        raise
    # U = T D^-1 (D the column norms) has ||U||_F = sqrt(2n), U^-1 = D T^-1;
    # a NaN bound or one within 1e-3 of the limit (rounding) takes the SVD
    bound = np.sqrt(2 * n) * np.linalg.norm(
        np.linalg.norm(T, axis=0)[:, None] * T_inv)
    if not bound < COND_LIMIT * (1 - 1e-3):
        _check_conditioning(groups)
    # the residual scales with the columns of T, so its bound does too
    residual = np.linalg.norm(A @ T - T * lam_sorted[None, :])
    if residual > 1e-10 * np.linalg.norm(A) * np.linalg.norm(T):
        raise SemisimplicityError(
            f"similarity residual {residual:.3g} exceeds "
            "1e-10 * ||A|| * ||T||")

    g = fos.monomials
    monomials = Monomials(
        g.coeffs, g.exponents,
        np.array([T_inv @ col for col in np.ascontiguousarray(g.inject.T)]
                 ).reshape(-1, 2 * n).T)
    return ModalModel(eigenvalues=lam_sorted, T=T, T_inv=T_inv,
                      monomials=monomials, F_m=T_inv @ fos.F,
                      normalization=normalization)


def spectral_quotient(mm: ModalModel) -> int:
    """Integer part of (fastest decay rate) / (master decay rate).

    This is the smallest expansion order guaranteed to distinguish the slow
    manifold from competing invariant surfaces; it also bounds the resonance
    orders that must be excluded.
    """
    re_master = mm.lambda_master.real
    if re_master >= 0:
        raise ValidationError("master mode must be decaying (Re < 0)")
    re_min = float(np.min(mm.eigenvalues.real))
    # nudge so exact integer ratios survive floating-point division
    return int(re_min / re_master + 1e-9)


def check_nonresonance(mm: ModalModel, sigma: int) -> float:
    """Check Re(lam_l) != a*Re(lam_1) + b*Re(lam_2) for 2 <= a+b <= sigma,
    and return the smallest relative margin (infinite with no enslaved
    eigenvalue).

    Because the master pair is exactly conjugate, Re(lam_1) = Re(lam_2) = r and
    the sum only depends on q = a + b; the check therefore reduces to the
    distance from Re(lam_l)/r to the nearest integer in [2, sigma], evaluated
    per enslaved eigenvalue.  That keeps the check O(n) even when sigma is
    astronomically large (stiff high modes).

    Raises
    ------
    NonResonanceError
        For the first slot l whose margin |q*r - Re(lam_l)| is
        <= NONRESONANCE_TOL * |Re(lam_l)|, when sigma >= 2.
    """
    r = mm.lambda_master.real
    smallest = np.inf
    for l in range(2, len(mm.eigenvalues)):
        ratio = mm.eigenvalues[l].real / r
        q = int(np.clip(round(ratio), 2, max(sigma, 2)))
        rel_margin = (abs(q * r - mm.eigenvalues[l].real)
                      / abs(mm.eigenvalues[l].real))
        if sigma >= 2 and rel_margin <= NONRESONANCE_TOL:
            raise NonResonanceError(
                f"real-part resonance up to order {sigma}: "
                f"Re(lam_{l}) = {q}*Re(lam_0) + 0*Re(lam_1) within tolerance; "
                "pass check=False to override")
        smallest = min(smallest, rel_margin)
    return float(smallest)
