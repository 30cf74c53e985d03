"""Mechanical systems, first-order form, and diagonal (modal) coordinates.

The chain is::

    MechanicalSystem --to_first_order--> FirstOrderSystem --modal_decompose--> ModalModel

A mechanical system is ``M y'' + C y' + K y + g(y, y') = eps * f * cos(Omega t)``
with polynomial ``g``.  The first-order form stacks ``x = (y, y')``.  The modal
model diagonalizes the linear part, ``x = T q``, carrying the nonlinearity and
forcing into the new coordinates; the slowest underdamped pair is placed first
and everything downstream (manifold construction, reduction) works in these
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, SemisimplicityError
from .polyalg import Monomials

#: normalization policies for eigenvectors (see modal_decompose)
NORMALIZATIONS = ("first-position", "largest")

# relative symmetry / SPD validation tolerance for structural matrices
_SYM_TOL = 1e-10
#: relative margin at or below which check_nonresonance flags a resonance
NONRESONANCE_TOL = 1e-8


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
        terms = []
        for t in self.g:
            if not isinstance(t, PolyTerm):
                t = PolyTerm(*t)
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
            terms.append(t)
        self.g = terms
        if self.normalization is not None and self.normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"unknown normalization {self.normalization!r}; "
                f"expected one of {NORMALIZATIONS}")

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class FirstOrderTerm:
    """Nonlinear monomial in first-order coordinates: ``coeff * x**exponents * inject``."""
    coeff: float
    exponents: tuple[int, ...]
    inject: np.ndarray  # (2n,), top half zero


@dataclass
class FirstOrderSystem:
    """x' = A x + G(x) + eps * F cos(Omega t), with x = (y, y')."""
    A: np.ndarray
    terms: list[FirstOrderTerm]
    F: np.ndarray
    #: G compiled from the terms
    monomials: Monomials = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.monomials = Monomials(
            [t.coeff for t in self.terms], [t.exponents for t in self.terms],
            np.array([t.inject for t in self.terms]).reshape(
                -1, len(self.A)).T)

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
    terms = []
    for t in sys.g:
        inject = np.zeros(2 * n)
        inject[n:] = -Minv[:, t.row]
        terms.append(FirstOrderTerm(t.coeff, t.exponents, inject))
    F = np.zeros(2 * n)
    F[n:] = Minv @ sys.f
    return FirstOrderSystem(A=A, terms=terms, F=F)


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
    fos: FirstOrderSystem
    normalization: str

    @property
    def n(self) -> int:
        return self.T.shape[0] // 2

    @property
    def lambda_master(self) -> complex:
        return complex(self.eigenvalues[0])

    def nonlinearity(self, q: np.ndarray) -> np.ndarray:
        """Evaluate the modal nonlinearity at q: (2n,) or (2n, npts)."""
        return self.monomials.value(self.T @ q)


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
        ill-conditioned (cond >= 1e8) or the similarity residual exceeds
        1e-10 * ||A|| * ||T||.  Both gates are independent of the
        normalization policy.
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

    # semisimplicity is a property of the assembled transform, checked before
    # master selection so defective spectra fail with the right error; unit
    # columns keep the eigenvector scaling policy out of the verdict
    T_probe = np.column_stack([v for g in groups for v in g[3]])
    cond = np.linalg.cond(T_probe / np.linalg.norm(T_probe, axis=0))
    if not np.isfinite(cond) or cond >= 1e8:
        raise SemisimplicityError(
            f"eigenvector matrix condition number {cond:.3g} >= 1e8; "
            "the linear part is too close to defective for diagonal coordinates")

    pair_positions = [gi for gi, g in enumerate(groups) if g[1]]
    if master >= len(pair_positions) or master < 0:
        raise ValidationError(
            f"master pair index {master} out of range "
            f"({len(pair_positions)} underdamped pairs found)")
    master_gi = pair_positions[master]
    ordered = [groups[master_gi]] + [g for gi, g in enumerate(groups)
                                     if gi != master_gi]

    lam_sorted = np.array([l for g in ordered for l in g[2]])
    T = np.column_stack([v for g in ordered for v in g[3]])
    T_inv = np.linalg.inv(T)
    # the residual scales with the columns of T, so its bound does too
    residual = np.linalg.norm(A @ T - T * lam_sorted[None, :])
    if residual > 1e-10 * np.linalg.norm(A) * np.linalg.norm(T):
        raise SemisimplicityError(
            f"similarity residual {residual:.3g} exceeds "
            "1e-10 * ||A|| * ||T||")

    monomials = Monomials(
        [t.coeff for t in fos.terms], [t.exponents for t in fos.terms],
        np.array([T_inv @ t.inject for t in fos.terms]).reshape(-1, 2 * n).T)
    return ModalModel(eigenvalues=lam_sorted, T=T, T_inv=T_inv,
                      monomials=monomials, F_m=T_inv @ fos.F, fos=fos,
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


@dataclass
class NonResonanceReport:
    """Outcome of the real-part non-resonance check up to order sigma."""
    passed: bool
    sigma: int
    #: representative violating (a, b, l) triples: a*Re(lam_0) + b*Re(lam_1)
    #: hits Re(lam_l) within tolerance (l is the 0-based eigenvalue slot)
    violations: list[tuple[int, int, int]]
    #: per-eigenvalue-slot margin data: {"q", "abs_margin", "rel_margin"}
    margins: dict[int, dict]


def check_nonresonance(mm: ModalModel, sigma: int) -> NonResonanceReport:
    """Check Re(lam_l) != a*Re(lam_1) + b*Re(lam_2) for 2 <= a+b <= sigma.

    Because the master pair is exactly conjugate, Re(lam_1) = Re(lam_2) = r and
    the sum only depends on q = a + b; the check therefore reduces to the
    distance from Re(lam_l)/r to the nearest integer in [2, sigma], evaluated
    per enslaved eigenvalue.  That keeps the check O(n) even when sigma is
    astronomically large (stiff high modes).

    A violation is flagged when the margin is <= NONRESONANCE_TOL *
    |Re(lam_l)|.
    """
    r = mm.lambda_master.real
    margins: dict[int, dict] = {}
    violations: list[tuple[int, int, int]] = []
    for l in range(2, len(mm.eigenvalues)):
        ratio = mm.eigenvalues[l].real / r
        q = int(np.clip(round(ratio), 2, max(sigma, 2)))
        abs_margin = abs(q * r - mm.eigenvalues[l].real)
        rel_margin = abs_margin / abs(mm.eigenvalues[l].real)
        margins[l] = {"q": q, "abs_margin": abs_margin, "rel_margin": rel_margin}
        if sigma >= 2 and rel_margin <= NONRESONANCE_TOL:
            for a in range(q, max(q - 32, -1), -1):
                violations.append((a, q - a, l))
    return NonResonanceReport(passed=not violations, sigma=sigma,
                              violations=violations, margins=margins)
