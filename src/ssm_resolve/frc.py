"""Forced response curves: tracing, folds, components, physical amplitudes.

A periodic response at amplitude rho and frequency Omega exists when the
polar fixed-point equations admit a solution in psi.  Eliminating psi with
the tangent half-angle K = tan(psi/2) turns the radial equation into the
quadratic

    (a - eps*f1) K**2 + 2*eps*f2 K + (a + eps*f1) = 0,

whose discriminant (up to a factor 4) is  disc = eps**2 (f1**2 + f2**2) - a**2.
Real responses exist where disc >= 0; disc = 0 marks folds of the response
curve over the frequency axis.  The curve is traced on a rho grid: at each
admissible rho and branch, the remaining phase equation G = 0 is solved for
Omega (the f/g coefficients themselves depend on Omega, so the solve wraps
the forced-stage computation), every solution is verified against the full
zero problem and stability-tagged, and the accepted points are grouped into
connected components by proximity in the (Omega, rho) plane.  Each accepted
point keeps the forced reduction it was solved with, so its physical
amplitude needs no further forced solve.

The physical amplitude is the peak of one coordinate over a forcing period.
On the manifold s1**p s2**q = rho**(p+q) e^{i(p-q)(psi+phi)}, and the two
forced harmonics shift p - q by +-1, so the coordinate is the trigonometric
polynomial x(phi) = Re sum_{|h| <= order} c_h e^{i h phi}.  A whole curve's
peaks come from one (points, harmonics) array of c_h: a phase grid brackets
each peak and vectorized Newton steps on the analytic derivatives polish it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ValidationError
from .ssm_auto import AutonomousSsm
from .ssm_forced import ForcedReduction, compute_nonautonomous_ssm
from .reduced import (ReducedDynamics, FixedPointU, assemble_polar,
                      zero_problem, fixed_point_stability)

#: |a - eps*f1| below this switches the K quadratic to its linear limit
DEGENERATE_LEAD = 1e-14
#: convergence target on |G| in the Omega solve
G_TOL = 1e-12
#: verification bound on the full zero problem at accepted points
POINT_TOL = 1e-10
#: relative bound on the discriminant at reported folds
FOLD_TOL = 1e-12

BRANCHES = ("K+", "K-")


def discriminant(rd: ReducedDynamics, rho, eps: float):
    """eps**2 (f1**2 + f2**2) - a**2 at amplitude rho."""
    a = rd.a_of(rho)
    return eps ** 2 * (rd.f1_of(rho) ** 2 + rd.f2_of(rho) ** 2) - a ** 2


def k_branches(rd: ReducedDynamics, rho: float, eps: float) -> list[float]:
    """Real roots K of the radial equation at amplitude rho.

    Returns zero, one, or two values ordered (K+, K-); an empty list means
    no response exists at this amplitude.  A degenerate leading coefficient
    yields the linear root plus ``math.inf`` standing for the K -> infinity
    solution (psi = pi).
    """
    a = float(rd.a_of(rho))
    f1 = float(rd.f1_of(rho))
    f2 = float(rd.f2_of(rho))
    lead = a - eps * f1
    if abs(lead) < DEGENERATE_LEAD:
        b_lin = 2 * eps * f2
        if abs(b_lin) < DEGENERATE_LEAD:
            return []
        return [-(a + eps * f1) / b_lin, math.inf]
    disc = eps ** 2 * (f1 ** 2 + f2 ** 2) - a ** 2
    if disc < 0:
        return []
    root = math.sqrt(disc)
    return [(-eps * f2 + root) / lead, (-eps * f2 - root) / lead]


def psi_from_k(k: float) -> float:
    """Phase from the tangent half-angle; infinity maps to psi = pi."""
    if math.isinf(k):
        return math.pi
    return math.atan2(2 * k, 1 - k * k) % (2 * math.pi)


def frc_G(rd: ReducedDynamics, rho: float, omega: float, eps: float,
          branch: str) -> float | None:
    """Phase-equation residual at the branch's psi; None if no such branch.

    The radial equation is satisfied identically by the K construction, so
    this scalar is the only remaining condition on Omega.
    """
    if branch not in BRANCHES:
        raise ValidationError(f"unknown branch {branch!r}; expected K+ or K-")
    ks = k_branches(rd, rho, eps)
    if len(ks) <= BRANCHES.index(branch):
        return None
    return _phase_residual(rd, rho, omega, eps,
                           psi_from_k(ks[BRANCHES.index(branch)]))


def _phase_residual(rd: ReducedDynamics, rho: float, omega: float,
                    eps: float, psi: float) -> float:
    """Phase equation (b - Omega) rho + eps (g1 cos psi - g2 sin psi)."""
    return float((rd.b_of(rho) - omega) * rho
                 + eps * (rd.g1_of(rho) * math.cos(psi)
                          - rd.g2_of(rho) * math.sin(psi)))


@dataclass
class FrcCurve:
    """Sampled forced response curve at one forcing amplitude."""
    eps: float
    order: int
    points: list[FixedPointU]
    folds: np.ndarray
    components: list[list[int]]
    rho_max: float
    n_rho: int
    omega_window: tuple[float, float] | None = None
    skipped: list[tuple[float, str, str]] = field(default_factory=list)
    #: the forced reduction at each point's Omega, parallel to ``points``
    reductions: list[ForcedReduction] = field(default_factory=list,
                                              repr=False)

    def component_of(self, index: int) -> int:
        for ci, members in enumerate(self.components):
            if index in members:
                return ci
        raise ValidationError(f"point index {index} not in any component")


def _backbone_omega(ssm: AutonomousSsm, rho: float) -> float:
    """Frequency b(rho) of the unforced backbone curve at amplitude rho."""
    return float(np.polynomial.polynomial.polyval(rho ** 2,
                                                  ssm.phase_coefficients()))


def _rd_at(ssm: AutonomousSsm, omega: float, eps: float, cache: dict,
           fresh: dict | None = None) -> ReducedDynamics:
    """Polar data at ``omega``, solved once per Omega and kept in ``cache``.

    A new solve also leaves its forced reduction in ``fresh`` when given.
    """
    rd = cache.get(omega)
    if rd is None:
        fr = compute_nonautonomous_ssm(ssm, omega)
        rd = assemble_polar(ssm, fr, eps)
        cache[omega] = rd
        if fresh is not None:
            fresh[omega] = fr
    return rd


def _solve_omega(ssm: AutonomousSsm, rho: float, eps: float, branch: str,
                 omega0: float, cache: dict, psi_double: bool = False,
                 max_iter: int = 50, fresh: dict | None = None):
    """Safeguarded secant iteration for G(Omega) = 0 at fixed (rho, branch).

    With ``psi_double`` the phase is frozen at the double root
    K = -eps*f2/(a - eps*f1) instead of the branch root, which keeps the
    iteration defined on the far side of a fold (used to bracket folds).
    Returns (omega, rd, G) or None on divergence.
    """
    def g_of(om: float):
        rd = _rd_at(ssm, om, eps, cache, fresh)
        if psi_double:
            lead = float(rd.a_of(rho)) - eps * float(rd.f1_of(rho))
            k = (math.inf if abs(lead) < DEGENERATE_LEAD
                 else -eps * float(rd.f2_of(rho)) / lead)
            return _phase_residual(rd, rho, om, eps, psi_from_k(k)), rd
        return frc_G(rd, rho, om, eps, branch), rd

    om = float(omega0)
    g, rd = g_of(om)
    if g is None:
        return None
    h = 1e-7 * max(1.0, abs(om))
    for _ in range(max_iter):
        if abs(g) <= G_TOL:
            return om, rd, g
        g2, _ = g_of(om + h)
        if g2 is None or g2 == g:
            return None
        slope = (g2 - g) / h
        step = -g / slope
        # safeguard: halve the step until the residual actually shrinks
        for _ in range(12):
            g_new, rd_new = g_of(om + step)
            if g_new is not None and abs(g_new) < abs(g):
                break
            step /= 2
        else:
            return None
        om, g, rd = om + step, g_new, rd_new
    return (om, rd, g) if abs(g) <= G_TOL else None


def trace_frc(ssm: AutonomousSsm, mm, eps: float, rho_max: float,
              n_rho: int, omega_window: tuple[float, float] | None = None) -> FrcCurve:
    """Trace the forced response curve on a rho grid.

    Parameters
    ----------
    ssm : AutonomousSsm
    mm : ModalModel
        The modal model the manifold was built from (kept for signature
        symmetry with the rest of the pipeline; the manifold carries it too).
    eps : float
        Forcing amplitude (> 0).
    rho_max, n_rho : float, int
        Upper end and resolution of the amplitude grid.
    omega_window : (float, float), optional
        Keep only responses with Omega inside this closed interval.
    """
    if eps <= 0:
        raise ValidationError("eps must be > 0 (use the unforced analysis "
                              "for eps = 0)")
    if rho_max <= 0 or n_rho < 2:
        raise ValidationError("need rho_max > 0 and n_rho >= 2")

    grid = np.linspace(0.0, rho_max, n_rho + 1)[1:]
    step = grid[1] - grid[0]
    cache: dict = {}
    # reductions solved in the current grid row; only those of accepted
    # points outlive it
    fresh: dict[float, ForcedReduction] = {}
    points: list[FixedPointU] = []
    reductions: list[ForcedReduction] = []
    # the accepted reductions' embedding arrays, in one slot per grid row
    # and branch (slots never written take no memory).  Kept as hundreds of
    # small arrays among the trace's short-lived ones, they fragment the
    # heap, which then stays resident after the curve is freed (18 MB
    # under glibc for a 578-point curve of the 100-state beam).  One block
    # is freed whole.
    store = None
    skipped: list[tuple[float, str, str]] = []
    disc_trace: dict[str, list[tuple[float, float]]] = {b: [] for b in BRANCHES}

    warm: dict[str, float | None] = {b: None for b in BRANCHES}
    for rho in grid:
        rho = float(rho)
        backbone = _backbone_omega(ssm, rho)
        for branch in BRANCHES:
            sign = +1 if branch == "K+" else -1
            rd0 = _rd_at(ssm, warm[branch] if warm[branch] is not None
                         else backbone, eps, cache, fresh)
            disc0 = float(discriminant(rd0, rho, eps))
            seed = backbone + sign * math.sqrt(max(disc0, 0.0)) / rho
            sol = _solve_omega(ssm, rho, eps, branch, seed, cache,
                               fresh=fresh)
            if sol is None:
                # try the plain backbone seed before giving up
                sol = _solve_omega(ssm, rho, eps, branch, backbone, cache,
                                   fresh=fresh)
            if sol is None:
                if disc0 >= 0:
                    skipped.append((rho, branch, "omega iteration diverged"))
                disc_trace[branch].append((rho, disc0))
                warm[branch] = None
                continue
            om, rd, g = sol
            disc_trace[branch].append((rho, float(discriminant(rd, rho, eps))))
            warm[branch] = om
            ks = k_branches(rd, rho, eps)
            if len(ks) <= BRANCHES.index(branch):
                continue
            psi = psi_from_k(ks[BRANCHES.index(branch)])
            f1v, f2v = zero_problem(rd, (rho, om, psi), eps=eps)
            if max(abs(float(f1v)), abs(float(f2v))) > POINT_TOL:
                skipped.append((rho, branch, "zero-problem residual too large"))
                continue
            if omega_window is not None and not (
                    omega_window[0] <= om <= omega_window[1]):
                skipped.append((rho, branch, "omega outside window"))
                continue
            rep = fixed_point_stability(rd, (rho, om, psi), eps=eps)
            points.append(FixedPointU(rho=rho, omega=om, psi=psi,
                                      stability=rep.label, branch=branch,
                                      eps=eps))
            fr = fresh.get(om)
            if fr is None:  # a cache hit on an Omega probed in an earlier row
                fr = compute_nonautonomous_ssm(ssm, om)
            if store is None:
                store = np.empty((2 * n_rho, 2) + fr.w_plus.shape,
                                 dtype=complex)
            slot = store[len(reductions)]
            slot[0], slot[1] = fr.w_plus, fr.w_minus
            fr.w_plus, fr.w_minus = slot[0], slot[1]
            reductions.append(fr)
        fresh.clear()

    folds = _locate_folds(ssm, eps, disc_trace, cache)
    components = _group_components(points, step, folds)
    return FrcCurve(eps=eps, order=ssm.order, points=points,
                    folds=np.asarray(folds), components=components,
                    rho_max=rho_max, n_rho=n_rho,
                    omega_window=omega_window, skipped=skipped,
                    reductions=reductions)


def _locate_folds(ssm: AutonomousSsm, eps: float, disc_trace: dict,
                  cache: dict) -> list[float]:
    """Bisect the discriminant (along the double-root Omega) at sign changes."""

    def disc_at(rho: float) -> float:
        backbone = _backbone_omega(ssm, rho)
        seed_rd = _rd_at(ssm, backbone, eps, cache)
        sol = _solve_omega(ssm, rho, eps, "K+", backbone, cache,
                           psi_double=True)
        rd = sol[1] if sol is not None else seed_rd
        return float(discriminant(rd, rho, eps))

    folds: list[float] = []
    by_rho: dict[float, float] = {}
    for b in disc_trace:
        for (r, d) in disc_trace[b]:
            by_rho.setdefault(round(r, 15), d)
    samples = sorted(by_rho.items())
    for (r0, d0), (r1, d1) in zip(samples[:-1], samples[1:]):
        if d0 == 0.0:
            folds.append(float(r0))
        if d0 * d1 < 0:
            rho_f = brentq(disc_at, r0, r1, xtol=1e-15, rtol=8.9e-16)
            folds.append(float(rho_f))
    if samples and samples[-1][1] == 0.0:
        folds.append(float(samples[-1][0]))
    # de-duplicate folds found from both branch traces
    folds.sort()
    out: list[float] = []
    for r in folds:
        if not out or abs(r - out[-1]) > 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


def _group_components(points: list[FixedPointU], step: float,
                      folds=()) -> list[list[int]]:
    """Union points within (2 grid steps, 4 * median Omega-gap) adjacency.

    The Omega scale is measured locally: each same-branch chain gap is
    compared against the median of itself and its two flanking gaps, and a
    point's own scale (used for cross-branch pairing near folds) is the
    median of its nearest chain gaps.  A local median is essential: the
    low-amplitude tail of the main branch has Omega steps growing like
    1/rho**2, so a single global median would cut a perfectly smooth curve
    into fragments, while a genuine jump still towers over its neighbors.

    The two branch segments of one curve meet exactly at folds, where their
    Omega values coalesce only in the limit; on a fine rho grid the last
    sampled rows can still be several local Omega scales apart.  Each
    located fold therefore stitches together the nearest point of either
    branch within two grid steps of it.
    """
    n = len(points)
    if n == 0:
        return []
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    rho_tol = 2 * step * (1 + 1e-9)
    scale = np.zeros(n)
    for b in BRANCHES:
        chain = sorted((i for i in range(n) if points[i].branch == b),
                       key=lambda i: points[i].rho)
        gaps = [abs(points[i].omega - points[j].omega)
                for i, j in zip(chain[:-1], chain[1:])]
        for k, (i, j) in enumerate(zip(chain[:-1], chain[1:])):
            if points[j].rho - points[i].rho > rho_tol:
                continue
            local = float(np.median(gaps[max(0, k - 1):k + 2]))
            if gaps[k] <= 4 * max(local, 1e-15):
                union(i, j)
        for pos, i in enumerate(chain):
            near = gaps[max(0, pos - 2):pos + 2]
            scale[i] = float(np.median(near)) if near else 0.0

    by_rho = sorted(range(n), key=lambda i: points[i].rho)
    rhos = [points[i].rho for i in by_rho]
    for pos, i in enumerate(by_rho):
        lo = bisect_left(rhos, points[i].rho - rho_tol, 0, pos)
        for j in by_rho[lo:pos]:
            if points[i].branch == points[j].branch:
                continue
            if abs(points[i].omega - points[j].omega) <= 4 * max(scale[i],
                                                                 scale[j]):
                union(i, j)

    for rho_f in folds:
        pair = []
        for b in BRANCHES:
            best = min((i for i in range(n) if points[i].branch == b
                        and abs(points[i].rho - rho_f) <= rho_tol),
                       key=lambda i: abs(points[i].rho - rho_f),
                       default=None)
            if best is not None:
                pair.append(best)
        if len(pair) == 2:
            union(*pair)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    comps = list(groups.values())
    comps.sort(key=lambda members: min(points[i].rho for i in members))
    return comps


#: phase-grid points that bracket each amplitude peak
N_PHASE = 256
#: Newton steps polishing each peak; one leaves ~1e-11 relative error
NEWTON_STEPS = 3


def _harmonics(rows: np.ndarray, rho: np.ndarray, shift: int,
               order: int) -> np.ndarray:
    """(points, 2*order + 1): rows[..., p, q] * rho**(p+q) summed by
    harmonic p - q + shift, harmonics -order..order in turn."""
    n = rows.shape[-1]
    p, q = np.indices((n, n)).reshape(2, -1)
    weighted = rows.reshape(rows.shape[:-2] + (-1,)) * rho[:, None] ** (p + q)
    return weighted @ np.eye(2 * order + 1)[p - q + shift + order]


def _peaks(ssm: AutonomousSsm, points: list[FixedPointU],
           reductions: list[ForcedReduction], coord: int,
           eps: float) -> np.ndarray:
    """Peak |x_coord| of each point's reconstructed orbit, all at once."""
    if not points:
        return np.empty(0)
    order, t = ssm.order, ssm.mm.T[coord]
    rho, psi = np.array([(u.rho, u.psi) for u in points]).T
    harm = np.arange(-order, order + 1)
    coef = _harmonics(np.tensordot(t, ssm.w0_dense, 1), rho, 0, order)
    for shift, name in ((1, "w_plus"), (-1, "w_minus")):
        # one projection per reduction: a stack of the embeddings would
        # hold every point's (states, k1, k2) array at once
        rows = np.array([(t @ w.reshape(t.size, -1)).reshape(w.shape[1:])
                         for w in (getattr(fr, name) for fr in reductions)])
        coef += (eps * np.exp(-1j * shift * psi)[:, None]
                 * _harmonics(rows, rho, shift, order))
    coef *= np.exp(1j * np.outer(psi, harm))

    phis = np.linspace(0.0, 2 * np.pi, N_PHASE, endpoint=False)
    vals = np.abs((coef @ np.exp(1j * np.outer(harm, phis))).real)
    phi = start = phis[vals.argmax(axis=1)]
    width = 2 * np.pi / N_PHASE
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            terms = coef * np.exp(1j * np.outer(phi, harm))
            step = (terms @ (1j * harm)).real / (terms @ harm ** 2).real
            phi = np.clip(phi + np.nan_to_num(step), start - width,
                          start + width)
    polished = (coef * np.exp(1j * np.outer(phi, harm))).sum(axis=1).real
    return np.maximum(vals.max(axis=1), np.abs(polished))


def physical_amplitudes(ssm: AutonomousSsm, curve: FrcCurve,
                        coord: int) -> np.ndarray:
    """Peak |x_coord| of every point of ``curve``, from its kept reductions."""
    return _peaks(ssm, curve.points, curve.reductions, coord, curve.eps)


def physical_amplitude(ssm: AutonomousSsm, fr: ForcedReduction,
                       u: FixedPointU, coord: int,
                       eps: float | None = None) -> float:
    """Peak |x_coord| of the reconstructed periodic orbit at one point.

    The orbit is x(phi) = T (W0 + eps W1)(rho e^{i(psi+phi)},
    rho e^{-i(psi+phi)}, phi) over one forcing period.
    """
    eps = u.eps if eps is None else eps
    if eps is None:
        raise ValidationError("forcing amplitude eps is required")
    return float(_peaks(ssm, [u], [fr], coord, eps)[0])
