"""Isola detection: root tracking of the radial drift across orders.

The radial drift a(rho) of the reduced flow is an odd polynomial; its real
positive roots are candidate rest amplitudes around which detached response
branches (isolas) form.  Truncated expansions also produce spurious roots
that drift toward the boundary of the expansion's convergence disk as the
order grows, while genuine roots settle well inside it.  This module tracks
all roots across increasing truncation order, classifies them by a Cauchy
settling criterion plus a convergence-radius fraction, and evaluates the
closed-form cubic results: the rest amplitude rho1, the fold amplitudes at
a given forcing, and the forcing level eps_m at which an isola merges with
the main response branch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ModalModel
from .reduced import _even_dval, _even_val
from .ssm_auto import AutonomousSsm, compute_autonomous_ssm
from .ssm_forced import leading_forcing_coefficient

#: relative settling tolerance on a root over the last three orders
ROOT_CAUCHY_TOL = 1e-3
#: a genuine root must sit below this fraction of the convergence radius
RADIUS_FRACTION = 0.8


@dataclass
class RootTrack:
    """Roots of the radial drift polynomial across truncation orders.

    ``roots[M]`` holds rho = 0 plus one representative per +- pair of the
    nonzero roots (principal square roots of the roots in u = rho**2).
    ``trajectories`` are greedy nearest-neighbor chains of the nonzero
    representatives across consecutive orders; ``radius[M]`` is the ratio
    estimate of the convergence radius, smoothed over the last three orders.
    """
    orders: list[int]
    roots: dict[int, np.ndarray]
    trajectories: list[dict[int, complex]]
    radius: dict[int, float]
    gamma: np.ndarray
    lambda_master: complex


def _radius_estimates(lambda_master: complex, gamma: np.ndarray,
                      orders: list[int]) -> dict[int, float]:
    def ratio(m: int) -> float:
        # coefficient ratio |gamma_{m-1} / gamma_m| ** 0.5 in the rho scale
        prev = lambda_master.real if m == 1 else gamma[m - 2]
        cur = gamma[m - 1]
        if cur == 0:
            return math.inf
        return math.sqrt(abs(prev) / abs(cur))

    out = {}
    for m in orders:
        window = [ratio(k) for k in (m - 2, m - 1, m) if k >= 1]
        out[m] = float(np.mean(window)) if window else math.inf
    return out


def _tracked_orders(orders) -> list[int]:
    orders = sorted(set(int(m) for m in orders))
    if not orders or orders[0] < 1:
        raise ValidationError("orders must be positive integers")
    return orders


def roots_of_a(ssm: AutonomousSsm, orders) -> RootTrack:
    """Track all roots of the radial drift for each truncation order.

    Parameters
    ----------
    ssm : AutonomousSsm
        Manifold whose drift coefficients gamma_1..gamma_max(M) are
        tracked; its order must be at least 2*max(M) + 1.
    orders : iterable of int
        Truncation orders M >= 1 of the drift polynomial in rho**2.
    """
    orders = _tracked_orders(orders)
    m_max = orders[-1]
    if ssm.half_order < m_max:
        raise ValidationError(f"tracking order {m_max} needs a manifold of "
                              f"order >= {2 * m_max + 1}, got {ssm.order}")
    gamma = np.asarray(ssm.gamma)[:m_max]
    finite = np.isfinite(gamma)
    if not finite.all():
        cap = int(np.argmin(finite))
        warnings.warn(f"drift coefficients overflow beyond order {cap}; "
                      f"capping the track at M = {cap}")
        gamma = gamma[:cap]
        orders = [m for m in orders if m <= cap]
        if not orders:
            raise ValidationError("no finite drift coefficients available")
        m_max = orders[-1]

    lam = ssm.lambda_master
    roots: dict[int, np.ndarray] = {}
    for m in orders:
        # the radial drift a(rho)/rho as a real degree-m polynomial in
        # u = rho**2, highest power first
        coeffs = np.concatenate((gamma[:m].real[::-1], [lam.real]))
        u_roots = np.roots(coeffs)
        rho_roots = np.sqrt(u_roots.astype(complex))
        rho_roots = np.sort_complex(rho_roots)
        roots[m] = np.concatenate(([0.0 + 0.0j], rho_roots))

    trajectories: list[dict[int, complex]] = []
    alive: list[dict[int, complex]] = []
    for m in orders:
        fresh = [complex(r) for r in roots[m] if r != 0]
        carried = [t for t in alive if t]
        pairs = sorted(((abs(t[max(t)] - r), ti, ri)
                        for ti, t in enumerate(carried)
                        for ri, r in enumerate(fresh)))
        taken_t: set[int] = set()
        taken_r: set[int] = set()
        for _, ti, ri in pairs:
            if ti in taken_t or ri in taken_r:
                continue
            carried[ti][m] = fresh[ri]
            taken_t.add(ti)
            taken_r.add(ri)
        next_alive = [carried[ti] for ti in taken_t]
        for ri, r in enumerate(fresh):
            if ri not in taken_r:
                t = {m: r}
                trajectories.append(t)
                next_alive.append(t)
        alive = next_alive

    # keep trajectory list in first-appearance order; alive entries are views
    trajectories = [t for t in trajectories if t]
    return RootTrack(orders=orders, roots=roots, trajectories=trajectories,
                     radius=_radius_estimates(lam, gamma, orders),
                     gamma=gamma, lambda_master=lam)


def classify_roots(rt: RootTrack, cauchy_tol: float = ROOT_CAUCHY_TOL,
                   radius_fraction: float = RADIUS_FRACTION) -> list[str]:
    """Label each trajectory 'non-spurious' or 'spurious'.

    A trajectory is non-spurious when its root settles (successive changes
    below ``cauchy_tol`` relative over the last three orders) and the
    settled root sits below ``radius_fraction`` of the estimated convergence
    radius.  Needs at least three tracked orders.
    """
    if len(rt.orders) < 3:
        raise ValidationError("root classification needs at least three "
                              "truncation orders")
    if cauchy_tol <= 0 or not 0 < radius_fraction <= 1:
        raise ValidationError("need cauchy_tol > 0 and radius_fraction "
                              "in (0, 1]")
    last3 = rt.orders[-3:]
    labels = []
    for t in rt.trajectories:
        if any(m not in t for m in last3):
            labels.append("spurious")
            continue
        settled = all(
            abs(t[m1] - t[m0]) < cauchy_tol * abs(t[m1])
            for m0, m1 in zip(last3[:-1], last3[1:]))
        inside = abs(t[last3[-1]]) < radius_fraction * rt.radius[last3[-1]]
        labels.append("non-spurious" if settled and inside else "spurious")
    return labels


def drift_slope(rt: RootTrack, rho: float) -> float:
    """d a / d rho of the highest-order tracked drift polynomial, by the
    formula of ``ReducedDynamics.da_of``."""
    p = np.concatenate(([rt.lambda_master.real], rt.gamma.real))
    return float(_even_val(p, rho) + rho * _even_dval(p, rho))


def nonspurious_positive_roots(rt: RootTrack, labels: list[str]
                               ) -> list[tuple[float, float]]:
    """(rho, transversality margin) for the real positive roots that
    ``labels`` (classify_roots') calls non-spurious."""
    out = []
    for t, label in zip(rt.trajectories, labels):
        if label != "non-spurious":
            continue
        root = t[rt.orders[-1]]
        if root.real <= 0 or abs(root.imag) > 1e-6 * abs(root):
            continue
        out.append((float(root.real), drift_slope(rt, float(root.real))))
    out.sort()
    return out


@dataclass
class LeadingIsola:
    """Cubic-order closed-form isola summary around the first rest radius."""
    exists: bool
    rho1: float | None
    eps_m: float | None
    disconnected_at_eps: bool | None


def leading_isola(ssm: AutonomousSsm, eps: float) -> LeadingIsola:
    """Existence, rest radius, and merger forcing of the cubic-order isola.

    An isola requires the cubic drift coefficient to oppose the linear decay
    (positive real part); then rho1 = sqrt(|Re lambda_1| / Re gamma_1) and
    the isola merges with the main branch at
    eps_m = sqrt(4 |Re lambda_1|**3 / (27 Re gamma_1)) / |c00|, with c00
    the leading forcing coefficient of the manifold's modal model.
    """
    if not 0 <= eps < math.inf:
        raise ValidationError("eps must be finite and >= 0")
    mm = ssm.mm
    re_lam = abs(mm.lambda_master.real)
    re_g1 = float(np.real(ssm.gamma[0])) if len(ssm.gamma) else 0.0
    if re_g1 <= 0:
        return LeadingIsola(exists=False, rho1=None, eps_m=None,
                            disconnected_at_eps=None)
    rho1 = math.sqrt(re_lam / re_g1)
    eps_m = (math.sqrt(4 * re_lam ** 3 / (27 * re_g1))
             / abs(leading_forcing_coefficient(mm)))
    return LeadingIsola(exists=True, rho1=rho1, eps_m=eps_m,
                        disconnected_at_eps=bool(eps < eps_m))


def fold_points(ssm: AutonomousSsm, eps: float) -> np.ndarray:
    """Fold amplitudes of the cubic truncation at forcing eps.

    Real non-negative roots of Re lambda_1 rho + Re gamma_1 rho**3 =
    +- eps*|c00|, deduplicated and sorted: three values between zero forcing
    and the merger forcing, a double fold at the merger, one value beyond
    it.  Only gamma_1 of ``ssm`` enters, so any order >= 3 gives the same.
    """
    if not 0 <= eps < math.inf:
        raise ValidationError("eps must be finite and >= 0")
    c_norm = abs(leading_forcing_coefficient(ssm.mm))
    a1 = ssm.mm.lambda_master.real
    a3 = float(np.real(ssm.gamma[0])) if len(ssm.gamma) else 0.0
    found: list[float] = []
    for rhs in (eps * c_norm, -eps * c_norm):
        r = np.roots([a3, 0.0, a1, -rhs])
        for z in r:
            if abs(z.imag) <= 1e-8 * max(1.0, abs(z.real)) and z.real >= -1e-14:
                found.append(max(float(z.real), 0.0))
    found.sort()
    out: list[float] = []
    for r in found:
        if not out or r - out[-1] > 1e-9 * max(1.0, r):
            out.append(r)
    return np.asarray(out)


@dataclass
class IsolaReport:
    """Root classification plus closed-form isola summary at one forcing.

    ``labels`` holds one 'non-spurious' / 'spurious' label per trajectory of
    the root track (see classify_roots).
    """
    labels: list[str]
    nonspurious_roots: list[tuple[float, float]]
    leading: LeadingIsola
    fold_rho: np.ndarray


def isola_report(mm: ModalModel, orders, eps: float, *,
                 check: bool = True, cauchy_tol: float = ROOT_CAUCHY_TOL,
                 radius_fraction: float = RADIUS_FRACTION,
                 ) -> tuple[RootTrack, IsolaReport]:
    """Assemble the root track and the isola report in one pass, from one
    manifold at the track's deepest order: its gamma_1 also gives the
    closed forms."""
    orders = _tracked_orders(orders)
    ssm = compute_autonomous_ssm(mm, 2 * orders[-1] + 1, check=check)
    rt = roots_of_a(ssm, orders)
    labels = classify_roots(rt, cauchy_tol, radius_fraction)
    roots = nonspurious_positive_roots(rt, labels)
    leading = leading_isola(ssm, eps)
    folds = fold_points(ssm, eps)
    return rt, IsolaReport(labels=labels, nonspurious_roots=roots,
                           leading=leading, fold_rho=folds)
