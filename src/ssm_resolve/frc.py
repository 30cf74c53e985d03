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
Omega.  The f/g coefficients themselves depend on Omega, so every G value
needs a forced solve, and the trace solves a whole curve in lockstep: each
(rho, branch) pair runs its own safeguarded secant iteration, and each
round sends the Omegas that all pending pairs ask for through one batched
forced march (``compute_nonautonomous_ssm`` on an array).  Round 0 marches
every row's backbone Omega, which seeds both branches.  Converged points are
verified against the full zero problem, window-filtered and
stability-tagged in one batch per round, and grouped at the end into
connected components by proximity in the (Omega, rho) plane.  The accepted
points keep the forced rows they were solved with, taken from each round's
stack as one stacked ``ForcedReduction`` (``FrcCurve.forced``), so their
physical amplitudes need no further forced solve.

The physical amplitude is the peak of one coordinate over a forcing period.
On the manifold s1**p s2**q = rho**(p+q) e^{i(p-q)(psi+phi)}, and the two
forced harmonics shift p - q by +-1, so the coordinate is the trigonometric
polynomial x(phi) = Re sum_{|h| <= order} c_h e^{i h phi}.  A whole curve's
peaks come from one (points, harmonics) array of c_h, projected from the
stacked forced rows at once: a phase grid brackets each peak and vectorized
Newton steps on the analytic derivatives polish it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.optimize import brentq

from .errors import ValidationError
from .ssm_auto import AutonomousSsm
from .ssm_forced import ForcedReduction, compute_nonautonomous_ssm
from .reduced import (ReducedDynamics, FixedPointU, assemble_polar,
                      phase_residual, zero_problem, stability_labels)

#: |a - eps*f1| below this switches the K quadratic to its linear limit
DEGENERATE_LEAD = 1e-14
#: convergence target on |G| in the Omega solve
G_TOL = 1e-12
#: verification bound on the full zero problem at accepted points
POINT_TOL = 1e-10
#: relative bound on the discriminant at reported folds
FOLD_TOL = 1e-12
#: cap on the forced data one round of the lockstep trace marches at once,
#: in bytes: the requests past it wait for the next round
ROUND_BYTES = 2 << 20

BRANCHES = ("K+", "K-")


def _k_roots(rd: ReducedDynamics, rho, eps: float):
    """Roots (K+, K-) of the radial equation at each rho, NaN where there are
    none, and the discriminant there.

    A degenerate leading coefficient yields the linear root plus ``inf``
    standing for the K -> infinity solution (psi = pi).
    """
    a, f1, f2 = rd.a_of(rho), rd.f1_of(rho), rd.f2_of(rho)
    lead = a - eps * f1
    disc = eps ** 2 * (f1 ** 2 + f2 ** 2) - a ** 2
    b_lin = 2 * eps * f2
    degenerate = np.abs(lead) < DEGENERATE_LEAD
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(disc)
        k_plus = np.where(degenerate, -(a + eps * f1) / b_lin,
                          (-eps * f2 + root) / lead)
        k_minus = np.where(degenerate, np.inf, (-eps * f2 - root) / lead)
    none = np.where(degenerate, np.abs(b_lin) < DEGENERATE_LEAD, disc < 0)
    return (np.where(none, np.nan, k_plus), np.where(none, np.nan, k_minus),
            disc)


def psi_from_k(k):
    """Phase from the tangent half-angle; infinity maps to psi = pi.

    Takes one K or an array of them (NaN stays NaN).
    """
    k = np.asarray(k, dtype=float)
    psi = np.where(np.isinf(k), np.pi,
                   np.arctan2(2 * k, 1 - k * k) % (2 * np.pi))
    return psi if psi.ndim else float(psi)


@dataclass
class FrcCurve:
    """Sampled forced response curve at one forcing amplitude."""
    eps: float
    points: list[FixedPointU]
    folds: np.ndarray
    components: list[list[int]]
    rho_max: float
    n_rho: int
    skipped: list[tuple[float, str, str]] = field(default_factory=list)
    #: the forced correction at each point's Omega, stacked: row i belongs
    #: to ``points[i]``
    forced: ForcedReduction | None = field(default=None, repr=False)

    def component_of(self, index: int) -> int:
        for ci, members in enumerate(self.components):
            if index in members:
                return ci
        raise ValidationError(f"point index {index} not in any component")


def _backbone_omega(ssm: AutonomousSsm, rho: float) -> float:
    """Frequency b(rho) of the unforced backbone curve at amplitude rho."""
    return float(np.polynomial.polynomial.polyval(rho ** 2,
                                                  ssm.phase_coefficients()))


def _columns(rd: ReducedDynamics, idx) -> ReducedDynamics:
    """The frequencies ``idx`` of stacked polar data (one integer gives the
    plain one-frequency form)."""
    return replace(rd, omega=rd.omega[idx], f1=rd.f1[:, idx],
                   f2=rd.f2[:, idx], g1=rd.g1[:, idx], g2=rd.g2[:, idx])


def _secant(om: float, got=None, max_iter: int = 50):
    """Safeguarded secant iteration for G(Omega) = 0, as a generator.

    It yields a tuple of the Omegas whose residuals it needs next and is
    sent back one ``(G or None, disc, at)`` for each: None where the branch
    does not exist there, the discriminant, and where ``_rounds`` keeps that
    Omega's data.  ``got`` is that triple at ``om`` when already known;
    otherwise the first difference probe rides along with ``om`` itself.
    Returns ``(omega, got)`` at convergence, None on divergence.
    """
    h = 1e-7 * max(1.0, abs(om))
    probe = None
    if got is None:
        got, probe = yield om, om + h
    g = got[0]
    if g is None:
        return None
    for _ in range(max_iter):
        if abs(g) <= G_TOL:
            return om, got
        if probe is None:
            probe, = yield om + h,
        g2, probe = probe[0], None
        if g2 is None or g2 == g:
            return None
        slope = (g2 - g) / h
        step = -g / slope
        # safeguard: halve the step until the residual actually shrinks
        for _ in range(12):
            trial, = yield om + step,
            if trial[0] is not None and abs(trial[0]) < abs(g):
                break
            step /= 2
        else:
            return None
        om, got = om + step, trial
        g = got[0]
    return (om, got) if abs(g) <= G_TOL else None


def _trace_pair(backbone: float, rho: float, sign: int):
    """One (rho, branch) pair of the trace, as a generator for ``_rounds``.

    The backbone Omega seeds the branch (its discriminant places the seed);
    the plain backbone is the fallback seed.  Returns (solution, disc0).
    """
    got, = yield backbone,
    disc0 = got[1]
    seed = backbone + sign * math.sqrt(max(disc0, 0.0)) / rho
    if seed == backbone:
        return (yield from _secant(seed, got)), disc0
    sol = yield from _secant(seed)
    if sol is None:
        # try the plain backbone seed before giving up
        sol = yield from _secant(backbone)
    return sol, disc0


def _rounds(ssm: AutonomousSsm, eps: float, pairs: list, rho: np.ndarray,
            branch: np.ndarray, psi_double: bool = False):
    """Drive the pair generators in lockstep.

    Each round marches every distinct Omega the pending pairs ask for as
    one batch (as many pairs, first come first, as ``ROUND_BYTES`` holds),
    evaluates their phase residuals together and sends each pair a
    ``(G, disc, at)`` per Omega, ``at`` indexing the round's requests.  G
    is taken at the pair's branch root (0: K+, 1: K-), or with
    ``psi_double`` at the double root K = -eps*f2/(a - eps*f1), which keeps
    the iteration defined on the far side of a fold.  Yields per round
    ``(batch, member, rd, psi, finished)``: the stacked forced correction,
    the batch member of each request, the polar data and psi per request,
    and the (pair, result) of the pairs that returned in this round.
    """
    # both harmonics' embedding columns of one Omega, complex
    per_omega = 32 * ssm.w0_dense.shape[0] * ssm.order * (ssm.order + 1) // 2
    capacity = max(1, ROUND_BYTES // per_omega)
    pending = {p: next(gen) for p, gen in enumerate(pairs)}
    while pending:
        owner, omega = [], []
        for p, wanted in pending.items():
            if omega and len(omega) + len(wanted) > capacity:
                break
            owner += [p] * len(wanted)
            omega += wanted
        distinct: dict[float, int] = {}
        member = np.array([distinct.setdefault(om, len(distinct))
                           for om in omega])
        batch = compute_nonautonomous_ssm(ssm, np.array(list(distinct)))
        rd = _columns(assemble_polar(ssm, batch, eps), member)
        r = rho[owner]
        k_plus, k_minus, disc = _k_roots(rd, r, eps)
        if psi_double:
            lead = rd.a_of(r) - eps * rd.f1_of(r)
            with np.errstate(divide="ignore"):
                k = np.where(np.abs(lead) < DEGENERATE_LEAD, np.inf,
                             -eps * rd.f2_of(r) / lead)
        else:
            k = np.where(branch[owner] == 0, k_plus, k_minus)
        psi = psi_from_k(k)
        g = phase_residual(rd, r, np.array(omega), eps, psi).tolist()
        got = [(None if math.isnan(gi) else gi, di, at)
               for at, (gi, di) in enumerate(zip(g, disc.tolist()))]
        finished = []
        at = 0
        for p in dict.fromkeys(owner):
            wanted = pending[p]
            try:
                pending[p] = pairs[p].send(tuple(got[at:at + len(wanted)]))
            except StopIteration as stop:
                del pending[p]
                finished.append((p, stop.value))
            at += len(wanted)
        yield batch, member, rd, psi, finished


def trace_frc(ssm: AutonomousSsm, mm, eps: float, rho_max: float,
              n_rho: int, omega_window: tuple[float, float] | None = None) -> FrcCurve:
    """Trace the forced response curve on a rho grid, all rows in lockstep.

    Every (rho, branch) pair of the grid runs the safeguarded secant on
    G(Omega) = 0 from its backbone seed, with the plain backbone as the
    retry; ``_rounds`` batches the Omegas of all pending pairs into one
    forced march per round.  The points that converge in a round are
    checked against the full zero problem and the window and labelled by
    stability together, and only accepted points keep their forced rows.
    Points, skips and the discriminant trace come out in grid order, K+
    before K-, whatever round each pair finished in.

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
    # pair p is grid row p // 2 on branch p % 2 (K+ first)
    rho = np.repeat(grid, 2)
    branch = np.tile([0, 1], n_rho)
    pairs = []
    for r in grid.tolist():
        backbone = _backbone_omega(ssm, r)
        pairs += [_trace_pair(backbone, r, +1), _trace_pair(backbone, r, -1)]

    disc = np.empty(2 * n_rho)
    # per pair: a skip reason or the accepted point
    outcome: dict[int, str | FixedPointU] = {}
    # per round: the pairs accepted and their forced rows, taken out of the
    # round's stack so that the stack itself can go
    kept: list[tuple[np.ndarray, ForcedReduction]] = []
    for batch, member, rd, psi, finished in _rounds(ssm, eps, pairs, rho,
                                                    branch):
        done = []
        for p, (sol, disc0) in finished:
            if sol is None:
                disc[p] = disc0
                if disc0 >= 0:
                    outcome[p] = "omega iteration diverged"
            else:
                om, (_, disc[p], at) = sol
                done.append((p, om, at))
        if not done:
            continue
        ps, om, at = (np.array(c) for c in zip(*done))
        here = _columns(rd, at)
        f1v, f2v = zero_problem(here, (rho[ps], om, psi[at]), eps=eps)
        bad = np.maximum(np.abs(f1v), np.abs(f2v)) > POINT_TOL
        outside = np.zeros_like(bad)
        if omega_window is not None:
            outside = ~((omega_window[0] <= om) & (om <= omega_window[1]))
        for j in np.flatnonzero(bad):
            outcome[int(ps[j])] = "zero-problem residual too large"
        for j in np.flatnonzero(~bad & outside):
            outcome[int(ps[j])] = "omega outside window"
        keep = np.flatnonzero(~bad & ~outside)
        if not keep.size:
            continue
        labels = stability_labels(_columns(here, keep), rho[ps[keep]],
                                  psi[at[keep]], eps=eps)
        for j, label in zip(keep.tolist(), labels.tolist()):
            p = int(ps[j])
            outcome[p] = FixedPointU(rho=float(rho[p]), omega=float(om[j]),
                                     psi=float(psi[at[j]]), stability=label,
                                     branch=BRANCHES[p % 2], eps=eps)
        kept.append((ps[keep], batch.take(member[at[keep]])))

    points: list[FixedPointU] = []
    skipped: list[tuple[float, str, str]] = []
    for p in range(2 * n_rho):
        got = outcome.get(p)
        if isinstance(got, str):
            skipped.append((float(rho[p]), BRANCHES[p % 2], got))
        elif got is not None:
            points.append(got)
    disc_trace = {b: list(zip(grid.tolist(), disc[i::2].tolist()))
                  for i, b in enumerate(BRANCHES)}
    folds = _locate_folds(ssm, eps, disc_trace)
    components = _group_components(points, step, folds)
    return FrcCurve(eps=eps, points=points, folds=np.asarray(folds),
                    components=components, rho_max=rho_max, n_rho=n_rho,
                    skipped=skipped, forced=_in_pair_order(ssm, kept))


def _in_pair_order(ssm: AutonomousSsm,
                   kept: list[tuple[np.ndarray, ForcedReduction]]
                   ) -> ForcedReduction:
    """The rounds' forced rows as one stack, in ascending pair order (the
    order of the curve's points).  Each round's rows are written straight
    to their places: a joined copy reordered afterwards would hold the rows
    three times over at its peak."""
    if not kept:
        return compute_nonautonomous_ssm(ssm, np.empty(0))
    ps = np.concatenate([p for p, _ in kept])
    place = np.searchsorted(np.sort(ps), ps)
    stack = {}
    for f in fields(ForcedReduction):
        if f.name == "order":
            continue
        parts = [getattr(fr, f.name) for _, fr in kept]
        out = stack[f.name] = np.empty((len(ps),) + parts[0].shape[1:],
                                       dtype=parts[0].dtype)
        lo = 0
        for part in parts:
            out[place[lo:lo + len(part)]] = part
            lo += len(part)
    return ForcedReduction(order=ssm.order, **stack)


def _fold_point(ssm: AutonomousSsm, eps: float, rho: float):
    """Double-root Omega at amplitude rho and the polar data there.

    The secant runs through the lockstep solver as a batch of one; when it
    diverges, the Omega is None and the polar data are the backbone's, kept
    from the first round, which marches the backbone first.
    """
    backbone = _backbone_omega(ssm, rho)
    first = None
    for _, _, rd, _, finished in _rounds(
            ssm, eps, [_secant(backbone)], np.array([rho]), np.zeros(1, int),
            psi_double=True):
        if first is None:
            first = _columns(rd, 0)
        if finished:
            sol = finished[0][1]
            if sol is None:
                return None, first
            om, (_, _, at) = sol
            return om, _columns(rd, at)


def _locate_folds(ssm: AutonomousSsm, eps: float,
                  disc_trace: dict) -> list[float]:
    """Bisect the discriminant (along the double-root Omega) at sign changes."""

    def disc_at(rho: float) -> float:
        return float(_k_roots(_fold_point(ssm, eps, rho)[1], rho, eps)[2])

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


def _median(values: list[float]) -> float:
    """np.median of a short list, in plain Python: (a + b) / 2 for two
    middle values, as NumPy takes it."""
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


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
    scale = [0.0] * n
    chains = {b: [] for b in BRANCHES}
    for i, p in enumerate(points):
        chains[p.branch].append(i)
    for chain in chains.values():
        chain.sort(key=lambda i: points[i].rho)
        gaps = [abs(points[i].omega - points[j].omega)
                for i, j in zip(chain[:-1], chain[1:])]
        for k, (i, j) in enumerate(zip(chain[:-1], chain[1:])):
            if points[j].rho - points[i].rho > rho_tol:
                continue
            local = _median(gaps[max(0, k - 1):k + 2])
            if gaps[k] <= 4 * max(local, 1e-15):
                union(i, j)
        for pos, i in enumerate(chain):
            near = gaps[max(0, pos - 2):pos + 2]
            scale[i] = _median(near) if near else 0.0

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
        for chain in chains.values():
            best = min((i for i in chain
                        if abs(points[i].rho - rho_f) <= rho_tol),
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
           forced: ForcedReduction, coord: int, eps: float) -> np.ndarray:
    """Peak |x_coord| of each point's reconstructed orbit, all at once;
    ``forced`` holds one row per point (no frequency axis for one point)."""
    if not points:
        return np.empty(0)
    order, t = ssm.order, ssm.mm.T[coord]
    rho, psi = np.array([(u.rho, u.psi) for u in points]).T
    harm = np.arange(-order, order + 1)
    coef = _harmonics(np.tensordot(t, ssm.w0_dense, 1), rho, 0, order)
    # (points, harmonic, k1, k2): every point's projection at once
    rows = forced.dense(t @ forced.w).reshape(len(points), 2, order, order)
    for b, shift in enumerate((1, -1)):
        coef += (eps * np.exp(-1j * shift * psi)[:, None]
                 * _harmonics(rows[:, b], rho, shift, order))
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
    """Peak |x_coord| of every point of ``curve``, from its kept forced
    rows."""
    return _peaks(ssm, curve.points, curve.forced, coord, curve.eps)


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
    return float(_peaks(ssm, [u], fr, coord, eps)[0])
