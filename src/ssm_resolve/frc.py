"""Forced response curves: tracing, folds, components, physical amplitudes.

A periodic response at amplitude rho and frequency Omega exists when the
polar fixed-point equations admit a solution in psi.  With
f1 + i f2 = R e^{i phi}, the radial equation reads

    eps R cos(psi - phi) = -a,

so its two phases are psi = phi -+ theta, theta = atan2(sqrt(disc), -a),
with the discriminant  disc = eps**2 (f1**2 + f2**2) - a**2.  The branches
keep the names of the tangent half-angle roots K = tan(psi/2) they equal:
K+ is psi = phi - theta and K- is psi = phi + theta.
Real responses exist where disc >= 0; disc = 0 marks folds of the response
curve over the frequency axis.  The curve is traced on a rho grid: at each
admissible rho and branch, the remaining phase equation G = 0 is solved for
Omega.  The f/g coefficients themselves depend on Omega, so every G value
needs a forced solve, and one lockstep driver (``_rounds``) makes them all:
each solve is a generator that asks for G at (rho, Omega, root) requests,
and each round sends the Omegas of all pending requests through one batched
forced march (``compute_nonautonomous_ssm`` on an array).  The trace runs
a safeguarded secant iteration per (rho, branch) pair.  Round 0 marches
every row's backbone Omega, which seeds both branches.  Converged points are
verified against the full zero problem, window-filtered and
stability-tagged in one batch per round.  The accepted points keep the
forced rows they were solved with, taken from each round's stack as one
stacked ``ForcedReduction`` (``FrcCurve.forced``), so their physical
amplitudes need no further forced solve.

The grid is n_rho equal rows plus at most one row per empty interval: at
leading-order forcing, disc >= 0 needs |a(rho)| <= eps |c00|, and each
interval of that set below the last row that holds no row gets one at its
middle, so that a branch narrower than a row step is still traced.

On each maximal rho-run of disc >= 0 the K+ and K- branches join at the
run's two folds, so each run of grid rows with a sampled disc >= 0 that
holds an accepted point is one component, and an isola is a run that does
not reach the bottom of the grid.  The Omega window filters points; it
never splits a run.

Folds are the amplitudes where the discriminant vanishes along the
double-root Omega (theta with sqrt(disc) taken as 0, which stays defined
past the fold).  The same runs place them: each run's end next to a row
where the sampled discriminant is negative brackets one fold, solved by
Brent's method (``_brent``, a port of SciPy's ``brentq`` written as a
generator).  Each bracket is one generator for the same driver: its Brent
asks for the discriminant at an amplitude, and a double-root secant from
that amplitude's backbone Omega finds it.  All of a curve's brackets share the
batched marches of one ``_rounds`` run.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ValidationError
from .polyalg import even_val, odd_level_roots
from .ssm_auto import AutonomousSsm
from .ssm_forced import (ForcedReduction, compute_nonautonomous_ssm,
                         leading_forcing_coefficient)
from .reduced import (ReducedDynamics, FixedPointU, assemble_polar,
                      phase_residual, zero_problem, stability_labels)

#: convergence target on |G| in the Omega solve
G_TOL = 1e-12
#: verification bound on the full zero problem at accepted points
POINT_TOL = 1e-10
#: cap on the forced data one round of the lockstep trace marches at once,
#: in bytes: the requests past it wait for the next round
ROUND_BYTES = 2 << 20
#: Brent's absolute and relative tolerance on a fold amplitude, and its
#: iteration cap
BRENT_XTOL, BRENT_RTOL, BRENT_ITER = 1e-15, 8.9e-16, 100

BRANCHES = ("K+", "K-")
#: a request's root index for the double root (0 and 1 index BRANCHES)
DOUBLE_ROOT = 2


def _psi_roots(rd: ReducedDynamics, rho, eps: float, root):
    """Phase psi of the response at each rho for each request's ``root``
    (0: K+, 1: K-, ``DOUBLE_ROOT``), NaN where there is none, and the
    discriminant there.

    With R e^{i phi} = f1 + i f2 the radial equation reads
    eps R cos(psi - phi) = -a, so K+ is psi = phi - theta and K- is
    psi = phi + theta, theta = atan2(sqrt(disc), -a).  The double root
    takes sqrt(disc) as 0: the merged root at a fold, and past one still
    defined (psi = phi where a < 0, phi + pi where a > 0).
    """
    a, f1, f2 = rd.a_of(rho), rd.f1_of(rho), rd.f2_of(rho)
    disc = eps ** 2 * (f1 ** 2 + f2 ** 2) - a ** 2
    with np.errstate(invalid="ignore"):
        theta = np.arctan2(np.where(root == DOUBLE_ROOT, 0.0, np.sqrt(disc)),
                           -a)
    return np.arctan2(f2, f1) + np.where(root == 0, -theta, theta), disc


@dataclass
class FrcCurve:
    """Sampled forced response curve at one forcing amplitude.  Each
    component (point indices, in ascending rho) is a rho-run of disc >= 0
    between folds that holds an accepted point; the window never splits
    one."""
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
    return float(even_val(ssm.phase_coefficients(), rho))


def _interval_rows(ssm: AutonomousSsm, eps: float,
                   grid: np.ndarray) -> np.ndarray:
    """The middle of each interval of |a(rho)| <= eps |c00| that ends below
    ``grid[-1]`` and holds no row of ``grid``, ascending.  The intervals
    are those of the manifold's own order, between the level crossings of
    ``odd_level_roots``; none where an overflowed drift coefficient leaves
    no polynomial to solve."""
    p = ssm.radial_coefficients()
    if not np.isfinite(p).all():
        return np.empty(0)
    level = eps * abs(leading_forcing_coefficient(ssm.mm))
    cross = odd_level_roots(p, level)
    ends = np.concatenate(([0.0], cross[(0 < cross) & (cross < grid[-1])]))
    lo, hi = ends[:-1], ends[1:]
    mid = (lo + hi) / 2
    inside = np.abs(mid * even_val(p, mid)) <= level
    empty = np.searchsorted(grid, lo) == np.searchsorted(grid, hi, "right")
    return mid[inside & empty]


def _columns(rd: ReducedDynamics, idx) -> ReducedDynamics:
    """The frequencies ``idx`` (an index array) of stacked polar data."""
    return replace(rd, omega=rd.omega[idx], f1=rd.f1[:, idx],
                   f2=rd.f2[:, idx], g1=rd.g1[:, idx], g2=rd.g2[:, idx])


def _secant(rho: float, root: int, om: float, got=None):
    """Safeguarded secant iteration for G(Omega) = 0, as a generator.

    It yields a tuple of the requests ``(rho, Omega, root)`` whose residuals
    it needs next and is sent back one ``(G or None, disc, at)`` for each
    (see ``_rounds``).  ``got`` is that triple at ``om`` when already known;
    otherwise the first difference probe rides along with ``om`` itself.
    Returns ``(omega, got)`` at convergence and ``(None, got at om)`` on
    divergence.
    """
    h = 1e-7 * max(1.0, abs(om))
    probe = None
    if got is None:
        got, probe = yield (rho, om, root), (rho, om + h, root)
    start = got
    g = got[0]
    if g is None:
        return None, start
    for _ in range(50):  # then the solve counts as diverged
        if abs(g) <= G_TOL:
            return om, got
        if probe is None:
            probe, = yield (rho, om + h, root),
        g2, probe = probe[0], None
        if g2 is None or g2 == g:
            return None, start
        slope = (g2 - g) / h
        step = -g / slope
        # safeguard: halve the step until the residual actually shrinks
        for _ in range(12):
            trial, = yield (rho, om + step, root),
            if trial[0] is not None and abs(trial[0]) < abs(g):
                break
            step /= 2
        else:
            return None, start
        om, got = om + step, trial
        g = got[0]
    return (om, got) if abs(g) <= G_TOL else (None, start)


def _trace_pair(backbone: float, rho: float, root: int):
    """One (rho, branch) pair of the trace, ``root`` its ``BRANCHES`` index,
    as a generator for ``_rounds``.

    The backbone Omega seeds the branch (its discriminant places the seed);
    the plain backbone is the fallback seed.  Returns (solution, disc0).
    """
    got, = yield (rho, backbone, root),
    disc0 = got[1]
    seed = backbone + (1, -1)[root] * math.sqrt(max(disc0, 0.0)) / rho
    if seed == backbone:
        return (yield from _secant(rho, root, seed, got)), disc0
    sol = yield from _secant(rho, root, seed)
    if sol[0] is None:
        # try the plain backbone seed before giving up
        sol = yield from _secant(rho, root, backbone)
    return sol, disc0


def _rounds(ssm: AutonomousSsm, eps: float, gens: dict):
    """Drive the generators ``gens`` (by key) in lockstep: the one driver of
    a curve's forced solves, trace and folds alike.

    A generator yields a tuple of requests ``(rho, Omega, root)`` and is
    sent one ``(G, disc, at)`` per request: G with psi from that root
    (``_psi_roots``), None where it is NaN; the discriminant; and ``at``,
    the request's index in the round.  Each round marches every distinct
    Omega that the pending generators ask for (as many generators, first
    come first, as ``ROUND_BYTES`` holds) as one batch.  Yields per round
    ``(batch, member, rd, psi, finished)``: the stacked forced correction,
    the batch member of each request, the polar data and psi per request,
    and the (key, result) of the generators that returned in this round.
    """
    # both harmonics' embedding columns of one Omega, complex
    per_omega = 32 * ssm.w0_dense.shape[0] * ssm.order * (ssm.order + 1) // 2
    capacity = max(1, ROUND_BYTES // per_omega)
    pending = {p: next(gen) for p, gen in gens.items()}
    while pending:
        owner, asked = [], []
        for p, wanted in pending.items():
            if asked and len(asked) + len(wanted) > capacity:
                break
            owner += [p] * len(wanted)
            asked += wanted
        rho, omega, root = (np.array(c) for c in zip(*asked))
        distinct: dict[float, int] = {}
        member = np.array([distinct.setdefault(om, len(distinct))
                           for om in omega.tolist()])
        batch = compute_nonautonomous_ssm(ssm, np.array(list(distinct)))
        rd = _columns(assemble_polar(ssm, batch), member)
        psi, disc = _psi_roots(rd, rho, eps, root)
        g = phase_residual(rd, rho, omega, eps, psi).tolist()
        got = [(None if math.isnan(gi) else gi, di, at)
               for at, (gi, di) in enumerate(zip(g, disc.tolist()))]
        finished = []
        at = 0
        for p in dict.fromkeys(owner):
            wanted = pending[p]
            try:
                pending[p] = gens[p].send(tuple(got[at:at + len(wanted)]))
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
    Points and skips come out in grid order, K+ before K-, whatever round
    each pair finished in.

    The grid is ``n_rho`` equal rows up to ``rho_max`` plus at most one row
    per empty interval: the middle of each interval of
    |a(rho)| <= eps |c00| below ``rho_max`` that holds no equal row
    (``_interval_rows``).  Where every interval holds a row, the grid is
    the equal rows alone.

    A component is a maximal run of rows whose K+ sampled discriminant is
    >= 0 or that hold a point, if it holds any point: ``_locate_folds``
    brackets the same runs' ends.  The window never splits a run.

    Parameters
    ----------
    ssm : AutonomousSsm
    mm : ModalModel
        Unread: the manifold carries its modal model.  It stays only
        because the benchmark workloads pass it by position (ROADMAP
        direction 3C).
    eps : float
        Forcing amplitude (finite, > 0).
    rho_max, n_rho : float, int
        Upper end and resolution of the amplitude grid.
    omega_window : (float, float), optional
        Keep only responses with Omega inside this closed interval.
    """
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be finite and > 0 (use the unforced "
                              "analysis for eps = 0)")
    if not 0 < rho_max < math.inf or n_rho < 2:
        raise ValidationError("need a finite rho_max > 0 and n_rho >= 2")

    grid = np.linspace(0.0, rho_max, n_rho + 1)[1:]
    grid = np.sort(np.concatenate((grid, _interval_rows(ssm, eps, grid))))
    # pair p is grid row p // 2 on branch p % 2 (K+ first)
    rho = np.repeat(grid, 2)
    pairs = []
    for r in grid.tolist():
        backbone = _backbone_omega(ssm, r)
        pairs += [_trace_pair(backbone, r, 0), _trace_pair(backbone, r, 1)]

    disc = np.empty(2 * len(grid))
    # per pair: a skip reason or the accepted point
    outcome: dict[int, str | FixedPointU] = {}
    # per round: the pairs accepted and their forced rows, taken out of the
    # round's stack so that the stack itself can go
    kept: list[tuple[np.ndarray, ForcedReduction]] = []
    for batch, member, rd, psi, finished in _rounds(ssm, eps,
                                                    dict(enumerate(pairs))):
        done = []
        for p, ((om, got), disc0) in finished:
            if om is None:
                disc[p] = disc0
                if disc0 >= 0:
                    outcome[p] = "omega iteration diverged"
            else:
                disc[p] = got[1]
                done.append((p, om, got[2]))
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
                                     branch=BRANCHES[p % 2])
        kept.append((ps[keep], batch.take(member[at[keep]])))

    points: list[FixedPointU] = []
    rows: list[int] = []
    skipped: list[tuple[float, str, str]] = []
    for p in range(2 * len(grid)):
        got = outcome.get(p)
        if isinstance(got, str):
            skipped.append((float(rho[p]), BRANCHES[p % 2], got))
        elif got is not None:
            points.append(got)
            rows.append(p // 2)
    folds = _locate_folds(ssm, eps, grid, disc[::2])
    # points come in row order: each run's points are one index range
    inside = disc[::2] >= 0
    inside[rows] = True
    ends = np.searchsorted(rows, _runs(inside)).tolist()
    components = [list(range(lo, hi)) for lo, hi in ends if hi > lo]
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


def _brent(xa: float, xb: float):
    """Brent's zero finder on the bracket [xa, xb], as a generator: it
    yields an abscissa, is sent f there, and returns the root.

    A line-for-line port of SciPy's C ``brentq`` (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4) with xtol
    ``BRENT_XTOL``, rtol ``BRENT_RTOL`` and at most ``BRENT_ITER``
    iterations, in the same order of operations, so that it visits the same
    abscissae and returns the same root bit for bit.  Raises ValueError when
    f has the same sign at both ends and RuntimeError when the iterations
    run out.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = yield xpre
    fcur = yield xcur
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_ITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C's x / 0 is inf or NaN, which fails the step test: bisect
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            bound = 3 * abs(sbis) - delta  # C's MIN(a, b): a < b ? a : b
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise RuntimeError(f"Failed to converge after {BRENT_ITER} iterations.")


def _fold(ssm: AutonomousSsm, xa: float, xb: float):
    """One fold bracket [xa, xb] as a generator for ``_rounds``: ``_brent``
    on the discriminant at a double-root ``_secant`` from the backbone Omega
    (the backbone's own where the secant diverges).  Returns the fold, or
    NaN where that discriminant is NaN, which would steer Brent's sign
    tests, or has one sign at both ends: the bracket comes from the K+
    pair's discriminant, and past the convergence radius the two can
    disagree in sign.
    """
    brent = _brent(xa, xb)
    rho = next(brent)
    while True:
        _, got = yield from _secant(rho, DOUBLE_ROOT,
                                    _backbone_omega(ssm, rho))
        if math.isnan(got[1]):
            return math.nan
        try:
            rho = brent.send(got[1])
        except StopIteration as stop:
            return stop.value
        except ValueError:  # no sign change over the bracket
            return math.nan


def _runs(inside: np.ndarray) -> np.ndarray:
    """(first, after) rows of each maximal run of True in ``inside``, in
    ascending order, ``after`` one past the run's last row."""
    return np.flatnonzero(np.diff(inside, prepend=False,
                                  append=False)).reshape(-1, 2)


def _locate_folds(ssm: AutonomousSsm, eps: float, grid: np.ndarray,
                  disc: np.ndarray) -> list[float]:
    """Fold amplitudes in ascending order: the ends of each run of rows
    where the sampled discriminant ``disc[i]`` (the K+ pair's, at amplitude
    ``grid[i]``) is >= 0.  An end row where it is exactly zero is the fold;
    an end next to a row where it is negative brackets a Brent root of the
    discriminant along the double-root Omega, the bracket ends being the
    two rows rounded to 15 decimals.  An end at the end of the grid with a
    positive discriminant is no fold.  A bracket that ``_fold`` cannot
    solve keeps its place as NaN.

    Every bracket is one ``_fold`` generator, and one ``_rounds`` run
    drives them all: the double-root secants of every bracket's pending
    Brent step share its batched forced marches.
    """
    samples = [round(r, 15) for r in grid.tolist()]
    folds: list[float | None] = []
    brackets = {}
    for first, after in _runs(disc >= 0).tolist():
        for end, out in ((first, first - 1), (after - 1, after)):
            if disc[end] == 0.0:
                folds.append(samples[end])
            elif 0 <= out < len(samples):
                brackets[len(folds)] = _fold(ssm, samples[min(end, out)],
                                             samples[max(end, out)])
                folds.append(None)
    for *_, finished in _rounds(ssm, eps, brackets):
        for i, fold in finished:
            folds[i] = fold
    return folds


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
                       u: FixedPointU, coord: int, eps: float) -> float:
    """Peak |x_coord| of the reconstructed periodic orbit at one point.

    The orbit is x(phi) = T (W0 + eps W1)(rho e^{i(psi+phi)},
    rho e^{-i(psi+phi)}, phi) over one forcing period.
    """
    return float(_peaks(ssm, [u], fr, coord, eps)[0])
