"""Brute-force verification by direct time integration of the full system.

This module is the package's independent referee: it integrates the complete
first-order system x' = A x + G(x) + eps F cos(Omega t), runs steady-state
frequency sweeps with a period-to-period settle detector, and evaluates the
closed-form response of the linearized model.  Nothing here touches the
manifold machinery, so agreement between the two paths is meaningful.

Sweeps step with Cox & Matthews' exponential Runge-Kutta scheme ETDRK4
(J. Comput. Phys. 176:430, 2002; Hochbruck & Ostermann, Acta Numer.
19:209, 2010).  It propagates the linear part exactly and treats only N(x,
t) = G(x) + eps cos(Omega t) F explicitly, so the beam's fast, strongly
damped modes do not limit the step: every forcing period is
``SWEEP_STEPS_PER_PERIOD`` equal steps, and none is rejected.  The
exponential and its phi-functions are formed once per frequency from one
matrix exponential of an augmented block matrix (``_expm``, a NumPy port of
Higham's scaling and squaring), so SciPy stays off the runtime and a
defective A is no special case.  N enters every stage through its
coordinates in the columns of ``[inject | F]``: the term products from
``Monomials.products`` and the forcing ``eps cos(Omega t)``, whose phases
at the step ends and midpoints do not depend on Omega.  Each stage is then
one matrix-vector product with a work row (``_etdrk4``).

Each measured period's maximum is read off the m + 1 step ends: the
parabola through each local maximum of the samples and its two neighbours
gives the peak between steps (``_period_peak``).

``integrate_full`` steps whole forcing periods with the same stepper and
returns every step end, so a trajectory and a sweep point from the same
state agree bit for bit.

``sweep`` runs its grid points one after another, cold sweeps included.
Most of a step is Python-level work that holds the GIL, so worker threads
do not speed cold sweeps up (four cold two-mass points on a 2-core x86_64
host: 0.36-0.41 s on one thread, 0.37-0.51 s on two).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .model import FirstOrderSystem, ModalModel
from .ssm_forced import leading_forcing_coefficient

SETTLE_REL = 1e-3
SETTLE_RUN = 3
MIN_MEASURE_PERIODS = 20
MAX_MEASURE_PERIODS = 100
#: ETDRK4 steps per forcing period, in a sweep's burn-off and measured
#: periods alike and in ``integrate_full``
SWEEP_STEPS_PER_PERIOD = 96
#: state magnitude above which a period's end state counts as diverged
DIVERGED_STATE = 1e50

# the [13/13] Pade approximant's coefficients and the 1-norm up to which it
# is accurate to double precision without scaling (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of a square float array.

    Scaling and squaring with the [13/13] Pade approximant (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26:1179, its degree-13 branch for every
    norm; the lower degrees only save products): ``a`` is balanced
    (``_balance``) and divided by 2**s, with s the least that brings its
    1-norm to ``_THETA13``, the approximant r = (V - U)^-1 (V + U) is
    formed from the even powers a^2, a^4, a^6, and r is squared s times.

    A first-order beam model is badly scaled: h A of the 25-element beam
    at 96 steps a period has a 1-norm of 6.8e8 against a spectral radius
    of 1.3e4.  Unbalanced, its exponential differs from a balanced
    reference by about 1e-5 relative, which moves a beam25 sweep
    amplitude by 9e-5 and a beam3 one by 5e-5.  Balanced, its norm is
    2.6e4, the difference falls to 3.5e-12, about the exponential's own
    condition, and the amplitudes' to 3e-7 and 5e-10.
    """
    a, scale = _balance(np.asarray(a, dtype=float))
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a * 2.0 ** -s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _PADE13
    eye = np.eye(a.shape[0])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return scale[:, None] * r / scale


def _balance(a: np.ndarray):
    """``(b, d)`` with b = diag(d)^-1 a diag(d) and d powers of two that
    bring each row's and column's 2-norms together (Parlett & Reinsch
    1969, with the norms of LAPACK's gebal since version 3.5).  b is
    exactly similar to a, and exp(a) = diag(d) exp(b) diag(d)^-1
    exactly."""
    b = a.copy()
    d = np.ones(a.shape[0])
    changed = True
    while changed:
        changed = False
        for i in range(b.shape[0]):
            c = math.sqrt(float(b[:, i] @ b[:, i]))
            r = math.sqrt(float(b[i] @ b[i]))
            if c == 0 or r == 0:
                continue
            f = 2.0 ** round(0.5 * math.log2(r / c))
            if (c * f) ** 2 + (r / f) ** 2 < 0.95 * (c * c + r * r):
                b[:, i] *= f
                b[i] /= f
                d[i] *= f
                changed = True
    return b, d


def _phi_blocks(A: np.ndarray, h: float):
    """``(e^{hA/2}, phi_1(hA/2), e^{hA}, phi_1(hA), phi_2(hA), phi_3(hA))``.

    phi_0 = exp and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z.  The top block
    row of exp(M), M = [[hA, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0], is
    [e^{hA}, phi_1(hA), phi_2(hA), phi_3(hA)] (Sidje 1998, ACM TOMS
    24:130).  That of exp(M / 2) is [e^{hA/2}, phi_1(hA/2) / 2, phi_2(hA/2)
    / 4, phi_3(hA/2) / 8], and exp(M) = exp(M / 2)^2, so one ``_expm`` and
    one product give the half step's blocks and the whole step's.
    """
    d = A.shape[0]
    aug = np.zeros((4 * d, 4 * d))
    aug[:d, :d] = (0.5 * h) * A
    idx = np.arange(3 * d)
    aug[idx, idx + d] = 0.5
    half = _expm(aug)
    top = half[:d] @ half
    return (half[:d, :d], 2.0 * half[:d, d:2 * d],
            *(top[:, k * d:(k + 1) * d] for k in range(4)))


def _etdrk4(fos: FirstOrderSystem, eps: float, omega: float, steps: int):
    """One forcing period of Cox-Matthews ETDRK4 steps, as ``period(traj)``.

    ``traj`` is a ``(steps + 1, dim)`` array whose row 0 holds the state at
    a period boundary; the call writes the states at the ``steps`` equal
    step ends into rows 1 to ``steps``.  It raises
    :class:`DivergenceError` when the period ends in a non-finite state or
    one larger than ``DIVERGED_STATE``; a blow-up overflows inside the
    stages, so floating-point warnings are silenced there.  With h = period / steps, E =
    e^{hA}, E2 = e^{hA/2}, Q = (h/2) phi_1(hA/2), and the nonlinearity N_u
    at the step start (time t):

        a = E2 x + Q N_u,  b = E2 x + Q N(a, t + h/2),
        c = E2 a + Q (2 N(b, t + h/2) - N_u),
        x' = E x + f1 N_u + 2 f2 (N_a + N_b) + f3 N(c, t + h),

    with f1 = h (phi_1 - 3 phi_2 + 4 phi_3), f2 = h (phi_2 - 2 phi_3) and
    f3 = h (4 phi_3 - phi_2), all at hA.  N = B nu, B = [inject | F] and
    nu = [term products, eps cos(omega t)], so the work row [x | nu_u |
    nu_a | nu_b | nu_c] turns each of a, b, c and x' into one product with
    a matrix formed here; c uses E2 a = E x + E2 Q B nu_u.
    """
    A, mono = fos.A, fos.monomials
    d = A.shape[0]
    h = 2 * math.pi / omega / steps
    E2, q1, E, p1, p2, p3 = _phi_blocks(A, h)
    B = np.column_stack([mono.inject, fos.F])
    k = B.shape[1]
    QB = (0.5 * h) * (q1 @ B)
    zero = np.zeros((d, k))
    Ma = np.hstack([E2, QB, zero, zero, zero])
    Mb = np.hstack([E2, zero, QB, zero, zero])
    Mc = np.hstack([E, E2 @ QB - QB, zero, 2 * QB, zero])
    mid = (2 * h) * ((p2 - 2 * p3) @ B)
    Mx = np.hstack([E, h * ((p1 - 3 * p2 + 4 * p3) @ B), mid, mid,
                    h * ((4 * p3 - p2) @ B)])
    # eps cos(omega t) at the step ends (even entries) and midpoints (odd)
    force = (eps * np.cos(np.pi / steps * np.arange(2 * steps + 1))).tolist()

    row = np.zeros(d + 4 * k)
    x = row[:d]
    nu_u, nu_a, nu_b, nu_c = (slice(d + i * k, d + (i + 1) * k)
                              for i in range(4))
    a, b, c = np.empty(d), np.empty(d), np.empty(d)
    dot, products = np.dot, mono.products

    def period(traj):
        x[:] = traj[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps):
                row[nu_u] = products(x) + [force[2 * j]]
                dot(Ma, row, out=a)
                row[nu_a] = products(a) + [force[2 * j + 1]]
                dot(Mb, row, out=b)
                row[nu_b] = products(b) + [force[2 * j + 1]]
                dot(Mc, row, out=c)
                row[nu_c] = products(c) + [force[2 * j + 2]]
                dot(Mx, row, out=traj[j + 1])
                x[:] = traj[j + 1]
        big = float(np.abs(traj[steps]).max())
        if not big <= DIVERGED_STATE:
            raise DivergenceError(
                f"solution diverged at Omega = {omega!r} (state magnitude "
                f"{big:.2e})")
    return period


@dataclass
class Trajectory:
    """The state at every step end: ``x[k]`` at time ``t[k]``."""
    t: np.ndarray                # (periods * SWEEP_STEPS_PER_PERIOD + 1,)
    x: np.ndarray                # (periods * SWEEP_STEPS_PER_PERIOD + 1, 2n)


def integrate_full(fos: FirstOrderSystem, eps: float, omega: float,
                   x0, periods: int) -> Trajectory:
    """Step x' = A x + G(x) + eps F cos(omega t) from x0 at t = 0 over
    ``periods`` whole forcing periods.

    This is the sweep's own stepper: ``SWEEP_STEPS_PER_PERIOD`` ETDRK4
    steps a period (``_etdrk4``), so the state after k periods is the one
    a sweep point started from x0 holds after k periods.  Period k fills
    rows ``k*m`` to ``(k+1)*m`` of the trajectory, m the step count, and
    the step ends fall at times ``T * (j / m)``, T the forcing period.

    Raises
    ------
    ValidationError
        On malformed arguments.
    DivergenceError
        When a period ends in a non-finite state or one larger than
        ``DIVERGED_STATE``.
    """
    if not 0 < omega < math.inf:
        raise ValidationError("forcing frequency must be finite and positive")
    if not 0 <= eps < math.inf:
        raise ValidationError("forcing amplitude must be finite and >= 0")
    if not isinstance(periods, numbers.Integral) or periods < 1:
        raise ValidationError(
            f"periods must be a positive integer, got {periods!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (fos.A.shape[0],):
        raise ValidationError(
            f"x0 must have shape ({fos.A.shape[0]},), got {x0.shape}")
    m = SWEEP_STEPS_PER_PERIOD
    period = _etdrk4(fos, eps, omega, m)
    traj = np.empty((periods * m + 1, x0.size))
    traj[0] = x0
    for k in range(periods):
        period(traj[k * m:(k + 1) * m + 1])
    t = 2 * math.pi / omega * (np.arange(periods * m + 1) / m)
    return Trajectory(t=t, x=traj)


@dataclass
class SweepResult:
    """Steady-state amplitudes from a discrete frequency sweep.

    ``amplitude[i, j]`` is the last measured period's max of
    ``|x[monitor[j]]|`` at ``omega[i]`` (in sweep order), refined between
    the ``SWEEP_STEPS_PER_PERIOD`` step ends by a parabola through each
    local maximum of the samples and its two neighbours
    (``_period_peak``).  ``failure[i]`` is ``""`` when the period-to-period
    amplitude change stayed below SETTLE_REL for SETTLE_RUN consecutive
    periods, and otherwise says why not: ``"unsettled"`` (the measuring cap
    ran out; the amplitude is the last period's) or ``"diverged"`` (a
    period ended in a non-finite state or one larger than
    ``DIVERGED_STATE``; the amplitude is NaN).  ``periods[i]`` counts the
    burn-off periods and the measured periods that completed at
    ``omega[i]``, and ``steps[i]`` the ETDRK4 steps taken there:
    ``SWEEP_STEPS_PER_PERIOD`` for each period stepped, the one in which
    the state diverged included.
    """
    omega: np.ndarray
    amplitude: np.ndarray
    failure: np.ndarray
    periods: np.ndarray
    steps: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        """Per point, whether the response settled."""
        return self.failure == ""


def _period_peak(t: np.ndarray, y: np.ndarray, period: float) -> float:
    """The maximum of ``y`` over one period sampled at times ``t``.

    ``t`` runs from 0 to ``period``, in steps that may be uneven.  At each
    local maximum of the samples, the parabola through it and its two
    neighbours gives a peak at its vertex, the dense-output argument of
    Hairer, Norsett & Wanner (Solving ODEs I, sec. II.6); the largest of
    these and of the samples is returned.  A sample at either end of the period wraps round:
    its neighbours are the samples at ``t[-2]`` and ``t[1] + period``.
    Where three points are not concave the sampled value stands.

    Every local maximum is refined, not only the largest sample: ``|x|``
    has a lobe for each sign of ``x``, and the lobe whose samples fall
    nearer its top can outrank the higher one.
    """
    ts = np.concatenate(((t[-2] - period,), t, (t[1] + period,)))
    ys = np.concatenate(((y[-2],), y, (y[1],)))
    h1, h2 = np.diff(ts[:-1]), np.diff(ts[1:])
    rise, fall = np.diff(ys[:-1]), np.diff(ys[1:])
    curv = (fall / h2 - rise / h1) / (h1 + h2)
    top = (rise >= 0) & (fall <= 0) & (curv < 0)
    slope = rise[top] / h1[top] + curv[top] * h1[top]  # at the sample
    vertex = y[top] - slope * slope / (4 * curv[top])
    return float(max(y.max(), vertex.max(initial=-math.inf)))


def _sweep_point(fos, eps, om, state, monitor, transient_time,
                 min_measure_periods, max_measure_periods, settle_rel):
    """One grid frequency: burn off the transient, measure period maxima."""
    period = 2 * math.pi / om
    m = SWEEP_STEPS_PER_PERIOD
    n_tr = max(1, int(math.ceil(transient_time / period)))
    step = _etdrk4(fos, eps, om, m)
    t = np.linspace(0.0, period, m + 1)
    traj = np.empty((m + 1, state.size))
    traj[0] = state
    maxima = []  # per measured period, per monitored coordinate
    failure = "unsettled"
    n_meas = n_steps = 0

    def advance():
        nonlocal n_steps
        n_steps += m
        step(traj)

    try:
        for _ in range(n_tr):
            advance()
            traj[0] = traj[m]
        while n_meas < max_measure_periods:
            advance()
            maxima.append([_period_peak(t, np.abs(traj[:, c]), period)
                           for c in monitor])
            traj[0] = traj[m]
            n_meas += 1
            if n_meas >= max(min_measure_periods, SETTLE_RUN + 1):
                tail = np.asarray(maxima[-(SETTLE_RUN + 1):])
                change = np.abs(np.diff(tail, axis=0)) / np.maximum(
                    np.abs(tail[1:]), 1e-300)
                if float(np.max(change)) < settle_rel:
                    failure = ""
                    break
        state = traj[m].copy()
    except DivergenceError:
        # escape to an unbounded response: the grid point has no
        # amplitude; the next starts from rest
        failure = "diverged"
        maxima.append([math.nan] * len(monitor))
        state = np.zeros(state.size)
    return maxima[-1], failure, n_tr + n_meas, n_steps, state


def sweep(fos: FirstOrderSystem, eps: float, omega_grid, monitor,
          warm_start: bool = True,
          transient_time: float | None = None,
          min_measure_periods: int = MIN_MEASURE_PERIODS,
          max_measure_periods: int = MAX_MEASURE_PERIODS,
          settle_rel: float = SETTLE_REL) -> SweepResult:
    """Steady-state frequency sweep of the full system.

    At each grid frequency the transient is burned off over a horizon of
    5 / |slowest decay rate| (rounded up to whole forcing periods), then
    per-period maxima of the monitored coordinates are recorded until they
    settle (relative change < ``settle_rel`` over three consecutive periods,
    after at least ``min_measure_periods``) or ``max_measure_periods`` is
    exhausted, in which case the point is flagged ``"unsettled"``.  Every
    period is ``SWEEP_STEPS_PER_PERIOD`` ETDRK4 steps, and each maximum is
    refined between them (see :class:`SweepResult`).  Nothing estimates
    the step's error.  Doubling the step count over a fixed horizon moved
    amplitudes by at most 5e-7 near resonance (two-mass at Omega 1.5 to
    2.0, the two- and three-element beams at 7.0 and 7.02; a test holds
    two-mass and the two-element beam to it) and by up to 3e-4 off it
    (two-mass 0.2 to 10, those beams 1 to 44); elsewhere, recheck the
    count.  A grid point whose
    response escapes to an unbounded one is flagged ``"diverged"``, with
    NaN amplitude, and the sweep continues from rest at the next
    frequency.

    Parameters
    ----------
    fos : FirstOrderSystem
    eps : float
    omega_grid : array_like
        Strictly monotone; increasing sweeps up, decreasing sweeps down.
    monitor : sequence of int
        Distinct state indices whose per-period max is measured.
    warm_start : bool
        Start each frequency from the previous steady state (sequential by
        definition); False starts every point from rest.
    transient_time : float, optional
        Override for the decay horizon (> 0; required if the linear part is
        not asymptotically stable).
    min_measure_periods, max_measure_periods : int
        Bounds on the measured periods per point; the maximum may not be
        below the minimum.
    settle_rel : float
        Relative per-period change below which the response counts as
        settled.

    Returns
    -------
    SweepResult
    """
    if not 0 <= eps < math.inf:
        raise ValidationError("forcing amplitude must be finite and >= 0")
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise ValidationError("omega grid must be a nonempty 1-D array")
    if not np.isfinite(omega_grid).all():
        raise ValidationError("omega grid must be finite")
    d = np.diff(omega_grid)
    if omega_grid.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
        raise ValidationError("omega grid must be strictly monotone")
    if np.any(omega_grid <= 0):
        raise ValidationError("omega grid must be positive")
    monitor = tuple(int(c) for c in monitor)
    dim = fos.A.shape[0]
    if not monitor or any(not 0 <= c < dim for c in monitor):
        raise ValidationError(f"monitor indices must lie in [0, {dim})")
    if len(set(monitor)) < len(monitor):
        raise ValidationError(f"monitor indices must be distinct, got "
                              f"{list(monitor)}")
    if min_measure_periods < SETTLE_RUN + 1:
        raise ValidationError(
            f"min_measure_periods ({min_measure_periods}; verify "
            f"--min-periods) must be >= {SETTLE_RUN + 1} to detect a settle")
    if max_measure_periods < min_measure_periods:
        raise ValidationError(
            f"max_measure_periods ({max_measure_periods}; verify "
            f"--max-periods) must be >= min_measure_periods "
            f"({min_measure_periods}; verify --min-periods)")
    if not 0 < settle_rel < math.inf:
        raise ValidationError("settle_rel must be finite and > 0")
    if transient_time is None:
        decay = fos.slowest_eigenvalue().real
        if decay >= 0:
            raise ValidationError(
                "the linear part is not asymptotically stable; pass an "
                "explicit transient_time to sweep")
        transient_time = 5.0 / abs(decay)
    elif not 0 < transient_time < math.inf:
        raise ValidationError(f"transient_time ({transient_time}; verify "
                              "--transient-time) must be finite and > 0")

    n_grid = omega_grid.size
    amplitude = np.zeros((n_grid, len(monitor)))
    failure = []
    periods = np.zeros(n_grid, dtype=int)
    steps = np.zeros(n_grid, dtype=int)

    state = np.zeros(dim)
    for i, om in enumerate(omega_grid):
        if not warm_start:
            state = np.zeros(dim)
        amplitude[i], why, periods[i], steps[i], state = _sweep_point(
            fos, eps, float(om), state, monitor, transient_time,
            min_measure_periods, max_measure_periods, settle_rel)
        failure.append(why)

    return SweepResult(omega=omega_grid.copy(), amplitude=amplitude,
                       failure=np.asarray(failure, dtype=str),
                       periods=periods, steps=steps)


def linear_frc_closed_form(mm: ModalModel, eps: float, omega):
    """Reduced response amplitude of the linearized model.

    With every nonlinear coefficient zero the fixed-point equations collapse
    to rho = eps * ||c|| / sqrt((Re lambda)**2 + (Im lambda - Omega)**2) with
    c the leading forcing coefficient; this is the exact resonance curve the
    traced response must reproduce on a linear system.
    """
    lam = mm.lambda_master
    c = abs(leading_forcing_coefficient(mm))
    omega = np.asarray(omega, dtype=float)
    rho = eps * c / np.hypot(lam.real, lam.imag - omega)
    return float(rho) if rho.ndim == 0 else rho
