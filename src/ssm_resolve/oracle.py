"""Brute-force verification by direct time integration of the full system.

This module is the package's independent referee: it integrates the complete
first-order system with Fehlberg's embedded 4(5) Runge-Kutta pair, runs
steady-state frequency sweeps with a period-to-period settle detector, and
evaluates the closed-form response of the linearized model.  Nothing here
touches the manifold machinery, so agreement between the two paths is
meaningful.

The right-hand side is compiled once per integration (``_rhs``).  Each
call writes ``A x`` into the stage row with one BLAS product.  With terms
it adds 0.0 and then overwrites only the live rows (rows that a term or
the forcing writes: one of four on the two-mass system) with ``((A x)_i +
G_i(x)) + (eps cos(Omega t)) F_i`` in Python floats, the term products
taken from ``Monomials.products``; a linear system adds the forcing over
the whole vector.  The stepper forms every stage and error combination in
per-call buffers.  The floating-point operations are those of the plain
formula ``A x + G(x) + (eps cos(Omega t)) F``, in the same order, so
trajectories do not depend on this bookkeeping
(``test_field_equals_plain_formula_byte_for_byte``).

``sweep`` reads each measured period's maximum off the accepted steps, not
off a dense grid: the parabola through each local maximum of the samples
and its two neighbours gives the peak between steps (``_period_peak``).
So every phase of a sweep runs at one step ceiling, the burn-off's
``period / TRANSIENT_STEPS_PER_PERIOD``, and the error controller sets
the pace: 78-86 steps a period on two-mass at the default tolerances.
There a peak sampled even at 200 steps a period reads up to 1.2e-4 low,
and the refined one is within 4e-7 of a 20000-step reference.

``sweep`` runs its grid points one after another, cold sweeps included.
The stepper is Python-level and holds the GIL, so worker threads made cold
sweeps slower, not faster (four cold two-mass points on two cores: 2.2-3.2 s
on one thread, 4.0-4.3 s on two).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, IntegrationError, ValidationError
from .model import FirstOrderSystem, ModalModel
from .ssm_forced import leading_forcing_coefficient

# Fehlberg's embedded 4(5) pair.  The fourth-order combination propagates; the
# difference against the fifth-order one drives the step controller, so the
# global convergence order of the trajectory is 4.
_RK_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RK_A = tuple(np.array(row) for row in (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
))
_RK_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RK_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50,
                   2 / 55])

STEP_SAFETY = 0.9
STEP_GROW_MAX = 5.0
STEP_SHRINK_MIN = 0.2
MIN_STEPS_PER_PERIOD = 200

SETTLE_REL = 1e-3
SETTLE_RUN = 3
MIN_MEASURE_PERIODS = 20
MAX_MEASURE_PERIODS = 100
# the sweep's step ceiling, burn-off and measured periods alike
TRANSIENT_STEPS_PER_PERIOD = 40


@dataclass
class IntegratorControl:
    """Step-size policy for the embedded 4(5) integrator.

    Parameters
    ----------
    rel_tol, abs_tol : float
        Per-component error weights: a step is accepted when the embedded
        error estimate is below ``abs_tol + rel_tol * |x|`` everywhere.
    max_step : float or None
        Hard step ceiling.  None resolves to period / 200 in
        ``integrate_full``, a dense sampling of each forcing period;
        ``sweep`` resolves it to period / 40 instead, because it refines
        period maxima between steps.
    min_step : float or None
        Floor below which the controller gives up and reports the problem as
        stiff.  None resolves to 1e-12 * period.
    fixed_step : float or None
        When set, adaptivity is disabled and every step uses exactly this
        size (convergence-order testing).
    """
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float | None = None
    min_step: float | None = None
    fixed_step: float | None = None

    def validate(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValidationError("integrator tolerances must be positive")
        for name in ("max_step", "min_step", "fixed_step"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValidationError(f"{name} must be positive when given")


@dataclass
class Trajectory:
    """Accepted integration states, including every requested sample time."""
    t: np.ndarray                # (m,)
    x: np.ndarray                # (m, 2n)
    n_rejected: int


def _rhs(fos: FirstOrderSystem, eps: float, omega: float):
    """The right-hand side as ``f(t, x, out)``, written into ``out``.

    Row ``i`` of ``out`` is ``((A x)_i + G_i(x)) + (eps cos(omega t)) F_i``,
    with ``G_i`` summed over the terms in order from 0.0, the forcing part
    absent when ``eps`` is 0 and ``G`` absent when there are no terms.  ``A
    x`` is one BLAS product, and the monomials come from
    :meth:`Monomials.products`.

    Every row a term or the forcing does not write gets ``+ 0.0`` (so a
    -0.0 becomes +0.0, as a zero ``G_i`` would make it), and the live rows
    are summed in Python floats, the same operations in the same order.
    On a live row a term whose injection entry is zero still adds its ``0 *
    mono``, so an overflowed monomial makes it NaN as the array sum does.
    Without terms the forcing is added over the whole vector.
    """
    A, F, mono = fos.A, fos.F, fos.monomials
    forced = eps != 0.0
    dot, cos = np.dot, math.cos

    if not fos.terms:
        def linear(t, x, out):
            dot(A, x, out=out)
            if forced:
                out += (eps * cos(omega * t)) * F
        return linear

    live = np.flatnonzero(mono.inject.any(axis=1) | (forced & (F != 0)))
    rows = [(i, mono.inject[i].tolist(), F.item(i)) for i in live.tolist()]
    products = mono.products

    def f(t, x, out):
        dot(A, x, out=out)
        out += 0.0
        monos = products(x)
        # eps = 0 gives s = +-0.0, and adding +-0.0 to a sum that is never
        # -0.0 changes nothing
        s = eps * cos(omega * t)
        for i, inject, fi in rows:
            g = 0.0
            for a, m in zip(inject, monos):
                g = g + a * m
            out[i] = (out.item(i) + g) + s * fi
    return f


def integrate_full(fos: FirstOrderSystem, eps: float, omega: float,
                   x0, t_end: float,
                   control: IntegratorControl | None = None,
                   sample_times=None) -> Trajectory:
    """Integrate x' = A x + G(x) + eps F cos(omega t) from x0 over [0, t_end].

    Every accepted step is recorded, and the stepper lands exactly on each
    requested sample time (period boundaries by default), so downstream code
    can read phase-aligned states without interpolation.

    Parameters
    ----------
    fos : FirstOrderSystem
    eps : float
        Forcing amplitude scale; 0 integrates the unforced system.
    omega : float
        Forcing frequency (positive; it also sets the step ceiling).
    x0 : array_like, shape (2n,)
    t_end : float
    control : IntegratorControl, optional
    sample_times : array_like, optional
        Strictly increasing times in (0, t_end]; defaults to the forcing
        period boundaries plus t_end.

    Returns
    -------
    Trajectory

    Raises
    ------
    ValidationError
        On malformed arguments.
    IntegrationError
        When the controller underflows its minimum step (stiffness): an
        implicit method would be needed, which is out of scope here.
    """
    if omega <= 0:
        raise ValidationError("forcing frequency must be positive")
    if not 0 <= eps < math.inf:
        raise ValidationError("forcing amplitude must be finite and >= 0")
    if t_end <= 0:
        raise ValidationError("t_end must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (fos.A.shape[0],):
        raise ValidationError(
            f"x0 must have shape ({fos.A.shape[0]},), got {x0.shape}")
    control = control or IntegratorControl()
    control.validate()

    period = 2 * math.pi / omega
    max_step = control.max_step or period / MIN_STEPS_PER_PERIOD
    min_step = control.min_step or 1e-12 * period
    if sample_times is None:
        n_per = int(math.floor(t_end / period + 1e-12))
        sample_times = [k * period for k in range(1, n_per + 1)]
        if not sample_times or sample_times[-1] < t_end * (1 - 1e-12):
            sample_times.append(t_end)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0 or np.any(np.diff(sample_times) <= 0):
        raise ValidationError("sample times must be strictly increasing")
    if sample_times[0] <= 0 or sample_times[-1] > t_end * (1 + 1e-12):
        raise ValidationError("sample times must lie in (0, t_end]")
    sample_times = sample_times.tolist()

    f = _rhs(fos, eps, omega)
    fixed = control.fixed_step is not None
    abs_tol, rel_tol = control.abs_tol, control.rel_tol
    land_tol = 1e-12 * period
    # stage derivatives and work buffers; local to the call, so concurrent
    # calls share nothing
    dim = x0.size
    k = np.empty((6, dim))
    stages = [(_RK_C[s], _RK_A[s], k[s], k[:s]) for s in range(1, 6)]
    k0 = k[0]
    xi, x5, weight, ax4 = (np.empty(dim) for _ in range(4))
    dot, absolute, maximum, isfinite = np.dot, np.abs, np.maximum, np.isfinite

    t, x = 0.0, x0.copy()
    ax = absolute(x)  # |x|, carried over from |x4| on acceptance
    ts, xs = [0.0], [x]
    i_sample = 0
    n_samples = len(sample_times)
    n_rejected = 0
    h = control.fixed_step or min(max_step, period / MIN_STEPS_PER_PERIOD)

    while i_sample < n_samples:
        target = sample_times[i_sample]
        h_try = min(h, max_step, target - t)
        landing = h_try >= target - t - land_tol
        if landing:
            h_try = target - t

        # x + h (a . k[:s]) and x + h (b . k), each product formed in place
        f(t, x, k0)
        for c, a, ks, head in stages:
            dot(a, head, out=xi)
            xi *= h_try
            xi += x
            f(t + c * h_try, xi, ks)
        x4 = dot(_RK_B4, k)
        x4 *= h_try
        x4 += x

        if fixed:
            if not isfinite(x4).all():
                raise DivergenceError(
                    f"solution diverged (non-finite state) at t = {t:.6g}")
            accept = True
        else:
            dot(_RK_B5, k, out=x5)
            x5 *= h_try
            x5 += x
            absolute(x4, out=ax4)
            maximum(ax, ax4, out=weight)
            weight *= rel_tol
            weight += abs_tol
            x5 -= x4
            absolute(x5, out=x5)
            x5 /= weight
            err = float(x5.max())
            accept = err <= 1.0
            if err > 0:
                scale = STEP_SAFETY * err ** -0.2
            elif err == 0:
                scale = STEP_SAFETY * STEP_GROW_MAX
            else:
                # NaN: a stage or x4 overflowed, which rejects the step.
                # Growing it would retry the overflow forever; shrinking
                # ends at the underflow or divergence report below.
                scale = STEP_SHRINK_MIN
            scale = min(STEP_GROW_MAX, max(STEP_SHRINK_MIN, scale))

        if accept:
            t = target if landing else t + h_try
            x = x4
            ax, ax4 = ax4, ax
            ts.append(t)
            xs.append(x4)
            if landing:
                i_sample += 1
        else:
            n_rejected += 1

        if not fixed:
            h = h_try * scale
            if h < min_step:
                big = float(np.max(np.abs(x)))
                if big > 1e50:
                    raise DivergenceError(
                        f"solution diverged near t = {t:.6g} "
                        f"(state magnitude {big:.2e})")
                raise IntegrationError(
                    f"step size underflow ({h:.3e} < {min_step:.3e}) at "
                    f"t = {t:.6g}, state magnitude {big:.2e}: the solution "
                    "is blowing up or the problem is stiff at this "
                    "tolerance; an implicit integrator would be required "
                    "(out of scope)")

    return Trajectory(t=np.asarray(ts), x=np.asarray(xs),
                      n_rejected=n_rejected)


@dataclass
class SweepResult:
    """Steady-state amplitudes from a discrete frequency sweep.

    ``amplitude[i, j]`` is the last measured period's max of
    ``|x[monitor[j]]|`` at ``omega[i]`` (in sweep order), refined between
    the integrator's steps by a parabola through each local maximum of the
    samples and its two neighbours (``_period_peak``).  ``failure[i]`` is ``""`` when the period-to-period
    amplitude change stayed below SETTLE_REL for SETTLE_RUN consecutive
    periods, and otherwise says why not: ``"unsettled"`` (the measuring cap
    ran out; the amplitude is the last period's), ``"diverged"`` (the state
    escaped) or ``"underflow"`` (the step size fell below its floor); the
    last two have NaN amplitudes.  ``steps_accepted[i]`` and
    ``steps_rejected[i]`` count the integrator's steps at ``omega[i]``; the
    ``integrate_full`` call that failed contributes none.
    """
    omega: np.ndarray
    amplitude: np.ndarray
    failure: np.ndarray
    periods: np.ndarray
    steps_accepted: np.ndarray
    steps_rejected: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        """Per point, whether the response settled."""
        return self.failure == ""


def _period_peak(t: np.ndarray, y: np.ndarray, period: float) -> float:
    """The maximum of ``y`` over one period sampled at times ``t``.

    ``t`` runs from 0 to ``period`` in uneven steps.  At each local maximum
    of the samples, the parabola through it and its two neighbours gives a
    peak at its vertex, the dense-output argument of Hairer, Norsett &
    Wanner (Solving ODEs I, sec. II.6); the largest of these and of the
    samples is returned.  A sample at either end of the period wraps round:
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


def _sweep_point(fos, eps, om, state, monitor, control, transient_time,
                 min_measure_periods, max_measure_periods, settle_rel):
    """One grid frequency: burn off the transient, measure period maxima."""
    period = 2 * math.pi / om
    n_tr = max(1, int(math.ceil(transient_time / period)))
    maxima = []  # per measured period, per monitored coordinate
    failure = "unsettled"
    n_meas = 0
    steps = [0, 0]  # accepted, rejected
    # the burn-off needs only its endpoint, and _period_peak resolves a
    # measured period's maximum between steps, so neither phase needs the
    # integrator's dense default ceiling
    control = control or IntegratorControl()
    if control.max_step is None and control.fixed_step is None:
        control = replace(control,
                          max_step=period / TRANSIENT_STEPS_PER_PERIOD)
    try:
        traj = integrate_full(fos, eps, om, state, n_tr * period,
                              control=control, sample_times=[n_tr * period])
        state = traj.x[-1]
        steps[0] += traj.t.size - 1
        steps[1] += traj.n_rejected
        while n_meas < max_measure_periods:
            traj = integrate_full(fos, eps, om, state, period,
                                  control=control, sample_times=[period])
            state = traj.x[-1]
            steps[0] += traj.t.size - 1
            steps[1] += traj.n_rejected
            maxima.append([_period_peak(traj.t, np.abs(traj.x[:, c]), period)
                           for c in monitor])
            n_meas += 1
            if n_meas >= max(min_measure_periods, SETTLE_RUN + 1):
                tail = np.asarray(maxima[-(SETTLE_RUN + 1):])
                change = np.abs(np.diff(tail, axis=0)) / np.maximum(
                    np.abs(tail[1:]), 1e-300)
                if float(np.max(change)) < settle_rel:
                    failure = ""
                    break
    except IntegrationError as exc:
        # escape to an unbounded response (or genuine stiffness): the
        # grid point has no amplitude; the next starts from rest
        failure = ("diverged" if isinstance(exc, DivergenceError)
                   else "underflow")
        maxima.append([math.nan] * len(monitor))
        state = np.zeros(fos.A.shape[0])
    return maxima[-1], failure, n_tr + n_meas, steps, state


def sweep(fos: FirstOrderSystem, eps: float, omega_grid, monitor,
          warm_start: bool = True,
          control: IntegratorControl | None = None,
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
    exhausted, in which case the point is flagged ``"unsettled"``.  Each
    maximum is refined between the integrator's steps (see
    :class:`SweepResult`).  A grid point whose integration fails (escape to
    an unbounded response, or a step underflow) is flagged ``"diverged"``
    or ``"underflow"``, with NaN amplitude, and the sweep continues from
    rest at the next frequency.

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
    control : IntegratorControl, optional
        Without ``max_step`` and ``fixed_step``, steps are capped at
        period / TRANSIENT_STEPS_PER_PERIOD.
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
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise ValidationError("omega grid must be a nonempty 1-D array")
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
    if settle_rel <= 0:
        raise ValidationError("settle_rel must be > 0")
    if transient_time is None:
        decay = fos.slowest_eigenvalue().real
        if decay >= 0:
            raise ValidationError(
                "the linear part is not asymptotically stable; pass an "
                "explicit transient_time to sweep")
        transient_time = 5.0 / abs(decay)
    elif not transient_time > 0:
        raise ValidationError(f"transient_time ({transient_time}; verify "
                              "--transient-time) must be > 0")

    n_grid = omega_grid.size
    amplitude = np.zeros((n_grid, len(monitor)))
    failure = []
    periods = np.zeros(n_grid, dtype=int)
    steps = np.zeros((n_grid, 2), dtype=int)

    state = np.zeros(dim)
    for i, om in enumerate(omega_grid):
        if not warm_start:
            state = np.zeros(dim)
        amplitude[i], why, periods[i], steps[i], state = _sweep_point(
            fos, eps, float(om), state, monitor, control, transient_time,
            min_measure_periods, max_measure_periods, settle_rel)
        failure.append(why)

    return SweepResult(omega=omega_grid.copy(), amplitude=amplitude,
                       failure=np.asarray(failure, dtype=str),
                       periods=periods,
                       steps_accepted=steps[:, 0], steps_rejected=steps[:, 1])


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
