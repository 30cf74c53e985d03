"""Direct-integration referee: stepper accuracy, sweeps, linear response.

The oracles here are closed forms that bypass the package entirely: the
particular solution of a linear 1-DOF oscillator, the 2x2 transfer function
of the linearized two-mass system, and the saddle-node frequencies read off
the reduced branch geometry.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm
from scipy.linalg import matrix_balance

from conftest import tip_index, two_mass_system
from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.errors import DivergenceError, ValidationError
from ssm_resolve.frc import _psi_roots, physical_amplitude, trace_frc
from ssm_resolve.model import (MechanicalSystem, modal_decompose,
                               to_first_order)
from ssm_resolve.oracle import (SWEEP_STEPS_PER_PERIOD, _THETA13, _etdrk4,
                                _expm, _period_peak, _phi_blocks,
                                _sweep_point, integrate_full,
                                linear_frc_closed_form, sweep)
from ssm_resolve.polyalg import dense_eval
from ssm_resolve.reduced import assemble_polar
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import compute_nonautonomous_ssm

# cantilever reference parameters (mm / kg / s), as in test_beam
BEAM = dict(length=2700.0, height=10.0, width=10.0, density=1780e-9,
            modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
            mass_damping=1.25e-4, stiffness_damping=2.5e-4, tip_force=0.1)


def _plain_field(fos, eps, omega, t, x):
    """The full field by its plain formula, for SciPy's reference
    integrations: ``A x``, then ``+ G(x)`` with NumPy-scalar monomials
    summed from 0.0, then ``+ (eps cos(omega t)) F``."""
    out = np.dot(fos.A, x)
    g = fos.monomials
    if g.coeffs:
        total = 0.0
        for coeff, exponents, inject in zip(
                g.coeffs, g.exponents, np.ascontiguousarray(g.inject.T)):
            mono = coeff
            for v, e in enumerate(exponents):
                if e:
                    mono = mono * x[v] ** e
            total = total + inject * mono
        out = out + total
    if eps:
        out = out + (eps * math.cos(omega * t)) * fos.F
    return out


def _one_dof():
    return MechanicalSystem(M=np.array([[1.0]]), C=np.array([[0.05]]),
                            K=np.array([[4.0]]), g=[], f=np.array([1.0]))


def _steady_state(eps, om):
    # particular solution q(t) = Re[Q exp(i om t)] of the 1-DOF system
    Q = eps * 1.0 / (4.0 - om ** 2 + 1j * 0.05 * om)
    return Q


class TestIntegrator:
    OM = 1.7

    def test_linear_particular_solution_over_100_periods(self):
        eps = 0.01
        Q = _steady_state(eps, self.OM)
        x0 = np.array([Q.real, (1j * self.OM * Q).real])
        traj = integrate_full(to_first_order(_one_dof()), eps, self.OM,
                              x0, 100)
        exact = (Q * np.exp(1j * self.OM * traj.t)).real
        err = np.max(np.abs(traj.x[:, 0] - exact)) / np.max(np.abs(exact))
        assert err < 1e-7

    def test_steps_whole_periods(self):
        T = 2 * math.pi / self.OM
        m = SWEEP_STEPS_PER_PERIOD
        tr = integrate_full(to_first_order(_one_dof()), 0.01, self.OM,
                            np.zeros(2), 3)
        assert tr.x.shape == (3 * m + 1, 2)
        assert tr.t[0] == 0.0 and np.all(np.diff(tr.t) > 0)
        assert tr.t[::m].tolist() == [0.0, T, 2 * T, 3 * T]

    @pytest.mark.parametrize("case", ["two_mass", "beam2"])
    def test_is_the_sweeps_stepper_bit_for_bit(self, case):
        # five periods from one state: one burn-off and four measured
        # periods of a sweep point that never settles
        if case == "two_mass":
            fos, eps, om = to_first_order(two_mass_system()), 0.0027, 1.73
            x0 = np.array([0.05, -0.02, 0.0, 0.1])
        else:
            fos = to_first_order(build_beam(BeamSpec(elements=2, **BEAM)))
            eps, om, x0 = 0.002, 7.0, np.zeros(fos.A.shape[0])
        T = 2 * math.pi / om
        *_, state = _sweep_point(fos, eps, om, x0, (0,), T, 4, 4, 1e-300)
        tr = integrate_full(fos, eps, om, x0, 5)
        assert tr.x[-1].tobytes() == state.tobytes()

    def test_unforced_from_rest_stays_zero(self):
        tr = integrate_full(to_first_order(_one_dof()), 0.0, self.OM,
                            np.zeros(2), 5)
        assert np.max(np.abs(tr.x)) == 0.0

    def test_damped_envelope_decays(self):
        T = 2 * math.pi / self.OM
        tr = integrate_full(to_first_order(_one_dof()), 0.0, self.OM,
                            np.array([1.0, 0.0]), 30)
        pm = [np.max(np.linalg.norm(
                  tr.x[(tr.t >= i * T) & (tr.t <= (i + 1) * T)], axis=1))
              for i in range(30)]
        assert all(pm[i + 1] < pm[i] for i in range(2, 29))

    def test_finite_time_blowup_reported(self):
        # beyond the unforced unstable cycle the cubic damper pumps energy
        # and velocity blows up in finite time; the overflow inside the
        # stages warns of nothing, the period's end state reports it
        fos = to_first_order(two_mass_system())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="diverged"):
                integrate_full(fos, 0.0, self.OM,
                               np.array([0.0, 0.0, 1.5, 0.0]), 14)

    def test_overflow_inside_a_step_reports_divergence(self):
        # the cubic terms overflow in the first stage
        fos = to_first_order(two_mass_system())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="diverged"):
                integrate_full(fos, 0.0, self.OM,
                               np.array([0.0, 0.0, 1e60, 0.0]), 2)

    def test_rejects_malformed_arguments(self):
        fos = to_first_order(_one_dof())
        with pytest.raises(ValidationError):
            integrate_full(fos, 0.01, 0.0, np.zeros(2), 1)
        with pytest.raises(ValidationError):
            integrate_full(fos, -0.01, self.OM, np.zeros(2), 1)
        with pytest.raises(ValidationError):
            integrate_full(fos, 0.01, self.OM, np.zeros(3), 1)
        for periods in (0, -2, 1.5, 2.0):
            with pytest.raises(ValidationError, match="periods"):
                integrate_full(fos, 0.01, self.OM, np.zeros(2), periods)


class TestSweep:
    def test_linear_sweep_matches_transfer_function(self):
        lin = two_mass_system(kappa=0.0, alpha=0.0)
        fos = to_first_order(lin)
        eps, grid = 0.001, np.array([1.70, 1.735, 1.77])
        sr = sweep(fos, eps, grid, monitor=[0], warm_start=True)
        assert sr.converged.all()
        for om, amp in zip(grid, sr.amplitude[:, 0]):
            H = np.linalg.solve(lin.K - om ** 2 * lin.M + 1j * om * lin.C,
                                lin.f)
            assert amp == pytest.approx(eps * abs(H[0]), rel=5e-3)

    def test_cold_start_is_deterministic(self):
        lin = two_mass_system(kappa=0.0, alpha=0.0)
        fos = to_first_order(lin)
        grid = np.array([1.72, 1.75])
        first = sweep(fos, 0.001, grid, monitor=[0], warm_start=False)
        again = sweep(fos, 0.001, grid, monitor=[0], warm_start=False)
        assert first.converged.all()
        assert np.array_equal(first.amplitude, again.amplitude)
        assert np.array_equal(first.periods, again.periods)
        for om, amp in zip(grid, first.amplitude[:, 0]):
            H = np.linalg.solve(lin.K - om ** 2 * lin.M + 1j * om * lin.C,
                                lin.f)
            assert amp == pytest.approx(0.001 * abs(H[0]), rel=5e-3)

    def test_counts_integrator_steps_per_point(self):
        # the stiff beam point of the benchmark: 67 burn-off and 40
        # measured periods, each the same number of steps
        beam = build_beam(BeamSpec(elements=2, **BEAM))
        sr = sweep(to_first_order(beam), 0.002, [7.0], [tip_index(beam)],
                   warm_start=False, transient_time=60.0,
                   min_measure_periods=40, max_measure_periods=40)
        assert sr.periods.tolist() == [107]
        assert sr.steps.tolist() == [107 * SWEEP_STEPS_PER_PERIOD]

    @pytest.mark.parametrize("case", ["two_mass", "beam2"])
    def test_amplitude_is_the_period_maximum(self, case):
        # the last measured period, integrated again from its start state
        # by SciPy's DOP853 at tight tolerances and sampled densely: the
        # refined peak must match its maximum (the step-sampled one was
        # 1.2e-4 low on two-mass)
        if case == "two_mass":
            fos, eps, om, c = to_first_order(two_mass_system()), 0.0027, \
                1.68, 0
            kw = dict(settle_rel=1e-4, max_measure_periods=900)
        else:
            beam = build_beam(BeamSpec(elements=2, **BEAM))
            fos, eps, om, c = to_first_order(beam), 0.002, 7.0, \
                tip_index(beam)
            kw = dict(transient_time=10.0, min_measure_periods=6,
                      max_measure_periods=6)
        sr = sweep(fos, eps, [om], [c], warm_start=False, **kw)
        assert case == "beam2" or sr.converged.all()
        T = 2 * math.pi / om
        transient = kw.get("transient_time",
                           5.0 / abs(fos.slowest_eigenvalue().real))
        n_meas = int(sr.periods[0]) - math.ceil(transient / T)
        # the same point stopped one period early ends where the last
        # measured period starts
        *_, start = _sweep_point(fos, eps, om, np.zeros(fos.A.shape[0]),
                                 (c,), transient, n_meas - 1, n_meas - 1,
                                 1e-300)
        dense = solve_ivp(lambda t, x: _plain_field(fos, eps, om, t, x),
                          (0.0, T), start, method="DOP853", rtol=1e-12,
                          atol=1e-14, dense_output=True)
        assert dense.success
        ref = float(np.max(np.abs(dense.sol(np.linspace(0.0, T, 200001))[c])))
        assert sr.amplitude[0, 0] == pytest.approx(ref, rel=1e-6)

    def test_escape_during_measurement_has_nan_amplitude(self):
        # past the unstable cycle the cubic damper blows the response up in
        # finite time, periods after the one-period burn-off
        fos = to_first_order(two_mass_system())
        T = 2 * math.pi / 1.73
        with warnings.catch_warnings():
            # the overflow inside the stages is how an escape ends; the
            # failure reason reports it, not a warning
            warnings.simplefilter("error")
            sr = sweep(fos, 0.01, [1.73, 1.74], [0, 1], warm_start=True,
                       transient_time=T)
        assert sr.periods[0] > 2  # measured periods were recorded
        assert np.isnan(sr.amplitude).all()
        assert not sr.converged.any()
        assert sr.failure.tolist() == ["diverged", "diverged"]
        # the period a point diverged in was stepped but not measured
        assert sr.steps.tolist() == (
            SWEEP_STEPS_PER_PERIOD * (sr.periods + 1)).tolist()

    def test_escape_during_burn_off_counts_completed_periods(self):
        # negative damping: the state diverges in the 13th of 28 burn-off
        # periods, so 12 periods completed and 13 were stepped
        unstable = MechanicalSystem(M=np.array([[1.0]]),
                                    C=np.array([[-3.0]]),
                                    K=np.array([[1.0]]), g=[],
                                    f=np.array([1.0]))
        assert math.ceil(100 / (2 * math.pi / 1.7)) == 28
        sr = sweep(to_first_order(unstable), 0.1, [1.7], [0],
                   transient_time=100)
        assert sr.failure.tolist() == ["diverged"]
        assert sr.periods.tolist() == [12]
        assert sr.steps.tolist() == [13 * SWEEP_STEPS_PER_PERIOD]

    def test_failure_reasons(self):
        # negative damping grows the state exponentially until it
        # overflows: diverged; a measuring cap below the settle time:
        # unsettled, with the last period's amplitude
        unstable = MechanicalSystem(M=np.array([[1.0]]),
                                    C=np.array([[-20.0]]),
                                    K=np.array([[4.0]]), g=[],
                                    f=np.array([1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            sr = sweep(to_first_order(unstable), 0.01, [1.7], [0],
                       transient_time=1.0)
        assert sr.failure.tolist() == ["diverged"]
        assert np.isnan(sr.amplitude).all()
        sr = sweep(to_first_order(_one_dof()), 0.01, [1.7], [0],
                   transient_time=1.0, min_measure_periods=4,
                   max_measure_periods=4)
        assert sr.failure.tolist() == ["unsettled"]
        assert np.isfinite(sr.amplitude).all()
        assert not sr.converged.any()

    def test_escape_window_brackets_the_saddle_nodes(self):
        # the 0.0029 merged response keeps an unstable upper structure (the
        # cubic damper pumps energy beyond the unforced cycle), so between
        # the two saddle-node frequencies of the small-amplitude branch a
        # sweep has nothing to settle on: points there must come back
        # unconverged, in either sweep direction
        mm = modal_decompose(to_first_order(two_mass_system()))
        ssm3 = compute_autonomous_ssm(mm, 3)
        fr = compute_nonautonomous_ssm(ssm3, mm.lambda_master.imag)
        rd = assemble_polar(ssm3, fr)
        eps = 0.0029

        def om_branch(rho, sign):
            d = float(_psi_roots(rd, rho, eps, 0)[1])
            return rd.b_of(rho) + sign * math.sqrt(max(d, 0.0)) / rho

        rhos = np.linspace(0.03, 0.11, 4000)
        sn_left = max(om_branch(r, -1) for r in rhos)   # K- flank fold
        sn_right = min(om_branch(r, +1) for r in rhos)  # K+ flank fold
        assert sn_left < sn_right

        fos = to_first_order(two_mass_system())
        step = 0.002
        grid = np.arange(1.726, 1.7401, step)
        up = sweep(fos, eps, grid, monitor=[0], warm_start=True)
        down = sweep(fos, eps, grid[::-1], monitor=[0], warm_start=True)
        bad = np.concatenate([up.omega[~up.converged],
                              down.omega[~down.converged]])
        assert bad.size > 0
        # every unconverged frequency sits in the no-attractor window ...
        assert np.all(bad > sn_left - step)
        assert np.all(bad < sn_right + step)
        # ... and the window edges are located to within two grid steps
        assert abs(bad.min() - sn_left) < 2 * step
        assert abs(bad.max() - sn_right) < 2 * step

    def test_rejects_malformed_grids(self):
        fos = to_first_order(_one_dof())
        with pytest.raises(ValidationError):
            sweep(fos, 0.01, [1.7, 1.6, 1.8], monitor=[0])
        with pytest.raises(ValidationError):
            sweep(fos, 0.01, [], monitor=[0])
        with pytest.raises(ValidationError):
            sweep(fos, 0.01, [1.7], monitor=[5])
        with pytest.raises(ValidationError):
            sweep(fos, 0.01, [1.7], monitor=[])

    def test_rejects_repeated_monitor_indices(self):
        # a repeated index would give two CSV columns of one name
        fos = to_first_order(two_mass_system())
        with pytest.raises(ValidationError, match="distinct"):
            sweep(fos, 0.01, [1.7], monitor=[0, 0])

    def test_rejects_impossible_measure_settings(self):
        # a measuring ceiling below its floor, or a burn-off of no length,
        # used to run anyway and come back unconverged or unsettled
        fos = to_first_order(_one_dof())
        with pytest.raises(ValidationError, match="min_measure_periods"):
            sweep(fos, 0.01, [1.5], monitor=[0], min_measure_periods=3)
        with pytest.raises(ValidationError, match="max_measure_periods"):
            sweep(fos, 0.01, [1.5], monitor=[0], min_measure_periods=20,
                  max_measure_periods=5)
        for bad in (-1.0, 0.0, math.nan):
            with pytest.raises(ValidationError, match="transient_time"):
                sweep(fos, 0.01, [1.5], monitor=[0], transient_time=bad)


def _rel(got, want):
    """Normwise relative difference, in the 1-norm."""
    return (np.abs(got - want).sum(axis=0).max()
            / np.abs(want).sum(axis=0).max())


class TestExponentialIntegrator:
    """The sweep's ETDRK4 stepper and the exponential it is built on."""

    @pytest.mark.parametrize("size", [6, 10])
    @pytest.mark.parametrize("norm", [0.5, 0.99, 1.01, 1.99, 2.01, 3.99,
                                      4.01, 7.99, 8.01, 16.0])
    def test_expm_matches_scipy_across_the_scaling_thresholds(self, norm,
                                                               size):
        # 1-norms from below to past eight times the unscaled bound, each
        # side of every squaring count's threshold.  (On 3x3 matrices
        # SciPy's own error reaches 1e-13 against a 40-digit reference,
        # where this port's stays below 2e-15.)
        rng = np.random.default_rng(size)
        a = rng.normal(size=(size, size))
        a *= norm * _THETA13 / np.abs(a).sum(axis=0).max()
        assert _rel(_expm(a), scipy_expm(a)) <= 1e-13

    @pytest.mark.parametrize("scale", [0.5, 3.0, 20.0])
    def test_expm_of_a_jordan_block(self, scale):
        # defective: no eigenvector basis to diagonalize in
        a = scale * (-0.7 * np.eye(6) + np.eye(6, k=1))
        assert _rel(_expm(a), scipy_expm(a)) <= 1e-13

    def test_expm_of_the_beam25_step_matrix(self):
        # h A at 96 steps a period: 1-norm 6.8e8, spectral radius 1.3e4.
        # The reference exponentiates LAPACK's balancing of it.  The
        # exponential's own condition, about u times the balanced norm
        # (2.6e4), is 3e-12: SciPy on the unbalanced matrix differs from
        # the reference by 3.2e-12 and this port by 3.5e-12, so 1e-13 is
        # out of reach for any double-precision method.
        fos = to_first_order(build_beam(BeamSpec(elements=25, **BEAM)))
        a = 2 * math.pi / 7.0 / SWEEP_STEPS_PER_PERIOD * fos.A
        b, (d, perm) = matrix_balance(a, separate=True)
        assert np.array_equal(perm, np.arange(a.shape[0]))
        want = d[:, None] * scipy_expm(b) / d
        assert _rel(_expm(a), want) <= 1e-11

    @pytest.mark.parametrize("h", [1e-4, 1e-2])
    def test_phi_blocks_match_their_taylor_series(self, h):
        A = to_first_order(two_mass_system()).A

        def phi(z, k):
            out, power = np.zeros_like(z), np.eye(z.shape[0])
            for j in range(25):
                out = out + power / math.factorial(j + k)
                power = power @ z
            return out

        want = [phi(h * A / 2, 0), phi(h * A / 2, 1)] + [
            phi(h * A, k) for k in range(4)]
        for got, ref in zip(_phi_blocks(A, h), want, strict=True):
            assert _rel(got, ref) <= 1e-14

    def test_etdrk4_is_fourth_order(self):
        # linear two-mass from its exact periodic response: after 50
        # periods the period-end state's error against the transfer
        # function falls 16-fold when the step halves
        lin = two_mass_system(kappa=0.0, alpha=0.0)
        fos = to_first_order(lin)
        eps, om = 0.001, 1.735
        x0 = np.linalg.solve(1j * om * np.eye(4) - fos.A, eps * fos.F).real
        errs = []
        for m in (16, 32):
            period = _etdrk4(fos, eps, om, m)
            traj = np.empty((m + 1, 4))
            traj[0] = x0
            for _ in range(50):
                period(traj)
                traj[0] = traj[m]
            errs.append(np.abs(traj[m] - x0).max() / np.abs(x0).max())
        assert 14 < errs[0] / errs[1] < 18

    @pytest.mark.parametrize("case,om", [
        ("two_mass", 1.5), ("two_mass", 1.6), ("two_mass", 1.8),
        ("two_mass", 2.0), ("beam2", 7.02)])
    def test_doubling_the_step_count_moves_resonant_amplitudes_below_5e_7(
            self, case, om):
        # README: doubling the step count over a fixed horizon moves
        # amplitudes by at most 5e-7 near resonance.  From rest over the
        # sweep's burn-off and 20 periods more, the last period's refined
        # maximum at 96 steps a period against 192.
        if case == "two_mass":
            fos, eps, c = to_first_order(two_mass_system()), 0.0027, 0
        else:
            beam = build_beam(BeamSpec(elements=2, **BEAM))
            fos, eps, c = to_first_order(beam), 0.002, tip_index(beam)
        T = 2 * math.pi / om
        n = math.ceil(5.0 / abs(fos.slowest_eigenvalue().real) / T) + 20
        peaks = []
        for m in (SWEEP_STEPS_PER_PERIOD, 2 * SWEEP_STEPS_PER_PERIOD):
            period = _etdrk4(fos, eps, om, m)
            traj = np.zeros((m + 1, fos.A.shape[0]))
            for _ in range(n):
                traj[0] = traj[m]
                period(traj)
            peaks.append(_period_peak(np.abs(traj[:, [c]]))[0])
        assert abs(peaks[0] - peaks[1]) <= 5e-7 * peaks[1]


class TestPeriodPeak:
    @staticmethod
    def _parabola(t, vertex):
        return 3.0 - 20.0 * (t - vertex) ** 2

    def test_exact_on_a_parabola_column_by_column(self):
        # one column per vertex, all refined in one call
        t = np.linspace(0.0, 1.0, 9)
        vertices = np.array([0.2, 0.23, 0.45, 0.7])
        peaks = _period_peak(self._parabola(t[:, None], vertices))
        assert peaks.shape == (4,)
        assert peaks == pytest.approx([3.0] * 4, rel=1e-14)

    def test_a_maximum_at_the_period_end_wraps(self):
        # a periodic parabola peaked just after the period boundary
        t = np.linspace(0.0, 1.0, 11)
        y = self._parabola(np.where(t < 0.5, t + 1.0, t), 1.004)[:, None]
        assert _period_peak(y) == pytest.approx([3.0], rel=1e-14)
        # largest at the last sample only, as in a period not yet settled
        y[0] -= 1e-3
        assert _period_peak(y) == pytest.approx([3.0], rel=1e-14)

    def test_the_lower_sampled_lobe_can_hold_the_peak(self):
        # two bumps: the taller one (3.0 at 0.275) is sampled off its top,
        # the other (2.995 at 0.75) on it
        t = np.linspace(0.0, 1.0, 21)
        y = np.maximum(np.maximum(self._parabola(t, 0.275),
                                  self._parabola(t, 0.75) - 0.005), 2.0)
        assert y.max() == pytest.approx(2.995, rel=1e-14)
        assert _period_peak(y[:, None]) == pytest.approx([3.0], rel=1e-14)

    def test_a_flat_signal_keeps_the_sampled_value(self):
        assert _period_peak(np.full((5, 2), 2.0)).tolist() == [2.0, 2.0]


def _reconstruct_state(ssm3, fr, point, eps):
    """Full physical state of the embedded orbit at forcing phase zero."""
    mm = ssm3.mm
    s = point.rho * np.exp(1j * point.psi)
    x = np.empty(mm.T.shape[0])
    for c in range(mm.T.shape[0]):
        row0 = np.einsum("l,lpq->pq", mm.T[c, :], ssm3.w0_dense)
        rowp, rowm = (np.einsum("l,lpq->pq", mm.T[c, :], w)
                      for w in fr.dense(fr.w))
        val = (dense_eval(row0, s, np.conj(s))
               + eps * (dense_eval(rowp, s, np.conj(s))
                        + dense_eval(rowm, s, np.conj(s))))
        assert abs(val.imag) < 1e-10
        x[c] = val.real
    return x


@pytest.fixture(scope="module")
def traced():
    mm = modal_decompose(to_first_order(two_mass_system()))
    ssm3 = compute_autonomous_ssm(mm, 3)
    curve = trace_frc(ssm3, mm, 0.0027, rho_max=0.13, n_rho=260)
    return mm, ssm3, curve


class TestOrbitVerification:
    """Integrating from manifold-reconstructed initial conditions."""

    def test_stable_point_orbit_persists(self, traced):
        mm, ssm3, curve = traced
        fos = to_first_order(two_mass_system())
        main = [curve.points[j] for j in curve.components[0]]
        p = min(main, key=lambda q: abs(q.rho - 0.04))
        assert p.stability == "stable"
        fr = compute_nonautonomous_ssm(ssm3, p.omega)
        x0 = _reconstruct_state(ssm3, fr, p, 0.0027)
        T = 2 * math.pi / p.omega
        traj = integrate_full(fos, 0.0027, p.omega, x0, 20)
        pred = physical_amplitude(ssm3, fr, p, 0, eps=0.0027)
        for i in range(20):
            in_period = (traj.t >= i * T) & (traj.t <= (i + 1) * T)
            m = np.max(np.abs(traj.x[in_period, 0]))
            assert m == pytest.approx(pred, rel=2e-2)

    def test_unstable_isola_point_orbit_departs(self, traced):
        mm, ssm3, curve = traced
        fos = to_first_order(two_mass_system())
        isola = [curve.points[j] for j in curve.components[1]]
        p = min(isola, key=lambda q: abs(q.rho - 0.09))
        assert p.stability == "unstable"
        fr = compute_nonautonomous_ssm(ssm3, p.omega)
        x0 = _reconstruct_state(ssm3, fr, p, 0.0027)
        T = 2 * math.pi / p.omega
        traj = integrate_full(fos, 0.0027, p.omega, x0, 80)
        first = np.max(np.abs(traj.x[traj.t <= T, 0]))
        last = np.max(np.abs(traj.x[traj.t >= 79 * T, 0]))
        assert abs(last - first) / first > 0.10


class TestLinearClosedForm:
    def test_resonance_peak(self):
        mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0,
                                                            alpha=0.0)))
        lam = mm.lambda_master
        eps = 0.001
        peak = linear_frc_closed_form(mm, eps, lam.imag)
        from ssm_resolve.ssm_forced import leading_forcing_coefficient
        c = abs(leading_forcing_coefficient(mm))
        assert peak == pytest.approx(eps * c / abs(lam.real), rel=1e-14)

    def test_vanishes_far_from_resonance(self):
        mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0,
                                                            alpha=0.0)))
        peak = linear_frc_closed_form(mm, 0.001, mm.lambda_master.imag)
        far = linear_frc_closed_form(mm, 0.001, 1e6)
        assert far < 1e-6 * peak

    def test_matches_traced_linear_response(self):
        mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0,
                                                            alpha=0.0)))
        ssm3 = compute_autonomous_ssm(mm, 3)
        eps = 0.001
        curve = trace_frc(ssm3, mm, eps, rho_max=0.05, n_rho=120)
        assert len(curve.points) > 50
        for p in curve.points[::7]:
            rho = linear_frc_closed_form(mm, eps, p.omega)
            assert p.rho == pytest.approx(rho, abs=1e-10)
