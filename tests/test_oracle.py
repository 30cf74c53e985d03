"""Direct-integration referee: stepper accuracy, sweeps, linear response.

The oracles here are closed forms that bypass the package entirely: the
particular solution of a linear 1-DOF oscillator, the 2x2 transfer function
of the linearized two-mass system, and the saddle-node frequencies read off
the reduced branch geometry.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import MIXED_TERMS, two_mass_system, with_terms
from ssm_resolve.beam import BeamSpec, build_beam, tip_index
from ssm_resolve.errors import IntegrationError, ValidationError
from ssm_resolve.frc import _k_roots, physical_amplitude, trace_frc
from ssm_resolve.model import (MechanicalSystem, modal_decompose,
                               to_first_order)
from ssm_resolve.oracle import (TRANSIENT_STEPS_PER_PERIOD,
                                IntegratorControl, _rhs, integrate_full,
                                linear_frc_closed_form, sweep)
from ssm_resolve.polyalg import dense_eval
from ssm_resolve.reduced import assemble_polar
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import compute_nonautonomous_ssm

# cantilever reference parameters (mm / kg / s), as in test_beam
BEAM = dict(length=2700.0, height=10.0, width=10.0, density=1780e-9,
            modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
            mass_damping=1.25e-4, stiffness_damping=2.5e-4, tip_force=0.1)

#: trajectories of golden_cases() recorded from the integrator before its
#: inner loop was rewritten: keys "<case>_<field>" for the Trajectory fields.
#: They are compared bit for bit, as recorded on x86-64 with NumPy 2.4 and
#: OpenBLAS; another BLAS or libm can round differently and break the match.
ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_golden.npz"


def golden_cases():
    """Case name -> integrate_full arguments (positional, keyword)."""
    cubic = to_first_order(two_mass_system())
    linear = to_first_order(two_mass_system(kappa=0.0, alpha=0.0))
    mixed = to_first_order(with_terms(MIXED_TERMS))
    beam2 = to_first_order(build_beam(BeamSpec(elements=2, **BEAM)))
    T1, T7 = 2 * math.pi / 1.73, 2 * math.pi / 7.0
    return {
        # no terms: the forcing is the only addition; a signed-zero start
        "linear": ((linear, 0.0027, 1.73, np.array([-0.0, 0.0, -0.0, 0.0]),
                    3 * T1), {}),
        # the terms alone, from a non-zero state
        "unforced": ((cubic, 0.0, 1.73, np.array([0.05, -0.02, 0.0, 0.1]),
                      3 * T1), {}),
        # even and mixed exponents, a square, terms on both equations
        "mixed": ((mixed, 0.0027, 1.73, np.array([0.02, -0.01, 0.0, 0.03]),
                   3 * T1), {}),
        # adaptive, a few periods from rest
        "cubic": ((cubic, 0.0027, 1.73, np.zeros(4), 4 * T1), {}),
        # the sweep's transient step ceiling: the stiff beam modes reject
        "beam2": ((beam2, 0.002, 7.0, np.zeros(8), 3 * T7), dict(
            control=IntegratorControl(
                max_step=T7 / TRANSIENT_STEPS_PER_PERIOD),
            sample_times=[3 * T7])),
        "fixed": ((cubic, 0.0027, 1.73, np.zeros(4), 2 * T1), dict(
            control=IntegratorControl(fixed_step=T1 / 300),
            sample_times=[0.4 * T1, T1, 2 * T1])),
    }


def _plain_field(fos, eps, omega, t, x):
    """The full field by its plain formula: ``A x``, then ``+ G(x)`` with
    NumPy-scalar monomials summed from 0.0, then ``+ (eps cos(omega t)) F``."""
    out = np.dot(fos.A, x)
    if fos.terms:
        g = 0.0
        for term in fos.terms:
            mono = term.coeff
            for v, e in enumerate(term.exponents):
                if e:
                    mono = mono * x[v] ** e
            g = g + term.inject * mono
        out = out + g
    if eps:
        out = out + (eps * math.cos(omega * t)) * fos.F
    return out


def _field_states(dim, rng):
    """Random states with exact signed zeros, the two zero states, and
    states whose monomials overflow or come close."""
    states = [np.zeros(dim), np.full(dim, -0.0)]
    for scale in (1e-3, 0.1, 3.0):
        for _ in range(20):
            x = rng.normal(size=dim) * scale
            x[rng.random(dim) < 0.3] = 0.0
            x[rng.random(dim) < 0.3] = -0.0
            states.append(x)
    for _ in range(40):
        x = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(90, 160, dim)
        states.append(x)
    return states


@pytest.mark.parametrize("system", ["cubic", "mixed", "linear", "beam2",
                                    "beam5"])
@pytest.mark.parametrize("eps", [0.0027, 0.0])
def test_field_equals_plain_formula_byte_for_byte(system, eps):
    fos = to_first_order({
        "cubic": two_mass_system,
        "mixed": lambda: with_terms(MIXED_TERMS),
        "linear": lambda: two_mass_system(kappa=0.0, alpha=0.0),
        "beam2": lambda: build_beam(BeamSpec(elements=2, **BEAM)),
        "beam5": lambda: build_beam(BeamSpec(elements=5, **BEAM)),
    }[system]())
    omega = 1.73
    f = _rhs(fos, eps, omega)
    live = fos.monomials.inject.any(axis=1) | ((fos.F != 0) & (eps != 0))
    rng = np.random.default_rng(7)
    out = np.empty(fos.A.shape[0])
    n_overflow = 0
    for x in _field_states(fos.A.shape[0], rng):
        t = float(rng.uniform(0, 10))
        with np.errstate(all="ignore"):
            want = _plain_field(fos, eps, omega, t, x)
            f(t, x, out)
        if np.isfinite(want).all():
            assert out.tobytes() == want.tobytes()
            continue
        n_overflow += 1
        # an overflowed monomial times a zero injection entry is NaN in
        # the array sum; only the rows the terms and forcing write keep it
        fin = np.isfinite(want)
        assert np.array_equal(np.isfinite(out)[live], fin[live])
        assert out[fin].tobytes() == want[fin].tobytes()
    assert n_overflow > 0 or not fos.terms


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
        T = 2 * math.pi / self.OM
        traj = integrate_full(to_first_order(_one_dof()), eps, self.OM,
                              x0, 100 * T)
        exact = (Q * np.exp(1j * self.OM * traj.t)).real
        err = np.max(np.abs(traj.x[:, 0] - exact)) / np.max(np.abs(exact))
        assert err < 1e-7

    def test_fixed_step_halving_is_fourth_order(self):
        eps = 0.01
        Q = _steady_state(eps, self.OM)
        x0 = np.array([Q.real, (1j * self.OM * Q).real])
        T = 2 * math.pi / self.OM
        fos = to_first_order(_one_dof())
        errs = []
        for h in (T / 400, T / 800):
            tr = integrate_full(fos, eps, self.OM, x0, 10 * T,
                                control=IntegratorControl(fixed_step=h))
            errs.append(abs(tr.x[-1, 0]
                            - (Q * np.exp(1j * self.OM * tr.t[-1])).real))
        assert 12 < errs[0] / errs[1] < 22

    def test_unforced_from_rest_stays_zero(self):
        tr = integrate_full(to_first_order(_one_dof()), 0.0, self.OM,
                            np.zeros(2), 20.0)
        assert np.max(np.abs(tr.x)) == 0.0

    def test_damped_envelope_decays(self):
        T = 2 * math.pi / self.OM
        tr = integrate_full(to_first_order(_one_dof()), 0.0, self.OM,
                            np.array([1.0, 0.0]), 30 * T)
        pm = [np.max(np.linalg.norm(
                  tr.x[(tr.t >= i * T) & (tr.t <= (i + 1) * T)], axis=1))
              for i in range(30)]
        assert all(pm[i + 1] < pm[i] for i in range(2, 29))

    def test_lands_exactly_on_sample_times(self):
        T = 2 * math.pi / self.OM
        samples = [0.4 * T, T, 2.5 * T, 3 * T]
        tr = integrate_full(to_first_order(_one_dof()), 0.01, self.OM,
                            np.zeros(2), 3 * T, sample_times=samples)
        assert np.isin(samples, tr.t).all()

    def test_step_underflow_reports_stiffness(self):
        with pytest.raises(IntegrationError, match="underflow"):
            integrate_full(to_first_order(_one_dof()), 0.01, self.OM,
                           np.zeros(2), 10.0,
                           control=IntegratorControl(rel_tol=1e-14,
                                                     abs_tol=1e-16,
                                                     min_step=0.01))

    def test_finite_time_blowup_reported(self):
        # beyond the unforced unstable cycle the cubic damper pumps energy
        # and velocity blows up in finite time
        fos = to_first_order(two_mass_system())
        with pytest.raises(IntegrationError):
            integrate_full(fos, 0.0, self.OM,
                           np.array([0.0, 0.0, 1.5, 0.0]), 50.0)

    def test_overflow_inside_a_step_reports_divergence(self):
        # the cubic terms overflow in the first stage, so every error
        # estimate is NaN; the step must shrink to the floor, not grow
        fos = to_first_order(two_mass_system())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="diverged"):
                integrate_full(fos, 0.0, self.OM,
                               np.array([0.0, 0.0, 1e60, 0.0]), 5.0)

    def test_rejects_malformed_arguments(self):
        fos = to_first_order(_one_dof())
        with pytest.raises(ValidationError):
            integrate_full(fos, 0.01, 0.0, np.zeros(2), 1.0)
        with pytest.raises(ValidationError):
            integrate_full(fos, -0.01, self.OM, np.zeros(2), 1.0)
        with pytest.raises(ValidationError):
            integrate_full(fos, 0.01, self.OM, np.zeros(3), 1.0)
        with pytest.raises(ValidationError):
            integrate_full(fos, 0.01, self.OM, np.zeros(2), 1.0,
                           sample_times=[0.5, 0.2])
        with pytest.raises(ValidationError):
            integrate_full(fos, 0.01, self.OM, np.zeros(2), 1.0,
                           control=IntegratorControl(rel_tol=-1.0))

    @pytest.mark.parametrize(
        "case", ["cubic", "beam2", "fixed", "linear", "unforced", "mixed"])
    def test_trajectory_matches_golden_bit_for_bit(self, case):
        args, kwargs = golden_cases()[case]
        tr = integrate_full(*args, **kwargs)
        with np.load(ORACLE_GOLDEN) as npz:
            for name in ("t", "x", "n_rejected"):
                want = npz[f"{case}_{name}"]
                got = np.asarray(getattr(tr, name))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
        assert np.isin(kwargs.get("sample_times", []), tr.t).all()
        if case == "beam2":
            assert tr.n_rejected > 0


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
        # the stiff beam point of the benchmark: fixed work, with the
        # transient ceiling's rejections
        beam = build_beam(BeamSpec(elements=2, **BEAM))
        sr = sweep(to_first_order(beam), 0.002, [7.0], [tip_index(beam)],
                   warm_start=False, transient_time=60.0,
                   min_measure_periods=40, max_measure_periods=40)
        assert sr.steps_accepted.tolist() == [21134]
        assert sr.steps_rejected.tolist() == [4164]

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
            d = float(_k_roots(rd, rho, eps)[2])
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
        with pytest.raises(ValidationError, match="max_measure_periods"):
            sweep(fos, 0.01, [1.5], monitor=[0], min_measure_periods=20,
                  max_measure_periods=5)
        for bad in (-1.0, 0.0, math.nan):
            with pytest.raises(ValidationError, match="transient_time"):
                sweep(fos, 0.01, [1.5], monitor=[0], transient_time=bad)


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
        traj = integrate_full(fos, 0.0027, p.omega, x0, 20 * T)
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
        traj = integrate_full(fos, 0.0027, p.omega, x0, 80 * T)
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
