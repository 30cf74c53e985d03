"""Forced response curve extraction: branches, tracing, folds, amplitudes."""

import importlib.util
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar

from conftest import BEAM, two_mass_system
from ssm_resolve.beam import BeamSpec, build_beam, tip_index
from ssm_resolve import cli, frc
from ssm_resolve.errors import ValidationError
from ssm_resolve.isola import fold_points, leading_isola
from ssm_resolve.model import (MechanicalSystem, PolyTerm, modal_decompose,
                               to_first_order)
from ssm_resolve.oracle import integrate_full, sweep
from ssm_resolve.polyalg import dense_eval
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import compute_nonautonomous_ssm
from ssm_resolve.sysio import write_system
from ssm_resolve.reduced import (ReducedDynamics, FixedPointU, assemble_polar,
                                 phase_residual, zero_problem)
from ssm_resolve.frc import (BRANCHES, DOUBLE_ROOT, trace_frc,
                             physical_amplitude, physical_amplitudes,
                             _psi_roots)


def _double_roots(ssm, eps: float, rho):
    """Double-root Omega at each amplitude ``rho[i]`` (None where its secant
    diverged) and the discriminant there: one double-root secant per
    amplitude from its backbone Omega, all driven through ``frc._rounds``
    together, as a fold bracket drives them."""
    secants = {i: frc._secant(r, frc.DOUBLE_ROOT, frc._backbone_omega(ssm, r))
               for i, r in enumerate(np.asarray(rho).tolist())}
    omega, disc = [None] * len(secants), np.empty(len(secants))
    for *_, finished in frc._rounds(ssm, eps, secants):
        for i, (om, got) in finished:
            omega[i], disc[i] = om, got[1]
    return omega, disc


def _synthetic_rd(a, f1, f2):
    return ReducedDynamics(omega=1.0, a_coeffs=np.array([a]),
                           b_coeffs=np.array([1.0]),
                           f1=np.array([f1]), f2=np.array([f2]),
                           g1=np.array([0.0]), g2=np.array([0.0]))


#: request roots K+, K- and the double root, in turn
ROOTS = np.array([0, 1, DOUBLE_ROOT])


class TestPsiRoots:
    """The phases of the radial equation per root (``_psi_roots``); K+ and
    K- are the tangent half-angle roots K = tan(psi/2) of the same
    phases."""

    def test_pure_in_phase_forcing_gives_quarter_phases(self):
        # a = 0 and f2 = 0: cos(psi) = 0, so psi = pi/2 and 3*pi/2, the
        # roots K+ = -1 and K- = 1
        rd = _synthetic_rd(a=0.0, f1=1.0, f2=0.0)
        psi, _ = _psi_roots(rd, 0.5, 0.1, ROOTS[:2])
        assert np.tan(psi / 2) == pytest.approx([-1.0, 1.0], abs=1e-15)
        assert sorted(psi % (2 * math.pi)) == pytest.approx(
            [math.pi / 2, 3 * math.pi / 2])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_vanishing_discriminant_gives_double_root(self, sign):
        # f1 = 0 and a(rho) = eps*f2: disc = 0, and K+, K- and the double
        # root are all K = -eps*f2/a = -1, psi = 3*pi/2 (psi = phi + pi
        # where a > 0, phi where a < 0)
        rd = _synthetic_rd(a=0.2 * sign, f1=0.0, f2=sign)
        psi, disc = _psi_roots(rd, 0.5, 0.1, ROOTS)  # a(0.5) = eps*f2
        assert abs(disc) < 1e-15
        assert psi % (2 * math.pi) == pytest.approx([1.5 * math.pi] * 3,
                                                    abs=1e-12)
        assert np.tan(psi / 2) == pytest.approx([-1.0] * 3, abs=1e-12)

    def test_no_forcing_with_nonzero_drift_gives_no_roots(self):
        rd = _synthetic_rd(a=0.2, f1=0.0, f2=1.0)
        assert np.isnan(_psi_roots(rd, 0.5, 0.0, ROOTS[:2])[0]).all()

    def test_degenerate_leading_coefficient(self):
        # a(rho) = eps*f1 exactly, where the K quadratic loses its leading
        # term: K- -> inf is psi = pi, and K+ = -0.2 stays finite
        rd = _synthetic_rd(a=0.2, f1=0.2, f2=1.0)
        (psi_plus, psi_minus), _ = _psi_roots(rd, 0.5, 0.5, ROOTS[:2])
        assert psi_minus == pytest.approx(math.pi)
        assert math.tan(psi_plus / 2) == pytest.approx(-0.2, abs=1e-12)

    def test_negative_discriminant_empty(self):
        # no branch, but the double root stays defined past a fold
        rd = _synthetic_rd(a=1.0, f1=0.01, f2=0.01)
        psi, disc = _psi_roots(rd, 1.0, 0.1, ROOTS)
        assert disc < 0
        assert np.isnan(psi[:2]).all() and np.isfinite(psi[2])

    @pytest.mark.parametrize("a, f1, f2", [
        (0.3, 0.7, -1.1), (0.2, 0.2, 1.0), (-0.05, 0.6, 0.35),
        (0.2, 0.0, 1.0), (0.51, -0.03, 0.42)])
    def test_scale_free(self, a, f1, f2):
        """Scaling a, f1 and f2 by 2**k scales the discriminant by 4**k
        and leaves every psi bit for bit: no decision depends on their
        size."""
        psi, disc = _psi_roots(_synthetic_rd(a, f1, f2), 0.5, 0.5, ROOTS)
        for k in range(-60, 61):
            scaled = _synthetic_rd(a * 2.0 ** k, f1 * 2.0 ** k, f2 * 2.0 ** k)
            got, got_disc = _psi_roots(scaled, 0.5, 0.5, ROOTS)
            assert got.tobytes() == psi.tobytes(), k
            assert got_disc == disc * 4.0 ** k, k

    # coefficients whose squares stay normal floats: below that, disc
    # underflows and so no longer tells the branches apart
    _coefficient = st.floats(-1, 1).filter(lambda x: x == 0
                                           or abs(x) > 1e-100)

    @settings(max_examples=300, deadline=None)
    @given(_coefficient, _coefficient, _coefficient, st.floats(1e-4, 1))
    def test_radial_residual_vanishes_to_rounding(self, a, f1, f2, eps):
        rd = _synthetic_rd(a, f1, f2)
        psi, disc = _psi_roots(rd, 0.5, eps, ROOTS[:2])
        assume(disc >= 0)
        radial, _ = zero_problem(rd, (0.5, 1.0, psi), eps=eps)
        scale = abs(rd.a_of(0.5)) + eps * math.hypot(f1, f2)
        assert np.abs(radial).max() <= 8 * 2.0 ** -52 * scale


class TestFrcG:
    """G(Omega), the phase residual at a branch root: the scalar the trace
    solves."""

    @staticmethod
    def _g(rd, rho, omega, eps, branch):
        psi, _ = _psi_roots(rd, rho, eps, BRANCHES.index(branch))
        return float(phase_residual(rd, rho, omega, eps, psi))

    def test_missing_branch_gives_nan(self):
        # the trace reads NaN as "no branch here"
        rd = _synthetic_rd(a=1.0, f1=0.01, f2=0.01)
        assert math.isnan(self._g(rd, 1.0, 1.0, 0.1, "K+"))

    def test_zero_at_constructed_solution(self):
        # with only g terms zero, G = (b - omega) * rho at any branch psi
        rd = _synthetic_rd(a=0.0, f1=1.0, f2=0.0)
        assert self._g(rd, 0.5, 1.0, 0.1, "K+") == pytest.approx(0.0,
                                                                 abs=1e-15)
        assert self._g(rd, 0.5, 1.2, 0.1, "K-") == pytest.approx(-0.1,
                                                                 abs=1e-15)


@pytest.fixture(scope="session")
def linear_modal():
    sys = two_mass_system(kappa=0.0, alpha=0.0)
    mm = modal_decompose(to_first_order(sys))
    return mm, compute_autonomous_ssm(mm, 3)


@pytest.fixture(scope="session")
def sp_ssm3(sp_modal):
    return compute_autonomous_ssm(sp_modal, 3)


@pytest.fixture(scope="session")
def sp_trace_isola(sp_modal, sp_ssm3):
    return trace_frc(sp_ssm3, sp_modal, 0.0027, rho_max=0.13, n_rho=260)


@pytest.fixture(scope="session")
def sp_trace_merged(sp_modal, sp_ssm3):
    return trace_frc(sp_ssm3, sp_modal, 0.0029, rho_max=0.13, n_rho=260)


#: the traced curves of GOLDEN_CURVES recorded before the trace solved its
#: rows in lockstep; see tests/data/README.md for how to re-record them
FRC_GOLDEN = Path(__file__).parent / "data" / "frc_golden.npz"

#: name -> (system builder, normalization, order, trace_frc arguments): the
#: four frc curves of the benchmark's reduced-path workload at seed 0
GOLDEN_CURVES = {
    "cubic": (two_mass_system, "first-position", 3,
              dict(eps=0.0027, rho_max=0.13, n_rho=260)),
    "quintic": (lambda: two_mass_system(quintic=1.2), "first-position", 5,
                dict(eps=0.001, rho_max=0.26, n_rho=400,
                     omega_window=(1.58, 1.82))),
    "beam25": (lambda: build_beam(BeamSpec(elements=25, **BEAM)), "largest",
               3, dict(eps=0.002, rho_max=0.5, n_rho=300)),
    "linear": (lambda: two_mass_system(kappa=0.0, alpha=0.0),
               "first-position", 3, dict(eps=0.001, rho_max=0.0145,
                                         n_rho=220)),
}


@lru_cache(maxsize=None)
def golden_trace(name):
    """The traced golden curve ``name``, traced once per session."""
    build, normalization, order, kwargs = GOLDEN_CURVES[name]
    mm = modal_decompose(to_first_order(build()),
                         normalization=normalization)
    ssm = compute_autonomous_ssm(mm, order)
    return trace_frc(ssm, mm, **kwargs)


class TestLinearTrace:
    def test_matches_closed_form_response(self, linear_modal):
        mm, ssm = linear_modal
        eps = 0.002
        fc = trace_frc(ssm, mm, eps, rho_max=0.05, n_rho=80)
        lam = mm.lambda_master
        c00 = complex(mm.F_m[0]) / 2
        assert len(fc.points) >= 90
        for p in fc.points:
            closed = eps * abs(c00) / math.hypot(lam.real, lam.imag - p.omega)
            assert abs(closed - p.rho) < 1e-10
            assert p.stability == "stable"
        assert len(fc.components) == 1

    def test_single_fold_at_resonance_peak(self, linear_modal):
        mm, ssm = linear_modal
        eps = 0.002
        fc = trace_frc(ssm, mm, eps, rho_max=0.05, n_rho=80)
        lam = mm.lambda_master
        peak = eps * abs(complex(mm.F_m[0]) / 2) / abs(lam.real)
        assert len(fc.folds) == 1
        assert fc.folds[0] == pytest.approx(peak, rel=1e-8)


class TestTwoMassTrace:
    def test_isola_regime_has_two_components(self, sp_trace_isola):
        assert len(sp_trace_isola.components) == 2

    def test_isola_is_entirely_unstable(self, sp_trace_isola):
        fc = sp_trace_isola
        for i in fc.components[1]:
            assert fc.points[i].stability == "unstable"
        assert all(fc.points[i].stability == "stable"
                   for i in fc.components[0])

    def test_merged_regime_has_one_component(self, sp_trace_merged):
        assert len(sp_trace_merged.components) == 1

    def test_fold_counts_and_ordering(self, sp_trace_isola, sp_trace_merged):
        f = sp_trace_isola.folds
        assert len(f) == 3
        assert f[0] < f[1] < f[2]
        # main-branch peak below isola bottom, below isola top
        assert len(sp_trace_merged.folds) == 1

    @pytest.mark.parametrize("name", list(GOLDEN_CURVES))
    def test_components_are_disjoint_and_exhaustive(self, name):
        """Every point lies in exactly one component, and a component is
        closed at its folds: no fold lies strictly inside its rho span."""
        fc = golden_trace(name)
        seen = sorted(i for mem in fc.components for i in mem)
        assert seen == list(range(len(fc.points)))
        for mem in fc.components:
            rhos = [fc.points[i].rho for i in mem]
            assert not [f for f in fc.folds if min(rhos) < f < max(rhos)]

    def test_component_zero_reaches_smallest_rho(self, sp_trace_isola):
        fc = sp_trace_isola
        mins = [min(fc.points[i].rho for i in mem) for mem in fc.components]
        assert mins[0] == min(mins)

    def test_every_point_satisfies_zero_problem(self, sp_ssm3,
                                                sp_trace_isola):
        fc = sp_trace_isola
        for p in fc.points[::5]:
            rd = assemble_polar(
                sp_ssm3, compute_nonautonomous_ssm(sp_ssm3, p.omega))
            f1v, f2v = zero_problem(rd, (p.rho, p.omega, p.psi), eps=fc.eps)
            assert max(abs(float(f1v)), abs(float(f2v))) <= 1e-10

    def test_fold_discriminant_vanishes_to_relative_tolerance(
            self, sp_ssm3, sp_trace_isola):
        fc = sp_trace_isola
        omega, disc = _double_roots(sp_ssm3, fc.eps, fc.folds)
        for rho_f, om, d in zip(fc.folds, omega, disc):
            assert om is not None
            rd = assemble_polar(sp_ssm3,
                                compute_nonautonomous_ssm(sp_ssm3, om))
            scale = fc.eps ** 2 * (rd.f1_of(rho_f) ** 2 + rd.f2_of(rho_f) ** 2)
            assert abs(d) <= 1e-12 * scale

    def test_branches_join_only_near_folds(self, sp_trace_isola):
        # on the isola the K+ and K- arcs coexist over the same rho range
        fc = sp_trace_isola
        isola = [fc.points[i] for i in fc.components[1]]
        plus = sorted(p.rho for p in isola if p.branch == "K+")
        minus = sorted(p.rho for p in isola if p.branch == "K-")
        assert plus and minus
        assert plus[0] == pytest.approx(minus[0])
        assert plus[-1] == pytest.approx(minus[-1])
        assert fc.folds[1] < plus[0] < fc.folds[1] + 2 * 0.13 / 260
        assert fc.folds[2] - 2 * 0.13 / 260 < plus[-1] < fc.folds[2]

    def test_omega_window_filters_points(self, sp_modal, sp_ssm3):
        lam = sp_modal.lambda_master
        window = (lam.imag - 0.02, lam.imag + 0.02)
        fc = trace_frc(sp_ssm3, sp_modal, 0.0027, rho_max=0.06, n_rho=60,
                       omega_window=window)
        assert fc.points
        for p in fc.points:
            assert window[0] <= p.omega <= window[1]
        assert any(reason == "omega outside window"
                   for (_, _, reason) in fc.skipped)

    @pytest.mark.parametrize("eps, count, unwindowed", [
        (0.0029, 1, "sp_trace_merged"), (0.0027, 2, "sp_trace_isola")])
    def test_omega_window_never_splits_a_component(self, sp_modal, sp_ssm3,
                                                   eps, count, unwindowed,
                                                   request):
        """The narrow window cuts components into arcs that do not meet
        inside it; each component's arcs stay one component, the
        unwindowed one with the outside points dropped."""
        fc = trace_frc(sp_ssm3, sp_modal, eps, rho_max=0.13, n_rho=260,
                       omega_window=(1.73, 1.735))
        assert len(fc.components) == count
        full = request.getfixturevalue(unwindowed)
        index = {(p.rho, p.branch): i for i, p in enumerate(full.points)}
        owner = [full.component_of(index[p.rho, p.branch])
                 for p in fc.points]
        assert [sorted({owner[i] for i in mem}) for mem in fc.components] \
            == [[c] for c in sorted(set(owner))]

    @pytest.mark.xfail(strict=True, reason=(
        "the isola at eps 3e-5 is about 4.3e-4 wide in rho and the rows are "
        "5e-4 apart: no row falls inside it, so the trace reports 1 "
        "component and 2 folds; rows added inside the leading-order "
        "intervals would find it"))
    def test_isola_narrower_than_the_grid_step_is_found(self, sp_modal,
                                                        sp_ssm3):
        fc = trace_frc(sp_ssm3, sp_modal, 3e-5, rho_max=0.13, n_rho=260)
        assert len(fc.components) == 2

    def test_invalid_arguments_rejected(self, sp_modal, sp_ssm3):
        with pytest.raises(ValidationError):
            trace_frc(sp_ssm3, sp_modal, 0.0, rho_max=0.1, n_rho=50)
        with pytest.raises(ValidationError):
            trace_frc(sp_ssm3, sp_modal, 0.001, rho_max=-1.0, n_rho=50)
        with pytest.raises(ValidationError):
            trace_frc(sp_ssm3, sp_modal, 0.001, rho_max=0.1, n_rho=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda mm, ssm, x: trace_frc(ssm, mm, x, rho_max=0.1, n_rho=50),
    lambda mm, ssm, x: trace_frc(ssm, mm, 0.001, rho_max=x, n_rho=50),
    lambda mm, ssm, x: fold_points(ssm, x),
    lambda mm, ssm, x: leading_isola(ssm, x),
    lambda mm, ssm, x: integrate_full(mm.fos, x, 1.7, np.zeros(4), 1),
    lambda mm, ssm, x: integrate_full(mm.fos, 0.001, x, np.zeros(4), 1),
    lambda mm, ssm, x: sweep(mm.fos, x, [1.7], [0]),
    lambda mm, ssm, x: sweep(mm.fos, 0.001, [x], [0]),
    lambda mm, ssm, x: sweep(mm.fos, 0.001, [1.7, x], [0]),
    lambda mm, ssm, x: sweep(mm.fos, 0.001, [1.7], [0], transient_time=x),
    lambda mm, ssm, x: sweep(mm.fos, 0.001, [1.7], [0], settle_rel=x),
], ids=["trace_frc-eps", "trace_frc-rho_max", "fold_points", "leading_isola",
        "integrate_full", "integrate_full-omega", "sweep",
        "sweep-omega", "sweep-omega_grid", "sweep-transient_time",
        "sweep-settle_rel"])
def test_non_finite_input_is_refused(call, bad, sp_modal, sp_ssm3):
    """A NaN or infinite forcing amplitude, frequency, trace range or
    sweep setting is a usage error, not an empty curve, a NumPy or
    arithmetic error, or a sweep that silently never settles."""
    with pytest.raises(ValidationError, match="finite"):
        call(sp_modal, sp_ssm3, bad)


class TestPhysicalAmplitude:
    def test_linear_single_harmonic_peak(self, linear_modal):
        mm, ssm = linear_modal
        eps = 0.002
        fc = trace_frc(ssm, mm, eps, rho_max=0.04, n_rho=40)
        p = fc.points[len(fc.points) // 2]
        fr = compute_nonautonomous_ssm(ssm, p.omega)
        # the e^{+} harmonic's constant monomial, flat column 0
        a0 = mm.T @ fr.w[0, :, 0]
        for coord in range(4):
            amp = physical_amplitude(ssm, fr, p, coord, eps)
            peak = 2 * abs(p.rho * np.exp(1j * p.psi) * mm.T[coord, 0]
                           + eps * a0[coord])
            assert amp == pytest.approx(peak, abs=1e-10)

    def test_linear_unforced_reconstruction_is_circular_orbit(
            self, linear_modal):
        mm, ssm = linear_modal
        fr = compute_nonautonomous_ssm(ssm, mm.lambda_master.imag)
        u = FixedPointU(rho=0.01, omega=mm.lambda_master.imag, psi=0.3)
        amp = physical_amplitude(ssm, fr, u, 0, eps=0.0)
        assert amp == pytest.approx(2 * 0.01 * abs(mm.T[0, 0]), abs=1e-10)

    def test_zero_amplitude_point_reduces_to_forced_sloshing(
            self, linear_modal):
        mm, ssm = linear_modal
        eps = 0.003
        fr = compute_nonautonomous_ssm(ssm, mm.lambda_master.imag)
        u = FixedPointU(rho=0.0, omega=mm.lambda_master.imag, psi=0.0)
        a0 = mm.T @ fr.w[0, :, 0]
        amp = physical_amplitude(ssm, fr, u, 0, eps)
        assert amp == pytest.approx(2 * eps * abs(a0[0]), abs=1e-12)

    def test_kept_reductions_match_fresh_solves(self, sp_ssm3,
                                                 sp_trace_isola):
        # every point's row of the stacked forced rows is the fresh
        # one-Omega solve at its Omega, bit for bit
        fc = sp_trace_isola
        assert fc.forced.omega.shape == (len(fc.points),)
        for i, p in enumerate(fc.points):
            fr = fc.forced.take(i)
            assert fr.omega == p.omega
            fresh = compute_nonautonomous_ssm(sp_ssm3, p.omega)
            assert fr.min_enslaved_den == fresh.min_enslaved_den
            for name in ("w", "r", "c_res", "d_pm"):
                assert (getattr(fr, name).tobytes()
                        == getattr(fresh, name).tobytes()), (i, name)
            assert (physical_amplitude(sp_ssm3, fr, p, 0, fc.eps)
                    == physical_amplitude(sp_ssm3, fresh, p, 0, fc.eps))

    def test_nonlinear_peak_dominated_by_leading_term(self, sp_modal,
                                                      sp_ssm3,
                                                      sp_trace_isola):
        fc = sp_trace_isola
        p = max((fc.points[i] for i in fc.components[0]),
                key=lambda q: q.rho)
        fr = compute_nonautonomous_ssm(sp_ssm3, p.omega)
        amp = physical_amplitude(sp_ssm3, fr, p, 0, fc.eps)
        lead = 2 * p.rho * abs(sp_modal.T[0, 0])
        assert amp == pytest.approx(lead, rel=0.05)
        assert amp != pytest.approx(lead, rel=1e-12)


def _reference_peak(ssm, fr, u, coord, eps):
    """Peak |x_coord| by direct evaluation: a 4096-point phase grid of the
    dense embeddings, polished by a bounded scalar search."""
    t = ssm.mm.T[coord]
    row0, rowp, rowm = (np.einsum("l,lpq->pq", t, w)
                        for w in (ssm.w0_dense, *fr.dense(fr.w)))

    def value(phi):
        phi = np.asarray(phi)
        s1 = u.rho * np.exp(1j * (u.psi + phi))
        s2 = np.conj(s1)
        x = dense_eval(row0, s1, s2) + eps * (
            np.exp(1j * phi) * dense_eval(rowp, s1, s2)
            + np.exp(-1j * phi) * dense_eval(rowm, s1, s2))
        return np.abs(np.real(x))

    n = 4096
    phis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    vals = value(phis)
    k = int(np.argmax(vals))
    res = minimize_scalar(lambda p: -float(value(p)),
                          bounds=(phis[k] - 2 * np.pi / n,
                                  phis[k] + 2 * np.pi / n),
                          method="bounded",
                          options={"xatol": 1e-12, "maxiter": 200})
    return max(float(vals[k]), -res.fun)


@pytest.fixture(scope="module")
def quintic_trace():
    mm = modal_decompose(to_first_order(two_mass_system(quintic=1.2)))
    ssm = compute_autonomous_ssm(mm, 5)
    return ssm, trace_frc(ssm, mm, 0.001, rho_max=0.26, n_rho=200,
                          omega_window=(1.58, 1.82)), 0


@pytest.fixture(scope="module")
def beam25_trace():
    sys_ = build_beam(BeamSpec(elements=25, **BEAM))
    mm = modal_decompose(to_first_order(sys_), normalization="largest")
    ssm = compute_autonomous_ssm(mm, 3)
    return (ssm, trace_frc(ssm, mm, 0.002, rho_max=0.5, n_rho=60),
            tip_index(sys_))


class TestPhysicalAmplitudes:
    @pytest.mark.parametrize("case", ["isola", "quintic", "beam25"])
    def test_matches_direct_evaluation(self, case, request):
        if case == "isola":
            ssm, curve, coord = (request.getfixturevalue("sp_ssm3"),
                                 request.getfixturevalue("sp_trace_isola"), 0)
        else:
            ssm, curve, coord = request.getfixturevalue(f"{case}_trace")
        assert len(curve.points) > 20
        amps = physical_amplitudes(ssm, curve, coord)
        ref = np.array([_reference_peak(ssm, curve.forced.take(i), p, coord,
                                        curve.eps)
                        for i, p in enumerate(curve.points)])
        assert amps.shape == ref.shape
        assert np.all(np.abs(amps - ref) <= 1e-13 * ref)

    def test_each_entry_is_the_one_point_amplitude(self, sp_ssm3,
                                                    sp_trace_isola):
        fc = sp_trace_isola
        amps = physical_amplitudes(sp_ssm3, fc, 1)
        one = np.array([physical_amplitude(sp_ssm3, fc.forced.take(i), p, 1,
                                           fc.eps)
                        for i, p in enumerate(fc.points)])
        assert np.all(np.abs(amps - one) <= 1e-14 * one)

    def test_fresh_one_point_call_matches_curve_amplitudes(self, sp_ssm3,
                                                            sp_trace_isola):
        """The benchmark's per-point call (a fresh solve at the point's
        Omega, eps passed explicitly) gives each curve amplitude."""
        fc = sp_trace_isola
        amps = physical_amplitudes(sp_ssm3, fc, 0)
        one = np.array([physical_amplitude(
            sp_ssm3, compute_nonautonomous_ssm(sp_ssm3, p.omega), p, 0,
            eps=fc.eps) for p in fc.points])
        assert len(one) > 20
        assert np.all(np.abs(amps - one) <= 1e-14 * one)

    def test_empty_curve_gives_empty_array(self, sp_modal, sp_ssm3):
        fc = trace_frc(sp_ssm3, sp_modal, 0.0027, rho_max=0.13, n_rho=20,
                       omega_window=(10.0, 11.0))
        assert fc.points == []
        amps = physical_amplitudes(sp_ssm3, fc, 0)
        assert amps.shape == (0,)


def curve_record(curve) -> dict:
    """A traced curve as flat arrays: accepted points in order, components
    (members concatenated, with their sizes), fold rho and skip list."""
    pts = curve.points
    return {
        "rho": np.array([p.rho for p in pts], dtype=float),
        "omega": np.array([p.omega for p in pts], dtype=float),
        "psi": np.array([p.psi for p in pts], dtype=float),
        "branch": np.array([p.branch for p in pts], dtype=str),
        "stability": np.array([p.stability for p in pts], dtype=str),
        "members": np.array([i for c in curve.components for i in c],
                            dtype=int),
        "sizes": np.array([len(c) for c in curve.components], dtype=int),
        "folds": np.asarray(curve.folds, dtype=float),
        "skip_rho": np.array([s[0] for s in curve.skipped], dtype=float),
        "skip_branch": np.array([s[1] for s in curve.skipped], dtype=str),
        "skip_reason": np.array([s[2] for s in curve.skipped], dtype=str),
    }


def record_frc_golden(path=FRC_GOLDEN):
    """Write the golden file from the current code (keys "<case>_<field>")."""
    np.savez_compressed(path, **{f"{name}_{key}": value
                                 for name in GOLDEN_CURVES
                                 for key, value in curve_record(
                                     golden_trace(name)).items()})


def test_trace_does_not_depend_on_round_size(sp_modal, sp_ssm3,
                                             monkeypatch):
    """One pair per round (a one-byte budget) traces the same curve, bit
    for bit, as the default rounds: each pair's iteration and each Omega's
    forced solve are independent of the rest of the batch."""
    want = trace_frc(sp_ssm3, sp_modal, 0.0027, rho_max=0.13, n_rho=40)
    monkeypatch.setattr(frc, "ROUND_BYTES", 1)
    got = trace_frc(sp_ssm3, sp_modal, 0.0027, rho_max=0.13, n_rho=40)
    assert len(want.points) > 20 and len(want.folds) == 3
    for key, value in curve_record(got).items():
        assert value.tobytes() == curve_record(want)[key].tobytes(), key
    for name in ("omega", "w", "r", "c_res", "d_pm", "min_enslaved_den"):
        assert (getattr(got.forced, name).tobytes()
                == getattr(want.forced, name).tobytes()), name


# ---------------------------------------------------------------------------
# skip reasons: each one the trace gives, and the benchmark's table of them

#: the small isola trace the skip tests share
SKIP_TRACE = dict(eps=0.0027, rho_max=0.13, n_rho=40)


@pytest.fixture(scope="module")
def sp_trace_small(sp_modal, sp_ssm3):
    return trace_frc(sp_ssm3, sp_modal, **SKIP_TRACE)


def _in_grid_order(skips):
    return sorted(skips, key=lambda s: (s[0], BRANCHES.index(s[1])))


def test_diverged_pairs_are_the_backbone_admissible_ones(sp_modal, sp_ssm3,
                                                         monkeypatch):
    """With no residual small enough, every secant diverges, and exactly
    the pairs whose discriminant at the backbone Omega is >= 0 are skipped
    as diverged, in grid order, K+ before K-."""
    monkeypatch.setattr(frc, "G_TOL", -1.0)
    fc = trace_frc(sp_ssm3, sp_modal, **SKIP_TRACE)
    eps = SKIP_TRACE["eps"]
    want = []
    for r in np.linspace(0.0, 0.13, 41)[1:].tolist():
        rd = assemble_polar(sp_ssm3, compute_nonautonomous_ssm(
            sp_ssm3, frc._backbone_omega(sp_ssm3, r)))
        if _psi_roots(rd, r, eps, 0)[1] >= 0:
            want += [(r, b, "omega iteration diverged") for b in BRANCHES]
    assert 0 < len(want) < 2 * 40
    assert fc.skipped == want
    assert fc.points == [] and fc.components == []


def test_failed_point_checks_skip_every_converged_pair(sp_modal, sp_ssm3,
                                                       sp_trace_small,
                                                       monkeypatch):
    """With no zero-problem residual small enough, every pair that
    converged is skipped for its residual, the other skips stay, and the
    curve has no points and no components."""
    monkeypatch.setattr(frc, "POINT_TOL", -1.0)
    fc = trace_frc(sp_ssm3, sp_modal, **SKIP_TRACE)
    want = _in_grid_order(
        [(u.rho, u.branch, "zero-problem residual too large")
         for u in sp_trace_small.points] + sp_trace_small.skipped)
    assert len(sp_trace_small.points) > 20
    assert fc.skipped == want
    assert fc.points == [] and fc.components == []


def _load_tracing(monkeypatch):
    """``perfbench/tracing.py``, read only: no bytecode cache is written
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_frc_names_each_skip_reason(tmp_path, capsys, monkeypatch):
    """``frc``'s skip line names each reason the trace gives, and the three
    reasons are the ones the benchmark counts (``SKIP_REASONS``)."""
    sysfile = str(tmp_path / "two_mass.txt")
    write_system(two_mass_system(), sysfile)
    base = ["frc", "--system", sysfile, "--order", "3", "--eps", "0.0027",
            "--rho-max", "0.13", "--n-rho", "40",
            "--out", str(tmp_path / "frc.csv")]
    cases = [("G_TOL", [], "omega iteration diverged"),
             ("POINT_TOL", [], "zero-problem residual too large"),
             (None, ["--omega-window", "1.72:1.74"], "omega outside window")]
    reasons = set()
    for tol, extra, reason in cases:
        with monkeypatch.context() as m:
            if tol:
                m.setattr(frc, tol, -1.0)
            assert cli.main(base + extra) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("skipped points: "))
        named = {part.rsplit(": ", 1)[0] for part
                 in line[line.index("(") + 1:-1].split("; ")}
        assert reason in named, line
        reasons |= named
    assert reasons == set(_load_tracing(monkeypatch).SKIP_REASONS)


def test_forced_rows_are_stacked_in_pair_order(sp_ssm3):
    """Rows that the rounds finish out of grid order (a pair that needs its
    retry seed finishes after its neighbours) are stacked by pair."""
    omegas = 1.7 + 0.01 * np.arange(6)
    stack = compute_nonautonomous_ssm(sp_ssm3, omegas)
    rounds = [[4, 1], [0, 5, 2], [3]]
    got = frc._in_pair_order(sp_ssm3, [
        (np.array(ps), stack.take(np.array(ps))) for ps in rounds])
    assert got.order == stack.order
    for name in ("omega", "w", "r", "c_res", "d_pm", "min_enslaved_den"):
        assert getattr(got, name).tobytes() == getattr(stack,
                                                       name).tobytes(), name


def test_diverged_fold_point_keeps_round_zero_backbone(sp_ssm3, monkeypatch):
    """When the double-root secants diverge, each row's discriminant is
    its own backbone's from the round that marched it (with a one-byte
    budget, the second row's first round comes after the first row is
    done), bit for bit that of a fresh solve at the backbone Omega."""
    monkeypatch.setattr(frc, "G_TOL", -1.0)  # no residual is small enough
    eps, rho = 0.0027, np.array([0.06, 0.09])
    want = []
    for r in rho.tolist():
        backbone = frc._backbone_omega(sp_ssm3, r)
        rd = assemble_polar(sp_ssm3,
                            compute_nonautonomous_ssm(sp_ssm3, backbone))
        want.append(float(_psi_roots(rd, r, eps, 0)[1]))
    for round_bytes in (frc.ROUND_BYTES, 1):
        monkeypatch.setattr(frc, "ROUND_BYTES", round_bytes)
        omega, disc = _double_roots(sp_ssm3, eps, rho)
        assert omega == [None, None]
        assert disc.tolist() == want, round_bytes


def test_trace_pair_retries_from_the_plain_backbone():
    """A K- pair whose disc-placed seed's secant diverges (no branch at the
    seed) starts a second secant at the plain backbone Omega, and that
    secant's solution is the pair's."""
    backbone, rho, disc0 = 1.5, 0.05, 4e-6
    pair = frc._trace_pair(backbone, rho, 1)
    assert next(pair) == ((rho, backbone, 1),)
    seed = backbone - math.sqrt(disc0) / rho
    assert seed < backbone
    asked = pair.send(((0.3, disc0, 0),))
    assert asked == ((rho, seed, 1), (rho, seed + 1e-7 * seed, 1))
    asked = pair.send(((None, -1.0, 0), (None, -1.0, 1)))
    assert asked == ((rho, backbone, 1), (rho, backbone + 1e-7 * backbone, 1))
    converged = (0.5 * frc.G_TOL, disc0, 5)
    with pytest.raises(StopIteration) as stop:
        pair.send((converged, (frc.G_TOL, disc0, 6)))
    assert stop.value.value == ((backbone, converged), disc0)


# ---------------------------------------------------------------------------
# the fold finder: Brent's method as a generator, all brackets in lockstep


def _run_brent(f, a: float, b: float):
    """``frc._brent`` driven to completion on f: the root, or the type and
    message of the error it raised."""
    brent = frc._brent(a, b)
    try:
        x = next(brent)
        while True:
            x = brent.send(f(x))
    except StopIteration as stop:
        return stop.value
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _scipy_brentq(f, a: float, b: float):
    """SciPy's ``brentq`` at the fold finder's tolerances, reported as
    ``_run_brent`` reports."""
    try:
        return brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and got.hex() == want.hex()
    return got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.floats(-10, 10), st.floats(1e-9, 20))
def test_brent_matches_scipy_brentq_bit_for_bit(coeffs, a, width):
    c0, c1, c2, c3 = coeffs

    def cubic(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    b = a + width
    assume(cubic(a) * cubic(b) < 0)
    got, want = _run_brent(cubic, a, b), _scipy_brentq(cubic, a, b)
    assert _same(got, want), (got, want)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x, 0.0, 1.0),             # zero at the lower end
    (lambda x: x - 1.0, 0.0, 1.0),       # zero at the upper end
    (lambda x: x - 0.5, 0.0, 1.0),       # the first step lands on the zero
    (lambda x: x * x + 1.0, 0.0, 1.0),   # no sign change: ValueError
    # a jump and no zero over a huge bracket: RuntimeError after 100 steps
    (lambda x: -1.0 if x < 0.1 else 1.0, -1e300, 1e300),
], ids=["zero-at-a", "zero-at-b", "exact-zero-mid-iteration",
        "same-sign", "no-convergence"])
def test_brent_matches_scipy_brentq_in_corner_cases(f, a, b):
    got, want = _run_brent(f, a, b), _scipy_brentq(f, a, b)
    assert _same(got, want), (got, want)


def test_brent_visits_the_ends_first_then_the_exact_zero():
    brent = frc._brent(0.0, 1.0)
    visited = [next(brent)]
    with pytest.raises(StopIteration) as stop:
        while True:
            visited.append(brent.send(visited[-1] - 0.5))
    assert visited == [0.0, 1.0, 0.5] and stop.value.value == 0.5


@lru_cache(maxsize=None)
def _fold_problem(name):
    """A golden curve's manifold, eps and the arguments that its trace
    passes to ``_locate_folds``."""
    build, normalization, order, kwargs = GOLDEN_CURVES[name]
    mm = modal_decompose(to_first_order(build()),
                         normalization=normalization)
    ssm = compute_autonomous_ssm(mm, order)
    seen = []
    locate = frc._locate_folds
    frc._locate_folds = lambda *args: seen.append(args) or locate(*args)
    try:
        trace_frc(ssm, mm, **kwargs)
    finally:
        frc._locate_folds = locate
    return seen[0]


def test_folds_do_not_depend_on_lockstep():
    """The five quintic folds solved together come out bit for bit as
    each bracket solved alone: a Brent's steps and each discriminant's
    double-root secant are independent of the rest of the batch."""
    ssm, eps, grid, disc = _fold_problem("quintic")
    together = frc._locate_folds(ssm, eps, grid, disc)
    change = np.flatnonzero(disc[:-1] * disc[1:] < 0)
    alone = [fold for i in change.tolist()
             for fold in frc._locate_folds(ssm, eps, grid[i:i + 2],
                                           disc[i:i + 2])]
    assert len(together) == 5 and 0.0 not in disc
    assert [f.hex() for f in together] == [f.hex() for f in alone]


def test_nan_discriminant_gives_nan_folds(monkeypatch):
    """A NaN discriminant ends its bracket's search with a NaN fold instead
    of steering Brent's sign tests; every bracket keeps its place."""
    ssm, eps, grid, disc = _fold_problem("cubic")
    brackets = len(frc._locate_folds(ssm, eps, grid, disc))
    psi_roots = frc._psi_roots
    monkeypatch.setattr(frc, "_psi_roots", lambda rd, rho, eps, root: (
        psi_roots(rd, rho, eps, root)[0], np.full(len(rho), np.nan)))
    folds = frc._locate_folds(ssm, eps, grid, disc)
    assert brackets > 0 and len(folds) == brackets
    assert all(math.isnan(f) for f in folds)


def test_bracket_without_a_sign_change_gives_a_nan_fold():
    """Past the convergence radius the double-root discriminant can keep
    one sign over a bracket that the K+ pair's discriminant placed: that
    fold is NaN, and the curve keeps its components and other folds.  The
    quintic at order 13 used to raise from ``_brent`` on the bracket
    [0.377, 0.3775]."""
    mm = modal_decompose(to_first_order(two_mass_system(quintic=1.2)))
    ssm = compute_autonomous_ssm(mm, 13)
    fc = trace_frc(ssm, mm, 0.001, rho_max=0.4, n_rho=800)
    assert len(fc.points) == 255 and len(fc.components) == 5
    assert len(fc.folds) == 9
    assert np.isnan(fc.folds).tolist() == [False] * 5 + [True] + [False] * 3
    finite = fc.folds[~np.isnan(fc.folds)]
    assert np.all(np.diff(finite) > 0)


def test_frc_reports_unresolved_folds(tmp_path, capsys):
    """``frc`` on the two-mass cubic at order 7 and eps 0.03, whose bracket
    [0.8995, 0.9] has no sign change of the double-root discriminant,
    exits 0, writes ``nan`` in the fold list and counts it after the skip
    line; ``--quiet`` silences the count."""
    sysfile = str(tmp_path / "two_mass.txt")
    write_system(two_mass_system(), sysfile)
    out = tmp_path / "frc.csv"
    argv = ["frc", "--system", sysfile, "--order", "7", "--eps", "0.03",
            "--rho-max", "1.0", "--n-rho", "2000", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("skipped points: ")
    assert lines[-1] == "unresolved folds: 1"
    header = next(ln for ln in out.read_text().splitlines()
                  if ln.startswith("# components: "))
    count, folds = header[len("# components: "):].split("; fold rho: ")
    folds = [float(f) for f in folds.split()]
    assert count == "2" and len(folds) == 3 and math.isnan(folds[1])
    assert folds[0] == pytest.approx(0.191337, abs=1e-6)
    assert folds[2] == pytest.approx(0.934242, abs=1e-6)
    rows = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 1 + 833
    assert cli.main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().out == ""


#: (batched forced marches, marched Omegas) of each golden curve's fold
#: search with all brackets in lockstep; one march per bracket and Brent
#: step would be several times more (quintic: 66 marches)
FOLD_MARCHES = {"cubic": (14, 54), "quintic": (14, 99), "beam25": (14, 21),
                "linear": (5, 10)}


@pytest.mark.parametrize("name", list(GOLDEN_CURVES))
def test_fold_search_shares_its_marches(name, monkeypatch):
    """The fold search marches no more often, and no more Omegas, than
    ``FOLD_MARCHES`` records."""
    ssm, eps, grid, disc = _fold_problem(name)
    marched = []
    march = frc.compute_nonautonomous_ssm
    monkeypatch.setattr(frc, "compute_nonautonomous_ssm", lambda ssm, om: (
        marched.append(np.size(om)) or march(ssm, om)))
    frc._locate_folds(ssm, eps, grid, disc)
    calls, omegas = FOLD_MARCHES[name]
    assert 0 < len(marched) <= calls and sum(marched) <= omegas


@pytest.mark.parametrize("name", ["cubic", "quintic"])
def test_folds_match_scipy_brentq_on_the_discriminant(name):
    """Each fold is bit for bit SciPy's ``brentq`` root of the double-root
    discriminant, evaluated one amplitude at a time."""
    ssm, eps, grid, disc = _fold_problem(name)
    folds = frc._locate_folds(ssm, eps, grid, disc)

    def disc_at(rho):
        return float(_double_roots(ssm, eps, [rho])[1][0])

    change = np.flatnonzero(disc[:-1] * disc[1:] < 0).tolist()
    want = [brentq(disc_at, round(float(grid[i]), 15),
                   round(float(grid[i + 1]), 15), xtol=1e-15, rtol=8.9e-16)
            for i in change]
    assert len(folds) == len(want) > 0
    assert [f.hex() for f in folds] == [f.hex() for f in want]


@pytest.mark.parametrize("name", list(GOLDEN_CURVES))
def test_trace_matches_recorded_golden(name):
    got = curve_record(golden_trace(name))
    with np.load(FRC_GOLDEN) as npz:
        want = {key: npz[f"{name}_{key}"] for key in got}
    assert len(got["rho"]) > 0
    for key in ("omega", "psi"):
        assert got[key].shape == want[key].shape
        assert np.all(np.abs(got[key] - want[key])
                      <= 1e-10 * np.abs(want[key])), key
    assert got["folds"].shape == want["folds"].shape
    assert np.all(np.abs(got["folds"] - want["folds"])
                  <= 1e-12 * np.abs(want["folds"]))
    for key in ("rho", "branch", "stability", "members", "sizes",
                "skip_rho", "skip_branch", "skip_reason"):
        assert got[key].tolist() == want[key].tolist(), key


# ---------------------------------------------------------------------------
# unit invariance: the two-mass isola in other length, time and mass units


@lru_cache(maxsize=None)
def _in_units(L: float, T: float, m: float, order: int):
    """The eps 0.0027 isola trace of the two-mass system written in the
    length unit y' = y / L, the time unit tau = t / T and a mass unit 1 / m.
    A term of degree d with velocity degree d_v scales by
    m * L**(d - 1) * T**(2 - d_v), the matrices to m * (M, T C, T**2 K),
    the forcing by m * T**2 / L, Omega by T and the amplitude grid by 1 / L.
    Returns the curve, the peak |y_1| of its points and the cubic-order
    isola summary."""
    base = two_mass_system()
    n = base.M.shape[0]
    scaled = MechanicalSystem(
        M=m * base.M, C=m * T * base.C, K=m * T ** 2 * base.K,
        f=m * T ** 2 * base.f / L,
        g=[PolyTerm(t.row, t.coeff * m * L ** (sum(t.exponents) - 1)
                    * T ** (2 - sum(t.exponents[n:])), t.exponents)
           for t in base.g])
    mm = modal_decompose(to_first_order(scaled))
    ssm = compute_autonomous_ssm(mm, order)
    curve = trace_frc(ssm, mm, 0.0027, 0.13 / L, 260)
    iso = leading_isola(compute_autonomous_ssm(mm, 3), 0.0027)
    return curve, physical_amplitudes(ssm, curve, 0), iso


def _units(L=1.0, T=1.0, m=1.0, xfail=None):
    """One (L, T, m) case.  A length-unit case is named by its bare L, as
    before the time and mass units were added; ``xfail`` is the reason of
    a strict xfail."""
    name = (repr(L) if (T, m) == (1.0, 1.0)
            else f"T={T:g}" if m == 1.0 else f"m={m:g}")
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(L, T, m, id=name, marks=marks)


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("L, T, m", [
    _units(L=1e-3), _units(L=3.0), _units(L=1e3),
    _units(T=1e-3), _units(T=7.0), _units(T=1e3),
    _units(m=1e-3), _units(m=1e3)])
def test_length_unit_keeps_curve_structure(L, T, m, order):
    """Components, folds, branches and skips do not depend on the units."""
    ref, _, ref_iso = _in_units(1.0, 1.0, 1.0, order)
    got, _, iso = _in_units(L, T, m, order)
    assert len(got.points) == len(ref.points) > 0
    assert got.components == ref.components
    assert len(got.folds) == len(ref.folds)
    assert [p.branch for p in got.points] == [p.branch for p in ref.points]
    assert len(got.skipped) == len(ref.skipped)
    assert abs(iso.eps_m - ref_iso.eps_m) <= 1e-13
    assert L * iso.rho1 == pytest.approx(ref_iso.rho1, rel=1e-14)


G_TOL_IS_ABSOLUTE = (
    "frc.G_TOL = 1e-12 bounds |G| absolutely, while G scales with rho: in "
    "the unit y / 1000 the secant stops at a residual 1000 times larger "
    "against the curve's own scale (Omega off by 3.7e-7 relative, "
    "amplitudes by 8.4e-6)")

G_TOL_IN_TIME = (
    "frc.G_TOL = 1e-12 bounds |G| absolutely, while G scales with the time "
    "unit: in the unit t / 1000 the secant stops at a residual 1000 times "
    "larger against the curve's own scale (Omega off by 3.7e-7 relative)")


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("L, T, m", [
    _units(L=1e-3), _units(L=3.0), _units(L=1e3),
    _units(T=1e-3), _units(T=7.0),
    _units(T=1e3), _units(m=1e-3), _units(m=1e3)])
def test_length_unit_keeps_stability_labels(L, T, m, order):
    """The stability label of every point does not depend on the units."""
    ref, _, _ = _in_units(1.0, 1.0, 1.0, order)
    got, _, _ = _in_units(L, T, m, order)
    assert len(got.points) == len(ref.points) > 0
    assert ([p.stability for p in got.points]
            == [p.stability for p in ref.points])


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("L, T, m", [
    _units(L=1e-3), _units(L=3.0), _units(L=1e3, xfail=G_TOL_IS_ABSOLUTE),
    _units(T=1e-3, xfail=G_TOL_IN_TIME), _units(T=7.0),
    _units(T=1e3), _units(m=1e-3), _units(m=1e3)])
def test_length_unit_keeps_curve_values(L, T, m, order):
    """Omega / T, the amplitudes and the folds do not depend on the
    units."""
    ref, ref_amp, _ = _in_units(1.0, 1.0, 1.0, order)
    got, amp, _ = _in_units(L, T, m, order)
    assert len(got.points) == len(ref.points)
    omega = np.array([p.omega for p in got.points]) / T
    ref_omega = np.array([p.omega for p in ref.points])
    assert np.all(np.abs(omega - ref_omega) <= 1e-12 * ref_omega)
    assert np.all(np.abs(L * amp - ref_amp) <= 1e-12 * ref_amp)
    assert np.all(np.abs(L * got.folds - ref.folds) <= 1e-12 * ref.folds)
