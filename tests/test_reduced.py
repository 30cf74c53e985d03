"""Tests for the polar reduced dynamics and fixed-point classification."""

import numpy as np
import pytest

from ssm_resolve.errors import ValidationError, SingularChartError
from ssm_resolve.model import to_first_order, modal_decompose
from ssm_resolve.polyalg import dense_eval
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import compute_nonautonomous_ssm
from ssm_resolve.reduced import (assemble_polar, zero_problem, FixedPointU,
                                 fixed_point_stability)

from conftest import polar_field, two_mass_system


@pytest.fixture(scope="module")
def sp_ssm(sp_modal):
    return compute_autonomous_ssm(sp_modal, 7)


@pytest.fixture(scope="module")
def sp_fr(sp_ssm, sp_modal):
    return compute_nonautonomous_ssm(sp_ssm, sp_modal.lambda_master.imag)


@pytest.fixture(scope="module")
def sp_rd(sp_ssm, sp_fr):
    return assemble_polar(sp_ssm, sp_fr)


#: forcing amplitude of the checks on ``sp_rd``
EPS = 0.002


def test_coefficient_assembly(sp_ssm, sp_fr, sp_rd):
    rd = sp_rd
    lam = sp_ssm.lambda_master
    assert rd.a_coeffs[0] == lam.real and rd.b_coeffs[0] == lam.imag
    assert np.allclose(rd.a_coeffs[1:], sp_ssm.gamma.real)
    assert np.allclose(rd.b_coeffs[1:], sp_ssm.gamma.imag)
    assert len(rd.a_coeffs) == 4  # order 7: lambda and gamma_1..3
    c, d = sp_fr.c_res, sp_fr.d_pm
    # f1/g2 share the c real part, f2/g1 its imaginary part; the d term
    # enters the four with alternating sign
    assert rd.f1[0] == c[0].real and rd.g2[0] == c[0].real
    assert rd.f2[0] == c[0].imag and rd.g1[0] == c[0].imag
    assert np.allclose(rd.f1 + rd.g2, 2 * c.real)
    assert np.allclose(rd.f2 + rd.g1, 2 * c.imag)
    assert np.allclose(rd.f1 - rd.g2, 2 * d.real)
    assert np.allclose(rd.g1 - rd.f2, 2 * d.imag)


def test_order_mismatch_rejected(sp_modal, sp_fr):
    ssm3 = compute_autonomous_ssm(sp_modal, 3)
    with pytest.raises(ValidationError):
        assemble_polar(ssm3, sp_fr)


def test_polar_field_matches_complex_reduced_flow(sp_ssm, sp_fr, sp_rd):
    # the polar form must reproduce the rotating-frame projection of the
    # complex reduced flow at any drive phase: psi-dependence only, no
    # explicit time left
    eps = EPS
    om = sp_fr.omega
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.005, 0.12)
        psi = rng.uniform(0, 2 * np.pi)
        phase = rng.uniform(0, 2 * np.pi)
        theta = psi + phase
        s1 = rho * np.exp(1j * theta)
        rp, rm = (dense_eval(r, s1, np.conj(s1))[0] for r in sp_fr.r)
        sdot = (sp_ssm.r0_at(s1, np.conj(s1))[0]
                + eps * (np.exp(1j * phase) * rp + np.exp(-1j * phase) * rm))
        proj = np.exp(-1j * theta) * sdot
        f1, f2 = zero_problem(sp_rd, (rho, om, psi), eps=eps)
        worst = max(worst,
                    abs(f1 - proj.real) / max(abs(proj), 1e-30),
                    abs(f2 - (proj.imag - om * rho)) / max(abs(proj), om * rho))
    assert worst < 1e-12


def test_zero_problem_handles_origin(sp_ssm, sp_fr):
    rd = assemble_polar(sp_ssm, sp_fr)
    f1, f2 = zero_problem(rd, (0.0, rd.omega, 0.3), eps=0.0)
    assert f1 == 0.0 and f2 == 0.0


def test_jacobian_matches_finite_differences(sp_rd):
    rng = np.random.default_rng(5)
    om = sp_rd.omega
    for _ in range(50):
        rho = rng.uniform(0.01, 0.12)
        psi = rng.uniform(0, 2 * np.pi)
        rep = fixed_point_stability(sp_rd, (rho, om, psi), EPS)
        h_r, h_p = 1e-6 * max(rho, 0.01), 1e-6
        fd = np.zeros((2, 2))
        for col, (dr, dp) in enumerate(((h_r, 0.0), (0.0, h_p))):
            fp = polar_field(sp_rd, (rho + dr, om, psi + dp), EPS)
            fm = polar_field(sp_rd, (rho - dr, om, psi - dp), EPS)
            step = 2 * (dr + dp)
            fd[0, col] = (fp[0] - fm[0]) / step
            fd[1, col] = (fp[1] - fm[1]) / step
        scale = np.abs(rep.jacobian).max()
        assert np.abs(rep.jacobian - fd).max() < 1e-5 * max(scale, 1.0)


def test_singular_chart_at_zero_amplitude(sp_rd):
    with pytest.raises(SingularChartError):
        fixed_point_stability(sp_rd, (0.0, sp_rd.omega, 0.3), EPS)


def test_unforced_radial_flow_sign_structure(sp_ssm, sp_fr):
    # with eps = 0 the radial equation is scalar: between consecutive real
    # rest radii the sign of a never changes, and on a rest circle one
    # Jacobian eigenvalue is exactly zero (fold-degenerate)
    rd = assemble_polar(sp_ssm, sp_fr)
    roots = np.roots(rd.a_coeffs[::-1])
    radii = np.sqrt(sorted(r.real for r in roots
                           if abs(r.imag) < 1e-12 and r.real > 0))
    assert len(radii) >= 1
    assert abs(rd.a_of(radii[0])) < 1e-12
    grid = [0.0, *radii, radii[-1] * 1.5]
    for lo, hi in zip(grid[:-1], grid[1:]):
        inner = np.linspace(lo, hi, 50)[1:-1]
        signs = np.sign(rd.a_of(inner))
        assert len(set(signs.tolist())) == 1
    rep = fixed_point_stability(rd, (float(radii[0]), rd.omega, 1.0), 0.0)
    assert rep.label == "fold-degenerate"


def test_fixed_point_u_normalizes_phase():
    u = FixedPointU(rho=0.1, omega=1.7, psi=-0.5, stability="stable")
    assert 0 <= u.psi < 2 * np.pi
    assert abs(u.psi - (2 * np.pi - 0.5)) < 1e-15
    assert u.stability == "stable"
    with pytest.raises(ValidationError):
        FixedPointU(rho=-0.1, omega=1.7, psi=0.0)


def test_linear_fixed_point_matches_closed_form_and_is_stable():
    mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0, alpha=0.0)))
    ssm = compute_autonomous_ssm(mm, 5)
    lam = mm.lambda_master
    eps = 0.003
    for om in (lam.imag * 0.9, lam.imag, lam.imag * 1.1):
        fr = compute_nonautonomous_ssm(ssm, om)
        rd = assemble_polar(ssm, fr)
        c00 = fr.c_res[0]
        rho = eps * abs(c00) / np.hypot(lam.real, lam.imag - om)
        # solve the two linear equations for the phase directly
        rhs1 = -rd.a_of(rho)
        rhs2 = -(rd.b_of(rho) - om) * rho
        det = -(rd.f1_of(rho) * rd.g2_of(rho) + rd.f2_of(rho) * rd.g1_of(rho))
        cp = (rhs1 * (-rd.g2_of(rho)) - rhs2 * rd.f2_of(rho)) / (eps * det)
        sp = (rhs2 * rd.f1_of(rho) - rhs1 * rd.g1_of(rho)) / (eps * det)
        assert abs(cp ** 2 + sp ** 2 - 1) < 1e-10
        psi = np.arctan2(sp, cp)
        f1, f2 = zero_problem(rd, (rho, om, psi), eps=eps)
        assert abs(f1) < 1e-12 and abs(f2) < 1e-12
        rep = fixed_point_stability(rd, (rho, om, psi), eps=eps)
        assert rep.label == "stable"
        assert np.allclose(rep.eigenvalues.real, lam.real, rtol=1e-8)
