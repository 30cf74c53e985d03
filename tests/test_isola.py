"""Root tracking across truncation orders, isola prediction, fold extraction.

Two kinds of oracle anchor the frozen numbers here:

* closed cubic formulas evaluated in-test from the two-mass benchmark's
  modal data (isola radius, merger amplitude, fold locations at special
  forcing amplitudes), and
* a hand-derived closed form for the quintic damper's direct contribution
  to the second radial drift coefficient, compared against the recursion.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import two_mass_system, two_mass_gamma1, two_mass_lambda
from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.errors import ValidationError
from ssm_resolve.isola import (classify_roots, fold_points, isola_report,
                               leading_isola, nonspurious_positive_roots,
                               roots_of_a)
from ssm_resolve.model import modal_decompose, to_first_order
from ssm_resolve.polyalg import odd_dval
from ssm_resolve.reduced import assemble_polar
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import (compute_nonautonomous_ssm,
                                    leading_forcing_coefficient)


def _closed_form_radius_and_merger():
    """Cubic-level isola radius and merger amplitude from modal closed forms."""
    lam = two_mass_lambda(1)
    g1 = two_mass_gamma1()
    rho1 = np.sqrt(-lam.real / g1.real)
    # |c00| for the unit-position-normalized mode shape (1, 1)/2 acting on
    # forcing (P, 0): the master forcing slot is P/(m*(lam - conj(lam)))/2.
    return float(rho1), float(lam.real), float(g1.real)


@pytest.fixture(scope="module")
def sp_track(sp_modal):
    return roots_of_a(compute_autonomous_ssm(sp_modal, 51), range(1, 26))


def _nonspurious(rt):
    return nonspurious_positive_roots(rt, classify_roots(rt))


@pytest.fixture(scope="module")
def sp_cubic(sp_modal):
    """The closed forms' input: the order-3 manifold."""
    return compute_autonomous_ssm(sp_modal, 3)


@pytest.fixture(scope="module")
def sp_isola(sp_modal):
    return leading_isola(compute_autonomous_ssm(sp_modal, 3), 0.0027)


@pytest.fixture(scope="module")
def quintic_modal():
    return modal_decompose(to_first_order(two_mass_system(quintic=1.2)))


@pytest.fixture(scope="module")
def beam_modal():
    spec = BeamSpec(length=2700, height=10, width=10, density=1780e-9,
                    modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
                    mass_damping=1.25e-4, stiffness_damping=2.5e-4,
                    tip_force=0.1)
    return modal_decompose(to_first_order(build_beam(spec)),
                           normalization="largest")


class TestRootTracking:
    def test_order_one_root_matches_cubic_closed_form(self, sp_track):
        lam = two_mass_lambda(1)
        g1 = two_mass_gamma1()
        expected = np.sqrt(-lam.real / g1.real)
        nonzero = [r for r in sp_track.roots[1] if abs(r) > 1e-12]
        assert len(nonzero) == 1
        assert nonzero[0].imag == pytest.approx(0.0, abs=1e-12)
        assert nonzero[0].real == pytest.approx(expected, rel=1e-12)

    def test_zero_is_a_root_at_every_order(self, sp_track):
        for m in sp_track.orders:
            assert any(abs(r) < 1e-15 for r in sp_track.roots[m])

    def test_exactly_one_nonspurious_trajectory(self, sp_track):
        labels = classify_roots(sp_track)
        assert labels.count("non-spurious") == 1

    def test_converged_root_value(self, sp_track):
        (rho, _margin), = _nonspurious(sp_track)
        assert rho == pytest.approx(0.1055764991, rel=1e-6)

    def test_radius_estimate_and_containment(self, sp_track):
        last = sp_track.orders[-1]
        assert sp_track.radius[last] == pytest.approx(0.1701241371013479,
                                                      rel=1e-6)
        (rho, _), = _nonspurious(sp_track)
        assert rho < 0.8 * sp_track.radius[last]

    def test_transversality_margin(self, sp_track, sp_modal):
        (rho, margin), = _nonspurious(sp_track)
        floor = 1e-6 * abs(sp_modal.lambda_master.real) / rho
        assert abs(margin) > floor

    def test_rejects_a_manifold_below_the_tracked_order(self, sp_modal):
        ssm5 = compute_autonomous_ssm(sp_modal, 5)
        assert roots_of_a(ssm5, [1, 2]).orders == [1, 2]
        with pytest.raises(ValidationError, match="order >= 7"):
            roots_of_a(ssm5, [1, 2, 3])
        with pytest.raises(ValidationError, match="positive integers"):
            roots_of_a(ssm5, [0, 1])
        with pytest.raises(ValidationError, match="positive integers"):
            isola_report(sp_modal, [], 0.0027)

    @pytest.mark.parametrize("cap", [1, 3])
    def test_overflowing_drift_caps_the_track(self, sp_modal, cap):
        """A non-finite gamma at index k (order 2k + 3) stops the track at
        M = k, with a warning; the orders below it track as before."""
        ssm = compute_autonomous_ssm(sp_modal, 11)
        gamma = ssm.gamma.copy()
        gamma[cap] = complex(np.inf, np.nan)
        capped = replace(ssm, gamma=gamma)
        with pytest.warns(UserWarning,
                          match=f"capping the track at M = {cap}$"):
            rt = roots_of_a(capped, range(1, 6))
        assert rt.orders == list(range(1, cap + 1))
        want = roots_of_a(ssm, range(1, cap + 1))
        assert rt.roots.keys() == want.roots.keys()
        for m in rt.orders:
            assert np.array_equal(rt.roots[m], want.roots[m])
        assert np.array_equal(rt.radial, want.radial)

    def test_all_non_finite_drift_is_refused(self, sp_modal):
        ssm = compute_autonomous_ssm(sp_modal, 11)
        capped = replace(ssm, gamma=np.full_like(ssm.gamma, np.nan))
        with pytest.warns(UserWarning, match="capping the track at M = 0$"):
            with pytest.raises(ValidationError,
                               match="no finite drift coefficients"):
                roots_of_a(capped, range(1, 6))

    def test_classification_needs_three_orders(self, sp_modal):
        rt = roots_of_a(compute_autonomous_ssm(sp_modal, 5), [1, 2])
        with pytest.raises(ValidationError):
            classify_roots(rt)

    def test_linear_system_tracks_nothing(self):
        mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0,
                                                            alpha=0.0)))
        rt = roots_of_a(compute_autonomous_ssm(mm, 11, check=False),
                        range(1, 6))
        assert rt.trajectories == []
        assert classify_roots(rt) == []
        assert _nonspurious(rt) == []


class TestQuinticRoots:
    def test_order_two_roots(self, quintic_modal):
        rt = roots_of_a(compute_autonomous_ssm(quintic_modal, 5), [1, 2])
        pos = sorted(r.real for r in rt.roots[2]
                     if r.real > 1e-12 and abs(r.imag) < 1e-9 * abs(r))
        assert len(pos) == 2
        assert pos[0] == pytest.approx(0.13055724509546118, rel=1e-9)
        assert pos[1] == pytest.approx(0.17864995430975372, rel=1e-9)

    def test_quintic_term_matches_hand_formula(self, quintic_modal, sp_modal):
        # the degree-5 velocity term reaches the second drift coefficient
        # only through the linear embedding, so its contribution is exactly
        # the z**3 zbar**2 slot of T_inv[0] applied to -beta * v1**5
        beta = 1.2
        g2_full = compute_autonomous_ssm(quintic_modal, 5).gamma[1]
        g2_cubic = compute_autonomous_ssm(sp_modal, 5).gamma[1]
        a = quintic_modal.T[2, 0]
        hand = -10 * beta * quintic_modal.T_inv[0, 2] * a ** 3 * np.conj(a) ** 2
        assert g2_full - g2_cubic == pytest.approx(hand, rel=1e-12)

    def test_converged_pair_is_nonspurious(self, quintic_modal):
        rt = roots_of_a(compute_autonomous_ssm(quintic_modal, 25),
                        range(1, 13))
        nsp = _nonspurious(rt)
        assert len(nsp) == 2
        assert nsp[0][0] == pytest.approx(0.12962369893358353, rel=1e-6)
        assert nsp[1][0] == pytest.approx(0.1825603131923245, rel=1e-6)
        assert rt.radius[12] == pytest.approx(0.2679726347711298, rel=1e-6)

    def test_fold_count_transitions_with_amplitude(self, quintic_modal):
        # the two extrema of the order-5 drift polynomial set the amplitudes
        # where isolas merge; the fold count must step 5 -> 3 -> 1
        ssm5 = compute_autonomous_ssm(quintic_modal, 5)
        g1, g2 = ssm5.gamma[0].real, ssm5.gamma[1].real
        lam = quintic_modal.lambda_master
        c = abs(leading_forcing_coefficient(quintic_modal))
        counts = []
        for eps in (0.001, 0.0025, 0.003):
            n = 0
            for s in (+1.0, -1.0):
                rr = np.roots([g2, 0.0, g1, 0.0, lam.real, -s * eps * c])
                n += sum(1 for x in rr
                         if abs(x.imag) < 1e-9 and x.real > 1e-12)
            counts.append(n)
        assert counts == [5, 3, 1]


class TestLeadingIsola:
    def test_radius_matches_closed_form(self, sp_isola):
        rho1, re_lam, re_g1 = _closed_form_radius_and_merger()
        assert sp_isola.exists
        assert sp_isola.rho1 == pytest.approx(rho1, rel=1e-12)

    def test_merger_amplitude(self, sp_isola, sp_modal):
        c00 = abs(leading_forcing_coefficient(sp_modal))
        lam = two_mass_lambda(1)
        g1 = two_mass_gamma1()
        expected = np.sqrt(4 * abs(lam.real) ** 3 / (27 * g1.real)) / c00
        assert sp_isola.eps_m == pytest.approx(expected, rel=1e-12)
        assert sp_isola.eps_m == pytest.approx(0.0028108080644733907,
                                               rel=1e-10)

    def test_disconnected_flag_flips_at_merger(self, sp_modal):
        ssm3 = compute_autonomous_ssm(sp_modal, 3)
        below = leading_isola(ssm3, 0.0027)
        above = leading_isola(ssm3, 0.0029)
        assert below.disconnected_at_eps is True
        assert above.disconnected_at_eps is False

    def test_hardening_spring_has_no_isola(self):
        mm = modal_decompose(to_first_order(two_mass_system(alpha=0.6)))
        lib = leading_isola(compute_autonomous_ssm(mm, 3), 0.0027)
        assert lib.exists is False
        assert lib.rho1 is None
        assert lib.eps_m is None
        assert lib.disconnected_at_eps is None

    def test_merger_amplitude_scales_inversely_with_forcing(self):
        libs = []
        for P in (3.0, 6.0):
            mm = modal_decompose(to_first_order(two_mass_system(P=P)))
            libs.append(leading_isola(compute_autonomous_ssm(mm, 3), 0.001))
        assert libs[0].rho1 == pytest.approx(libs[1].rho1, rel=1e-14)
        assert libs[0].eps_m / libs[1].eps_m == pytest.approx(2.0, rel=1e-12)


class TestFoldPoints:
    def test_zero_amplitude_folds(self, sp_cubic, sp_isola):
        folds = fold_points(sp_cubic, 0.0)
        assert len(folds) == 2
        assert folds[0] == pytest.approx(0.0, abs=1e-15)
        assert folds[1] == pytest.approx(sp_isola.rho1, rel=1e-12)

    def test_three_folds_below_merger(self, sp_cubic):
        folds = fold_points(sp_cubic, 0.0027)
        assert list(folds) == sorted(folds)
        assert folds == pytest.approx([0.05070572, 0.07047411, 0.12117983],
                                      rel=1e-6)

    def test_single_fold_above_merger(self, sp_cubic):
        folds = fold_points(sp_cubic, 0.0029)
        assert len(folds) == 1
        assert folds[0] == pytest.approx(0.12214326, rel=1e-6)

    def test_double_fold_at_merger_amplitude(self, sp_cubic, sp_isola):
        folds = fold_points(sp_cubic, sp_isola.eps_m)
        rho_tilde = sp_isola.rho1 / np.sqrt(3.0)
        # the tangency point sits at rho1/sqrt(3); the remaining fold of the
        # merged curve lands at exactly twice that radius
        assert folds[0] == pytest.approx(rho_tilde, rel=1e-4)
        assert folds[1] == pytest.approx(rho_tilde, rel=1e-4)
        assert folds[-1] == pytest.approx(2 * rho_tilde, rel=1e-9)

    def test_rejects_negative_amplitude(self, sp_cubic):
        with pytest.raises(ValidationError):
            fold_points(sp_cubic, -0.001)


class TestBeamIsola:
    def test_isola_radius_and_merger(self, beam_modal):
        lib = leading_isola(compute_autonomous_ssm(beam_modal, 3), 0.0015)
        assert lib.exists
        assert lib.rho1 == pytest.approx(0.413450, rel=1e-4)
        assert lib.eps_m == pytest.approx(0.00180218, rel=1e-4)
        assert lib.disconnected_at_eps is True

    def test_one_nonspurious_trajectory(self, beam_modal):
        rt = roots_of_a(compute_autonomous_ssm(beam_modal, 15, check=False),
                        range(1, 8))
        nsp = _nonspurious(rt)
        assert len(nsp) == 1
        assert nsp[0][0] == pytest.approx(0.413367, rel=1e-4)


@pytest.mark.parametrize("case,m_max", [("sp_modal", 25),
                                        ("quintic_modal", 12),
                                        ("beam_modal", 25)])
def test_drift_slope_is_the_polar_fields_da(request, case, m_max):
    # the transversality margin of each non-spurious root is a'(rho) of the
    # reduced dynamics, bit for bit, on the manifold the track reads: one
    # odd_dval of the track's own drift coefficients
    mm = request.getfixturevalue(case)
    ssm = compute_autonomous_ssm(mm, 2 * m_max + 1,
                                 check=case != "beam_modal")
    rt = roots_of_a(ssm, range(1, m_max + 1))
    rd = assemble_polar(ssm, compute_nonautonomous_ssm(
        ssm, mm.lambda_master.imag))
    roots = _nonspurious(rt)
    assert roots
    for rho, margin in roots:
        assert margin == float(odd_dval(rt.radial, rho)) \
            == float(rd.at(rho, slopes=True)[1][0])


class TestIsolaReport:
    def test_report_bundles_track_and_predictions(self, sp_modal, sp_cubic,
                                                  sp_isola):
        rt, rep = isola_report(sp_modal, range(1, 26), 0.0027)
        assert rt.orders[-1] == 25
        assert len(rep.nonspurious_roots) == 1
        assert rep.nonspurious_roots[0][0] == pytest.approx(0.1055764991,
                                                            rel=1e-6)
        assert rep.leading.exists
        assert rep.leading.disconnected_at_eps is True
        assert len(rep.fold_rho) == 3
        # the closed forms read gamma_1 off the order-51 manifold; it is
        # bit for bit the order-3 manifold's
        assert rep.leading == sp_isola
        assert (rep.fold_rho.tobytes()
                == fold_points(sp_cubic, 0.0027).tobytes())
