"""Tests for the unforced invariant-manifold recursion."""

from pathlib import Path

import numpy as np
import pytest

from ssm_resolve.errors import (ValidationError, NonResonanceError,
                                InternalResonanceError)
from ssm_resolve.model import (MechanicalSystem, PolyTerm, to_first_order,
                               modal_decompose)
from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.polyalg import dense_mul, dense_pow, dense_zero
from ssm_resolve.ssm_auto import (compute_autonomous_ssm, invariance_residual,
                                  residual_slope)

from conftest import (BEAM, MIXED_TERMS, two_mass_system, two_mass_gamma1,
                      with_terms)


# frozen outputs of the closed-form oracles (guards against oracle edits)
GAMMA1_TWO_MASS = 1.35 + 0.18490335771390706j
GAMMA1_BEAM = 0.036201849762525724 + 0.03168869823405559j

#: drift coefficients recorded from the per-degree dense_pow composition
#: that the graded composition replaced: keys "<system>_gamma" and
#: "<system>_gamma_row2" (two-mass cubic and beam25 at order 51, the
#: quintic two-mass system at order 25)
GAMMA_GOLDEN = Path(__file__).parent / "data" / "gamma_golden.npz"


@pytest.fixture(scope="module")
def sp_ssm7(sp_modal):
    return compute_autonomous_ssm(sp_modal, 7)


def test_gamma1_matches_closed_form(sp_modal):
    oracle = two_mass_gamma1()
    assert abs(oracle - GAMMA1_TWO_MASS) < 1e-12 * abs(GAMMA1_TWO_MASS)
    ssm = compute_autonomous_ssm(sp_modal, 3)
    assert abs(ssm.gamma[0] - oracle) < 1e-12 * abs(oracle)


def test_real_part_of_gamma1_closed_form(sp_modal):
    # Re gamma_1 = -3*alpha*k/(4*m**2) for the two-mass benchmark
    from conftest import SP
    expected = -3 * SP["alpha"] * SP["k"] / (4 * SP["m"] ** 2)
    assert abs(expected - 1.35) < 1e-14
    ssm = compute_autonomous_ssm(sp_modal, 3)
    assert abs(ssm.gamma[0].real - expected) < 1e-6 * abs(expected)


def test_row2_coefficients_are_conjugates(sp_ssm7):
    assert np.allclose(sp_ssm7.gamma_row2, np.conj(sp_ssm7.gamma),
                       rtol=1e-12, atol=0)


def test_radial_and_phase_coefficients(sp_ssm7):
    lam = sp_ssm7.lambda_master
    a = sp_ssm7.radial_coefficients()
    b = sp_ssm7.phase_coefficients()
    assert a[0] == lam.real and b[0] == lam.imag
    assert np.allclose(a[1:], sp_ssm7.gamma.real)
    assert np.allclose(b[1:], sp_ssm7.gamma.imag)
    assert len(a) == 1 + sp_ssm7.half_order == 4  # order 7 -> M = 3


def test_truncation_consistency(sp_modal, sp_ssm7):
    ssm3 = compute_autonomous_ssm(sp_modal, 3)
    i1, i2 = np.indices((4, 4))
    tri = i1 + i2 <= 3  # slots above total degree 3 belong to the larger run
    scale = np.abs(ssm3.w0_dense).max()
    diff = ssm3.w0_dense[:, tri] - sp_ssm7.w0_dense[:, :4, :4][:, tri]
    assert np.abs(diff).max() < 1e-13 * scale
    assert np.allclose(ssm3.gamma, sp_ssm7.gamma[:1], rtol=1e-13)


def test_embedding_maps_conjugate_slice_to_real_states(sp_ssm7, sp_modal):
    rng = np.random.default_rng(7)
    s1 = rng.uniform(-0.05, 0.05, 12) + 1j * rng.uniform(-0.05, 0.05, 12)
    q = sp_ssm7.w0_at(s1, np.conj(s1))
    x = sp_modal.T @ q
    assert np.abs(x.imag).max() < 1e-12 * max(np.abs(x.real).max(), 1e-30)


def test_odd_nonlinearity_gives_odd_embedding(sp_ssm7):
    # even-degree slots carry nothing but convolution round-off
    W = sp_ssm7.w0_dense
    i1, i2 = np.indices(W.shape[1:])
    even = (i1 + i2) % 2 == 0
    assert np.abs(W[:, even]).max() < 1e-13 * np.abs(W).max()


def test_invariance_residual_small_and_order_scaling(sp_modal):
    for order in (3, 5, 7):
        ssm = compute_autonomous_ssm(sp_modal, order)
        rng = np.random.default_rng(order)
        pts = 1e-3 * np.exp(2j * np.pi * rng.uniform(size=10))
        res = invariance_residual(ssm, pts)
        assert res["max_relative"] < 1e-9
        slope = residual_slope(
            lambda s: invariance_residual(ssm, s))
        assert slope >= order - 0.2


def test_linear_system_gives_trivial_manifold():
    sys = two_mass_system(kappa=0.0, alpha=0.0)
    mm = modal_decompose(to_first_order(sys))
    ssm = compute_autonomous_ssm(mm, 5)
    assert ssm.half_order == 2
    assert np.all(ssm.gamma == 0) and np.all(ssm.gamma_row2 == 0)
    W = ssm.w0_dense.copy()
    W[0, 1, 0] -= 1.0
    W[1, 0, 1] -= 1.0
    assert np.abs(W).max() == 0.0
    res = invariance_residual(ssm, [0.1 + 0.05j])
    assert res["max_absolute"] < 1e-14


def test_order_one_keeps_identity_embedding(sp_modal):
    ssm = compute_autonomous_ssm(sp_modal, 1)
    assert ssm.half_order == 0
    assert ssm.w0_dense.shape == (4, 2, 2)
    with pytest.raises(ValidationError):
        compute_autonomous_ssm(sp_modal, 0)


def _one_to_three_system(delta=0.005, omega=2.0):
    """Two uncoupled oscillators with lambda_2 = 3 * lambda_1 exactly."""
    M = np.eye(2)
    C = np.diag([2 * delta, 6 * delta])
    K = np.diag([delta ** 2 + omega ** 2, 9 * (delta ** 2 + omega ** 2)])
    g = [PolyTerm(0, 0.8, (3, 0, 0, 0)), PolyTerm(1, 0.3, (3, 0, 0, 0))]
    return MechanicalSystem(M=M, C=C, K=K, g=g, f=np.array([1.0, 0.0]))


def test_one_to_three_resonance_is_caught_by_precheck():
    mm = modal_decompose(to_first_order(_one_to_three_system()))
    with pytest.raises(NonResonanceError):
        compute_autonomous_ssm(mm, 3)


def test_one_to_three_resonance_aborts_recursion_when_unchecked():
    mm = modal_decompose(to_first_order(_one_to_three_system()))
    with pytest.raises(InternalResonanceError):
        compute_autonomous_ssm(mm, 3, check=False)


def test_beam_gamma1_at_low_order():
    spec = BeamSpec(length=2700.0, height=10.0, width=10.0,
                    density=1780e-9, modulus=45e6,
                    cubic_spring=6.0, cubic_damper=-0.02,
                    mass_damping=1.25e-4, stiffness_damping=2.5e-4,
                    tip_force=0.1)
    mm = modal_decompose(to_first_order(build_beam(spec)),
                         normalization="largest")
    ssm = compute_autonomous_ssm(mm, 3)
    assert abs(ssm.gamma[0] - GAMMA1_BEAM) < 1e-6 * abs(GAMMA1_BEAM)


def test_reduced_field_evaluation(sp_ssm7):
    s1 = 0.03 + 0.01j
    r = sp_ssm7.r0_at(s1, np.conj(s1))
    lam = sp_ssm7.lambda_master
    expect = lam * s1
    for j, g in enumerate(sp_ssm7.gamma, start=1):
        expect += g * s1 ** (j + 1) * np.conj(s1) ** j
    assert abs(r[0] - expect) < 1e-15
    assert abs(r[1] - np.conj(expect)) < 1e-14


def _golden_modal(name):
    if name == "beam25":
        return modal_decompose(to_first_order(build_beam(
            BeamSpec(elements=25, **BEAM))), normalization="largest")
    quintic = 1.2 if name == "quintic" else 0.0
    return modal_decompose(to_first_order(two_mass_system(quintic=quintic)))


@pytest.mark.parametrize("name, order", [("cubic", 51), ("quintic", 25),
                                         ("beam25", 51)])
def test_drift_coefficients_match_recorded_composition(name, order):
    ssm = compute_autonomous_ssm(_golden_modal(name), order)
    with np.load(GAMMA_GOLDEN) as npz:
        for field in ("gamma", "gamma_row2"):
            want = npz[f"{name}_{field}"]
            got = getattr(ssm, field)
            assert got.shape == want.shape
            # through polynomial degree 25: gamma[j] sits at degree 2j + 3
            err = np.abs(got[:12] - want[:12])
            assert np.all(err <= 1e-12 * np.abs(want[:12]))
    # every term is odd, so the even-degree slices are never solved
    W = ssm.w0_dense
    i1, i2 = np.indices(W.shape[1:])
    assert np.all(W[:, (i1 + i2) % 2 == 0] == 0)


def test_min_enslaved_den_is_smallest_relative_denominator(sp_modal):
    order = 7
    ssm = compute_autonomous_ssm(sp_modal, order)
    lam = sp_modal.eigenvalues
    lam1, lam2 = lam[0], lam[1]
    ratios = []
    for d in range(3, order + 1, 2):  # odd system: only odd degrees solved
        res1, res2 = (d + 1) // 2, (d - 1) // 2
        for i in range(len(lam)):
            for m1 in range(d + 1):
                if (i, m1) in ((0, res1), (1, res2)):
                    continue  # resonant slots carry the drift, no division
                den = lam[i] - (m1 * lam1 + (d - m1) * lam2)
                ratios.append(abs(den) / abs(lam[i]))
    assert ssm.min_enslaved_den == pytest.approx(min(ratios), rel=1e-14)
    assert ssm.min_enslaved_den > 1e-8
    assert compute_autonomous_ssm(sp_modal, 1).min_enslaved_den == np.inf


def _coefficient_defect(ssm, mm):
    """Coefficient-wise invariance defect Lambda W + G(W) - D_s W * R0 up to
    the expansion order, with G(W) composed on the full dense arrays by
    dense_mul / dense_pow (the reference for the graded composition)."""
    D, W, lam = ssm.order, ssm.w0_dense, mm.eigenvalues
    x = np.einsum("vl,lij->vij", mm.T, W)
    G = np.zeros_like(W)
    mono = mm.monomials
    for coeff, exponents, beta in zip(mono.coeffs, mono.exponents,
                                      mono.inject.T):
        prod = dense_zero(D)
        prod[0, 0] = 1.0
        for v, e in enumerate(exponents):
            if e:
                prod = dense_mul(prod, dense_pow(x[v], e, D), D)
        G += coeff * np.multiply.outer(beta, prod)
    R1, R2 = dense_zero(D), dense_zero(D)
    R1[1, 0], R2[0, 1] = lam[0], lam[1]
    for j, (g1, g2) in enumerate(zip(ssm.gamma, ssm.gamma_row2), start=1):
        R1[j + 1, j], R2[j, j + 1] = g1, g2
    idx = np.arange(1, D + 1)
    d1, d2 = np.zeros_like(W), np.zeros_like(W)
    d1[:, :D, :] = W[:, 1:, :] * idx[None, :, None]
    d2[:, :, :D] = W[:, :, 1:] * idx[None, None, :]
    flow = np.array([dense_mul(a, R1, D) + dense_mul(b, R2, D)
                     for a, b in zip(d1, d2)])
    lhs = lam[:, None, None] * W + G
    return lhs - flow, np.abs(lhs).max()


@pytest.mark.parametrize("g", [
    # odd terms sharing factor prefixes (x2**3 and x2**5)
    [PolyTerm(0, 0.4, (3, 0, 0, 0)), PolyTerm(0, -0.6, (0, 0, 3, 0)),
     PolyTerm(0, 1.2, (0, 0, 5, 0))],
    # even and mixed-variable terms: every degree is solved
    MIXED_TERMS,
])
def test_graded_composition_solves_invariance_coefficientwise(g):
    mm = modal_decompose(to_first_order(with_terms(g)))
    ssm = compute_autonomous_ssm(mm, 9)
    defect, scale = _coefficient_defect(ssm, mm)
    assert np.abs(defect).max() <= 1e-12 * scale
