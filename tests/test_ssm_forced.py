"""Tests for the O(eps) forced correction to the manifold."""

from pathlib import Path

import numpy as np
import pytest

from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.errors import InternalResonanceError
from ssm_resolve.model import (MechanicalSystem, PolyTerm, modal_decompose,
                               to_first_order)
from ssm_resolve.polyalg import (dense_eval, dense_mask, dense_mul, dense_pow,
                                 dense_zero)
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve import ssm_forced
from ssm_resolve.ssm_forced import (_jacobian_factors,
                                    compute_nonautonomous_ssm,
                                    leading_forcing_coefficient,
                                    forced_residual)

from conftest import (BEAM, MIXED_TERMS, residual_slope, two_mass_lambda,
                      two_mass_system, with_terms)

# frozen leading forcing coefficient of the two-mass benchmark
C00_TWO_MASS = -0.21651447039099153j

#: forced reductions recorded from the coefficient-by-coefficient recursion
#: that the compiled per-degree solve replaced: keys "<case>_<k>_<field>"
#: for Omega = 0.97 and 1.02 times the master frequency (k = 0, 1)
GOLDEN = Path(__file__).parent / "data" / "forced_golden.npz"


@pytest.fixture(scope="module")
def sp_ssm7(sp_modal):
    return compute_autonomous_ssm(sp_modal, 7)


@pytest.fixture(scope="module")
def sp_forced(sp_ssm7, sp_modal):
    return compute_nonautonomous_ssm(sp_ssm7, sp_modal.lambda_master.imag)


def test_leading_coefficient_value_and_omega_independence(sp_ssm7, sp_modal):
    lfc = leading_forcing_coefficient(sp_modal)
    assert abs(lfc - C00_TWO_MASS) < 1e-12 * abs(C00_TWO_MASS)
    om1 = sp_modal.lambda_master.imag
    for om in (0.5 * om1, om1, 1.9 * om1):
        fr = compute_nonautonomous_ssm(sp_ssm7, om)
        assert fr.c_res[0] == lfc


def test_harmonics_mirror_under_conjugation(sp_forced):
    # row pairing of the modal spectrum: (0,1) and (2,3) are conjugate pairs
    pair = {0: 1, 1: 0, 2: 3, 3: 2}
    a, b = sp_forced.dense(sp_forced.w)
    scale = np.abs(a).max()
    for i in range(4):
        assert np.abs(b[pair[i]].T - np.conj(a[i])).max() < 1e-12 * scale


def test_reduced_rows_mirror_under_conjugation(sp_forced):
    # row 1 of the e^{-} harmonic against row 0 of the e^{+} one
    diff = np.abs(sp_forced.r[1, 1].diagonal()
                  - np.conj(sp_forced.r[0, 0].diagonal()))
    assert diff.max() < 1e-12 * np.abs(sp_forced.c_res).max()


def test_no_missed_small_denominator_at_resonance(sp_forced, sp_modal):
    # with Omega at the master frequency, every denominator not classified
    # as structurally resonant must stay clear of zero: at least
    # |2 M Re lambda_1| in size, relative to at most the largest guard scale
    half_order = len(sp_forced.c_res) - 1
    bound = abs(2 * half_order * sp_modal.lambda_master.real)
    scale = max(np.abs(sp_modal.eigenvalues).max(), abs(sp_forced.omega))
    assert sp_forced.min_enslaved_den >= bound / scale


@pytest.mark.parametrize("T", [1e-3, 1e3])
def test_min_enslaved_den_does_not_depend_on_the_time_unit(sp_system, T):
    """In the time unit tau = t / T every lambda_i and Omega scale by T,
    and so do the denominators and their guard's scale: the margin is a
    pure number."""
    n = sp_system.M.shape[0]
    scaled = MechanicalSystem(
        M=sp_system.M, C=T * sp_system.C, K=T ** 2 * sp_system.K,
        f=T ** 2 * sp_system.f,
        g=[PolyTerm(t.row, t.coeff * T ** (2 - sum(t.exponents[n:])),
                    t.exponents) for t in sp_system.g])
    got, want = (
        compute_nonautonomous_ssm(compute_autonomous_ssm(mm, 5),
                                  1.02 * mm.lambda_master.imag)
        for mm in (modal_decompose(to_first_order(s))
                   for s in (scaled, sp_system)))
    assert got.omega == pytest.approx(T * want.omega, rel=1e-12)
    assert got.min_enslaved_den == pytest.approx(want.min_enslaved_den,
                                                 rel=1e-12)


def test_forced_residual_small_and_order_scaling(sp_modal):
    om = sp_modal.lambda_master.imag
    for order in (3, 5, 7):
        ssm = compute_autonomous_ssm(sp_modal, order)
        fr = compute_nonautonomous_ssm(ssm, om)
        rng = np.random.default_rng(order)
        pts = 1e-3 * np.exp(2j * np.pi * rng.uniform(size=10))
        res = forced_residual(ssm, fr, pts)
        assert res["max_relative"] < 1e-9
        slope = residual_slope(lambda s: forced_residual(ssm, fr, s))
        assert slope >= order - 0.2


def test_order_one_keeps_only_leading_coefficient(sp_modal):
    ssm = compute_autonomous_ssm(sp_modal, 1)
    fr = compute_nonautonomous_ssm(ssm, sp_modal.lambda_master.imag)
    assert len(fr.c_res) == 1
    assert fr.dense(fr.w).shape == (2, 4, 1, 1)
    assert fr.c_res[0] == leading_forcing_coefficient(sp_modal)
    assert np.all(fr.d_pm == 0)


def test_linear_system_has_flat_correction():
    mm = modal_decompose(to_first_order(two_mass_system(kappa=0.0, alpha=0.0)))
    ssm = compute_autonomous_ssm(mm, 5)
    fr = compute_nonautonomous_ssm(ssm, mm.lambda_master.imag)
    assert np.all(fr.c_res[1:] == 0) and np.all(fr.d_pm == 0)
    # the correction is constant in the master coordinates
    for arr in fr.dense(fr.w):
        flat = arr.copy()
        flat[:, 0, 0] = 0
        assert np.abs(flat).max() == 0.0
    res = forced_residual(ssm, fr, [0.1 + 0.03j])
    assert res["max_absolute"] < 1e-13


def test_enslaved_near_resonance_is_refused():
    # halving the coupling damper makes the second mode decay exactly twice
    # as fast as the first; driving at the second modal frequency then lands
    # an enslaved denominator on zero
    mm = modal_decompose(to_first_order(two_mass_system(c2=0.015)))
    ssm = compute_autonomous_ssm(mm, 3, check=False)
    om_second = two_mass_lambda(2, c2=0.015).imag
    with pytest.raises(InternalResonanceError):
        compute_nonautonomous_ssm(ssm, om_second)
    # away from the second modal frequency the solve goes through
    fr = compute_nonautonomous_ssm(ssm, mm.lambda_master.imag)
    assert np.isfinite(fr.w).all()


@pytest.mark.parametrize("case, order", [("cubic", 5), ("quintic", 5),
                                         ("beam25", 3), ("mixed", 6)])
@pytest.mark.parametrize("march_bytes", [None, 1])
def test_batched_march_equals_one_omega_solves_byte_for_byte(
        case, order, march_bytes, monkeypatch):
    """Each member of a batch is the one-Omega solve, whatever the batch
    and however it is sliced (march_bytes 1: one Omega per slice): the
    float call equals ``take(i)`` of the array call in every field and in
    the dense view, as ``take(0)`` of the batch of one does."""
    if case == "beam25":
        mm = modal_decompose(to_first_order(build_beam(
            BeamSpec(elements=25, **BEAM))), normalization="largest")
    else:
        mm = modal_decompose(to_first_order(
            {"cubic": two_mass_system, "mixed": lambda: with_terms(MIXED_TERMS),
             "quintic": lambda: two_mass_system(quintic=1.2)}[case]()))
    ssm = compute_autonomous_ssm(mm, order, check=False)
    omegas = mm.lambda_master.imag * np.linspace(0.9, 1.1, 23)
    ones = [compute_nonautonomous_ssm(ssm, float(om)) for om in omegas]
    if march_bytes is not None:
        monkeypatch.setattr(ssm_forced, "MARCH_BYTES", march_bytes)
    batch = compute_nonautonomous_ssm(ssm, omegas)
    assert batch.omega.tolist() == omegas.tolist()
    single = compute_nonautonomous_ssm(ssm, omegas[:1])
    assert single.omega.shape == (1,)
    for got, one in [(single.take(0), ones[0])] + [
            (batch.take(i), one) for i, one in enumerate(ones)]:
        for name in ("omega", "min_enslaved_den"):
            assert type(getattr(one, name)) is float
            assert type(getattr(got, name)) is float
            assert getattr(got, name) == getattr(one, name), name
        assert got.order == one.order == order
        for name in ("w", "r", "c_res", "d_pm"):
            want = getattr(one, name)
            assert getattr(got, name).shape == want.shape
            assert getattr(got, name).tobytes() == want.tobytes(), name
        dense = got.dense(got.w)
        assert dense.shape == (2, len(mm.eigenvalues), order, order)
        assert dense.tobytes() == one.dense(one.w).tobytes()


def test_batch_with_one_near_resonant_omega_names_it():
    # as in test_enslaved_near_resonance_is_refused: driving at the second
    # modal frequency lands an enslaved denominator on zero
    mm = modal_decompose(to_first_order(two_mass_system(c2=0.015)))
    ssm = compute_autonomous_ssm(mm, 3, check=False)
    om_second = two_mass_lambda(2, c2=0.015).imag
    master = mm.lambda_master.imag
    omegas = np.array([0.98 * master, master, om_second, 1.02 * master])
    with pytest.raises(InternalResonanceError) as err:
        compute_nonautonomous_ssm(ssm, omegas)
    assert f"at Omega={om_second:g}:" in str(err.value)
    assert f"Omega={master:g}" not in str(err.value)
    # the batch without it goes through
    batch = compute_nonautonomous_ssm(ssm, np.delete(omegas, 2))
    assert np.isfinite(batch.w).all()


def test_physical_correction_is_real(sp_forced, sp_modal):
    rng = np.random.default_rng(3)
    s1 = rng.uniform(-0.05, 0.05, 8) + 1j * rng.uniform(-0.05, 0.05, 8)
    for phase in (0.0, 0.7, 2.4):
        wp, wm = (dense_eval(w, s1, np.conj(s1))
                  for w in sp_forced.dense(sp_forced.w))
        x = sp_modal.T @ (np.exp(1j * phase) * wp + np.exp(-1j * phase) * wm)
        assert np.abs(x.imag).max() < 1e-12 * max(np.abs(x.real).max(), 1e-30)


def test_truncation_consistency(sp_modal, sp_forced):
    ssm3 = compute_autonomous_ssm(sp_modal, 3)
    fr3 = compute_nonautonomous_ssm(ssm3, sp_forced.omega)
    assert np.allclose(fr3.c_res, sp_forced.c_res[:2], rtol=1e-12)
    assert np.allclose(fr3.d_pm, sp_forced.d_pm[:2], rtol=1e-12)


@pytest.mark.parametrize("case", ["two_mass3", "two_mass5", "beam25_3"])
def test_compiled_solve_matches_recorded_recursion(case, sp_modal):
    if case == "beam25_3":
        mm = modal_decompose(to_first_order(build_beam(
            BeamSpec(elements=25, **BEAM))), normalization="largest")
    else:
        mm = sp_modal
    ssm = compute_autonomous_ssm(mm, int(case[-1]))
    with np.load(GOLDEN) as npz:
        golden = {key: npz[key] for key in npz.files if key.startswith(case)}
    for k in (0, 1):
        key = f"{case}_{k}_"
        omega = float(golden[key + "omega"])
        assert omega == pytest.approx((0.97, 1.02)[k]
                                      * mm.lambda_master.imag, rel=1e-15)
        fr = compute_nonautonomous_ssm(ssm, omega)
        w_plus, w_minus = fr.dense(fr.w)
        for name, got in (("c_res", fr.c_res), ("d_pm", fr.d_pm),
                          ("w_plus", w_plus), ("w_minus", w_minus)):
            want = golden[key + name]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert fr.min_enslaved_den == pytest.approx(
            float(golden[key + "min_enslaved_den"]), rel=1e-12)


def test_compile_is_kept_per_manifold(sp_modal):
    ssm = compute_autonomous_ssm(sp_modal, 5)
    assert "forced" not in ssm.caches
    first = compute_nonautonomous_ssm(ssm, 1.7)
    compiled = ssm.caches["forced"]
    again = compute_nonautonomous_ssm(ssm, 1.7)
    assert ssm.caches["forced"] is compiled
    assert np.array_equal(first.w, again.w)
    assert np.array_equal(first.c_res, again.c_res)


@pytest.mark.parametrize("g", [None, MIXED_TERMS], ids=["cubic", "mixed"])
def test_graded_jacobian_factors_match_dense_products(g):
    """Each term's derivative along the manifold, grown on the graded
    chains, equals coeff * e_v * prod_u x_u**(e_u - [u == v]) composed on
    the full dense arrays by dense_mul / dense_pow."""
    system = two_mass_system() if g is None else with_terms(g)
    mm = modal_decompose(to_first_order(system))
    ssm = compute_autonomous_ssm(mm, 9)
    d1 = ssm.order - 1
    active = mm.monomials.active
    x = np.einsum("vl,lij->vij", mm.T, ssm.w0_dense)[:, :d1 + 1, :d1 + 1]
    x[:, ~dense_mask(d1)] = 0.0
    mono = mm.monomials
    want = np.zeros((len(mono.coeffs), len(active), d1 + 1, d1 + 1),
                    dtype=complex)
    for t, (coeff, exponents) in enumerate(zip(mono.coeffs, mono.exponents)):
        for a, v in enumerate(active):
            e = exponents[v]
            if not e:
                continue
            prod = dense_zero(d1)
            prod[0, 0] = 1.0
            for u, eu in enumerate(exponents):
                p = eu - (u == v)
                if p:
                    prod = dense_mul(prod, dense_pow(x[u], p, d1), d1)
            want[t, a] = coeff * e * prod
    got = _jacobian_factors(mm.monomials, mm.T[list(active), :],
                            ssm.w0_dense, d1)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
