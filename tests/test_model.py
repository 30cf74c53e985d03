"""Model layer: first-order embedding, modal coordinates, resonance checks."""

import numpy as np
import pytest

from ssm_resolve.beam import BeamSpec, build_beam
from ssm_resolve.errors import (ValidationError, SemisimplicityError)
from ssm_resolve.isola import leading_isola
from ssm_resolve.model import (MechanicalSystem, PolyTerm, to_first_order,
                               modal_decompose, spectral_quotient,
                               check_nonresonance)
from ssm_resolve.ssm_auto import compute_autonomous_ssm
from ssm_resolve.ssm_forced import leading_forcing_coefficient

from conftest import (MIXED_TERMS, SP, two_mass_lambda, two_mass_system,
                      with_terms)

# cantilever reference parameters (mm / kg / s), as in test_beam
BEAM = dict(length=2700.0, height=10.0, width=10.0, density=1780e-9,
            modulus=45e6, cubic_spring=6.0, cubic_damper=-0.02,
            mass_damping=1.25e-4, stiffness_damping=2.5e-4, tip_force=0.1)


def test_first_order_blocks(sp_system):
    fos = to_first_order(sp_system)
    n = 2
    assert np.allclose(fos.A[:n, :n], 0)
    assert np.allclose(fos.A[:n, n:], np.eye(n))
    assert np.allclose(fos.A[n:, :n], -np.linalg.solve(sp_system.M, sp_system.K))
    assert np.allclose(fos.A[n:, n:], -np.linalg.solve(sp_system.M, sp_system.C))
    # forcing and injections live in the velocity block only
    assert np.allclose(fos.F[:n], 0)
    assert np.allclose(fos.F[n:], sp_system.f / SP["m"])
    for t in fos.terms:
        assert np.allclose(t.inject[:n], 0)


def test_first_order_nonlinearity_eval(sp_system):
    fos = to_first_order(sp_system)
    x = np.array([0.2, -0.1, 0.4, 0.05])
    val = fos.nonlinearity(x)
    expected = np.zeros(4)
    expected[2] = -(SP["kappa"] * x[0] ** 3 + SP["alpha"] * x[2] ** 3) / SP["m"]
    assert np.allclose(val, expected, atol=1e-15)


def test_batch_nonlinearity_equals_columns_exactly():
    fos = to_first_order(build_beam(BeamSpec(elements=2, **BEAM)))
    X = np.random.default_rng(7).standard_normal((8, 64))
    batch = fos.nonlinearity(X)
    cols = np.column_stack([fos.nonlinearity(c) for c in X.T])
    assert batch.shape == (8, 64)
    assert batch.tobytes() == cols.tobytes()


def test_eigenvalues_match_closed_form(sp_modal):
    lam = sp_modal.eigenvalues
    l1, l2 = two_mass_lambda(1), two_mass_lambda(2)
    assert lam[0] == pytest.approx(l1, rel=1e-12)
    assert lam[1] == np.conj(lam[0])  # exactly conjugate by construction
    assert lam[2] == pytest.approx(l2, rel=1e-12)
    assert lam[3] == np.conj(lam[2])
    # decreasing real part
    assert lam[0].real > lam[2].real


def test_first_position_transform_structure(sp_modal):
    """Position parts of the mode shapes are (1, 1) and (1, -1); velocity rows
    are the eigenvalue times the position rows."""
    T = sp_modal.T
    lam = sp_modal.eigenvalues
    assert np.allclose(T[0], np.ones(4), atol=1e-10)
    assert np.allclose(T[1], [1, 1, -1, -1], atol=1e-10)
    assert np.allclose(T[2], T[0] * lam, atol=1e-10)
    assert np.allclose(T[3], T[1] * lam, atol=1e-10)
    assert np.allclose(sp_modal.T_inv @ T, np.eye(4), atol=1e-12)


def test_modal_field_matches_physical_field(sp_modal):
    """T*(Lambda q + G_m(q)) must equal A x + G_p(x) at x = T q."""
    rng = np.random.default_rng(3)
    fos = sp_modal.fos
    for _ in range(10):
        qr = rng.standard_normal(4) * 0.1
        q = sp_modal.T_inv @ (fos.A @ np.zeros(4) + qr)  # arbitrary complex-ish q
        lhs = sp_modal.T @ (sp_modal.eigenvalues * q + sp_modal.nonlinearity(q))
        x = sp_modal.T @ q
        rhs = fos.A @ x + fos.nonlinearity(x)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.fixture(scope="module")
def mixed_modal():
    return modal_decompose(to_first_order(with_terms(MIXED_TERMS)))


def test_mixed_modal_nonlinearity_is_projected_physical_one(mixed_modal):
    """G_m(q) = T^-1 G_p(T q), one state and a batch, for terms that read
    several variables and have even degree."""
    fos = mixed_modal.fos
    rng = np.random.default_rng(11)
    Q = mixed_modal.T_inv @ (0.2 * rng.standard_normal((4, 6)))
    want = mixed_modal.T_inv @ fos.nonlinearity(mixed_modal.T @ Q)
    got = mixed_modal.nonlinearity(Q)
    assert got.shape == (4, 6)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # a batch is evaluated column by column
    X = mixed_modal.T @ Q
    assert np.array_equal(mixed_modal.monomials.value(X[:, 2]), got[:, 2])


@pytest.mark.parametrize("space", ["physical", "modal"])
def test_mixed_jacobian_apply_matches_central_difference(mixed_modal, space):
    rng = np.random.default_rng(13)
    x = 0.3 * rng.standard_normal((4, 5))
    u = rng.standard_normal((4, 5))
    mono = mixed_modal.fos.monomials
    if space == "modal":
        # the modal injections act on complex physical states x = T q
        mono = mixed_modal.monomials
        x, u = x + 0.1j * u, u - 0.5j * x
    h = 1e-5
    want = (mono.value(x + h * u) - mono.value(x - h * u)) / (2 * h)
    got = mono.jacobian_apply(x, u)
    assert got.shape == (4, 5)
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    # one point at a time gives the batch columns
    assert np.allclose(mono.jacobian_apply(x[:, 1], u[:, 1]), got[:, 1],
                       rtol=1e-14, atol=0)


def test_forcing_transform(sp_modal):
    assert np.allclose(sp_modal.T @ sp_modal.F_m, sp_modal.fos.F, atol=1e-12)


def test_largest_normalization(sp_system):
    mm = modal_decompose(to_first_order(sp_system), normalization="largest")
    for col in range(4):
        v = mm.T[:, col]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        z = v[np.argmax(np.abs(v))]
        assert z.imag == pytest.approx(0.0, abs=1e-12)
        assert z.real > 0
    # spectrum is normalization-independent
    assert mm.eigenvalues[0] == pytest.approx(two_mass_lambda(1), rel=1e-12)


@pytest.mark.parametrize("system", ["two_mass", "beam25"])
def test_merger_forcing_is_independent_of_normalization(system):
    # first-position scaling makes the beam's eigenvector matrix look
    # near-defective (cond ~ 1e14) although the spectrum is semisimple
    sys_ = (two_mass_system() if system == "two_mass"
            else build_beam(BeamSpec(elements=25, **BEAM)))
    fos = to_first_order(sys_)
    eps_m = []
    for policy in ("first-position", "largest"):
        mm = modal_decompose(fos, normalization=policy)
        iso = leading_isola(mm, compute_autonomous_ssm(mm, 3),
                            leading_forcing_coefficient(mm), eps=0.002)
        eps_m.append(iso.eps_m)
    assert eps_m[0] == pytest.approx(eps_m[1], rel=1e-9)


def test_master_selection(sp_system):
    mm = modal_decompose(to_first_order(sp_system), master=1)
    assert mm.eigenvalues[0] == pytest.approx(two_mass_lambda(2), rel=1e-12)
    with pytest.raises(ValidationError):
        modal_decompose(to_first_order(sp_system), master=5)


def test_spectral_quotient(sp_modal):
    # ratio = Re(lam_2)/Re(lam_1) = (c1 + 2 c2)/c1 = 4.46... -> integer part 4
    ratio = (SP["c1"] + 2 * SP["c2"]) / SP["c1"]
    assert int(ratio) == 4
    assert spectral_quotient(sp_modal) == 4


def test_nonresonance_passes_for_benchmark(sp_modal):
    rep = check_nonresonance(sp_modal, spectral_quotient(sp_modal))
    assert rep.passed
    assert rep.sigma == 4
    assert not rep.violations
    # closest integer multiple is q = 4; margin |4*r - Re(lam_2)|
    r = sp_modal.eigenvalues[0].real
    expected = abs(4 * r - sp_modal.eigenvalues[2].real)
    assert rep.margins[2]["abs_margin"] == pytest.approx(expected, rel=1e-12)
    assert rep.margins[2]["q"] == 4


def test_nonresonance_detects_exact_violation():
    # c2 = c1/2 makes the second modal damper exactly 2*c1, so
    # Re(lam_2) = 2*Re(lam_1) exactly: a 2nd-order real-part resonance.
    sys = two_mass_system(c2=SP["c1"] / 2)
    mm = modal_decompose(to_first_order(sys))
    rep = check_nonresonance(mm, sigma=4)
    assert not rep.passed
    assert (2, 0, 2) in rep.violations and (1, 1, 2) in rep.violations
    assert any(l == 3 for (_, _, l) in rep.violations)


def test_semisimplicity_error_on_critical_damping():
    sys = MechanicalSystem(M=np.eye(1), C=np.array([[2.0]]), K=np.eye(1),
                           g=[], f=np.zeros(1))
    with pytest.raises(SemisimplicityError):
        modal_decompose(to_first_order(sys))


def test_overdamped_modes_are_handled():
    # second DOF overdamped: real eigenvalue singletons in the spectrum
    sys = MechanicalSystem(M=np.eye(2), C=np.diag([0.1, 5.0]),
                           K=np.eye(2), g=[PolyTerm(1, 0.3, (0, 3, 0, 0))],
                           f=np.array([1.0, 0.0]))
    mm = modal_decompose(to_first_order(sys))
    lam = mm.eigenvalues
    assert lam[0].imag > 0 and lam[1] == np.conj(lam[0])
    assert lam[2].imag == 0 and lam[3].imag == 0
    assert lam[2].real >= lam[3].real
    # field consistency still holds with real columns present
    rng = np.random.default_rng(5)
    q = mm.T_inv @ rng.standard_normal(4)
    lhs = mm.T @ (lam * q + mm.nonlinearity(q))
    x = mm.T @ q
    rhs = mm.fos.A @ x + mm.fos.nonlinearity(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_single_dof_is_vacuously_nonresonant():
    sys = MechanicalSystem(M=np.eye(1), C=np.array([[0.1]]), K=np.eye(1),
                           g=[], f=np.ones(1))
    mm = modal_decompose(to_first_order(sys))
    assert spectral_quotient(mm) == 1
    rep = check_nonresonance(mm, sigma=3)
    assert rep.passed and not rep.margins


def test_validation_rejects_bad_inputs():
    good = two_mass_system()
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.array([[1.0, 0.2], [0.0, 1.0]]), C=good.C,
                         K=good.K, g=[], f=good.f)  # asymmetric M
    with pytest.raises(ValidationError):
        MechanicalSystem(M=-np.eye(2), C=good.C, K=good.K, g=[], f=good.f)
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K,
                         g=[PolyTerm(0, 1.0, (1, 0, 0))], f=good.f)  # arity
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K,
                         g=[PolyTerm(0, 1.0, (1, 0, 0, 0))], f=good.f)  # degree 1
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K,
                         g=[PolyTerm(7, 1.0, (3, 0, 0, 0))], f=good.f)  # row
    with pytest.raises(ValidationError):
        MechanicalSystem(M=np.eye(2), C=good.C, K=good.K, g=[], f=good.f,
                         normalization="fancy")
