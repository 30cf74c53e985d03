"""Polynomial kernels: the dense and graded kernels against a naive
coefficient double loop, and the compiled monomial nonlinearity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssm_resolve.model import to_first_order
from ssm_resolve.polyalg import (
    Monomials, dense_diff, dense_eval, dense_mask, dense_mul, dense_pow,
    dense_to_poly, dense_zero, graded_product_slice,
)

from conftest import MIXED_TERMS, with_terms


def dense(order, terms):
    """Dense array of ``{(i, j): c}``."""
    arr = dense_zero(order)
    for (i, j), c in terms.items():
        arr[i, j] = c
    return arr


def naive_mul(a, b, order):
    """Truncated product by the coefficient double loop."""
    out = dense_zero(order)
    for (i, j), x in np.ndenumerate(a):
        for (k, l), y in np.ndenumerate(b):
            if x != 0 and y != 0 and i + j + k + l <= order:
                out[i + k, j + l] += x * y
    return out


def naive_eval(arr, z1, z2):
    return sum(c * z1 ** i * z2 ** j for (i, j), c in np.ndenumerate(arr))


def degree(arr):
    """Largest total degree with a non-zero coefficient (-1 for zero)."""
    return max((i + j for i, j in np.argwhere(arr != 0)), default=-1)


def close(a, b):
    return np.all(np.abs(a - b) <= 1e-10 * np.abs(b) + 1e-12)


# ---------------------------------------------------------------- basic contracts

def test_mul_truncates_to_common_order():
    a = dense(4, {(2, 0): 1.0, (1, 0): 2.0})
    b = dense(4, {(2, 0): 1.0})
    # (x^2 + 2x) * x^2 = x^4 + 2x^3 -> x^4 dropped at order 3
    assert np.array_equal(dense_mul(a, b, 3), dense(3, {(3, 0): 2.0}))


def test_add_collects_and_cancels():
    # (s1 + s2)(s1 - s2): the two s1 s2 products collect and cancel to an
    # exact zero, not to round-off
    a = dense(3, {(1, 0): 0.1, (0, 1): 0.3})
    b = dense(3, {(1, 0): 0.1, (0, 1): -0.3})
    prod = dense_mul(a, b, 3)
    assert prod[1, 1] == 0.0
    assert np.count_nonzero(prod) == 2
    # a sum of products cancels exactly as well
    assert not np.any(dense_mul(a, b, 3) + dense_mul(a, -b, 3))


def test_diff_product_rule_simple():
    arr = dense(5, {(2, 1): 1.5})
    assert np.array_equal(dense_diff(arr, 0), dense(5, {(1, 1): 3.0}))
    assert np.array_equal(dense_diff(arr, 1), dense(5, {(2, 0): 1.5}))
    # stacked rows are differentiated row by row
    both = dense_diff(np.stack([arr, 2 * arr]), 0)
    assert np.array_equal(both[1], 2 * both[0])


def test_dense_kernels_keep_tiny_coefficients_and_structural_zeros():
    # a 1e-20 coefficient next to O(1) ones is kept (no relative drop), and
    # the product of two odd series is exactly zero at even degrees and
    # above the order
    a = dense(5, {(1, 0): 1.0, (0, 1): 0.5, (2, 1): 1e-20})
    prod = dense_mul(a, a, 5)
    assert prod[3, 1] == 2e-20 and prod[2, 2] == 1e-20
    i, j = np.indices(prod.shape)
    assert not np.any(prod[(i + j) % 2 == 1])
    assert not np.any(prod[~dense_mask(5)])
    assert np.array_equal(prod, naive_mul(a, a, 5))


def test_evaluation():
    # 2 z1^2 z2 - 1, injected into the second of two outputs
    mono = Monomials([2.0, -1.0], [(2, 1), (0, 0)], np.array([[0.0, 0.0],
                                                              [1.0, 1.0]]))
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
    val = mono.value(np.array([z1, z2]))
    assert val[0] == 0
    assert val[1] == pytest.approx(2.0 * z1 ** 2 * z2 - 1.0)


@pytest.mark.parametrize("exponent", [1, 2, 3, 5, 7])
def test_products_round_as_numpy_scalar_powers(exponent):
    # one term per variable, c * x_v**e, plus a mixed term; Python-float
    # products must equal the NumPy-scalar ones, and at overflow (where
    # Python's power raises) give NumPy's inf; value sums the same products
    rng = np.random.default_rng(exponent)
    mono = Monomials([0.7, -1.3, 0.4], [(exponent, 0), (0, exponent),
                                        (2, exponent)], np.eye(3, 3)[:2])
    xs = rng.normal(size=(3000, 2)) * 10.0 ** rng.uniform(-3, 3, (3000, 1))
    xs = np.concatenate([xs, [[0.0, -0.0], [-0.0, 3.0], [1e200, -1e300]]])
    with np.errstate(over="ignore", invalid="ignore"):
        for x in xs:
            want = [0.7 * x[0] ** exponent, -1.3 * x[1] ** exponent,
                    0.4 * x[0] ** 2 * x[1] ** exponent]
            got = mono.products(x)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            g = 0.0
            for t, w in enumerate(want):
                g = g + mono.inject[:, t] * w
            assert mono.value(x).tobytes() == g.tobytes()
    # complex points keep NumPy's complex power
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    assert np.array(mono.products(z)).tobytes() == np.array(
        [0.7 * z[0] ** exponent, -1.3 * z[1] ** exponent,
         0.4 * z[0] ** 2 * z[1] ** exponent]).tobytes()


def test_substitute_monomial_in_vector_of_polys():
    # t = 2 * u0^2 * u1 with u0 = s1 + s2, u1 = s1 - s2, grown to degree 3
    mono = Monomials([2.0], [(2, 1)], np.array([[1.0]]))
    comp = mono.graded(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    comp.grow(2)
    comp.push(None)
    comp.grow(3)
    assert not np.any(comp.value_slice(2))
    # 2 (s1+s2)^2 (s1-s2) = 2(s1^3 + s1^2 s2 - s1 s2^2 - s2^3); entry k is
    # the coefficient of s1^k s2^(3-k)
    assert np.array_equal(comp.value_slice(3), [[-2.0, -2.0, 2.0, 2.0]])


def test_substitute_rejects_length_mismatch():
    mono = Monomials([1.0], [(1, 1, 1)], np.array([[1.0]]))
    with pytest.raises(ValueError):
        mono.graded(np.ones((2, 2)))


def test_jacobian_of_the_mixed_terms():
    # 0.5 x0^2, -0.3 x0 x1, 0.2 x0 x2, 0.4 x0^2 x3: one derivative term per
    # variable of each term, injected by that term's column
    mono = to_first_order(with_terms(MIXED_TERMS)).monomials
    jac, pairs = mono.jacobian()
    assert pairs == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 3)]
    assert jac.coeffs == [1.0, -0.3, -0.3, 0.2, 0.2, 0.8, 0.4]
    assert jac.exponents == [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0),
                             (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 0, 1),
                             (2, 0, 0, 0)]
    assert np.array_equal(jac.inject, mono.inject[:, [0, 1, 1, 2, 2, 3, 3]])
    assert jac.active == mono.active == (0, 1, 2, 3)


def test_jacobian_of_a_three_variable_term():
    # 1.5 x0 x1^2 x3^3 among five variables
    mono = Monomials([1.5], [(1, 2, 0, 3, 0)], np.array([[2.0], [-1.0]]))
    jac, pairs = mono.jacobian()
    assert pairs == [(0, 0), (0, 1), (0, 3)]
    assert jac.coeffs == [1.5, 3.0, 4.5]
    assert jac.exponents == [(0, 2, 0, 3, 0), (1, 1, 0, 3, 0),
                             (1, 2, 0, 2, 0)]
    assert np.array_equal(jac.inject, [[2.0, 2.0, 2.0], [-1.0, -1.0, -1.0]])


def test_jacobian_of_no_terms_is_empty():
    mono = Monomials([], [], np.zeros((3, 0)))
    jac, pairs = mono.jacobian()
    assert pairs == [] and jac.coeffs == [] and jac.inject.shape == (3, 0)
    x = np.array([0.1, 0.2, 0.3])
    assert not np.any(mono.jacobian_apply(x, x))


def test_a_degree_two_terms_partial_is_its_variables_own_series():
    # d(x0^2)/dx0 = 2 x0 and d(x0 x1)/dx1 = x0: the graded composition
    # reads the series of x0 itself, with no partial product of its own
    mono = Monomials([1.0, 1.0], [(2, 0), (1, 1)], np.eye(2))
    jac, pairs = mono.jacobian()
    assert pairs == [(0, 0), (1, 0), (1, 1)]
    comp = jac.graded(np.array([[1.0, 2.0], [3.0, 4.0]]))
    comp.grow(2)
    comp.push(np.array([[5.0, 6.0, 7.0], [8.0, 9.0, 10.0]]))
    x0, x1 = comp.xs
    assert comp.terms[0] is x0 and comp.terms[1] is x1
    assert comp.terms[2] is x0
    # row 0: 2 x0; row 1: x1 + x0
    assert np.array_equal(comp.value_slice(2),
                          [[10.0, 12.0, 14.0], [13.0, 15.0, 17.0]])


# ---------------------------------------------------------------- property tests

def small_dense(order=4):
    coeff = st.complex_numbers(min_magnitude=0.01, max_magnitude=10,
                               allow_nan=False, allow_infinity=False)
    expo = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda m: sum(m) <= order)
    return st.dictionaries(expo, coeff, max_size=5).map(
        lambda t: dense(order, t))


@settings(max_examples=60, deadline=None)
@given(small_dense(), small_dense(), small_dense())
def test_mul_distributes_over_add(p, q, r):
    assert close(dense_mul(p, q + r, 4), naive_mul(p, q + r, 4))
    assert close(dense_mul(p, q + r, 4),
                 dense_mul(p, q, 4) + dense_mul(p, r, 4))


@settings(max_examples=60, deadline=None)
@given(small_dense(), small_dense())
def test_mul_commutes(p, q):
    assert close(dense_mul(p, q, 4), dense_mul(q, p, 4))
    assert close(dense_mul(p, q, 4), naive_mul(q, p, 4))


@settings(max_examples=60, deadline=None)
@given(small_dense(), small_dense(), st.integers(0, 1))
def test_derivative_product_rule(p, q, var):
    lhs = dense_diff(dense_mul(p, q, 4), var)
    rhs = (dense_mul(dense_diff(p, var), q, 4)
           + dense_mul(p, dense_diff(q, var), 4))
    # both sides are only defined up to order - 1 of the product
    below = dense_mask(3)
    assert close(lhs[:4, :4][below], rhs[:4, :4][below])
    # the index shift is the term-by-term derivative
    want = dense_zero(4)
    for (i, j), c in np.ndenumerate(p):
        e = (i, j)[var]
        if e:
            want[i - (var == 0), j - (var == 1)] += e * c
    assert np.array_equal(dense_diff(p, var), want)


@settings(max_examples=40, deadline=None)
@given(small_dense(order=3), small_dense(order=3))
def test_evaluation_is_ring_homomorphism_below_truncation(p, q):
    # at points small enough, truncation error is zero when degrees stay in range
    if degree(p) + degree(q) > 3:
        return
    z1, z2 = 0.37 - 0.21j, -0.11 + 0.18j
    prod = dense_mul(p, q, 3)
    assert dense_eval(prod, z1, z2) == pytest.approx(
        dense_eval(p, z1, z2) * dense_eval(q, z1, z2), rel=1e-9, abs=1e-12)
    assert dense_eval(p, z1, z2) == pytest.approx(naive_eval(p, z1, z2),
                                                  rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------- dense kernels

def test_dense_roundtrip_and_mul_matches_sparse():
    rng = np.random.default_rng(7)
    order = 6
    for _ in range(5):
        a = dense_zero(order)
        b = dense_zero(order)
        for arr in (a, b):
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    arr[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        pa, pb = dense_to_poly(a), dense_to_poly(b)
        assert np.array_equal(dense(order, pa.terms), a)
        # the product as the double loop over the sparse terms
        sm = dense_zero(order)
        for (i, j), x in pa.terms.items():
            for (k, l), y in pb.terms.items():
                if i + j + k + l <= order:
                    sm[i + k, j + l] += x * y
        assert close(dense_mul(a, b, order), sm)


def test_dense_pow_matches_repeated_mul():
    order = 8
    a = dense_zero(order)
    a[1, 0] = 1.0
    a[0, 1] = 0.5
    a[1, 1] = -0.25j
    p3 = dense_pow(a, 3, order)
    p_ref = dense_mul(dense_mul(a, a, order), a, order)
    assert np.allclose(p3, p_ref, atol=1e-13)


def test_dense_eval_matches_poly_eval():
    arr = dense(5, {(1, 0): 1.0, (0, 2): 2.0 - 1.0j, (3, 2): 0.25})
    z1, z2 = 0.4 + 0.3j, -0.5 - 0.1j
    assert dense_eval(arr, z1, z2) == pytest.approx(naive_eval(arr, z1, z2))
    # vectorized over points, and over stacked rows
    z1v = np.array([0.1, 0.2 + 0.1j, -0.3])
    z2v = np.array([0.0, 0.5, 0.25j])
    vals = dense_eval(arr, z1v, z2v)
    for k in range(3):
        assert vals[k] == pytest.approx(naive_eval(arr, z1v[k], z2v[k]))
    stacked = np.stack([arr, 2 * arr])
    sv = dense_eval(stacked, z1v, z2v)
    assert sv.shape == (2, 3)
    assert np.allclose(sv[1], 2 * vals)


# ---------------------------------------------------------------- graded kernel

def to_slices(arr):
    """Graded slices of a dense array that vanishes at the origin; slices
    with no non-zero entry are marked as structural zeros."""
    order = arr.shape[0] - 1
    out = [None]
    for d in range(1, order + 1):
        k = np.arange(d + 1)
        sl = arr[k, d - k]
        out.append(sl.copy() if np.any(sl) else None)
    return out


def from_slices(slices, order):
    arr = dense_zero(order)
    for d, sl in enumerate(slices):
        if sl is not None:
            k = np.arange(d + 1)
            arr[k, d - k] = sl
    return arr


def graded_product(a, b, order):
    return [None, None] + [graded_product_slice(a, b, d)
                           for d in range(2, order + 1)]


def graded_power(x, e, order):
    """x**e grown one slice per degree, each partial product reading only
    slices below the degree it produces (as the manifold solve does)."""
    chain = [x] + [[None, None] for _ in range(e - 1)]
    for d in range(2, order + 1):
        for k in range(1, e):
            chain[k].append(graded_product_slice(chain[k - 1], x, d))
    return chain[-1]


@st.composite
def origin_free_dense(draw, order, parity=None):
    """Random dense array with a zero constant term; ``parity`` 1 keeps only
    odd degrees (the others are structural zeros), 0 only even ones."""
    coeff = st.one_of(st.just(0j), st.complex_numbers(
        min_magnitude=0.01, max_magnitude=10, allow_nan=False,
        allow_infinity=False))
    arr = dense_zero(order)
    for d in range(1, order + 1):
        if parity is not None and d % 2 != parity:
            continue
        for k in range(d + 1):
            arr[k, d - k] = draw(coeff)
    return arr


def assert_matches_dense(got, want, scale):
    # scale is the same kernel on |coefficients|: it bounds every partial
    # sum, and it is exactly zero wherever the product must be
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 9))
def test_graded_product_matches_dense_mul(data, order):
    a = data.draw(origin_free_dense(order))
    b = data.draw(origin_free_dense(order))
    got = from_slices(graded_product(to_slices(a), to_slices(b), order),
                      order)
    assert_matches_dense(got, dense_mul(a, b, order),
                         dense_mul(np.abs(a), np.abs(b), order))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 9), st.integers(1, 5))
def test_graded_power_matches_dense_pow(data, order, e):
    a = data.draw(origin_free_dense(order))
    got = from_slices(graded_power(to_slices(a), e, order), order)
    assert_matches_dense(got, dense_pow(a, e, order),
                         dense_pow(np.abs(a), e, order))


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(3, 11), st.integers(2, 5))
def test_graded_power_keeps_parity_zeros_structural(data, order, e):
    # an odd series has only odd slices; its e-th power only slices of
    # degree = e mod 2, and every other slice stays an exact (None) zero
    a = data.draw(origin_free_dense(order, parity=1))
    x = to_slices(a)
    x = [sl if d % 2 == 1 else None for d, sl in enumerate(x)]
    power = graded_power(x, e, order)
    assert all(sl is None for d, sl in enumerate(power) if d % 2 != e % 2)
    assert all(sl is None for sl in power[:e])
    got = from_slices(power, order)
    assert_matches_dense(got, dense_pow(a, e, order),
                         dense_pow(np.abs(a), e, order))


def test_graded_product_slice_reads_only_lower_slices():
    # the degree-d slice is final before either factor's own slice d exists:
    # (s2 + 2j s1)**2 = s2**2 + 4j s1 s2 - 4 s1**2 from slice 1 alone
    x = [None, np.array([1.0, 2.0j])]
    assert np.array_equal(graded_product_slice(x, x, 2), [1.0, 4.0j, -4.0])
    x.append(None)  # a structural zero slice 2 ...
    assert graded_product_slice(x, x, 3) is None  # ... makes slice 3 one
