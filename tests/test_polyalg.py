"""Polynomial algebra layer: arithmetic identities and the dense kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssm_resolve.polyalg import (
    MultiPoly, poly_add, poly_sub, poly_scale, poly_mul, poly_diff,
    poly_substitute, poly_allclose,
    dense_zero, dense_mul, dense_pow, dense_eval, poly_to_dense, dense_to_poly,
    graded_product_slice,
)


def mp(order, terms, nv=2):
    return MultiPoly(nv, order, terms)


# ---------------------------------------------------------------- basic contracts

def test_mul_truncates_to_common_order():
    p = mp(3, {(2, 0): 1.0, (1, 0): 2.0})
    q = mp(3, {(2, 0): 1.0})
    r = poly_mul(p, q)
    # (x^2 + 2x) * x^2 = x^4 + 2x^3 -> x^4 dropped at order 3
    assert r.terms == {(3, 0): 2.0}


def test_add_collects_and_cancels():
    p = mp(4, {(1, 1): 1.0, (2, 0): 3.0})
    q = mp(4, {(1, 1): -1.0, (0, 2): 5.0})
    r = poly_add(p, q)
    assert (1, 1) not in r.terms
    assert r.terms == {(2, 0): 3.0, (0, 2): 5.0}


def test_diff_product_rule_simple():
    p = mp(5, {(2, 1): 1.5})
    assert poly_diff(p, 0).terms == {(1, 1): 3.0}
    assert poly_diff(p, 1).terms == {(2, 0): 1.5}


def test_relative_drop_tolerance():
    # coefficient 1e-20 next to O(1) coefficients is noise and must go;
    # alone it is a legitimate tiny polynomial and must stay.
    noisy = mp(3, {(1, 0): 1.0, (2, 0): 1e-20})
    assert (2, 0) not in noisy.terms
    tiny = mp(3, {(2, 0): 1e-20})
    assert tiny.terms == {(2, 0): 1e-20}


def test_graded_lex_iteration_order():
    p = mp(3, {(0, 2): 1.0, (1, 0): 1.0, (2, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    keys = [m for m, _ in p.items_graded()]
    assert keys == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_substitute_monomial_in_vector_of_polys():
    # t = 2 * u0^2 * u1 with u0 = x + y, u1 = x - y, truncated at order 3
    x = MultiPoly.variable(0, 2, 3)
    y = MultiPoly.variable(1, 2, 3)
    u0 = poly_add(x, y)
    u1 = poly_sub(x, y)
    r = poly_substitute(2.0, (2, 1), [u0, u1])
    # 2 (x+y)^2 (x-y) = 2(x^3 + x^2 y - x y^2 - y^3)
    assert r.terms == {(3, 0): 2.0, (2, 1): 2.0, (1, 2): -2.0, (0, 3): -2.0}


def test_substitute_rejects_length_mismatch():
    x = MultiPoly.variable(0, 2, 3)
    with pytest.raises(ValueError):
        poly_substitute(1.0, (1, 1, 1), [x, x])


def test_arity_checks():
    with pytest.raises(ValueError):
        MultiPoly(2, 3, {(1, 2, 3): 1.0})
    with pytest.raises(ValueError):
        MultiPoly(2, 3, {(-1, 0): 1.0})
    p = mp(3, {(1, 0): 1.0})
    q = MultiPoly(3, 3, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        poly_add(p, q)


def test_evaluation():
    p = mp(4, {(2, 1): 2.0, (0, 0): -1.0})
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
    assert p([z1, z2]) == pytest.approx(2.0 * z1**2 * z2 - 1.0)


# ---------------------------------------------------------------- property tests

def small_polys(order=4):
    coeff = st.complex_numbers(min_magnitude=0.01, max_magnitude=10,
                               allow_nan=False, allow_infinity=False)
    expo = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda m: sum(m) <= order)
    return st.dictionaries(expo, coeff, max_size=5).map(
        lambda t: MultiPoly(2, order, t))


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_mul_distributes_over_add(p, q, r):
    lhs = poly_mul(p, poly_add(q, r))
    rhs = poly_add(poly_mul(p, q), poly_mul(p, r))
    assert poly_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_mul_commutes(p, q):
    assert poly_allclose(poly_mul(p, q), poly_mul(q, p), rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), st.integers(0, 1))
def test_derivative_product_rule(p, q, var):
    lhs = poly_diff(poly_mul(p, q), var)
    rhs = poly_add(poly_mul(poly_diff(p, var), q),
                   poly_mul(p, poly_diff(q, var)))
    # d/ds truncation note: both sides only defined up to order-1 of the product
    lhs = MultiPoly(2, p.trunc_order - 1, lhs.terms)
    rhs = MultiPoly(2, p.trunc_order - 1, rhs.terms)
    assert poly_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_polys(order=3), small_polys(order=3))
def test_evaluation_is_ring_homomorphism_below_truncation(p, q):
    # at points small enough, truncation error is zero when degrees stay in range
    if p.degree() + q.degree() > 3:
        return
    z = [0.37 - 0.21j, -0.11 + 0.18j]
    prod = poly_mul(p, q)
    assert prod(z) == pytest.approx(p(z) * q(z), rel=1e-9, abs=1e-12)


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
        dm = dense_mul(a, b, order)
        sm = poly_mul(pa, pb)
        assert poly_allclose(dense_to_poly(dm), sm, rtol=1e-10, atol=1e-12)


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
    order = 5
    p = mp(order, {(1, 0): 1.0, (0, 2): 2.0 - 1.0j, (3, 2): 0.25})
    arr = poly_to_dense(p)
    z1, z2 = 0.4 + 0.3j, -0.5 - 0.1j
    assert dense_eval(arr, z1, z2) == pytest.approx(p([z1, z2]))
    # vectorized over points, and over stacked rows
    z1v = np.array([0.1, 0.2 + 0.1j, -0.3])
    z2v = np.array([0.0, 0.5, 0.25j])
    vals = dense_eval(arr, z1v, z2v)
    for k in range(3):
        assert vals[k] == pytest.approx(p([z1v[k], z2v[k]]))
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
