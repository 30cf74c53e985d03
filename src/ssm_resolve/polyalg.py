"""Polynomial kernels: univariate Horner sums, dense bivariate arrays,
graded series, and the compiled monomial nonlinearity.

This module is the one home of polynomial evaluation.  :func:`horner` sums
a power series in one variable, and :func:`even_val` / :func:`even_dval`
evaluate the even series in rho that the polar reduced field is made of.
The radial drift a(rho) = rho * sum p_i rho**(2i) is the one odd series:
:func:`odd_dval` gives its slope, and :func:`odd_level_roots` the
amplitudes where |a| meets a level, the fold amplitudes of the
leading-order forcing.
Two representations of a polynomial in the master coordinates live here:

* dense bivariate coefficient arrays, shape ``(order+1, order+1)`` with
  ``arr[i, j]`` the coefficient of ``s1^i s2^j`` and every entry above the
  order kept at exactly zero.  Results (the embeddings and reduced fields)
  are stored this way, and :func:`dense_eval` / :func:`dense_jet` evaluate
  them at points.
* graded series: a list of homogeneous slices by degree, where slice ``j``
  is ``None`` (a structural zero) or a length ``j+1`` vector whose entry
  ``k`` is the coefficient of ``s1^k s2^(j-k)``.  Compositions are grown one
  slice per degree on this form (:func:`graded_product_slice`).

:class:`Monomials` is the one place that knows how a monomial
nonlinearity ``G(x) = sum_t coeff_t * prod_v x_v**e_tv * inject_t`` is
evaluated and composed with a graded series; the first-order system and
the modal model each hold one.  Its Jacobian is another ``Monomials``
(:meth:`Monomials.jacobian`), so G and DG share one kernel at points
(:meth:`Monomials.products`) and one on series (:meth:`Monomials.graded`).

:func:`dense_mul` and :func:`dense_pow` are the straightforward dense
products that the graded kernels are tested against.  :class:`MultiPoly`
and :func:`dense_to_poly` have no caller in the package: they remain only
because the benchmark tracer wraps ``dense_to_poly`` by name, and go
together with that trace target.
"""

from __future__ import annotations

import numpy as np

_FLOAT = np.dtype(float)


def horner(coeffs: np.ndarray, u):
    """sum coeffs[i] * u**i, a column of 2-D ``coeffs`` per u; the steps of
    ``numpy.polynomial.polynomial.polyval`` without its argument handling."""
    val = coeffs[-1] + u * 0
    for c in coeffs[-2::-1]:
        val = c + val * u
    return val


def even_val(coeffs: np.ndarray, rho):
    """sum coeffs[i] * rho**(2i); a column of 2-D ``coeffs`` per rho."""
    u = np.asarray(rho, dtype=float) ** 2
    return horner(coeffs, u)


def even_dval(coeffs: np.ndarray, rho):
    """d/drho of sum coeffs[i] * rho**(2i); a column of 2-D ``coeffs`` per
    rho."""
    rho = np.asarray(rho, dtype=float)
    if len(coeffs) < 2:
        return np.zeros(np.shape(coeffs[0] * rho))
    idx = np.arange(1, len(coeffs)).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return rho * horner(2 * idx * coeffs[1:], rho ** 2)


def odd_dval(coeffs: np.ndarray, rho):
    """d/drho of rho * sum coeffs[i] * rho**(2i); a column of 2-D
    ``coeffs`` per rho."""
    return even_val(coeffs, rho) + np.asarray(rho) * even_dval(coeffs, rho)


def odd_level_roots(coeffs: np.ndarray, level: float) -> np.ndarray:
    """The distinct real rho >= 0 where |rho * sum coeffs[i] * rho**(2i)|
    equals ``level``, ascending: one ``np.roots`` per sign of the level.
    Every bound is relative, so the result scales with the length unit: a
    root counts when it lies within 1e-8 of its own size from the real
    axis and from -1e-14 times the largest root of its polynomial on
    (clamped to 0), and roots within 1e-9 of their size are one."""
    found: list[float] = []
    for rhs in (level, -level):
        poly = np.zeros(2 * len(coeffs))
        poly[:-1:2] = coeffs[::-1]
        poly[-1] = -rhs
        roots = np.roots(poly)
        floor = -1e-14 * np.abs(roots).max(initial=0.0)
        for z in roots:
            if abs(z.imag) <= 1e-8 * abs(z) and z.real >= floor:
                found.append(max(float(z.real), 0.0))
    found.sort()
    out: list[float] = []
    for r in found:
        if not out or r - out[-1] > 1e-9 * r:
            out.append(r)
    return np.asarray(out)


class MultiPoly:
    """Sparse bivariate coefficients ``{(i, j): c}`` up to ``trunc_order``."""

    __slots__ = ("num_vars", "trunc_order", "terms")

    def __init__(self, num_vars: int, trunc_order: int, terms: dict):
        self.num_vars = num_vars
        self.trunc_order = trunc_order
        self.terms = terms


# ---------------------------------------------------------------------------
# Dense bivariate kernels.  arr[i, j] is the coefficient of s1^i s2^j; entries
# with i + j > order are kept at exactly zero.
# ---------------------------------------------------------------------------

_mask_cache: dict[int, np.ndarray] = {}


def dense_mask(order: int) -> np.ndarray:
    """Boolean mask of in-order entries for shape (order+1, order+1)."""
    m = _mask_cache.get(order)
    if m is None:
        idx = np.arange(order + 1)
        m = idx[:, None] + idx[None, :] <= order
        _mask_cache[order] = m
    return m


def dense_zero(order: int, rows: int | None = None) -> np.ndarray:
    shape = (order + 1, order + 1) if rows is None else (rows, order + 1, order + 1)
    return np.zeros(shape, dtype=complex)


def dense_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Truncated product of two dense bivariate coefficient arrays.

    Computed by shift-accumulating the second array over the nonzero
    entries of the first (never by FFT): spectral convolution smears
    round-off scaled by the array maximum into slots whose true value is
    far smaller — including exact parity zeros — and the coefficient
    recursions built on this kernel amplify such seed noise by orders of
    magnitude per degree.  Plain multiply-add keeps every coefficient's
    error relative to its own magnitude and preserves structural zeros.
    """
    n = order + 1
    a = _fit_square(a, n)
    b = _fit_square(b, n)
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    out = np.zeros((n, n), dtype=complex)
    mask = dense_mask(order)
    for p, q in np.argwhere(a != 0):
        if p + q <= order:
            out[p:, q:] += a[p, q] * b[:n - p, :n - q]
    out[~mask] = 0.0
    return out


def _fit_square(x: np.ndarray, n: int) -> np.ndarray:
    if x.shape == (n, n):
        return x
    out = np.zeros((n, n), dtype=complex)
    r, c = min(n, x.shape[0]), min(n, x.shape[1])
    out[:r, :c] = x[:r, :c]
    return out


def dense_pow(a: np.ndarray, e: int, order: int) -> np.ndarray:
    """a**e for a dense bivariate array, binary powering, truncated."""
    result = dense_zero(order)
    result[0, 0] = 1.0
    base = a
    while e:
        if e & 1:
            result = dense_mul(result, base, order)
        e >>= 1
        if e:
            base = dense_mul(base, base, order)
    return result


def dense_diff(arr: np.ndarray, var: int) -> np.ndarray:
    """Partial derivative of dense array(s) with respect to ``s1`` (``var``
    0) or ``s2`` (``var`` 1), by shifting indices; same shape as ``arr``."""
    out = np.zeros_like(arr)
    idx = np.arange(1, arr.shape[-1])
    if var == 0:
        out[..., :-1, :] = arr[..., 1:, :] * idx[:, None]
    else:
        out[..., :-1] = arr[..., 1:] * idx
    return out


def graded_product_slice(a: list, b: list, d: int) -> np.ndarray | None:
    """Degree-``d`` slice of the product of two graded series.

    ``a`` and ``b`` list homogeneous slices by degree: ``a[j]`` is ``None``
    (a structural zero) or the length ``j+1`` vector whose entry ``k`` is
    the coefficient of ``s1^k s2^(j-k)``.  Both series must vanish at the
    origin (slice 0 is zero), so the slice ``sum_i a[i] * b[d-i]`` runs over
    ``i = 1..d-1`` and reads only slices below ``d``: it is final before
    either factor's own degree-``d`` slice is known.  A product of two
    slices is a 1-D convolution, by direct multiply-add for the reason
    :func:`dense_mul` gives.  Returns ``None`` when every pair holds a
    structural zero.
    """
    out = None
    for i in range(1, d):
        ai, bj = a[i], b[d - i]
        if ai is None or bj is None:
            continue
        if out is None:
            out = np.convolve(ai, bj)
        else:
            out += np.convolve(ai, bj)
    return out


def dense_eval(arr: np.ndarray, s1, s2) -> np.ndarray:
    """Evaluate dense array(s) at points.

    ``arr`` may be (D+1, D+1) or stacked (rows, D+1, D+1); ``s1``/``s2`` are
    scalars or equal-length vectors.  Returns scalar/vector or (rows,) /
    (rows, npts) accordingly.
    """
    s1 = np.atleast_1d(np.asarray(s1, dtype=complex))
    s2 = np.atleast_1d(np.asarray(s2, dtype=complex))
    d = arr.shape[-1] - 1
    pw1 = np.vander(s1, d + 1, increasing=True)  # (npts, D+1)
    pw2 = np.vander(s2, d + 1, increasing=True)
    if arr.ndim == 2:
        vals = np.einsum("ij,pi,pj->p", arr, pw1, pw2)
        return vals[0] if vals.shape == (1,) else vals
    vals = np.einsum("rij,pi,pj->rp", arr, pw1, pw2)
    return vals[:, 0] if vals.shape[1] == 1 else vals


def dense_jet(arr: np.ndarray, s1, s2) -> np.ndarray:
    """A stacked dense array (rows, D+1, D+1) and its s1 and s2 derivatives
    at points: (3, rows, npts), value first, from one :func:`dense_eval`."""
    jet = np.concatenate([arr, dense_diff(arr, 0), dense_diff(arr, 1)])
    return dense_eval(jet, s1, s2).reshape(3, len(arr), -1)


def dense_to_poly(arr: np.ndarray, trunc_order: int | None = None) -> MultiPoly:
    """Dense array -> MultiPoly (2 vars), dropping exact zeros."""
    d = arr.shape[0] - 1
    if trunc_order is None:
        trunc_order = d
    terms = {}
    nz = np.argwhere(arr != 0)
    for i, j in nz:
        if i + j <= trunc_order:
            terms[(int(i), int(j))] = complex(arr[i, j])
    return MultiPoly(2, trunc_order, terms)


class Monomials:
    """A monomial nonlinearity, compiled once for evaluation and graded
    composition.

    ``G(x) = sum_t coeffs[t] * prod_v x[v]**exponents[t][v] * inject[:, t]``,
    with ``inject`` of shape ``(n_out, n_terms)``.  ``coeffs`` and
    ``exponents`` are kept as given; the compiled ``terms`` keep only each
    term's non-zero exponents.  ``active`` lists the variables some term
    reads; ``odd`` is true when there are terms and every one has odd
    degree.

    :meth:`products` is the one kernel for the term products at a point;
    :meth:`value` sums them into G and :meth:`jacobian_apply` the products
    of :meth:`jacobian` into DG u.
    """

    def __init__(self, coeffs, exponents, inject: np.ndarray):
        self.coeffs = coeffs
        self.exponents = exponents
        self.inject = np.ascontiguousarray(inject)
        #: (coeff, ((var, exp), ...), inject column), in the given order
        self.terms = [(c, tuple((v, e) for v, e in enumerate(ex) if e),
                       np.ascontiguousarray(inject[:, t]))
                      for t, (c, ex) in enumerate(zip(coeffs, exponents))]
        self.active = tuple(sorted({v for _, fs, _ in self.terms
                                    for v, _ in fs}))
        self.odd = bool(self.terms) and all(
            sum(e for _, e in fs) % 2 == 1 for _, fs, _ in self.terms)

    def products(self, x: np.ndarray) -> list:
        """Each term's ``coeff * x[v1]**e1 * x[v2]**e2 ...`` at one point
        (n,), in term order, as a list of scalars.

        This is the one kernel for the monomials.  The entries of a float64
        point are read as Python floats (``x.item``), whose powers and
        products round exactly as NumPy's scalar ones do, and which later
        scalar sums take at Python's speed.  Python's power raises
        OverflowError where NumPy's returns inf, so on overflow the products
        are formed again from NumPy scalars, as they are for any other
        dtype.
        """
        if x.dtype == _FLOAT:
            try:
                return self._products(x.item)
            except OverflowError:
                pass
        return self._products(x.__getitem__)

    def _products(self, get) -> list:
        out = []
        for coeff, factors, _ in self.terms:
            mono = coeff
            for v, e in factors:
                mono = mono * get(v) ** e
            out.append(mono)
        return out

    def value(self, x: np.ndarray) -> np.ndarray:
        """G at one point (n,) or a batch (n, npts).

        The monomials come from :meth:`products`, and the terms are summed
        in order starting from zero.  A batch is evaluated column by
        column: NumPy's SIMD power loops can round differently from the
        scalar power in the last bit, and a batch column must equal the
        single-point value exactly.
        """
        if x.ndim == 2:
            out = np.empty((self.inject.shape[0], x.shape[1]),
                           np.result_type(x, self.inject, 1.0))
            for j in range(x.shape[1]):
                out[:, j] = self.value(x[:, j])
            return out
        if not self.terms:
            return np.zeros(self.inject.shape[0],
                            np.result_type(x, self.inject, 1.0))
        # a 0.0 start turns a -0.0 in the first term into +0.0, as a
        # zero-filled accumulator does
        out = 0.0
        for (_, _, inject), mono in zip(self.terms, self.products(x)):
            out = out + inject * mono
        return out

    def jacobian(self) -> tuple[Monomials, list]:
        """The partial derivatives of the terms, as a ``Monomials`` of their
        own, and the ``(t, v)`` of each.

        For each variable v of each term t, in order, the derivative term
        is ``coeffs[t] * e_v * x**(e - 1_v)``, injected by column t.
        """
        pairs = [(t, v) for t, (_, fs, _) in enumerate(self.terms)
                 for v, _ in fs]
        jac = Monomials(
            [self.coeffs[t] * self.exponents[t][v] for t, v in pairs],
            [tuple(e - (w == v) for w, e in enumerate(self.exponents[t]))
             for t, v in pairs],
            self.inject[:, [t for t, _ in pairs]])
        return jac, pairs

    def jacobian_apply(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """DG(x) @ u for one point (n,) or a batch (n, npts) of x and u."""
        out = np.zeros((self.inject.shape[0],) + x.shape[1:],
                       np.result_type(x, u, self.inject))
        jac, pairs = self.jacobian()
        for (_, v), (_, _, inject), part in zip(
                pairs, jac.terms, jac._products(x.__getitem__)):
            out += np.multiply.outer(inject, part * u[v])
        return out

    def graded(self, x1: np.ndarray) -> GradedComposition:
        """Start the graded composition of the terms with ``x = x1 + ...``.

        ``x1`` holds the degree-1 slices, one row per ``active`` variable.
        """
        return GradedComposition(self, x1)


class GradedComposition:
    """The terms of a :class:`Monomials` composed with a graded series.

    The power-series recurrence of the parameterization method (Haro et al.
    2016, *The Parameterization Method for Invariant Manifolds*, ch. 2).
    ``xs[a]`` holds the slices of the a-th active variable, extended by
    :meth:`push`.  A term ``x_a * x_b * ... * x_z`` is a chain of partial
    products ``P_k = P_{k-1} * x_{v_k}`` (prefixes shared between terms),
    each grown one slice per degree by :meth:`grow`:
    ``(P_k)_d = sum_i (P_{k-1})_i * (x_{v_k})_{d-i}``, which reads only
    slices below d.  So every slice is computed once, in O(D^3)
    convolutions overall.  Structural zeros (``None``) are skipped.
    """

    def __init__(self, mono: Monomials, x1: np.ndarray):
        if len(x1) != len(mono.active):
            raise ValueError(f"{len(x1)} series for "
                             f"{len(mono.active)} active variables")
        self.mono = mono
        self.xs = [[None, row] for row in x1]
        slot = {v: a for a, v in enumerate(mono.active)}
        chains = {(v,): self.xs[a] for v, a in slot.items()}
        keys = [tuple(v for v, e in fs for _ in range(e))
                for _, fs, _ in mono.terms]
        for key in keys:
            for k in range(2, len(key) + 1):
                chains.setdefault(key[:k], [None, None])
        #: slices of each term's monomial, without its coefficient
        self.terms = [chains[key] for key in keys]
        self._links = [(chains[key], chains[key[:-1]], self.xs[slot[key[-1]]])
                       for key in chains if len(key) > 1]

    def grow(self, d: int) -> None:
        """Append every chain's degree-``d`` slice (needs slices below d)."""
        for prod, head, x in self._links:
            prod.append(graded_product_slice(head, x, d))

    def push(self, x: np.ndarray | None) -> None:
        """Append the next slice of every active variable (rows of ``x``),
        or a structural zero for all of them when ``x`` is None."""
        for xa, row in zip(self.xs, [None] * len(self.xs) if x is None else x):
            xa.append(row)

    def value_slice(self, d: int) -> np.ndarray:
        """Degree-``d`` slice of G composed with the series, (n_out, d+1)."""
        out = np.zeros((self.mono.inject.shape[0], d + 1), dtype=complex)
        for (coeff, _, inject), prod in zip(self.mono.terms, self.terms):
            sl = prod[d]
            if sl is not None:
                out += coeff * np.multiply.outer(inject, sl)
        return out
