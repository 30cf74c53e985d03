"""Sparse multivariate polynomials with truncation, plus dense bivariate kernels.

Coefficients are complex, exponents are tuples of non-negative ints.  Every value
carries its truncation order: terms of total degree above ``trunc_order`` are
discarded by all operations, which is exactly the arithmetic the manifold
expansions need (everything is computed degree by degree up to a fixed order).

Three representations live here:

* :class:`MultiPoly` -- a dict keyed by exponent tuples, exported from the
  package for small symbolic work.  No solver result carries one.
  Deterministic iteration is in graded lexicographic order (total degree
  first, then lex on the exponent tuple).
* dense bivariate coefficient arrays, shape ``(order+1, order+1)`` with
  ``arr[i, j]`` the coefficient of ``s1^i s2^j``.  Results (the embeddings
  and reduced fields) are stored this way.
* graded series: a list of homogeneous slices by degree, where slice ``j``
  is ``None`` (a structural zero) or a length ``j+1`` vector whose entry
  ``k`` is the coefficient of ``s1^k s2^(j-k)``.  The unforced manifold
  solve grows its compositions one slice per degree on this form
  (:func:`graded_product_slice`).

Values are immutable by convention after construction: no routine mutates a
``MultiPoly`` it did not create, so sharing across threads is safe.
"""

from __future__ import annotations

import numpy as np

# Relative magnitude below which a coefficient is dropped after arithmetic.
DROP_TOL = 1e-14


def _cleaned(terms: dict, trunc_order: int) -> dict:
    """Drop over-order terms and coefficients tiny relative to the largest."""
    if not terms:
        return {}
    kept = {m: c for m, c in terms.items() if sum(m) <= trunc_order and c != 0}
    if not kept:
        return {}
    biggest = max(abs(c) for c in kept.values())
    tol = DROP_TOL * biggest
    return {m: c for m, c in kept.items() if abs(c) > tol}


class MultiPoly:
    """Truncated sparse polynomial in ``num_vars`` variables.

    Parameters
    ----------
    num_vars : int
        Number of variables; every exponent tuple has this length.
    trunc_order : int
        Maximal retained total degree.
    terms : dict, optional
        Mapping exponent tuple -> complex coefficient.  Cleaned on entry
        (over-order terms removed, relatively tiny coefficients dropped).
    """

    __slots__ = ("num_vars", "trunc_order", "terms")

    def __init__(self, num_vars: int, trunc_order: int, terms: dict | None = None):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if trunc_order < 0:
            raise ValueError("trunc_order must be >= 0")
        self.num_vars = int(num_vars)
        self.trunc_order = int(trunc_order)
        if terms:
            for m in terms:
                if len(m) != num_vars:
                    raise ValueError(f"exponent {m} has wrong arity (expected {num_vars})")
                if any(e < 0 for e in m):
                    raise ValueError(f"negative exponent in {m}")
            self.terms = _cleaned(dict(terms), trunc_order)
        else:
            self.terms = {}

    # ------------------------------------------------------------------ factories
    @classmethod
    def zero(cls, num_vars: int, trunc_order: int) -> "MultiPoly":
        return cls(num_vars, trunc_order)

    @classmethod
    def constant(cls, value: complex, num_vars: int, trunc_order: int) -> "MultiPoly":
        return cls(num_vars, trunc_order, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, index: int, num_vars: int, trunc_order: int) -> "MultiPoly":
        m = [0] * num_vars
        m[index] = 1
        return cls(num_vars, trunc_order, {tuple(m): 1.0})

    @classmethod
    def monomial(cls, exponents, coeff: complex, trunc_order: int) -> "MultiPoly":
        exponents = tuple(int(e) for e in exponents)
        return cls(len(exponents), trunc_order, {exponents: coeff})

    # ------------------------------------------------------------------ queries
    def items_graded(self):
        """Terms as (exponents, coeff), graded-lex ordered (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def degree(self) -> int:
        """Total degree of the largest retained term (-1 for the zero poly)."""
        return max((sum(m) for m in self.terms), default=-1)

    def coefficient(self, exponents) -> complex:
        return self.terms.get(tuple(exponents), 0.0)

    def __call__(self, point) -> complex:
        """Evaluate at a point (sequence of ``num_vars`` numbers)."""
        point = [complex(z) for z in point]
        total = 0.0 + 0.0j
        for m, c in self.terms.items():
            v = c
            for z, e in zip(point, m):
                if e:
                    v *= z ** e
            total += v
        return total

    def __repr__(self):
        inner = ", ".join(f"{m}: {c:.6g}" for m, c in self.items_graded()[:6])
        more = "" if len(self.terms) <= 6 else f", ... ({len(self.terms)} terms)"
        return f"MultiPoly({self.num_vars} vars, order {self.trunc_order}, {{{inner}{more}}})"

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, tuple(self.items_graded())))


def _common_frame(p: MultiPoly, q: MultiPoly) -> tuple[int, int]:
    if p.num_vars != q.num_vars:
        raise ValueError("polynomials have different numbers of variables")
    return p.num_vars, min(p.trunc_order, q.trunc_order)


def poly_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p + q, truncated to the tighter of the two orders."""
    nv, order = _common_frame(p, q)
    terms = dict(p.terms)
    for m, c in q.terms.items():
        terms[m] = terms.get(m, 0.0) + c
    return MultiPoly(nv, order, terms)


def poly_scale(p: MultiPoly, factor: complex) -> MultiPoly:
    return MultiPoly(p.num_vars, p.trunc_order,
                     {m: factor * c for m, c in p.terms.items()})


def poly_sub(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return poly_add(p, poly_scale(q, -1.0))


def poly_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p * q with truncation to the tighter order."""
    nv, order = _common_frame(p, q)
    terms: dict = {}
    for mp, cp in p.terms.items():
        dp = sum(mp)
        for mq, cq in q.terms.items():
            if dp + sum(mq) > order:
                continue
            m = tuple(a + b for a, b in zip(mp, mq))
            terms[m] = terms.get(m, 0.0) + cp * cq
    return MultiPoly(nv, order, terms)


def poly_diff(p: MultiPoly, var: int) -> MultiPoly:
    """Partial derivative with respect to variable ``var``."""
    if not 0 <= var < p.num_vars:
        raise ValueError("variable index out of range")
    terms = {}
    for m, c in p.terms.items():
        e = m[var]
        if e == 0:
            continue
        dm = list(m)
        dm[var] = e - 1
        dm = tuple(dm)
        terms[dm] = terms.get(dm, 0.0) + e * c
    return MultiPoly(p.num_vars, p.trunc_order, terms)


def poly_substitute(coeff: complex, exponents, polys) -> MultiPoly:
    """Compose one monomial term with a vector of polynomials.

    Returns ``coeff * prod_v polys[v] ** exponents[v]`` truncated to the
    minimum trunc_order of the inputs.  ``exponents`` has one entry per entry
    of ``polys``; zero-exponent entries are skipped so their polys may be
    arbitrary placeholders.
    """
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != len(polys):
        raise ValueError("exponents and polys length mismatch")
    active = [(polys[v], e) for v, e in enumerate(exponents) if e > 0]
    if not active:
        p0 = polys[0]
        return MultiPoly.constant(coeff, p0.num_vars, p0.trunc_order)
    nv = active[0][0].num_vars
    order = min(p.trunc_order for p, _ in active)
    result = MultiPoly.constant(coeff, nv, order)
    for p, e in active:
        pw = _poly_pow(p, e, order)
        result = poly_mul(result, pw)
    return result


def _poly_pow(p: MultiPoly, e: int, order: int) -> MultiPoly:
    """p**e by binary powering, truncated to ``order``."""
    base = MultiPoly(p.num_vars, order, p.terms)
    result = MultiPoly.constant(1.0, p.num_vars, order)
    while e:
        if e & 1:
            result = poly_mul(result, base)
        e >>= 1
        if e:
            base = poly_mul(base, base)
    return result


def poly_allclose(p: MultiPoly, q: MultiPoly, *, atol: float = 0.0,
                  rtol: float = 1e-12) -> bool:
    """Coefficient-wise closeness; scale set by the largest coefficient."""
    if p.num_vars != q.num_vars:
        return False
    keys = set(p.terms) | set(q.terms)
    if not keys:
        return True
    scale = max([abs(c) for c in p.terms.values()] +
                [abs(c) for c in q.terms.values()] + [0.0])
    tol = atol + rtol * scale
    return all(abs(p.terms.get(m, 0.0) - q.terms.get(m, 0.0)) <= tol for m in keys)


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


def poly_to_dense(p: MultiPoly, order: int | None = None) -> np.ndarray:
    """MultiPoly (2 vars) -> dense array."""
    if p.num_vars != 2:
        raise ValueError("dense kernels are bivariate only")
    if order is None:
        order = p.trunc_order
    arr = dense_zero(order)
    for (i, j), c in p.terms.items():
        if i + j <= order:
            arr[i, j] = c
    return arr


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
