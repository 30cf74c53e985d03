"""First-order-in-forcing correction to the invariant manifold.

With physical forcing ``eps * f * cos(Omega t)`` the manifold and its reduced
dynamics acquire O(eps) corrections, each split into two harmonics:

    W(s, t) = W0(s) + eps * (e^{+i Omega t} Wp(s) + e^{-i Omega t} Wm(s))
    R(s, t) = R0(s) + eps * (e^{+i Omega t} Rp(s) + e^{-i Omega t} Rm(s))

Matching the invariance equation at O(eps) per harmonic gives, coefficient by
coefficient in the master monomials s1**k1 * s2**k2,

    (lam_i - <k, lam_E> -/+ i*Omega) * w_{i,k} = r_{i,k} [master rows]
                                                 + alpha_{i,k}

where alpha collects already-known lower-degree data: the resonant part of R0
acting on the correction (the cross term), the higher-degree embedding
carrying the reduced correction (the carry term), the nonlinearity's
Jacobian along the unforced manifold, and (at degree zero) the forcing
itself.  Slots whose denominator degenerates as Omega approaches the master
frequency are classified *structurally* (by the exponent pattern, not by the
numeric value of Omega): there the embedding coefficient is set to zero and
the reduced coefficient takes the slack.  All other slots are enslaved by a
scalar division, guarded against accidental near-resonance with non-master
modes.

Omega enters only through the diagonal denominators; the cross, carry and
Jacobian terms are linear maps that do not depend on it.  The work is
therefore split in two:

* a compile, once per manifold (``_forced_caches``, kept in ``ssm.caches``
  and built on the first solve), which turns each degree's three terms into
  small dense operators acting on the lower-degree unknowns: the cross term
  as a scalar map over monomials, shared by all rows; the carry term as a
  map from the earlier reduced (resonant-slot) values to ``w0`` columns, one
  per harmonic; the Jacobian term as ``beta ⊗ (J_d · T[active] W_{<d})``,
  with J_d read off the nonlinearity's Jacobian ``Monomials.jacobian``
  (each term's partial derivatives, a ``Monomials`` of their own) composed
  with ``T[active] W0`` by ``Monomials.graded``, one slice per degree, as
  the unforced manifold composes the nonlinearity itself;
* a march per batch of Omegas (``compute_nonautonomous_ssm``), which forms
  the denominators of every Omega in the batch, checks them all against the
  guard, and marches degree by degree on a (frequencies, harmonics, rows,
  columns) stack, a few small matrix products per degree.  Each product
  acts on every (rows, columns) matrix of the stack on its own, so a
  member's coefficients are bit for bit those of the one-Omega solve,
  which is the batch of one.

No operator couples all rows and monomials at once, so the compiled data
grow linearly with the state dimension.

One type holds the result, ``ForcedReduction``: a stack of frequencies
carries a leading axis, one frequency none, and ``take`` selects members.
The embedding stays in the march's flat monomial columns;
``ForcedReduction.dense`` is the one place that maps them to (k1, k2)
arrays.  Everything downstream (response curves, fold points, isola
geometry, physical amplitudes) consumes the data collected here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalResonanceError
from .polyalg import dense_eval, dense_jet
from .ssm_auto import RESONANCE_GUARD, AutonomousSsm, defect_report

#: the e^{+i Omega t} and e^{-i Omega t} harmonics, stacked on axis 0
SIGNS = np.array([1, -1])

#: working-set budget of one march slice, in bytes: past a few hundred kB
#: per array the per-degree temporaries start to cost page faults
MARCH_BYTES = 1 << 20


def leading_forcing_coefficient(mm) -> complex:
    """Forcing amplitude seen by the master mode: (T^-1 F)_1 / 2.

    This is the degree-zero reduced coefficient of the e^{+i Omega t}
    harmonic; it is independent of Omega and sets the scale of every
    forced-response feature.
    """
    return complex(mm.F_m[0]) / 2.0


@dataclass
class _Degree:
    """Omega-independent operators that assemble alpha at one degree d.

    Unknowns live in flat monomial columns, degree by degree with k1
    ascending, so the columns below degree d are ``[:cols.start]``.  An
    operator that is identically zero is stored as None.
    """
    cols: slice
    #: (cols.start, d+1): lower-degree embedding columns -> cross term
    cross: np.ndarray | None
    #: (2, res.start, rows*(d+1)): earlier reduced values -> carry term
    carry: np.ndarray | None
    #: (n_active*cols.start, n_terms*(d+1)): T[active] W_{<d} -> J_d
    jac: np.ndarray | None
    #: (2, n) row and column (within the degree) of its resonant slots
    res_rows: np.ndarray
    res_cols: np.ndarray
    #: where those slots sit in the reduced-value vector
    res: slice


def _jacobian_factors(mono, t_active: np.ndarray, w0: np.ndarray,
                      d1: int) -> np.ndarray:
    """(n_terms, n_active, d1+1, d1+1): d(term)/d(x_v) along the manifold.

    Entry [t, a] is coeff * e_v * prod_u x_u**(e_u - [u == v]) with
    x = T[active] W0 truncated at degree d1 and v the a-th active variable:
    the terms of ``mono.jacobian()`` composed with x by ``graded``.  Every
    term has degree >= 2, so the derivatives read the same variables.
    """
    jac, pairs = mono.jacobian()
    k = np.arange(d1 + 2)

    def x(c):
        return t_active @ w0[:, k[:c + 1], c - k[:c + 1]]

    comp = jac.graded(x(1))
    for d in range(2, d1 + 1):
        comp.grow(d)
        xd = x(d)
        comp.push(xd if np.any(xd) else None)
    out = np.zeros((len(mono.terms), len(mono.active), d1 + 1, d1 + 1),
                   dtype=complex)
    for (t, v), coeff, prod in zip(pairs, jac.coeffs, comp.terms):
        a = mono.active.index(v)
        for d, sl in enumerate(prod[:d1 + 1]):
            if sl is not None:
                out[t, a, k[:d + 1], d - k[:d + 1]] = coeff * sl
    return out


def _forced_caches(ssm: AutonomousSsm) -> dict:
    """Omega-independent data shared by every forced solve: the compile.

    Built on the first call and kept in ``ssm.caches["forced"]``.
    """
    cache = ssm.caches.get("forced")
    if cache is not None:
        return cache
    mm = ssm.mm
    d1 = ssm.order - 1
    w0 = ssm.w0_dense
    n2 = w0.shape[0]
    lam = mm.eigenvalues

    # flat monomial layout: degree by degree, k1 ascending within a degree
    start = np.concatenate(([0], np.cumsum(np.arange(1, d1 + 2))))
    deg = np.repeat(np.arange(d1 + 1), np.arange(1, d1 + 2))
    k1 = np.concatenate([np.arange(d + 1) for d in range(d1 + 1)])
    k2 = deg - k1

    # structurally resonant slots: row 0 at k1 - k2 = 1 - sign, row 1 at
    # k1 - k2 = -(1 + sign).  Both harmonics have the same number of them
    # at every degree, which lets them stack: one on each master row at
    # even degrees d >= 2, one (row 0 for e^{+}, row 1 for e^{-}) at d = 0
    resonant = np.zeros((2, n2, len(k1)), dtype=bool)
    slot_rows, slot_cols = [], []
    for b, sign in enumerate(SIGNS):
        resonant[b, 0] = (k1 - k2) == 1 - sign
        resonant[b, 1] = (k1 - k2) == -(1 + sign)
        rows, cols = np.nonzero(resonant[b])
        order = np.lexsort((cols, rows, deg[cols]))
        slot_rows.append(rows[order])
        slot_cols.append(cols[order])
    slot_rows = np.array(slot_rows)
    slot_cols = np.array(slot_cols)
    slot_deg = deg[slot_cols[0]]

    mono = mm.monomials
    terms = mono.terms
    t_active = mm.T[list(mono.active), :]
    factors = _jacobian_factors(mono, t_active, w0, d1) if terms else None
    n_terms, n_active = len(terms), len(mono.active)

    degrees = []
    for d in range(d1 + 1):
        lo, width = int(start[d]), d + 1
        kk1 = np.arange(width)
        kk2 = d - kk1

        cross = np.zeros((lo, width), dtype=complex)
        for j, (g1, g2) in enumerate(zip(ssm.gamma, ssm.gamma_row2), start=1):
            p1, p2 = kk1 - j, kk2 - j
            ok = (p1 >= 0) & (p2 >= 0)
            if np.any(ok):
                cross[start[d - 2 * j] + p1[ok], kk1[ok]] += (
                    g1 * p1[ok] + g2 * p2[ok])

        n_lo = int(np.searchsorted(slot_deg, d))
        carry = np.zeros((2, n_lo, n2, width), dtype=complex)
        for b in range(2):
            for s in range(n_lo):
                jrow, c = slot_rows[b, s], slot_cols[b, s]
                m1 = kk1 - k1[c] + (1 if jrow == 0 else 0)
                m2 = kk2 - k2[c] + (1 if jrow == 1 else 0)
                mj = m1 if jrow == 0 else m2
                ok = (m1 >= 0) & (m2 >= 0) & (mj >= 1)
                carry[b, s][:, ok] = mj[ok] * w0[:, m1[ok], m2[ok]]

        jac = None
        if terms and lo:
            e1 = kk1[None, :] - k1[:lo, None]
            e2 = kk2[None, :] - k2[:lo, None]
            ok = (e1 >= 0) & (e2 >= 0)
            jac = (factors[:, :, np.maximum(e1, 0), np.maximum(e2, 0)]
                   * ok).transpose(1, 2, 0, 3).reshape(n_active * lo,
                                                       n_terms * width)

        n_here = int(np.searchsorted(slot_deg, d, side="right"))
        degrees.append(_Degree(
            cols=slice(lo, lo + width),
            cross=cross if np.any(cross) else None,
            carry=carry.reshape(2, n_lo, -1) if np.any(carry) else None,
            jac=jac if jac is not None and np.any(jac) else None,
            res_rows=slot_rows[:, n_lo:n_here],
            res_cols=slot_cols[:, n_lo:n_here] - lo,
            res=slice(n_lo, n_here)))

    cache = {
        "d1": d1, "deg": deg, "k1": k1, "k2": k2,
        "base": lam[:, None] - (k1 * lam[0] + k2 * lam[1])[None, :],
        "resonant": resonant, "slot_rows": slot_rows,
        "slot_cols": slot_cols, "degrees": degrees,
        "beta": mono.inject if terms else None,
        "t_active": t_active,
    }
    ssm.caches["forced"] = cache
    return cache


@dataclass
class ForcedReduction:
    """O(eps) manifold and reduced-dynamics correction, at one frequency or
    stacked over several.

    A stack carries a leading frequency axis on every field but ``order``
    (``omega`` an array); one frequency carries none (``omega`` a float),
    as NumPy indexing drops an axis.  ``w`` holds the embedding corrections
    of both harmonics (e^{+} first) in the march's flat monomial columns,
    (2, rows, monomials); ``dense`` maps such columns to (k1, k2) arrays.
    ``r`` holds the reduced-field corrections of both harmonics on the two
    master rows as dense (2, 2, order, order) arrays.  ``c_res[i]`` is the
    e^{+} reduced coefficient on the diagonal slot (i, i) of row 1;
    ``d_pm[i]`` the e^{-} row-1 coefficient on slot (i+1, i-1) — together
    they are exactly the data entering the polar fixed-point problem.
    ``min_enslaved_den`` is the smallest enslaved |lambda_i - <m, lambda> -/+
    i*Omega| / max(|lambda_i|, |Omega|): the margin above
    ``RESONANCE_GUARD``, which aborts the solve.
    """
    omega: float | np.ndarray
    order: int
    w: np.ndarray
    r: np.ndarray
    c_res: np.ndarray
    d_pm: np.ndarray
    min_enslaved_den: float | np.ndarray

    def take(self, idx) -> ForcedReduction:
        """Members ``idx`` of a stack: an integer gives one frequency, an
        array of them a stack."""
        omega, den = self.omega[idx], self.min_enslaved_den[idx]
        if np.ndim(idx) == 0:
            omega, den = float(omega), float(den)
        return ForcedReduction(omega=omega, order=self.order, w=self.w[idx],
                               r=self.r[idx], c_res=self.c_res[idx],
                               d_pm=self.d_pm[idx], min_enslaved_den=den)

    def dense(self, flat: np.ndarray) -> np.ndarray:
        """A trailing axis of flat monomial columns (degree by degree, k1
        ascending) as dense (..., order, order) arrays indexed (k1, k2)."""
        n = self.order
        out = np.zeros(flat.shape[:-1] + (n * n,), dtype=flat.dtype)
        # degree d sits at k1 * order + d - k1, k1 = 0..d: a strided slice
        for d in range(n):
            lo = d * (d + 1) // 2
            out[..., d:d * n + 1:max(n - 1, 1)] = flat[..., lo:lo + d + 1]
        return out.reshape(flat.shape[:-1] + (n, n))


def compute_nonautonomous_ssm(ssm: AutonomousSsm, omega) -> ForcedReduction:
    """Solve the O(eps) invariance equation at forcing frequency ``omega``.

    ``omega`` is one frequency, which gives a ForcedReduction without a
    frequency axis, or a 1-D array of them, which gives the stack; one
    frequency is ``take(0)`` of the stack of one.  The expansion runs to
    total degree ``ssm.order - 1``, which is exactly what the unforced
    embedding of degree ``ssm.order`` supports.  The stack marches in slices
    of at most ``MARCH_BYTES`` of working set, and each member's
    coefficients do not depend on the others.
    """
    mm = ssm.mm
    cache = _forced_caches(ssm)
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    n_om = len(omegas)
    d1 = cache["d1"]
    k1, k2 = cache["k1"], cache["k2"]
    n2 = len(mm.eigenvalues)
    f_half = mm.F_m / 2.0

    w = np.empty((n_om, 2, n2, len(k1)), dtype=complex)
    r = np.zeros((n_om,) + cache["slot_rows"].shape, dtype=complex)
    min_den = np.empty(n_om)
    # den, inv, |den| and w: four (2, rows, monomials) arrays per frequency
    per_slice = max(1, MARCH_BYTES // (4 * w.itemsize * 2 * n2 * len(k1)))
    for lo in range(0, n_om, per_slice):
        part = slice(lo, lo + per_slice)
        min_den[part] = _march(cache, mm.eigenvalues, f_half, omegas[part],
                               w[part], r[part])

    both = np.arange(2)[:, None]
    r_dense = np.zeros((n_om, 2, 2, d1 + 1, d1 + 1), dtype=complex)
    slots = cache["slot_cols"]
    r_dense[:, both, cache["slot_rows"], k1[slots], k2[slots]] = r

    m_res = d1 // 2
    idx = np.arange(m_res + 1)
    c_res = r_dense[:, 0, 0, idx, idx]
    d_pm = np.zeros((n_om, m_res + 1), dtype=complex)
    d_pm[:, 1:] = r_dense[:, 1, 0, idx[1:] + 1, idx[1:] - 1]

    stack = ForcedReduction(omega=omegas, order=ssm.order, w=w, r=r_dense,
                            c_res=c_res, d_pm=d_pm, min_enslaved_den=min_den)
    return stack if np.ndim(omega) else stack.take(0)


def _march(cache: dict, lam: np.ndarray, f_half: np.ndarray,
           omega: np.ndarray, w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """March a slice of frequencies through the degrees, both harmonics
    stacked: writes the embedding columns into ``w`` and the reduced values
    into ``r``, and returns the smallest enslaved |denominator| of each,
    relative to the guard's scale max(|lambda_i|, |Omega|).

    Every operator acts on each (rows, columns) matrix of the stack on its
    own, so a member's result does not depend on the slice it is in.
    """
    n_om, n2 = len(omega), len(lam)
    den = (cache["base"]
           - (1j * omega)[:, None, None, None] * SIGNS[:, None, None])
    enslaved = ~cache["resonant"]
    mag = np.abs(den)
    scale = np.maximum(np.abs(lam), np.abs(omega)[:, None])[:, None, :, None]
    small = (mag < RESONANCE_GUARD * scale) & enslaved
    if np.any(small):
        # report the first offender in march order: frequency, harmonic,
        # degree, row
        deg = cache["deg"]
        q, b, i, m = min(np.argwhere(small),
                         key=lambda h: (h[0], h[1], deg[h[3]], h[2], h[3]))
        raise InternalResonanceError(
            f"enslaved coefficient near-resonant at Omega={omega[q]:g}: "
            f"|lambda_{i} - <({cache['k1'][m]},{cache['k2'][m]}), "
            f"lambda_master> {'-' if SIGNS[b] > 0 else '+'} i*Omega| = "
            f"{mag[q, b, i, m]:.3e}")
    min_den = np.where(enslaved, mag / scale, np.inf).min(axis=(1, 2, 3))
    inv = np.zeros_like(den)
    np.divide(1.0, den, out=inv, where=enslaved)

    beta, t_active = cache["beta"], cache["t_active"]
    y = np.zeros((n_om, 2, t_active.shape[0], w.shape[-1]), dtype=complex)
    both = np.arange(2)[:, None]
    for step in cache["degrees"]:
        cols = step.cols
        lo = cols.start
        alpha = np.zeros((n_om, 2, n2, cols.stop - lo), dtype=complex)
        if step.cross is not None:
            alpha += w[..., :lo] @ step.cross
        if step.carry is not None:
            alpha += (r[:, :, None, :step.res.start] @ step.carry).reshape(
                alpha.shape)
        if step.jac is not None:
            alpha -= beta @ (y[..., :lo].reshape(n_om, 2, -1)
                             @ step.jac).reshape(n_om, 2, beta.shape[1], -1)
        if lo == 0:
            alpha[..., 0] -= f_half
        vals = alpha * inv[..., cols]
        w[..., cols] = vals
        if beta is not None:
            y[..., cols] = t_active @ vals
        r[:, :, step.res] = -alpha[:, both, step.res_rows, step.res_cols]
    return min_den


def forced_residual(ssm: AutonomousSsm, fr: ForcedReduction, samples) -> dict:
    """O(eps) invariance defect of both harmonics at sample points s1 (s2 =
    conj), for the correction ``fr`` at one frequency.

    The nonlinearity Jacobian is evaluated exactly at the unforced embedding,
    so the defect measures the truncation error of the correction itself.
    Returns ``defect_report``'s maxima over both harmonics; relative values
    are scaled per sample by the largest of |forcing|/2 and |Lambda W1| of
    either harmonic, not by their sum.
    """
    mm = ssm.mm
    s1 = np.atleast_1d(np.asarray(samples, dtype=complex))
    s2 = np.conj(s1)
    w0, dw0_1, dw0_2 = dense_jet(ssm.w0_dense, s1, s2)
    x0 = mm.T @ w0
    r0 = ssm.r0_at(s1, s2)

    f_half = mm.F_m / 2.0
    worst_abs = np.zeros(len(s1))
    scale = np.full(len(s1), np.linalg.norm(f_half))
    for sign, w1arr, r1arr in zip((1, -1), fr.dense(fr.w), fr.r):
        w1v, dw1_1, dw1_2 = dense_jet(w1arr, s1, s2)
        r1v = dense_eval(r1arr, s1, s2).reshape(2, -1)
        lin = mm.eigenvalues[:, None] * w1v
        res = (sign * 1j * fr.omega * w1v
               + dw1_1 * r0[0] + dw1_2 * r0[1]
               + dw0_1 * r1v[0] + dw0_2 * r1v[1]
               - lin
               - mm.monomials.jacobian_apply(x0, mm.T @ w1v)
               - f_half[:, None])
        worst_abs = np.maximum(worst_abs, np.linalg.norm(res, axis=0))
        scale = np.maximum(scale, np.linalg.norm(lin, axis=0))
    return defect_report(worst_abs, scale)
