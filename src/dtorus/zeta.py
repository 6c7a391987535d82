"""Spectral zeta functions of discrete tori against the continuum torus.

The discrete zeta sums lambda^-s over nonzero Laplacian eigenvalues taken
from exact spectrum tables; the continuum reference sums over lattice
shells 4 pi^2 (m^2 + n^2) using the two-squares representation count.
Real s only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import mpmath
from mpmath.libmp import fzero, mpf_add, mpf_mul_int, mpf_pow, mpf_pow_int, mpf_rdiv_int
from mpmath.libmp import round_nearest as rnd

from .cyclotomic import approx_value, get_context
from .spectrum import DEFAULT_BUDGET, torus_spectrum


def r2_upto(limit: int) -> list[int]:
    """r2(m) for 0 <= m <= limit by counting lattice points.

    r2(m) counts representations of m as an ordered sum of two integer
    squares.  Rotation by 90 degrees splits the nonzero lattice points into
    orbits of four, each with exactly one point a >= 1, b >= 0, so every
    such point with a^2 + b^2 <= limit adds 4.  By convention r2(0) = 1
    (the origin; both zetas exclude it anyway).
    """
    if limit < 0:
        return []
    out = [1] + [0] * limit
    for a in range(1, isqrt(limit) + 1):
        a2 = a * a
        for b in range(isqrt(limit - a2) + 1):
            out[a2 + b * b] += 4
    return out


@dataclass(frozen=True)
class ZetaValue:
    """A zeta evaluation with a first-order error bound."""

    value: mpmath.mpf
    error: mpmath.mpf

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ZetaRow:
    """One rescaled discrete zeta value N^(-2s) zeta_{T^2_N}(s)."""

    n: int
    s: float
    value: mpmath.mpf


def zeta_discrete(
    n: int, d: int, s, bits: int = 128, budget: int = DEFAULT_BUDGET
) -> ZetaValue:
    """Sum of lambda^-s over the nonzero Laplacian eigenvalues of T^d_n.

    Eigenvalues are the exact keys 2d - mu of the adjacency keys mu,
    evaluated at ``bits`` precision; the error bound tracks the evaluation
    radii to first order plus summation rounding.  Terms are added in
    ascending eigenvalue order so output is deterministic.
    """
    if not s > 0:
        raise ValueError("need s > 0")
    t = torus_spectrum(n, d, budget)
    ctx = get_context(n)
    rows = []
    for mu, e in t.entries.items():
        lam = 2 * d - mu
        if not lam.is_zero():
            rows.append((2 * d - e.approx, lam, e.count))
    rows.sort(key=lambda r: (r[0], r[1]))
    with mpmath.workprec(bits + 32):
        s_mp = mpmath.mpf(s)
        total = mpmath.mpf(0)
        err = mpmath.mpf(0)
        for _, key, cnt in rows:
            av = approx_value(ctx, key, bits)
            lam = av.real
            if not lam > av.radius:
                raise AssertionError("nonzero Laplacian eigenvalue not separated from 0")
            term = lam ** (-s_mp)
            total += cnt * term
            err += cnt * s_mp * lam ** (-s_mp - 1) * av.radius
        # summation/powering rounding, a few ulps per term
        err += (3 * len(rows) + 4) * total * mpmath.mpf(2) ** (-(bits + 28))
        return ZetaValue(+total, +err)


def zeta_continuum_partial(s, cutoff: int, bits: int = 96) -> mpmath.mpf:
    """Partial sum of the continuum torus zeta over shells 0 < m^2+n^2 <= cutoff.

    Each shell M contributes r2(M) * (4 pi^2 M)^-s; requires s > 1 (where
    the full series converges).
    """
    if not s > 1:
        raise ValueError("need s > 1")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    counts = r2_upto(cutoff)
    with mpmath.workprec(bits):
        c = (4 * mpmath.pi**2)._mpf_
        neg_s = (-mpmath.mpf(s))._mpf_
    s_int = int(s) if s == int(s) else None
    # the libmp calls that the mpf operators of rm / (c*m)**s_int and
    # rm * (c*m)**-s make, in the same order and rounding: the sum is the
    # same to the bit, without the operator overhead
    total = fzero
    for m in range(1, cutoff + 1):
        rm = counts[m]
        if not rm:
            continue
        base = mpf_mul_int(c, m, bits, rnd)
        if s_int is not None:
            term = mpf_rdiv_int(rm, mpf_pow_int(base, s_int, bits, rnd), bits, rnd)
        else:
            term = mpf_mul_int(mpf_pow(base, neg_s, bits, rnd), rm, bits, rnd)
        total = mpf_add(total, term, bits, rnd)
    return mpmath.mp.make_mpf(total)


def cjk_table(
    s, n_list, cutoff: int, bits: int = 128, budget: int = DEFAULT_BUDGET
) -> tuple[list[ZetaRow], mpmath.mpf]:
    """Rescaled discrete zeta rows next to the continuum partial sum.

    Returns (rows, reference) with rows (N, N^(-2s) zeta_{T^2_N}(s)); no
    convergence assertion is made here, callers compare as they see fit.
    """
    if not s > 1:
        raise ValueError("need s > 1")
    reference = zeta_continuum_partial(s, cutoff)
    rows = []
    for n in n_list:
        if n < 3:
            raise ValueError("need n >= 3")
        zv = zeta_discrete(n, 2, s, bits, budget)
        with mpmath.workprec(bits + 32):
            scale = mpmath.mpf(n) ** (-2 * mpmath.mpf(s))
            rows.append(ZetaRow(n, float(s), +(scale * zv.value)))
    return rows, reference
