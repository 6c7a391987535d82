"""Spectral zeta functions of discrete tori against the continuum torus.

The discrete zeta sums lambda^-s over nonzero Laplacian eigenvalues taken
from exact spectrum tables; the continuum reference sums over lattice
shells 4 pi^2 (m^2 + n^2) using the two-squares representation count.
Real s only.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .cyclotomic import approx_value, get_context
from .spectrum import DEFAULT_BUDGET, laplacian_view, torus_spectrum


def r2_upto(limit: int) -> list[int]:
    """r2(m) for 0 <= m <= limit via a smallest-prime-factor sieve.

    r2(m) counts representations of m as an ordered sum of two integer
    squares: 4 times the product of (a+1) over primes p = 1 mod 4, zero
    when any prime q = 3 mod 4 has odd exponent.  By convention
    r2(0) = 1 (the origin; both zetas exclude it anyway).
    """
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    out = [0] * (limit + 1)
    if limit >= 0:
        out[0] = 1
    for m in range(1, limit + 1):
        x = m
        val = 4
        while x > 1:
            p = spf[x]
            a = 0
            while x % p == 0:
                x //= p
                a += 1
            if p % 4 == 1:
                val *= a + 1
            elif p % 4 == 3 and a % 2:
                val = 0
                break
        out[m] = val
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

    Eigenvalues come from exact keys evaluated at ``bits`` precision;
    the error bound tracks the evaluation radii to first order plus
    summation rounding.  Terms are added in ascending eigenvalue order
    so output is deterministic.
    """
    if not s > 0:
        raise ValueError("need s > 0")
    t = torus_spectrum(n, d, budget)
    lap = laplacian_view(t, 2 * d)
    ctx = get_context(n)
    rows = [
        (e.approx, key, e.count)
        for key, e in lap.entries.items()
        if not key.is_zero()
    ]
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
    if cutoff == 0:
        return mpmath.mpf(0)
    counts = r2_upto(cutoff)
    with mpmath.workprec(bits):
        s_mp = mpmath.mpf(s)
        c = 4 * mpmath.pi**2
        total = mpmath.mpf(0)
        s_int = int(s) if s == int(s) else None
        for m in range(1, cutoff + 1):
            rm = counts[m]
            if not rm:
                continue
            base = c * m
            if s_int is not None:
                total += rm / base**s_int
            else:
                total += rm * base ** (-s_mp)
        return +total


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
