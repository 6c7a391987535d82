"""Spectral zeta functions of discrete tori against the continuum torus.

The discrete zeta sums lambda^-s over nonzero Laplacian eigenvalues taken
from exact spectrum tables; the continuum reference sums over lattice
shells 4 pi^2 (m^2 + n^2) using the two-squares representation count.
Finite real s only.  mpmath is imported inside the functions that
compute with it, so importing this module (and dtorus) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cyclotomic import PREC as FIXED_PREC
from .errors import BudgetExceeded, PreconditionViolated
from .spectrum import DEFAULT_BUDGET, by_value, torus_spectrum

# working precision of the continuum partial sum, in bits
PREC = 96
# working precision of the discrete sum and of cjk_table's rescaling, in bits
DISCRETE_PREC = 160
# rm << _QUOT_SHIFT over a mantissa below 2^(PREC+1) is at least 2^(PREC+2):
# the quotient keeps the round bit and two guard bits above the remainder
_QUOT_SHIFT = 2 * PREC + 3
# a mantissa below 2^(PREC+1) whose exponent is more than this many bits
# under that of a nonzero PREC-bit number is below a quarter of its ulp
_NEGLIGIBLE_SHIFT = 2 * PREC + 1
# the mantissas of PREC bits, whose ulp is 2^exponent: [_LOW, _TOP)
_LOW = 1 << (PREC - 1)
_TOP = 1 << PREC
# a term kept for reuse is one int, exponent << _MAN_BITS | mantissa: a
# rounded mantissa is below 2^(PREC+1), and the shift floors back to the
# exponent whatever its sign
_MAN_BITS = PREC + 1
_MAN_MASK = (1 << _MAN_BITS) - 1


def check_cutoff(cutoff: int, budget: int) -> None:
    """Refuse a continuum cutoff above the budget.

    The sum keeps an r2 list of cutoff + 1 ints; for an integer s the slots
    of the nonzero shells up to cutoff / 2 hold their terms instead, one
    packed int each, about 13 bytes per unit of cutoff in all at 10^6.
    """
    if cutoff > budget:
        raise BudgetExceeded(f"continuum cutoff {cutoff} exceeds the budget {budget}")


def r2_upto(limit: int) -> list[int]:
    """r2(m) for 0 <= m <= limit by counting lattice points.

    r2(m) counts representations of m as an ordered sum of two integer
    squares.  Rotation by 90 degrees splits the nonzero lattice points into
    orbits of four, each with exactly one point a >= 1, b >= 0; swapping a
    and b pairs the points with 1 <= b < a with those with 1 <= a < b.  So
    each point with 1 <= b < a and a^2 + b^2 <= limit adds 8, and the points
    (a, 0) and (a, a) add 4.  By convention r2(0) = 1 (the origin; both
    zetas exclude it anyway).
    """
    if limit < 0:
        return []
    out = [0] * (limit + 1)
    out[0] = 1
    squares = [b * b for b in range(isqrt(limit) + 1)]
    for a in range(1, len(squares)):
        a2 = squares[a]
        out[a2] += 4
        if 2 * a2 <= limit:
            out[2 * a2] += 4
        for b2 in squares[1 : min(a, isqrt(limit - a2) + 1)]:
            out[a2 + b2] += 8
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


def zeta_discrete(n: int, d: int, s, budget: int = DEFAULT_BUDGET) -> ZetaValue:
    """Sum of lambda^-s over the nonzero Laplacian eigenvalues of T^d_n.

    lambda 2^FIXED_PREC = (2d << FIXED_PREC) - mid is formed as an exact
    int from mu's fixed-point value mid (by_value), radius 2d units, 0 at
    f = 0; the error bound tracks the radii to first order plus summation
    rounding at DISCRETE_PREC bits.
    Terms are added in ascending eigenvalue order, which is by_value's
    descending mu, so output is deterministic.  The bound grows with s;
    past 10^-30 of the value, which would leave printed digits uncovered,
    PreconditionViolated is raised.
    """
    import mpmath

    if not (s > 0 and mpmath.isfinite(s)):
        raise ValueError("need finite s > 0")
    t = torus_spectrum(n, d, budget)
    rows = by_value(t, t.counts)
    with mpmath.workprec(DISCRETE_PREC):
        s_mp = mpmath.mpf(s)
        total = mpmath.mpf(0)
        err = mpmath.mpf(0)
        for mid, f, e in rows:
            if not any(e.representative):
                continue  # the tuple (0, ..., 0): mu = 2d, lambda = 0
            lam, radius = (2 * d << FIXED_PREC) - mid, 2 * d if f else 0
            if not lam > radius:
                raise AssertionError("nonzero Laplacian eigenvalue not separated from 0")
            lam, radius = (mpmath.mp.make_mpf(_mpf(m, -FIXED_PREC)) for m in (lam, radius))
            term = lam ** (-s_mp)
            total += e.count * term
            err += e.count * s_mp * lam ** (-s_mp - 1) * radius
        # summation/powering rounding, a few ulps per term, one term per nonzero row
        err += (3 * (len(t.counts) - 1) + 4) * total * mpmath.mpf(2) ** (4 - DISCRETE_PREC)
        if err > total * mpmath.mpf(10) ** -30:
            raise PreconditionViolated(
                f"zeta of T^{d}_{n} at s = {s}: relative error bound {mpmath.nstr(err / total, 3)} "
                "exceeds 1e-30, so s is too large for 30 certified digits"
            )
        return ZetaValue(+total, +err)


def _round(man: int, exp: int) -> tuple[int, int]:
    """man * 2^exp (man >= 0) rounded to PREC bits, half to even.

    The rounding of libmp's normalize in round_nearest, without its
    stripping of trailing zero bits: the value is the same.
    """
    n = man.bit_length() - PREC
    if n <= 0:
        return man, exp
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


def _add(am: int, ae: int, bm: int, be: int) -> tuple[int, int]:
    """am * 2^ae + bm * 2^be rounded as libmp's mpf_add rounds it at PREC
    bits in round-nearest; both are PREC-bit numbers as _round returns them."""
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    shift = ae - be
    if shift > _NEGLIGIBLE_SHIFT and am:
        return am, ae  # round-nearest drops the smaller one, so skip the long shift
    return _round((am << shift) + bm, be)


def _mpf(man: int, exp: int) -> tuple:
    """The normalized libmp tuple of man * 2^exp (man >= 0)."""
    if not man:
        from mpmath.libmp import fzero

        return fzero
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (0, man, exp + zeros, man.bit_length())


def _term_of(s):
    """The function (m, rm) -> (man, exp) of rm * (4 pi^2 m)^-s, for rm != 0.

    Each step is rounded as libmp's mpf_mul_int, mpf_pow_int (mpf_pow for
    non-integer s), and mpf_rdiv_int (mpf_mul_int) round it at PREC bits
    in round-nearest, so every term is theirs to the bit.  For an integer
    s every step acts on the mantissas alone: the term of (2^k m, rm) is
    that of (m, rm) with its exponent lowered by k s.
    """
    import mpmath
    from mpmath.libmp import mpf_pow, mpf_pow_int
    from mpmath.libmp import round_nearest as rnd

    with mpmath.workprec(PREC):
        _, cm, ce, _ = (4 * mpmath.pi**2)._mpf_
        neg_s = (-mpmath.mpf(s))._mpf_
    if s != int(s):

        def term(m, rm):
            bm, be = _round(cm * m, ce)  # mpf_mul_int(c, m)
            _, pm, pe, _ = mpf_pow(_mpf(bm, be), neg_s, PREC, rnd)
            return _round(pm * rm, pe)  # mpf_mul_int(base^-s, rm)

        return term
    s = int(s)
    # mpf_pow_int powers exactly while bc * s < 1000 and rounds in a fixed
    # direction beyond; s * PREC < 1000 keeps every base on the exact side
    exact_pow = s * PREC < 1000

    def term(m, rm):
        bm, be = _round(cm * m, ce)  # mpf_mul_int(c, m)
        if exact_pow:
            pm, pe = _round(bm**s, be * s)
        else:
            _, pm, pe, _ = mpf_pow_int(_mpf(bm, be), s, PREC, rnd)
        # mpf_rdiv_int(rm, base^s), the remainder as a sticky bit
        q, r = divmod(rm << _QUOT_SHIFT, pm)
        return _round(q << 1 | (r != 0), -pe - _QUOT_SHIFT - 1)

    return term


def zeta_continuum_partial(s, cutoff: int, budget: int = DEFAULT_BUDGET) -> mpmath.mpf:
    """Partial sum of the continuum torus zeta over shells 0 < m^2+n^2 <= cutoff.

    Each shell M contributes r2(M) * (4 pi^2 M)^-s; requires s > 1 (where
    the full series converges).  Terms are added in shell order, each sum
    rounded as libmp's mpf_add rounds it at PREC bits, so the result is
    the libmp loop's to the bit (README, "How the continuum partial sum is
    computed").  The loop stops once no later term can change the total;
    for an integer s an even shell reuses the term of its half, which it
    keeps in the r2 slot of that shell as one int (_MAN_BITS).  Raises
    BudgetExceeded when cutoff exceeds budget, before the r2 list of
    cutoff + 1 ints is built.
    """
    import mpmath

    if not (s > 1 and mpmath.isfinite(s)):
        raise ValueError("need finite s > 1")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    check_cutoff(cutoff, budget)
    counts = r2_upto(cutoff)
    term = _term_of(s)
    # for an integer s the term of an even shell is its half's, the exponent
    # lowered by s (_term_of); a non-integer s powers every shell
    step = int(s) if s == int(s) else None
    step_down = (step or 0) << _MAN_BITS  # lowers a packed term's exponent by step
    am, ae = 0, 0
    for j in range(cutoff.bit_length()):
        # a shell m >= 2^j has r2(m) <= 4 sqrt(m) + 2 < sqrt(4 pi^2 m), so its
        # term is under (4 pi^2 m)^(1/2 - s) < 2^((j + 5)(1/2 - s)); once that
        # lies 2 bits (for the terms' rounding) more than _NEGLIGIBLE_SHIFT
        # under ae, round-nearest drops every later term
        if am and (j + 5) * (2 * s - 1) >= 2 * (_NEGLIGIBLE_SHIFT + 2 - ae):
            break
        for m in range(1 << j, min(2 << j, cutoff + 1)):
            rm = counts[m]
            if not rm:
                continue
            if m & 1 or step is None:
                bm, be = term(m, rm)
            else:
                packed = counts[m >> 1] - step_down  # r2(m) = r2(m/2)
                bm, be = packed & _MAN_MASK, packed >> _MAN_BITS
            if step and 2 * m <= cutoff:
                counts[m] = be << _MAN_BITS | bm  # r2(m) is spent; shell 2m reuses the term
            # the grid step: bm's bits under am's ulp round onto am's grid,
            # half to even on the new sum, unless the sum carries into the
            # next binade; it stays here, as a call per term costs about 9 %
            shift = ae - be
            if 0 < shift <= _NEGLIGIBLE_SHIFT and _LOW <= am:
                man = am + (bm >> shift)
                if man < _TOP:
                    rest, half = bm & ((1 << shift) - 1), 1 << (shift - 1)
                    if rest > half or rest == half and man & 1:
                        man += 1
                    am = man
                    continue
            am, ae = _add(am, ae, bm, be)
    return mpmath.mp.make_mpf(_mpf(am, ae))


def cjk_table(s, n_list, cutoff: int, budget: int = DEFAULT_BUDGET) -> tuple[list[ZetaRow], mpmath.mpf]:
    """Rescaled discrete zeta rows next to the continuum partial sum.

    Returns (rows, reference) with rows (N, N^(-2s) zeta_{T^2_N}(s)); no
    convergence assertion is made here, callers compare as they see fit.
    """
    import mpmath

    if not (s > 1 and mpmath.isfinite(s)):
        raise ValueError("need finite s > 1")
    if any(n < 3 for n in n_list):
        raise ValueError("need n >= 3")
    check_cutoff(cutoff, budget)
    rows = []
    for n in n_list:
        zv = zeta_discrete(n, 2, s, budget)
        with mpmath.workprec(DISCRETE_PREC):
            scale = mpmath.mpf(n) ** (-2 * mpmath.mpf(s))
            rows.append(ZetaRow(n, float(s), +(scale * zv.value)))
    # last: the discrete rows may refuse s, and at a large s this sum is slow
    return rows, zeta_continuum_partial(s, cutoff, budget)
