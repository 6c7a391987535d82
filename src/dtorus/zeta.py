"""Spectral zeta functions of discrete tori against the continuum torus.

The discrete zeta sums lambda^-s over nonzero Laplacian eigenvalues taken
from exact spectrum tables; the continuum reference sums over lattice
shells 4 pi^2 (m^2 + n^2) using the two-squares representation count.
Finite real s only.  Every value is a pair of ints (man, exp), the exact
binary number man * 2^exp with man >= 0, and every step rounds as libmp
(mpmath's arithmetic) rounds it in round-nearest, so each value is what
mpmath's mpf code would compute, to the bit (README, "How the zeta values
are computed").  Only where libmp leaves its exact integer powers, at a
non-integer s or a large one, is mpmath imported, by _libmp_pow alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, isqrt, ldexp

from .arith import decimal
from .cyclotomic import PREC as FIXED_PREC
from .cyclotomic import _pi_fixed
from .errors import BudgetExceeded, PreconditionViolated
from .spectrum import DEFAULT_BUDGET, by_value, torus_spectrum

# working precision of the continuum partial sum, in bits
PREC = 96
# working precision of the discrete sum and of cjk_table's rescaling, in bits
DISCRETE_PREC = 160
# mpmath's default working precision, at which verify cjk takes its gaps
GAP_PREC = 53
# libmp's mpf_pow_int powers a mantissa of bc bits exactly while bc * n is
# below this; beyond, it rounds in a fixed direction as it squares
_EXACT_POW_BITS = 1000
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
    """Refuse a negative continuum cutoff, or one above the budget.

    The sum keeps an r2 list of cutoff + 1 ints; for an integer s the slots
    of the nonzero shells up to cutoff / 2 hold their terms instead, one
    packed int each, about 13 bytes per unit of cutoff in all at 10^6.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
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
    """A zeta evaluation with a first-order error bound, each a pair (man,
    exp) of ints, the value man * 2^exp."""

    value: tuple[int, int]
    error: tuple[int, int]

    def __float__(self) -> float:
        try:
            return ldexp(*self.value)
        except OverflowError:  # past the float range, where float(mpf) gives inf
            return inf


@dataclass(frozen=True)
class ZetaRow:
    """One rescaled discrete zeta value N^(-2s) zeta_{T^2_N}(s), a pair
    (man, exp) of ints."""

    n: int
    s: float
    value: tuple[int, int]


def _exact(s):
    """s as an int when it is integer-valued, else as a Fraction: so -s,
    -s - 1 and -2s are exact, as mpmath forms them from mpf(s) at
    DISCRETE_PREC bits (a float's 53 bits leave room for them)."""
    return int(s) if s == int(s) else Fraction(s)


def zeta_discrete(n: int, d: int, s, budget: int = DEFAULT_BUDGET) -> ZetaValue:
    """Sum of lambda^-s over the nonzero Laplacian eigenvalues of T^d_n.

    lambda 2^FIXED_PREC = (2d << FIXED_PREC) - mid is formed as an exact
    int from mu's fixed-point value mid (by_value), radius 2d units, 0 at
    f = 0; the error bound tracks the radii to first order plus summation
    rounding at DISCRETE_PREC bits.  Each step rounds at DISCRETE_PREC as
    the mpf code total += count * lambda^-s, err += count * s *
    lambda^(-s-1) * radius rounds it (_power, _round, _add).
    Terms are added in ascending eigenvalue order, which is by_value's
    descending mu, so output is deterministic.  The bound grows with s;
    past 10^-30 of the value, which would leave printed digits uncovered,
    PreconditionViolated is raised.
    """
    if not (s > 0 and isfinite(s)):
        raise ValueError("need finite s > 0")
    t = torus_spectrum(n, d, budget)
    rows = by_value(t, t.counts)
    prec = DISCRETE_PREC
    x = _exact(s)
    sm, se = _at_prec(x, prec)  # s at prec bits, the error term's first factor
    tm = te = em = ee = 0
    for mid, f, e in rows:
        if not any(e.representative):
            continue  # the tuple (0, ..., 0): mu = 2d, lambda = 0
        lam = (2 * d << FIXED_PREC) - mid
        if not lam > (2 * d if f else 0):
            raise AssertionError("nonzero Laplacian eigenvalue not separated from 0")
        pm, pe = _power(lam, -FIXED_PREC, x, prec)
        tm, te = _add(tm, te, *_round(e.count * pm, pe, prec), prec)
        if f:  # radius 2d units; 0 at f = 0 adds nothing
            pm, pe = _power(lam, -FIXED_PREC, x + 1, prec)
            cm, ce = _round(e.count * sm, se, prec)
            cm, ce = _round(cm * pm, ce + pe, prec)
            em, ee = _add(em, ee, *_round(cm * 2 * d, ce - FIXED_PREC, prec), prec)
    # summation/powering rounding, a few ulps per term, one term per nonzero row
    cm, ce = _round((3 * (len(t.counts) - 1) + 4) * tm, te, prec)
    em, ee = _add(em, ee, cm, ce + 4 - prec, prec)
    cm, ce = _power(10, 0, 30, prec)
    if exceeds((em, ee), _round(tm * cm, te + ce, prec)):
        raise PreconditionViolated(
            f"zeta of T^{d}_{n} at s = {s}: relative error bound {decimal(*_div(em, ee, tm, te, prec), 3)} "
            "exceeds 1e-30, so s is too large for 30 certified digits"
        )
    return ZetaValue((tm, te), (em, ee))


def _round(man: int, exp: int, prec: int = PREC) -> tuple[int, int]:
    """man * 2^exp (man >= 0) rounded to prec bits, half to even.

    The rounding of libmp's normalize in round_nearest, without its
    stripping of trailing zero bits: the value is the same.  libmp's
    mpf_add, mpf_mul, mpf_mul_int and mpf_div round their exact result so.
    """
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


def _add(am: int, ae: int, bm: int, be: int, prec: int = PREC) -> tuple[int, int]:
    """am * 2^ae + bm * 2^be rounded as libmp's mpf_add rounds it at prec
    bits in round-nearest; both are prec-bit numbers as _round returns them."""
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    shift = ae - be
    if shift > 2 * prec + 1 and am:
        return am, ae  # below a quarter of am's ulp: round-nearest drops it, so skip the long shift
    return _round((am << shift) + bm, be, prec)


def _div(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """am * 2^ae / (bm * 2^be), bm > 0, rounded to prec bits half to even,
    as libmp's mpf_div rounds it: the quotient keeps at least two bits
    under its round bit, and the remainder is a sticky bit below them."""
    shift = max(prec + 3 + bm.bit_length() - am.bit_length(), 0)
    q, r = divmod(am << shift, bm)
    return _round(q << 1 | (r != 0), ae - be - shift - 1, prec)


def exceeds(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether the value a = (man, exp), man >= 0, is above the value b.

    Mantissas are shifted only when the leading bits line up, so values
    whose exponents lie far apart (a large s) compare at once.
    """
    (am, ae), (bm, be) = a, b
    if not am or not bm:
        return am > bm
    top_a, top_b = ae + am.bit_length(), be + bm.bit_length()
    if top_a != top_b:
        return top_a > top_b
    low = min(ae, be)
    return am << (ae - low) > bm << (be - low)


def _at_prec(x, prec: int) -> tuple[int, int]:
    """x > 0, an int, a float or a Fraction from _exact, rounded to prec
    bits as mpmath holds s, s + 1 or 2s there, as a pair (man, exp)."""
    man, den = x.as_integer_ratio()
    return _round(man, 1 - den.bit_length(), prec)


def _power(man: int, exp: int, k, prec: int) -> tuple[int, int]:
    """1 / (man * 2^exp)^k, man > 0, k > 0 from _exact, rounded as libmp's
    mpf_pow rounds x^-k at prec bits in round-nearest.  At an integer k
    that is mpf_pow_int's branch for negative powers: x^k at prec + 5 bits
    (_pow_int) unless k = 1, then 1 / that at prec bits."""
    km, ke = _at_prec(k, prec)
    if ke < 0:
        return _libmp_pow(-km, ke, prec)(man, exp)
    if km << ke > 1:
        man, exp = _pow_int(man, exp, km << ke, prec + 5)
    return _div(1, 0, man, exp, prec)


def _pow_int(man: int, exp: int, k: int, prec: int) -> tuple[int, int]:
    """(man * 2^exp)^k, man > 0, k >= 2, rounded as libmp's mpf_pow_int
    rounds it at prec bits in round-nearest: the exact power, rounded once,
    for k = 2, a mantissa 1, or while bc * k < _EXACT_POW_BITS (bc the bits
    of the mantissa without trailing zeros); elsewhere libmp's own."""
    zeros = (man & -man).bit_length() - 1
    man, exp = man >> zeros, exp + zeros
    if k == 2 or man == 1 or man.bit_length() * k < _EXACT_POW_BITS:
        return _round(man**k, exp * k, prec)
    return _libmp_pow(k, 0, prec)(man, exp)


# _pow_int asks for its function at every power: building it anew cost
# 1.4 us of a 4.5 us continuum term at s = 11
@functools.lru_cache(maxsize=8)
def _libmp_pow(tm: int, te: int, prec: int):
    """The function (man, exp) -> (man * 2^exp)^(tm * 2^te), man > 0, by
    libmp's mpf_pow at prec bits in round-nearest; the one function of this
    module that names mpmath."""
    from mpmath.libmp import from_man_exp, mpf_pow
    from mpmath.libmp import round_nearest as rnd

    t = from_man_exp(tm, te)

    def power(man: int, exp: int) -> tuple[int, int]:
        # libmp's normalized tuple, built here: from_man_exp took 0.5 us more
        # on an even mantissa, 7 % of a continuum term at s = 2.5
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        _, pm, pe, _ = mpf_pow((0, man, exp + zeros, man.bit_length()), t, prec, rnd)
        return pm, pe

    return power


def _four_pi_squared(prec: int) -> tuple[int, int]:
    """4 pi^2 as mpmath's 4 * pi**2 forms it at prec bits: pi rounded to
    nearest at prec bits, squared and rounded, times 4.

    _pi_fixed(2^w) lies within e of pi 2^w; the assertion checks that both
    ends of that interval round alike, so pi rounds so too.
    """
    w = prec + 64
    p, e = _pi_fixed(1 << w)
    pm, pe = _round(p - e, -w, prec)
    if (pm, pe) != _round(p + e, -w, prec):
        raise AssertionError(f"pi not rounded to {prec} bits")
    pm, pe = _round(pm * pm, 2 * pe, prec)
    zeros = (pm & -pm).bit_length() - 1
    return pm >> zeros, pe + zeros + 2


def _term_of(s):
    """The function (m, rm) -> (man, exp) of rm * (4 pi^2 m)^-s, for rm != 0.

    Each step is rounded as libmp's mpf_mul_int, mpf_pow_int (mpf_pow for
    non-integer s), and mpf_rdiv_int (mpf_mul_int) round it at PREC bits
    in round-nearest, so every term is theirs to the bit.  For an integer
    s every step acts on the mantissas alone: the term of (2^k m, rm) is
    that of (m, rm) with its exponent lowered by k s.
    """
    cm, ce = _four_pi_squared(PREC)
    if s != int(s):
        sm, se = _at_prec(s, PREC)
        power = _libmp_pow(-sm, se, PREC)

        def term(m, rm):
            bm, be = _round(cm * m, ce)  # mpf_mul_int(c, m)
            pm, pe = power(bm, be)
            return _round(pm * rm, pe)  # mpf_mul_int(base^-s, rm)

        return term
    s = int(s)
    # _pow_int's rule powers every base of PREC bits exactly while s * PREC
    # < _EXACT_POW_BITS; there the power and the division stay inline, as a
    # call to _pow_int or _div costs 13-25 % of a term at s = 2
    exact_pow = s * PREC < _EXACT_POW_BITS

    def term(m, rm):
        bm, be = _round(cm * m, ce)  # mpf_mul_int(c, m)
        pm, pe = _round(bm**s, be * s) if exact_pow else _pow_int(bm, be, s, PREC)
        # mpf_rdiv_int(rm, base^s), the remainder as a sticky bit
        q, r = divmod(rm << _QUOT_SHIFT, pm)
        return _round(q << 1 | (r != 0), -pe - _QUOT_SHIFT - 1)

    return term


def zeta_continuum_partial(s, cutoff: int, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Partial sum of the continuum torus zeta over shells 0 < m^2+n^2 <= cutoff,
    as a pair (man, exp), the value man * 2^exp.

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
    if not (s > 1 and isfinite(s)):
        raise ValueError("need finite s > 1")
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
    return am, ae


def cjk_table(s, n_list, cutoff: int, budget: int = DEFAULT_BUDGET) -> tuple[list[ZetaRow], tuple[int, int]]:
    """Rescaled discrete zeta rows next to the continuum partial sum.

    Returns (rows, reference) with rows (N, N^(-2s) zeta_{T^2_N}(s)), the
    power and the product each rounded at DISCRETE_PREC as mpmath rounds
    them there (_power, _round); no convergence assertion is made here,
    callers compare as they see fit (cjk_gap, cjk_ratio).
    """
    if not (s > 1 and isfinite(s)):
        raise ValueError("need finite s > 1")
    if any(n < 3 for n in n_list):
        raise ValueError("need n >= 3")
    check_cutoff(cutoff, budget)
    rows = []
    for n in n_list:
        zm, ze = zeta_discrete(n, 2, s, budget).value
        pm, pe = _power(n, 0, 2 * _exact(s), DISCRETE_PREC)
        rows.append(ZetaRow(n, float(s), _round(pm * zm, pe + ze, DISCRETE_PREC)))
    # last: the discrete rows may refuse s, and at a large s this sum is slow
    return rows, zeta_continuum_partial(s, cutoff, budget)


def cjk_gap(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """|a - b| for values (man, exp), rounded to GAP_PREC bits as mpmath's
    abs(a - b) rounds it at its default precision.

    A b below the unit 2^exp of the larger a is replaced by half that unit:
    no rounding boundary of |a - b| lies strictly between a - 2^exp and a,
    so the result is the same, and no shift runs over the exponents' gap.
    """
    if exceeds(b, a):
        a, b = b, a
    (am, ae), (bm, be) = a, b
    pad = GAP_PREC + 2 - am.bit_length()
    if pad > 0:  # with GAP_PREC + 2 bits, every boundary near a is on a's grid
        am, ae = am << pad, ae - pad
    if not bm or be + bm.bit_length() <= ae:  # b is 0 or below 2^ae
        bm, be = min(bm, 1), ae - 1
    low = min(ae, be)
    return _round((am << (ae - low)) - (bm << (be - low)), low, GAP_PREC)


def cjk_ratio(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a / b for values (man, exp), b > 0, rounded to GAP_PREC bits as
    mpmath's a / b rounds it at its default precision."""
    return _div(*a, *b, GAP_PREC)
