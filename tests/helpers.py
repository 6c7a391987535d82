"""Independent brute-force oracles used by the tests.

Everything here enumerates index tuples or lattice points directly and
never calls the convolution machinery it is checking.
"""

from itertools import combinations, combinations_with_replacement, product
from math import gcd, isqrt

import mpmath
from mpmath.libmp import fzero, mpf_add, mpf_mul_int, mpf_pow, mpf_pow_int, mpf_rdiv_int
from mpmath.libmp import round_nearest as rnd

from dtorus.cyclotomic import cyclotomic_poly


def reduce_mod_phi(poly, n):
    """Coefficient tuple of poly modulo Phi_n, by long division (Phi_n is monic)."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    work = list(poly) + [0] * deg
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, y in enumerate(phi):
                work[i - deg + j] -= c * y
    return tuple(work[:deg])


def enumerate_spectrum(n, d):
    """Key coefficients -> (count, smallest index tuple) over all n^d tuples.

    Reduction is linear, so each 2-cosine x^k + x^(n-k) is divided by Phi_n
    once and a tuple's key is the sum of its cosines' remainders; the packed
    residues of dtorus.cyclotomic are never used.
    """
    cos = []
    for k in range(n):
        poly = [0] * n
        poly[k] += 1
        poly[-k % n] += 1
        cos.append(reduce_mod_phi(poly, n))
    out = {}
    for t in product(range(n), repeat=d):
        key = tuple(map(sum, zip(*(cos[k] for k in t))))
        hit = out.get(key)
        if hit is None:
            out[key] = (1, t)
        else:
            out[key] = (hit[0] + 1, min(hit[1], t))
    return out


def brute_r2(m):
    """Lattice count of ordered (a, b) with a^2 + b^2 = m."""
    count = 0
    for a in range(-isqrt(m), isqrt(m) + 1):
        rest = m - a * a
        b = isqrt(rest)
        if b * b == rest:
            count += 2 if b else 1
    return count


def brute_r2_upto(limit):
    """brute_r2 for all 0 <= m <= limit in one sweep."""
    out = [0] * (limit + 1)
    top = isqrt(limit)
    for a in range(-top, top + 1):
        aa = a * a
        for b in range(-top, top + 1):
            m = aa + b * b
            if m <= limit:
                out[m] += 1
    return out


def phi_brute(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def brute_vanishing_sums(n, max_len):
    """(exponents, minimal) for every vanishing nondecreasing exponent tuple
    over the n-th roots of length <= max_len, in lexicographic order.

    A tuple vanishes when sum(x^e) reduces to 0 modulo Phi_n; it is minimal
    when no proper nonempty sub-multiset vanishes.
    """

    def vanishes(exps):
        poly = [0] * n
        for e in exps:
            poly[e] += 1
        return not any(reduce_mod_phi(poly, n))

    out = []
    for length in range(1, max_len + 1):
        for exps in combinations_with_replacement(range(n), length):
            if vanishes(exps):
                subs = (sub for k in range(1, length) for sub in combinations(exps, k))
                out.append((exps, not any(vanishes(sub) for sub in subs)))
    return sorted(out)


def libmp_shell_terms(s, shells, bits=96):
    """Raw mpf term rm * (4 pi^2 m)^-s of each (m, rm) in shells with rm != 0.

    The per-shell libmp calls of the loop dtorus.zeta used before its
    integer-mantissa rewrite: mpf_mul_int, then mpf_pow_int and
    mpf_rdiv_int (mpf_pow and mpf_mul_int for non-integer s), all at
    ``bits`` in round-nearest.
    """
    with mpmath.workprec(bits):
        c = (4 * mpmath.pi**2)._mpf_
        neg_s = (-mpmath.mpf(s))._mpf_
    s_int = int(s) if s == int(s) else None
    for m, rm in shells:
        if not rm:
            continue
        base = mpf_mul_int(c, m, bits, rnd)
        if s_int is not None:
            yield mpf_rdiv_int(rm, mpf_pow_int(base, s_int, bits, rnd), bits, rnd)
        else:
            yield mpf_mul_int(mpf_pow(base, neg_s, bits, rnd), rm, bits, rnd)


def libmp_continuum_partial(s, cutoff, bits=96):
    """The continuum partial sum over shells 0 < m <= cutoff as libmp computes it.

    The terms of libmp_shell_terms, with the lattice counts of
    brute_r2_upto, added in shell order with mpf_add at ``bits``.
    Returns the raw ``_mpf_`` tuple.
    """
    counts = brute_r2_upto(cutoff)
    total = fzero
    for term in libmp_shell_terms(s, enumerate(counts[1:], 1), bits):
        total = mpf_add(total, term, bits, rnd)
    return total
