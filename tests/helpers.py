"""Independent brute-force oracles used by the tests.

Everything here enumerates index tuples or lattice points directly and
never calls the convolution machinery it is checking.
"""

from itertools import product
from math import gcd, isqrt

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
