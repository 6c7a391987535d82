"""Independent brute-force oracles used by the tests.

Everything here enumerates index tuples or lattice points directly and
never calls the convolution machinery it is checking; plain_mitm_count,
plain_by_value and spectrum_output read finished tables through their
public attributes to check the meet-in-the-middle walk, the row order and
the CLI writer, not the tables.
"""

import csv
import io
import json
import math
import operator
import tracemalloc
from itertools import combinations, combinations_with_replacement, product
from math import gcd, isqrt

import mpmath
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_mul_int, mpf_pow, mpf_pow_int, mpf_rdiv_int
from mpmath.libmp import round_nearest as rnd

from dtorus.cyclotomic import (
    PREC,
    _fixed_tables,
    approx_value,
    cyclotomic_poly,
    get_context,
    key_embedding,
    key_of_tuple,
)
from dtorus.errors import BudgetExceeded, PreconditionViolated
from dtorus.spectrum import by_value, torus_spectrum
from dtorus.zeta import DISCRETE_PREC


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


def walk_traces(n, d, k_max):
    """trace(A^k) of T^d_n for 0 <= k <= k_max, the closed walks of length k.

    A cycle has t_j = n * #{+-1 sequences of length j summing to 0 mod n}
    closed walks of length j, and the d steps of a product walk interleave,
    so sum_k trace(A^k) x^k / k! = (sum_j t_j x^j / j!)^d: each power of the
    exponential generating function is a binomial convolution.
    """
    cycle = [n * sum(math.comb(j, up) for up in range(j + 1) if (2 * up - j) % n == 0) for j in range(k_max + 1)]
    traces = [1] + [0] * k_max  # T^0: one vertex, no edges
    for _ in range(d):
        traces = [sum(math.comb(k, j) * cycle[j] * traces[k - j] for j in range(k + 1)) for k in range(k_max + 1)]
    return traces


def plain_mitm_count(n, d, target):
    """The count of ``target`` in T^d_n, d >= 2, by the meet-in-the-middle
    walk dtorus.spectrum made before it sliced sorted images.

    Every row of T^ceil(d/2)_n is paired with the row of T^floor(d/2)_n at
    goal - F(row) mod M, all images taken under key_embedding(n, 2d) from the
    rows' representatives, and a hit counts only when the concatenated
    representatives have the target's exact key.
    """
    emb = key_embedding(n, 2 * d)
    a = (d + 1) // 2
    first, second = (
        {emb.cos_image(e.representative): e for e in map(table.entry, table.counts)}
        for table in (torus_spectrum(n, a), torus_spectrum(n, d - a))
    )
    goal, total = emb.image(target), 0
    for fx, x in first.items():
        y = second.get((goal - fx) % emb.modulus)
        if y is not None and key_of_tuple(n, x.representative + y.representative) == target:
            total += x.count * y.count
    return total


def fixed(m):
    """m / 2^PREC as an exact mpf: the value an approx_value int stands for."""
    return mpmath.mp.make_mpf(from_man_exp(m, -PREC))


def as_mpf(value):
    """A zeta value (man, exp), the number man * 2^exp, as an exact mpf."""
    return mpmath.mp.make_mpf(from_man_exp(*value))


def plain_by_value(table, images):
    """(mid, f, entry) for the rows of ``table`` at ``images``, value
    descending, as dtorus.spectrum.by_value made them before it held rows
    as ints: an Entry and an approx_value per row, sorted on (-float, f)
    with the float of the exact mpf (fixed).
    """
    rows = []
    for f in images:
        e = table.entry(f)
        mid = approx_value(table.n, table.exponents(e.representative) if f else ())
        rows.append((-float(fixed(mid)), f, mid, e))
    rows.sort(key=lambda row: row[:2])
    return [(mid, f, e) for _, f, mid, e in rows]


SPECTRUM_COLUMNS = ("value_decimal", "key_coeffs", "multiplicity", "representative")


def spectrum_output(n, d, fmt):
    """The stdout of ``dtorus spectrum --n n --d d --format fmt``, written
    the plain way: plain_by_value rows with key_of(...).coeffs, then
    json.dumps(payload, indent=2), csv.writer over space-joined cells, or
    one ``name=value`` line per row with lists printed as Python lists."""
    table = torus_spectrum(n, d)
    rows = [
        (mpmath.nstr(fixed(mid), 30), list(table.key_of(e.representative).coeffs), str(e.count), list(e.representative))
        for mid, _, e in plain_by_value(table, table.counts)
    ]
    head = {"schema": 1, "command": "spectrum", "n": n, "d": d, "total": str(table.total)}
    if fmt == "json":
        return json.dumps({**head, "entries": [dict(zip(SPECTRUM_COLUMNS, row)) for row in rows]}, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SPECTRUM_COLUMNS)
        for row in rows:
            writer.writerow([" ".join(map(str, v)) if isinstance(v, list) else v for v in row])
        return out.getvalue()
    lines = [f"{k}: {v}" for k, v in head.items()]
    lines += ["  " + "  ".join(f"{k}={v}" for k, v in zip(SPECTRUM_COLUMNS, row)) for row in rows]
    return "\n".join(lines) + "\n"


def brute_cayley_spectrum(n, d, gens):
    """Key coefficients -> (count, smallest character t) over all n^d characters.

    Each t contributes the sum of x^<t, g> over the generator multiset, reduced
    modulo Phi_n by long division; the packed residues of dtorus.cyclotomic
    are never used.
    """
    out = {}
    for t in product(range(n), repeat=d):
        poly = [0] * n
        for g in gens:
            poly[sum(ti * gi for ti, gi in zip(t, g)) % n] += 1
        key = reduce_mod_phi(poly, n)
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


def split_primes_below(n, top):
    """The primes p = 1 (mod n) below ``top``, descending: the progression
    1 + k n sieved by every prime q <= sqrt(top) that does not divide n."""
    root = isqrt(top)
    small = bytearray([1]) * (root + 1)  # Eratosthenes up to sqrt(top)
    for q in range(2, isqrt(root) + 1):
        small[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
    count = (top - 2) // n + 1  # the candidates 1 + k n, 0 <= k < count
    alive = bytearray([1]) * count
    alive[0] = 0
    for q in range(2, root + 1):
        if small[q] and n % q:
            k = -pow(n, -1, q) % q  # 1 + k n = 0 (mod q)
            if 1 + k * n == q:
                k += q
            alive[k::q] = bytes(len(range(k, count, q)))
    return [1 + k * n for k in range(count - 1, 0, -1) if alive[k]]


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


def scan_vanishing_tuples(n: int, max_len: int, budget: int, first: int | None = None):
    """Every vanishing nondecreasing exponent tuple of length <= max_len.

    The search dtorus.vanishing used before its last-root lookup and
    conjugate pruning: it scans every exponent at every depth and prunes
    with the identity embedding alone.

    Yields in depth-first, hence lexicographic, order; ``first`` pins the
    smallest exponent.  Vanishing is decided exactly on packed powers; the
    float cos/sin only prune a partial sum too far from zero for the roots
    still to come to cancel.  The budget counts visited partial-sum states,
    and memory stays O(max_len).
    """
    powers = get_context(n).powers
    cos_f = [math.cos(2 * math.pi * k / n) for k in range(n)]
    sin_f = [math.sin(2 * math.pi * k / n) for k in range(n)]
    path: list[int] = []
    # partial sums (packed residue, re, im) of each prefix of path
    sums = [(0, 0.0, 0.0)]
    levels = [iter(range(n) if first is None else (first,))]
    visited = 0
    while levels:
        acc, re, im = sums[-1]
        remaining = max_len - len(path) - 1
        for e in levels[-1]:
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"more than {budget} partial-sum states")
            acc2, re2, im2 = acc + powers[e], re + cos_f[e], im + sin_f[e]
            path.append(e)
            if not acc2:
                yield tuple(path)
            # a sum of `remaining` unit vectors moves the value by at most that much
            if remaining > 0 and re2 * re2 + im2 * im2 <= (remaining + 1e-9) ** 2:
                sums.append((acc2, re2, im2))
                levels.append(iter(range(e, n)))
                break
            path.pop()
        else:
            levels.pop()
            sums.pop()
            if path:
                path.pop()


def polygon_unions(n, max_len):
    """(exponents, minimal) for every vanishing nondecreasing exponent tuple
    over the n-th roots of length <= max_len, in lexicographic order, where
    n has at most two prime divisors.

    For such n every vanishing sum of roots with nonnegative coefficients
    is a sum of rotated p-gons {a, a + n/p, ..., a + (p - 1)n/p} for primes
    p dividing n (de Bruijn, Indag. Math. 15 (1953); Lam and Leung,
    J. Algebra 224 (2000)), so the tuples are the multiset unions of such
    polygons, and the minimal ones are the polygons themselves.
    """
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, isqrt(p) + 1))]
    assert len(primes) <= 2, f"{n} has more than two prime divisors"
    polygons = [tuple(range(a, n, n // p)) for p in primes for a in range(n // p)]
    unions = set()

    def grow(union, start):
        for i in range(start, len(polygons)):
            if len(union) + len(polygons[i]) <= max_len:
                bigger = union + polygons[i]
                unions.add(tuple(sorted(bigger)))
                grow(bigger, i)

    grow((), 0)
    minimal = set(polygons)
    return [(exps, exps in minimal) for exps in sorted(unions)]


def closed_form_continuum(s, prec=128):
    """The full continuum sum over Z^2 minus 0 of (4 pi^2 |v|^2)^-s, s > 1, in
    closed form: 4 zeta(s) beta(s) / (4 pi^2)^s at ``prec`` working bits.

    r2(m) = 4 (d_1(m) - d_3(m)) (Hardy & Wright, ch. XVI) makes the sum of
    r2(m) m^-s over m >= 1 the Dirichlet product 4 zeta(s) beta(s), beta the
    L-function of the character mod 4 (mpmath.dirichlet with 0, 1, 0, -1).
    """
    with mpmath.workprec(prec):
        s = mpmath.mpf(s)
        return 4 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1]) / (4 * mpmath.pi**2) ** s


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


def libmp_zeta_discrete(n, d, s):
    """(value, error) of zeta_discrete(n, d, s) as raw ``_mpf_`` tuples, by
    the mpf code dtorus.zeta used before its integer rewrite: lambda^-s and
    lambda^(-s-1) as mpf powers, and every sum and product with mpf
    operators at DISCRETE_PREC.  Raises PreconditionViolated, with the same
    text, where that code refused s.
    """
    t = torus_spectrum(n, d)
    with mpmath.workprec(DISCRETE_PREC):
        s_mp = mpmath.mpf(s)
        total = mpmath.mpf(0)
        err = mpmath.mpf(0)
        for mid, f, e in by_value(t, t.counts):
            if not any(e.representative):
                continue
            lam, radius = (2 * d << PREC) - mid, 2 * d if f else 0
            lam, radius = (mpmath.mp.make_mpf(from_man_exp(m, -PREC)) for m in (lam, radius))
            total += e.count * lam ** (-s_mp)
            err += e.count * s_mp * lam ** (-s_mp - 1) * radius
        err += (3 * (len(t.counts) - 1) + 4) * total * mpmath.mpf(2) ** (4 - DISCRETE_PREC)
        if err > total * mpmath.mpf(10) ** -30:
            raise PreconditionViolated(
                f"zeta of T^{d}_{n} at s = {s}: relative error bound {mpmath.nstr(err / total, 3)} "
                "exceeds 1e-30, so s is too large for 30 certified digits"
            )
        return (+total)._mpf_, (+err)._mpf_


def libmp_cjk_rows(s, n_list):
    """The raw ``_mpf_`` values N^(-2s) zeta_{T^2_N}(s) of cjk_table's rows,
    by the mpf code cjk_table used before its integer rewrite."""
    rows = []
    for n in n_list:
        value = mpmath.mp.make_mpf(libmp_zeta_discrete(n, 2, s)[0])
        with mpmath.workprec(DISCRETE_PREC):
            scale = mpmath.mpf(n) ** (-2 * mpmath.mpf(s))
            rows.append((+(scale * value))._mpf_)
    return rows


def residue_approx(e, bits=128):
    """Certified real part of the residue e at zeta_n, from its phi(n)
    coefficients, as the exact mpf pair (midpoint, radius).

    The evaluation dtorus.cyclotomic.approx_value used before it summed
    exponent multisets: fixed point at prec = bits + 64 bits, with the
    integers C_j of _fixed_tables and w = sum |a_j|, the real part is
    sum a_j C_j / 2^prec with radius w / 2^prec; prec doubles while
    w > 2^(prec - bits), so the radius is at most 2^-bits.
    """
    coeffs = e.coeffs
    w = sum(map(abs, coeffs))
    prec = bits + 64
    while w > 1 << (prec - bits):
        prec *= 2
    re = sum(map(operator.mul, coeffs, _fixed_tables(e.n, prec)))
    return tuple(mpmath.mp.make_mpf(from_man_exp(m, -prec)) for m in (re, w))


def interval_fixed_table(n, prec):
    """The integers nearest the midpoints of mpmath.iv enclosures of
    2^prec cos(2 pi k / n) at prec + 32 bits, each enclosure computed, for
    every k < n: the oracle for dtorus.cyclotomic._fixed_tables, which sums
    a fixed-point series with ints for k <= n/2 and mirrors the rest."""
    with mpmath.workprec(prec + 96):
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = prec + 32
            cosines = [iv.cos(2 * iv.pi * k / n) for k in range(n)]
        finally:
            iv.prec = old
        out = []
        for x in cosines:
            lo, hi = (mpmath.mp.make_mpf(end) for end in x._mpi_)
            assert mpmath.ldexp(mpmath.fsub(hi, lo, exact=True), prec) <= 1
            out.append(int(mpmath.nint(mpmath.ldexp(mpmath.fadd(lo, hi, exact=True), prec - 1))))
        return tuple(out)


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
