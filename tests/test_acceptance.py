"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible under ``pytest -s`` or in the
failure output) and asserts the criterion at its stated tolerance.  All
counts are exact; the only floating comparisons are the zeta convergence
gaps, which carry explicit bounds.
"""

import random
from itertools import product

import mpmath

from dtorus.criteria import (
    d2_closed_form,
    is_zero_eigenvalue,
    lowerbound_pq_witness,
    pq_optimality_check,
    product_inequality_check,
    verify_bound24,
    verify_table60,
    zero_lower_bound_family,
)
from dtorus.cyclotomic import get_context, sum_reduce
from dtorus.spectrum import (
    key_multiplicity,
    key_of_tuple,
    membership,
    torus_spectrum,
)
from dtorus.vanishing import (
    find_vanishing_multiset,
    is_symmetric_rotation,
    minimal_vanishing_sums,
    w_membership,
)
from dtorus.zeta import cjk_table, r2_upto
from helpers import brute_r2_upto


def report(num, name, ok):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_zero_multiplicity_d2():
    bad = [
        n
        for n in range(4, 401, 2)
        if key_multiplicity(n, 2, get_context(n).zero) != 2 * n - 2
    ]
    report(1, "m(0) = 2N-2 in T^2_N for even N <= 400", not bad)


def test_criterion_02_closed_forms():
    bad = []
    ns = [n for n in range(3, 200, 2)] + [
        n for n in range(4, 201, 2) if n % 12 and n % 30 and n % 42
    ]
    for n in ns:
        table = torus_spectrum(n, 2)
        half = n // 2
        for a in range(half + 1):
            for b in range(a, half + 1):
                # closed form and table are both invariant under the
                # canonical symmetries, checked separately in unit tests
                if d2_closed_form(n, a, b) != table.counts[table.embedding.cos_image((a, b))]:
                    bad.append((n, a, b))
    for n in (15, 16, 20, 21):  # literal full index sweep on a sample
        table = torus_spectrum(n, 2)
        for a in range(n):
            for b in range(n):
                if d2_closed_form(n, a, b) != table.counts[table.embedding.cos_image((a, b))]:
                    bad.append((n, a, b))
    report(2, "closed forms equal enumeration (N <= 200)", not bad)


def test_criterion_03_bound24():
    bad = []
    best = (0, None)
    for n in range(3, 421):
        rep = verify_bound24(n)  # raises Bound24Violated above 24
        if rep.max_multiplicity > best[0]:
            best = (rep.max_multiplicity, n)
    if best != (24, 60):
        bad.append(f"global max {best}")
    expected_24 = {key_of_tuple(60, (k,)) for k in (6, 24, 12, 18)}  # +-2cos(pi/5), +-2cos(2pi/5)
    rep60 = verify_bound24(60)
    if set(rep60.attained) != expected_24:
        bad.append("N=60 attaining set mismatch")
    t60 = verify_table60()
    if not t60.ok:
        bad.append("table60 mismatch")
    if len(t60.row16_extra) != 26:
        bad.append("row16 omission count changed")
    report(3, "bound 24 for N <= 420; T^2_60 table", not bad)


def test_criterion_04_zero_criterion_vs_spectrum():
    bad = [
        (n, d)
        for n in range(3, 61)
        for d in range(1, 7)
        if is_zero_eigenvalue(n, d) != membership(n, d, get_context(n).zero)
    ]
    report(4, "zero criterion == spectral membership (N <= 60, d <= 6)", not bad)


def test_criterion_05_growth_dichotomy():
    bad = []
    # (a) bounded side: identical zero multiplicity across N = 15 and 105
    oracle = sum(
        1 for t in product(range(15), repeat=4) if key_of_tuple(15, t).is_zero()
    )
    m15 = key_multiplicity(15, 4, get_context(15).zero)
    m105 = key_multiplicity(105, 4, get_context(105).zero)
    if oracle != 192 or m15 != oracle or m105 != m15:
        bad.append(f"bounded side: oracle {oracle}, m15 {m15}, m105 {m105}")
    # (b) linear side: ratio and slope
    for n in (30, 60, 90, 120):
        m = key_multiplicity(n, 3, get_context(n).zero)
        m2 = key_multiplicity(2 * n, 3, get_context(2 * n).zero)
        if m / n < 0.5:
            bad.append(f"ratio at n={n}: {m}/{n}")
        if m2 < 1.5 * m:
            bad.append(f"slope at n={n}: {m} -> {m2}")
    # (c) shifted-eigenvalue lower bounds
    if key_multiplicity(15, 4, key_of_tuple(15, (1,))) < 15 // 6:
        bad.append("m_T4_15(2cos(2pi/15)) below floor(15/6)")
    if key_multiplicity(45, 4, key_of_tuple(45, (1,))) < 45 // 6:
        bad.append("m_T4_45(2cos(2pi/45)) below floor(45/6)")
    report(5, "growth dichotomy: bounded/linear/shifted", not bad)


def test_criterion_06_vanishing_lengths():
    bad = []
    for n in (5, 6, 10, 15, 21, 30):
        for length in range(1, 9):
            found = find_vanishing_multiset(n, length)
            member = w_membership(n, length)[0]
            if (found is not None) != member:
                bad.append((n, length))
            elif found is not None and not sum_reduce(get_context(n), found.exponents).is_zero():
                bad.append((n, length, "witness not vanishing"))
    minimal = [s for s in minimal_vanishing_sums(30, 5) if s.minimal]
    if not minimal:
        bad.append("no minimal sums found over N=30")
    for s in minimal:
        if is_symmetric_rotation(s.multiset) is None:
            bad.append(("asymmetric", s.multiset.exponents))
    report(6, "vanishing lengths = prime semigroup; minimal sums symmetric", not bad)


def test_criterion_07_pq_lemma():
    bad = []
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1 :]:
            floor = max((p - 1) * (q - 2), p + q + 1)
            start = floor + (floor % 2)
            for two_d in range(start, floor + 41, 2):
                k1, k2 = lowerbound_pq_witness(p, q, two_d // 2)
                if k1 * p + k2 * q != two_d or max(k1, k2) < 2 or min(k1, k2) < 0:
                    bad.append((p, q, two_d, k1, k2))
            if not pq_optimality_check(p, q):
                bad.append((p, q, "optimality"))
    report(7, "two-prime representation lemma and optimality (p < q <= 23)", not bad)


def test_criterion_08_r2_formula():
    limit = 10**4
    brute = brute_r2_upto(limit)
    counts = r2_upto(limit)
    bad = [m for m in range(limit + 1) if counts[m] != brute[m]]
    report(8, "two-squares count formula vs lattice (M <= 10^4)", not bad)


def test_criterion_09_cjk_limit():
    rows, ref = cjk_table(2, [16, 32, 64, 128], 10**6)
    with mpmath.workprec(200):
        gaps = [abs(row.value - ref) for row in rows]
        decreasing = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        final_ok = gaps[-1] / ref < 0.02
    report(9, "rescaled zeta approaches continuum (s=2)", decreasing and final_ok)


def test_criterion_10_optimal_exponent():
    bad = []
    for n in (9, 15, 21):
        if not zero_lower_bound_family(n, 1):
            bad.append(n)
        if key_multiplicity(n, 3, get_context(n).zero) < n / 3:
            bad.append((n, "ratio"))
    if not zero_lower_bound_family(9, 2):  # T^6_9 against (9/3)^2
        bad.append("T^6_9")
    report(10, "zero multiplicity >= (N/p1)^k family", not bad)


def test_criterion_11_product_inequality():
    rng = random.Random(20240811)
    bad = []
    for _ in range(200):
        n = rng.randint(3, 20)
        d = rng.randint(2, 3)
        ks = tuple(rng.randrange(n) for _ in range(d))
        d1 = rng.randint(1, d - 1)
        if not product_inequality_check(n, d, ks, d1):
            bad.append((n, d, ks, d1))
    report(11, "multiplicity product inequality (200 random cases)", not bad)
