from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtorus import arith
from dtorus.arith import factorize, is_prime, semigroup_member
from dtorus.criteria import (
    d2_closed_form,
    eigenvalue_growth,
    in_I0,
    is_zero_eigenvalue,
    lowerbound_pq_witness,
    pq_optimality_check,
    product_inequality_check,
    verify_bound24,
    verify_table60,
    zero_growth,
    zero_lower_bound_family,
)
from dtorus.cyclotomic import CycElt, get_context, key_embedding, key_of_tuple
from dtorus.errors import BudgetExceeded, PreconditionViolated, ZeroNotEigenvalue
from dtorus.spectrum import DEFAULT_BUDGET, _mitm_matches, membership, multiplicity_of_tuple
from dtorus.vanishing import _index_cos_sum_is_zero


def test_factorize():
    assert factorize(60).pairs == ((2, 2), (3, 1), (5, 1))
    assert factorize(105).pairs == ((3, 1), (5, 1), (7, 1))
    assert factorize(1).pairs == ()
    assert factorize(97).pairs == ((97, 1),)


@given(st.integers(min_value=1, max_value=5000))
def test_factorize_reconstructs(n):
    assert factorize(n).value() == n


def test_factorize_beyond_trial_division():
    # trial division stops below 2^20; a cofactor left over is kept only when
    # is_prime certifies it, so a huge prime factors at once
    assert arith.TRIAL_DIVISION_LIMIT == 2**20
    big = 10**18 + 3
    assert factorize(big).pairs == ((big, 1),)
    assert factorize(999983 * big).pairs == ((999983, 1), (big, 1))
    assert factorize(2**2 * 1048573 * 1048583).pairs == ((2, 2), (1048573, 1), (1048583, 1))
    # every n < 2^40 still factors: its cofactor is then prime
    p = 1099511627689  # the largest prime below 2^40
    assert factorize(p).pairs == ((p, 1),)
    for n in (1048583 * 1048589, 2**89 - 1, 3 * (2**89 - 1)):
        # two primes above 2^20; a prime above is_prime's certified range
        with pytest.raises(BudgetExceeded, match="cannot factor"):
            factorize(n)


def test_is_prime_matches_trial_division():
    limit = 200_000
    composite = bytearray(limit)  # sieve of Eratosthenes: trial division by every prime
    composite[0] = composite[1] = 1
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if not composite[n]]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # least strong pseudoprimes to the first 4, 5, 6, 8 and 11 prime bases
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,  # ... and to every base 2..37
        (2**31 - 1) * (2**31 + 11),
        (2**62 - 57) * 3,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_certifies_large_primes():
    for p in (2**30 - 35, 2**61 - 1, 2**62 - 57, 2**62 - 87, 2**63 - 25, 2**64 - 59):
        assert is_prime(p)
    assert not any(is_prime(2**30 - k) for k in range(1, 35))  # key_embedding's first candidates
    assert not any(is_prime(2**62 - k) for k in range(1, 57))
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)  # a strong pseudoprime to every base used


def _strong_probable_prime(n, a):
    """Whether odd n > a passes the Miller-Rabin round to base a."""
    s = 0
    while (n - 1) >> s & 1 == 0:
        s += 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_bases_table():
    # psi_k is composite and passes the first k bases, so no fewer bases decide
    # below it; where psi_(k+1) > psi_k the next base catches it
    psi, bases = arith._MR_PSI, arith._MR_BASES
    assert len(psi) == len(bases) and list(psi) == sorted(psi) and arith._MR_LIMIT == psi[-1]
    factor = {  # one prime factor of each
        2047: 23,
        1373653: 829,
        25326001: 2251,
        3215031751: 151,
        2152302898747: 6763,
        3474749660383: 1303,
        341550071728321: 10670053,
        3825123056546413051: 149491,
        318665857834031151167461: 399165290221,
        3317044064679887385961981: 1287836182261,
    }
    for k, n in enumerate(psi, 1):
        assert n % 2 and 1 < factor[n] < n and n % factor[n] == 0, n
        assert all(_strong_probable_prime(n, a) for a in bases[:k]), k
        if k < len(psi) and psi[k] > n:
            assert not _strong_probable_prime(n, bases[k]), k


def test_semigroup_member():
    assert semigroup_member(8, (3, 5)) == (True, (1, 1))
    assert semigroup_member(7, (3, 5)) == (False, None)
    for L in range(2, 40, 2):
        ok, witness = semigroup_member(L, (2, 5))
        assert ok and sum(b * p for b, p in zip(witness, (2, 5))) == L


@given(st.integers(min_value=0, max_value=300), st.sets(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3))
def test_semigroup_witness_valid(length, primes)  :
    primes = tuple(sorted(primes))
    ok, witness = semigroup_member(length, primes)
    if ok:
        assert sum(b * p for b, p in zip(witness, primes)) == length
    else:
        # brute force agreement
        reachable = {0}
        for _ in range(length):
            reachable |= {x + p for x in reachable for p in primes if x + p <= length}
        assert length not in reachable


def test_semigroup_reduction_matches_dp():
    # the plain dynamic program is the reference; the reduction starts at p_1 p_k
    for n in range(2, 50):
        primes = factorize(n).primes
        start = primes[0] * primes[-1]
        lengths = set(range(40)) | set(range(max(0, start - 2 * primes[0]), start + 3 * primes[0]))
        for length in sorted(lengths):
            assert semigroup_member(length, primes) == arith._semigroup_dp(length, primes), (n, length)


def test_semigroup_member_runs_below_p1_pk(monkeypatch):
    seen = []
    dp = arith._semigroup_dp

    def recording(length, primes):
        seen.append(length)
        return dp(length, primes)

    monkeypatch.setattr(arith, "_semigroup_dp", recording)
    assert semigroup_member(6_000_000, (3, 5)) == (True, (2_000_000, 0))
    assert semigroup_member(2**31, (5,)) == (False, None)
    assert semigroup_member(2**31 + 3, (2, 3, 5)) == (True, (2**30, 1, 0))
    assert max(seen) < 5 * 5  # below p_1 p_k in every call


def test_semigroup_table_cap_raises_before_allocating(monkeypatch):
    # primes 3 and 10^9 + 7 leave 2^24 + 2 unreduced (it is below 3 p_k): its
    # table would exceed arith.MAX_SEMIGROUP_TABLE
    def unreachable(length, primes):
        raise RuntimeError("the table was allocated before the cap was checked")

    monkeypatch.setattr(arith, "_semigroup_dp", unreachable)
    assert arith.MAX_SEMIGROUP_TABLE == 2**24
    with pytest.raises(BudgetExceeded, match="semigroup table"):
        semigroup_member(2**24 + 2, (3, 1000000007))


def test_semigroup_member_needs_increasing_primes():
    for primes in ((5, 3), (3, 3, 5)):
        with pytest.raises(ValueError):
            semigroup_member(8, primes)


def test_in_I0_examples():
    w = in_I0(6, 2)
    assert w is not None and w.coeffs == (2, 0)
    w = in_I0(15, 3)
    assert w is not None and w.coeffs == (2, 0) and w.primes == (3, 5)
    assert in_I0(15, 4) is None
    assert in_I0(6, 1) is None
    assert in_I0(6, 0) is None


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=8))
def test_in_I0_implies_zero_eigenvalue_odd(k, r):
    # Only for odd n: a growth witness is in particular a semigroup
    # representation of 2r.  For even n the implication fails, e.g.
    # n = 34, r = 3 (2*3 = 3*2 but zero is not an eigenvalue of T^3_34).
    n = 2 * k + 1
    if in_I0(n, r) is not None:
        assert is_zero_eigenvalue(n, r)


def test_in_I0_even_counterexample():
    assert in_I0(34, 3) is not None
    assert not is_zero_eigenvalue(34, 3)
    assert not membership(34, 3, get_context(34).zero)


def test_is_zero_eigenvalue_examples():
    assert is_zero_eigenvalue(15, 4)
    assert not is_zero_eigenvalue(10, 3)
    assert is_zero_eigenvalue(12, 3)
    assert is_zero_eigenvalue(8, 1)  # 2cos(pi/2)
    assert not is_zero_eigenvalue(9, 2)


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=5))
def test_zero_criterion_matches_spectrum(n, d):
    assert is_zero_eigenvalue(n, d) == membership(n, d, get_context(n).zero)


def test_zero_growth_examples():
    assert zero_growth(12, 2).tag == "LinearGrowth"
    assert zero_growth(15, 4).tag == "Bounded"
    g = zero_growth(15, 3)
    assert g.tag == "LinearGrowth" and g.witness.coeffs == (2, 0)
    with pytest.raises(ZeroNotEigenvalue):
        zero_growth(9, 2)


def test_eigenvalue_growth_examples():
    g = eigenvalue_growth(15, 4, (1, 0, 5, 10))
    assert g.tag == "LinearGrowth" and g.r == 3 and g.residual_dim == 1
    assert eigenvalue_growth(60, 2, (24, 10)).tag == "Bounded"
    g = eigenvalue_growth(12, 2, (0, 6))
    assert g.tag == "LinearGrowth" and g.r == 2


@given(st.data(), st.integers(min_value=3, max_value=60), st.integers(min_value=1, max_value=5))
def test_growth_matches_public_membership(data, n, d):
    # the class the public path gives: the smallest r with a growth witness
    # whose residual torus T^(d-r)_n already holds the eigenvalue's exact key
    ks = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=d, max_size=d)))
    key = key_of_tuple(n, ks)
    r = next((r for r in range(1, d + 1) if in_I0(n, r) and membership(n, d - r, key)), None)
    g = eigenvalue_growth(n, d, ks)
    assert (g.tag, g.r, g.residual_dim) == (("Bounded", None, None) if r is None else ("LinearGrowth", r, d - r))


@given(st.data(), st.integers(min_value=3, max_value=64), st.integers(min_value=1, max_value=5))
def test_growth_zero_residual_matches_walk(data, n, d):
    # growth's r = d step, a float prune and the exact vanishing test on the
    # eigenvalue's 2d roots, answers as the walk over T^0_n under
    # key_embedding(n, 2d) does; the indices a + j n / p, j < p, p | n, sum
    # to zero, so they lead the tuple often enough for both answers to occur
    index = st.integers(min_value=0, max_value=n - 1)
    ks = []
    cosets = [p for p in factorize(n).primes if p <= d] if data.draw(st.booleans()) else []
    while cosets and len(ks) + cosets[0] <= d:
        p = data.draw(st.sampled_from([p for p in cosets if len(ks) + p <= d]))
        a = data.draw(index)
        ks += [(a + j * n // p) % n for j in range(p)]
    ks += data.draw(st.lists(index, min_size=d - len(ks), max_size=d - len(ks)))
    emb = key_embedding(n, 2 * d)
    walk = any(_mitm_matches(n, 0, emb, emb.cos_image(ks), None, DEFAULT_BUDGET))
    assert _index_cos_sum_is_zero(n, ks) == walk


def test_growth_witness_consistency():
    g = eigenvalue_growth(15, 4, (1, 0, 5, 10))
    w = g.witness
    assert sum(b * p for b, p in zip(w.coeffs, w.primes)) == 2 * g.r
    assert w.coeffs[w.index_ge2] >= 2


def test_d2_closed_form_examples():
    assert d2_closed_form(5, 1, 2) == 8
    assert d2_closed_form(8, 0, 4) == 14
    assert d2_closed_form(60, 1, 2) is None
    assert d2_closed_form(5, 0, 0) == 1
    assert d2_closed_form(4, 1, 1) == 6  # the zero class, not m(k,k) = 4


@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_d2_closed_form_matches_enumeration(n, k1, k2):
    cf = d2_closed_form(n, k1, k2)
    if cf is not None:
        assert cf == multiplicity_of_tuple(n, 2, (k1 % n, k2 % n))


def test_verify_bound24():
    rep = verify_bound24(60)
    assert rep.max_multiplicity == 24
    assert set(rep.attained) == {
        key_of_tuple(60, (6,)),
        key_of_tuple(60, (24,)),  # 2cos(4 pi/5) = -2cos(pi/5)
        key_of_tuple(60, (12,)),
        key_of_tuple(60, (18,)),  # 2cos(3 pi/5) = -2cos(2 pi/5)
    }
    assert verify_bound24(5).max_multiplicity == 8
    rep12 = verify_bound24(12)
    assert rep12.max_multiplicity == 12
    assert set(rep12.attained) == {CycElt(12, 1), CycElt(12, -1)}


def test_verify_table60():
    rep = verify_table60()
    assert rep.ok
    assert sorted(rep.computed) == [12, 16, 20, 24, 118]
    assert len(rep.computed[16]) == 28  # published row lists only two of these
    assert len(rep.row16_extra) == 26


def test_lowerbound_pq_witness_examples():
    assert lowerbound_pq_witness(3, 5, 5) == (0, 2)
    assert lowerbound_pq_witness(3, 5, 6) == (4, 0)
    assert lowerbound_pq_witness(7, 11, 27) == (3, 3)
    with pytest.raises(PreconditionViolated):
        lowerbound_pq_witness(7, 11, 10)


def test_pq_optimality():
    assert pq_optimality_check(3, 5)
    assert pq_optimality_check(7, 11)
    assert pq_optimality_check(3, 7)


def test_product_inequality_examples():
    assert product_inequality_check(12, 2, (1, 2), 1)
    assert product_inequality_check(12, 3, (0, 6, 1), 2)
    assert product_inequality_check(3, 2, (0, 0), 1)
    assert multiplicity_of_tuple(12, 3, (0, 6, 1)) >= 22 * 2


def test_zero_lower_bound_family():
    assert zero_lower_bound_family(9, 1)
    assert zero_lower_bound_family(6, 1)
    assert zero_lower_bound_family(15, 1)
