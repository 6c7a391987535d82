import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtorus import arith, cyclotomic
from dtorus.arith import factorize, is_prime, totient
from dtorus.cyclotomic import (
    CycElt,
    _fixed_tables,
    approx_value,
    cyclotomic_poly,
    get_context,
    key_embedding,
    key_of_tuple,
    sum_reduce,
)
from dtorus.errors import BudgetExceeded
from helpers import fixed, interval_fixed_table, phi_brute, reduce_mod_phi, split_primes_below

moduli = st.integers(min_value=1, max_value=60)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    # derived by dividing x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@given(moduli)
def test_cyclotomic_poly_degree_and_monic(n):
    coeffs = cyclotomic_poly(n)
    assert coeffs[-1] == 1
    assert len(coeffs) - 1 == phi_brute(n)


def test_sum_reduce_single_power_examples():
    assert sum_reduce(get_context(4), (3,)).coeffs == (0, -1)  # zeta_4^3 = -i
    assert sum_reduce(get_context(6), (2,)).coeffs == (-1, 1)  # x^2 mod x^2-x+1
    for n in (1, 2, 5, 12):
        assert sum_reduce(get_context(n), (0,)) == CycElt(n, 1)


@given(moduli, st.integers(min_value=-100, max_value=100))
def test_sum_reduce_single_power_periodic(n, k):
    ctx = get_context(n)
    assert sum_reduce(ctx, (k,)) == sum_reduce(ctx, (k + n,))


def test_key_of_tuple_single_index_examples():
    assert key_of_tuple(12, (3,)).is_zero()  # 2cos(pi/2)
    assert key_of_tuple(6, (1,)) == CycElt(6, 1)  # 2cos(pi/3) = 1
    assert key_of_tuple(5, (0,)) == CycElt(5, 2)


@given(moduli, st.integers(min_value=0, max_value=200))
def test_key_of_tuple_single_index_symmetry(n, k):
    assert key_of_tuple(n, (k,)) == key_of_tuple(n, (n - k,))


def test_sum_reduce_vanishing_examples():
    assert sum_reduce(get_context(5), [0, 1, 2, 3, 4]).is_zero()
    assert sum_reduce(get_context(6), [0, 2, 4]).is_zero()
    assert sum_reduce(get_context(12), [1, 7]).is_zero()
    assert not sum_reduce(get_context(6), [0, 1]).is_zero()


@given(moduli.filter(lambda n: n > 1))
def test_full_sum_vanishes(n):
    assert sum_reduce(get_context(n), range(n)).is_zero()


@given(
    moduli,
    st.lists(st.integers(min_value=0, max_value=400), max_size=8),
    st.lists(st.integers(min_value=0, max_value=400), max_size=8),
)
def test_sum_reduce_additive(n, a, b):
    ctx = get_context(n)
    lhs = sum_reduce(ctx, a + b)
    rhs_coeffs = tuple(
        x + y for x, y in zip(sum_reduce(ctx, a).coeffs, sum_reduce(ctx, b).coeffs)
    )
    assert lhs.coeffs == rhs_coeffs


def pack(coeffs):
    """The packed format written out: sum of c_i * 2^(64 i)."""
    return sum(c << (64 * i) for i, c in enumerate(coeffs))


TOP = 2**62  # CycElt digits lie in [-TOP, TOP)


@pytest.mark.parametrize(
    "coeffs",
    [
        (0, 0, 0, 0),
        (-1, 1, 0, 0),  # the low digit borrows from the next one
        (1, -1, 0, 0),
        (0, 0, 0, -1),  # the packed int is negative
        (-1, -1, -1, -1),
        (TOP - 1, -(TOP - 1), TOP - 1, -(TOP - 1)),
        (-TOP, TOP - 1, -TOP, TOP - 1),
    ],
)
def test_pack_round_trip(coeffs):
    e = CycElt(5, pack(coeffs))
    assert e.coeffs == coeffs
    assert CycElt(5, e.v + 0).coeffs == coeffs and CycElt(5, e.v - e.v).is_zero()


@given(moduli, st.lists(st.integers(min_value=-TOP, max_value=TOP - 1), max_size=20))
def test_pack_round_trip_random(n, digits):
    phi = get_context(n).phi
    coeffs = tuple(digits[:phi]) + (0,) * max(0, phi - len(digits))
    assert CycElt(n, pack(coeffs)).coeffs == coeffs


@given(moduli, st.integers(min_value=0, max_value=400))
def test_sum_reduce_single_power_matches_division(n, k):
    poly = [0] * k + [1]
    assert sum_reduce(get_context(n), (k,)).coeffs == reduce_mod_phi(poly, n)


def test_digit_guard():
    ctx = get_context(5)
    x = sum_reduce(ctx, (1,))
    assert x.v == 2**64
    for make in (
        lambda: CycElt(1, 2**64),  # constants of one digit (phi = 1)
        lambda: CycElt(2, 1 + 2**64),
        lambda: CycElt(2, 2**64 - 1),
        lambda: CycElt(5, pack((TOP,))),
        lambda: CycElt(5, pack((0, 0, 0, -TOP - 1))),
        lambda: CycElt(5, pack((0, 0, 0, 0, 1))),  # a fifth digit: not reduced
        lambda: CycElt(5, -pack((-TOP,))),
    ):
        with pytest.raises(OverflowError):
            make()
    e = CycElt(5, 2**30)
    doublings = 0
    with pytest.raises(OverflowError):
        for doublings in range(40):
            e = CycElt(5, e.v + e.v)
            assert e != x
    assert doublings == 31 and e.coeffs == (2**61, 0, 0, 0)


def test_context_cap_raises_before_allocating(monkeypatch):
    def unreachable(n):
        raise RuntimeError("Phi_n was built before the cap was checked")

    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", unreachable)
    with pytest.raises(BudgetExceeded, match="10007"):
        get_context(10007)
    assert 4001 * 4000 <= cyclotomic.MAX_CONTEXT_DIGITS < 10007 * 10006

    def unfactored(n):
        raise RuntimeError(f"{n} was factored before the cap was checked")

    # N * phi(N) >= N: a modulus above the cap is refused before factoring
    monkeypatch.setattr(arith, "factorize", unfactored)
    monkeypatch.setattr(cyclotomic, "factorize", unfactored)
    n = cyclotomic.MAX_CONTEXT_DIGITS + 1
    with pytest.raises(BudgetExceeded, match=str(n)):
        get_context(n)


def test_approx_examples():
    # the value times 2^PREC, within one unit per root, at PREC = 192 bits
    assert cyclotomic.PREC == 192
    mid = approx_value(5, (1, -1))
    with mpmath.workprec(300):
        assert abs(fixed(mid) - (mpmath.sqrt(5) - 1) / 2) <= fixed(2) < mpmath.mpf(2) ** -128

    one = 1 << cyclotomic.PREC
    assert abs(approx_value(12, (0,)) - one) <= 1
    assert abs(approx_value(12, (2, -2)) - one) <= 2  # 2 cos(pi / 3)
    assert approx_value(12, ()) == 0


@given(moduli, st.integers(min_value=0, max_value=400))
def test_approx_matches_float_cosine(n, k):
    mid = approx_value(n, (k, -k))
    assert abs(float(fixed(mid)) - 2 * math.cos(2 * math.pi * k / n)) < 1e-9


@given(
    moduli,
    st.lists(st.integers(min_value=0, max_value=100), max_size=6),
    st.lists(st.integers(min_value=0, max_value=100), max_size=6),
)
def test_approx_is_additive_within_radii(n, a, b):
    # a sum of fixed-point cosines: additive exactly, well within the radii
    assert approx_value(n, a + b) == approx_value(n, a) + approx_value(n, b)


def iv_enclosures(n, prec, exponents=None):
    """Raw (lo, hi) mpf pairs of interval enclosures at ``prec`` bits: of
    cos(2 pi k / n) for every k < n, or of the real part of sum zeta_n^e
    over ``exponents`` when it is given."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        parts = [iv.cos(2 * iv.pi * k / n) for k in range(n)]
        if exponents is not None:
            parts = [sum((parts[e % n] for e in exponents), iv.mpf(0))]
    finally:
        iv.prec = old
    return [tuple(mpmath.mp.make_mpf(x) for x in part._mpi_) for part in parts]


@given(
    st.integers(min_value=1, max_value=120),
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=40),
)
def test_approx_encloses_interval_reference(n, exponents):
    mid, radius = approx_value(n, exponents), len(exponents)  # one unit per root
    # four times the fixed-point precision of approx_value
    [(re_lo, re_hi)] = iv_enclosures(n, 4 * cyclotomic.PREC, exponents)
    assert fixed(radius) <= mpmath.ldexp(1, -128)
    assert fixed(mid - radius) <= re_lo
    assert re_hi <= fixed(mid + radius)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 27, 32, 97, 360, 420])
@pytest.mark.parametrize("prec", [128, 192])
def test_fixed_tables_within_one(n, prec):
    table = _fixed_tables(n, prec)
    assert len(table) == n
    for k, (lo, hi) in enumerate(iv_enclosures(n, 4 * prec)):
        assert table[k] - 1 <= mpmath.ldexp(lo, prec)
        assert mpmath.ldexp(hi, prec) <= table[k] + 1


def test_fixed_tables_mirror_the_full_computation():
    # the entries for k > n/2 are copied from n - k, and for even n those for
    # n/4 < k <= n/2 are negated from n/2 - k: the same integers as an
    # enclosure of each cosine gives, odd and even n, prime and composite
    for n in [*range(1, 65), *range(66, 257, 2), 419, 420]:
        assert _fixed_tables(n, cyclotomic.PREC) == interval_fixed_table(n, cyclotomic.PREC), n


def test_phi_divides_x_n_minus_1():
    # spot-check the context invariant survives odd, even and prime-power n
    for n in (7, 16, 30, 105):
        ctx = get_context(n)
        assert len(cyclotomic_poly(n)) - 1 == ctx.phi == phi_brute(n)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_poly_product_is_x_n_minus_1():
    # prod_{d | n} Phi_d = x^n - 1 for every n <= 300; by induction on n this
    # determines each Phi_n
    for n in range(1, 301):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_totient_matches_brute_force():
    assert [totient(n) for n in range(1, 2001)] == [phi_brute(n) for n in range(1, 2001)]


@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("n", [3, 4, 6, 5, 7, 11, 97, 127, 419, 420, 1009])
def test_key_embedding_modulus(n, d):
    emb = key_embedding(n, 2 * d)
    bound = (4 * d) ** phi_brute(n)
    # injective on the keys of T^d_n, with the fewest primes that achieve it
    assert emb.modulus * emb.modulus > bound
    assert math.prod(emb.primes[:-1]) ** 2 <= bound
    assert emb.modulus == math.prod(emb.primes)
    # the upper estimate the ceiling on the powers rests on
    assert emb.modulus.bit_length() <= n * (2 * 2 * d).bit_length() // 2 + 63
    # the largest primes p = 1 (mod n) below 2^30, in descending order
    assert 2**30 > emb.primes[0]
    assert emb.primes == key_embedding(n, 200 * d).primes[: len(emb.primes)]
    assert not any(is_prime(q) for q in range(emb.primes[0] + n, 2**30, n))
    for hi, lo in zip(emb.primes, emb.primes[1:]):
        assert not any(is_prime(q) for q in range(lo + n, hi, n))
    for p in emb.primes:
        assert p % n == 1 and is_prime(p)
        w = emb.omega % p  # exact order n mod p
        assert pow(w, n, p) == 1
        assert all(pow(w, n // q, p) != 1 for q in factorize(n).primes)


def test_key_primes_sieve_matches_key_embedding():
    assert cyclotomic.KEY_PRIMES_BELOW == 2**30
    for n, roots in ((1009, 4), (1260, 12), (2003, 2)):
        primes = key_embedding(n, roots).primes
        assert list(primes) == split_primes_below(n, 2**30)[: len(primes)]


@pytest.mark.parametrize("n, roots, supply, need", [(8179, 2**31 - 2, 6728, 4462), (23143, 4, 2366, 1176)])
def test_key_primes_below_2_30_suffice(n, roots, supply, need):
    # counted, no embedding built: the ceiling on the powers admits (n, roots)
    # (8179 is the largest prime n it admits at a torus key's most roots), and
    # the primes = 1 (mod n) below 2^30 outnumber those M needs
    assert n * (n * (2 * roots).bit_length() // 2 + 63) <= 64 * cyclotomic.MAX_CONTEXT_DIGITS
    primes = split_primes_below(n, 2**30)
    bound = (2 * roots) ** totient(n)
    m = 1
    for used, p in enumerate(primes, 1):
        m *= p
        if 2 * m.bit_length() >= bound.bit_length() and m * m > bound:
            break
    assert (len(primes), used) == (supply, need) and m * m > bound


@pytest.mark.parametrize("roots", [0, 1, 2, 5, 64, 2**61])
@pytest.mark.parametrize("n", [1, 2])
def test_key_embedding_rational_case(n, roots):
    # phi = 1: keys are integers of size at most roots, so M > 2 roots is
    # needed; at 2^61 roots that takes three primes below 2^30, not two
    emb = key_embedding(n, roots)
    assert emb.modulus == math.prod(emb.primes) > 2 * roots
    assert not emb.primes or math.prod(emb.primes[:-1]) <= 2 * roots
    for p in emb.primes:
        assert (p - 1) % n == 0 and is_prime(p) and emb.omega % p == (p - 1 if n == 2 else 1)


@pytest.mark.parametrize("n", [3, 8, 12, 15, 60, 97])
def test_key_embedding_is_a_ring_map(n):
    emb = key_embedding(n, 2)
    ctx = get_context(n)
    for k in range(n):
        assert emb.image(sum_reduce(ctx, (k,))) == emb.powers[k] == pow(emb.omega, k, emb.modulus)
        assert emb.image(key_of_tuple(n, (k,))) == emb.cos_image((k,))
    assert emb.image(sum_reduce(ctx, range(n))) == 0  # the n-th roots sum to zero
    assert emb.cos_image((1, 2, n - 1)) == emb.image(key_of_tuple(n, (1, 2, 1)))
    with pytest.raises(ValueError):
        emb.image(CycElt(n + 1, 1))
