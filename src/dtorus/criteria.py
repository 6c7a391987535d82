"""Decision procedures for eigenvalue multiplicities of discrete tori.

Zero-eigenvalue existence, the index set governing linear growth of the
zero multiplicity, the bounded-vs-linear growth dichotomy for arbitrary
eigenvalues, closed-form multiplicities in dimension 2, the optimal bound
24 verifier, and the two-prime representation lemma with its optimality
check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import groupby

from .arith import factorize, is_prime, semigroup_member
from .cyclotomic import ApproxReal, CycElt, get_context, key_of_tuple
from .errors import Bound24Violated, PreconditionViolated, ZeroNotEigenvalue
from .spectrum import (
    DEFAULT_BUDGET,
    Entry,
    SpectrumTable,
    by_value,
    key_multiplicity,
    membership,
    multiplicity_of_tuple,
    torus_spectrum,
)


@dataclass(frozen=True)
class I0Witness:
    """Certificate that 2r is a prime combination with some coefficient >= 2.

    coeffs are aligned with primes; index_ge2 points at a coefficient that
    is at least 2.
    """

    r: int
    primes: tuple[int, ...]
    coeffs: tuple[int, ...]
    index_ge2: int

    def __post_init__(self):
        if sum(b * p for b, p in zip(self.coeffs, self.primes)) != 2 * self.r:
            raise ValueError("witness does not sum to 2r")
        if self.coeffs[self.index_ge2] < 2:
            raise ValueError("flagged coefficient is below 2")


def in_I0(n: int, r: int) -> I0Witness | None:
    """Witness that r lies in the linear-growth index set of n, else None.

    2r = sum(b_l p_l) with some b_l >= 2 holds iff 2r - 2p_l is itself a
    prime combination for some l, which avoids enumerating representations.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    primes = factorize(n).primes
    for l, p in enumerate(primes):
        rest = 2 * r - 2 * p
        if rest < 0:
            continue
        ok, coeffs = semigroup_member(rest, primes)
        if ok:
            full = list(coeffs)
            full[l] += 2
            return I0Witness(r, primes, tuple(full), l)
    return None


def is_zero_eigenvalue(n: int, d: int) -> bool:
    """Whether zero is an adjacency eigenvalue of T^d_n (four-case criterion).

    Odd n: iff 2d is a combination of the prime divisors.  Even n: always
    for even d; for odd d, yes when the smallest odd prime divisor is <= d,
    otherwise exactly when 4 divides n.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 1:
        raise ValueError("need d >= 1")
    primes = factorize(n).primes
    if n % 2:
        return semigroup_member(2 * d, primes)[0]
    if d % 2 == 0:
        return True
    odd = [p for p in primes if p != 2]
    if odd and odd[0] <= d:
        return True
    return n % 4 == 0


@dataclass(frozen=True)
class GrowthClass:
    """Dichotomy result: multiplicity bounded in N, or growing linearly.

    For linear growth, ``r`` dimensions cancel to zero with the attached
    witness while the eigenvalue survives in the remaining
    ``residual_dim`` = d - r dimensions.
    """

    tag: str  # "Bounded" | "LinearGrowth"
    r: int | None = None
    witness: I0Witness | None = None
    residual_dim: int | None = None

    @property
    def linear(self) -> bool:
        return self.tag == "LinearGrowth"


def zero_growth(n: int, d: int) -> GrowthClass:
    """Growth class of the zero eigenvalue of T^d_n."""
    if not is_zero_eigenvalue(n, d):
        raise ZeroNotEigenvalue(f"zero is not an eigenvalue of T^{d}_{n}")
    w = in_I0(n, d)
    if w is None:
        return GrowthClass("Bounded")
    return GrowthClass("LinearGrowth", d, w, 0)


def eigenvalue_growth(n: int, d: int, ks, budget: int = DEFAULT_BUDGET) -> GrowthClass:
    """Growth class of the eigenvalue of the given index tuple in T^d_n.

    Linear growth holds iff for some r in [1, d] the index r admits a
    growth witness and the eigenvalue already occurs in T^(d-r)_n; the
    smallest such r is returned.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 1:
        raise ValueError("need d >= 1")
    ks = tuple(ks)
    if len(ks) != d:
        raise ValueError(f"expected {d} indices, got {len(ks)}")
    key = key_of_tuple(n, ks)
    for r in range(1, d + 1):
        w = in_I0(n, r)
        if w is None:
            continue
        if membership(n, d - r, key, budget):
            return GrowthClass("LinearGrowth", r, w, d - r)
    return GrowthClass("Bounded")


def d2_closed_form(n: int, k1: int, k2: int) -> int | None:
    """Closed-form multiplicity in T^2_n, or None where no closed form holds.

    Valid for odd n, and for even n not divisible by 12, 30 or 42; there
    the only coincidences between two-cosine sums are the forced ones.
    Indices are canonicalized to [0, n//2] first.  For even n every pair
    with a + b = n/2 lands in the zero eigenvalue class of size 2n - 2;
    the published per-pair formulas overlook this and would assign such
    pairs 4 or 8.
    """
    if n % 2 == 0 and any(n % q == 0 for q in (12, 30, 42)):
        return None
    a = min(k1 % n, (n - k1) % n)
    b = min(k2 % n, (n - k2) % n)
    a, b = min(a, b), max(a, b)
    if n % 2:
        if a == b:
            return 1 if a == 0 else 4
        return 4 if a == 0 else 8
    if a + b == n // 2:  # cos(b) = -cos(a): the whole class sums to zero
        return 2 * n - 2
    special = (0, n // 2)
    if a in special and b in special:
        return 1
    if a in special or b in special:
        return 4
    return 4 if a == b else 8


@dataclass(frozen=True)
class Bound24Report:
    """Maximum multiplicity among nonzero eigenvalues of T^2_n.

    ``images`` holds the F images, in table order, of the keys of
    ``table`` that attain it.  Nearly every key of a table attains the
    generic maximum 8, so nothing per key is built up front: ``attained``
    builds their keys, by value descending and then coefficients, on first
    access.
    """

    n: int
    max_multiplicity: int
    images: tuple[int, ...]
    table: SpectrumTable = field(repr=False, compare=False)

    @functools.cached_property
    def attained(self) -> tuple[CycElt, ...]:
        return tuple(key for _, key, _ in by_value(self.table, self.images))


def verify_bound24(n: int, budget: int = DEFAULT_BUDGET) -> Bound24Report:
    """Maximum nonzero-eigenvalue multiplicity of T^2_n with attaining keys.

    Raises Bound24Violated if the maximum exceeds 24, which would falsify
    a verified claim and must never happen.
    """
    t = torus_spectrum(n, 2, budget)
    best = 0
    top: list[int] = []  # F images attaining best
    for f, c in t.counts.items():
        if not f:  # F(0) = 0, and F is injective on the keys and zero
            continue
        if c > best:
            best, top = c, [f]
        elif c == best:
            top.append(f)
    if best > 24:
        raise Bound24Violated(f"nonzero multiplicity {best} > 24 at n={n}")
    return Bound24Report(n, best, tuple(top), t)


@dataclass(frozen=True)
class Table60Report:
    """High multiplicities of T^2_60 checked against the published table.

    ``ok`` asserts everything the published table gets right: the set of
    multiplicities above 8 is exactly {12, 16, 20, 24, 118}, every listed
    eigenvalue has exactly its listed multiplicity, and the rows 12, 20,
    24 and 118 are complete.  ``row16_extra`` holds the multiplicity-16
    eigenvalues the published row omits (the computation finds 28 in
    total, e.g. 2cos(pi/30) via cos(pi/30) = cos(3pi/10) + cos(11pi/30));
    it is reported rather than folded into ``ok`` because the omission is
    a defect of the published row, not of the computation.  ``high`` holds
    by_value's (value, key, entry) for every key above multiplicity 8, by
    multiplicity and then value descending.
    """

    ok: bool
    printed: dict
    computed: dict
    row16_extra: tuple[CycElt, ...]
    high: tuple[tuple[ApproxReal, CycElt, Entry], ...]


def verify_table60(budget: int = DEFAULT_BUDGET) -> Table60Report:
    """Check the multiplicities above 8 for the 60 x 60 torus.

    Printed rows: 12 at +-(2cos(pi/5)+1) and +-(2cos(2pi/5)-1), 16 at
    +-(2cos(pi/15)+1), 20 at +-1, 24 at +-2cos(pi/5) and +-2cos(2pi/5),
    and 118 at 0.
    """
    ctx = get_context(60)
    c2, c6, c12 = (key_of_tuple(60, (k,)) for k in (2, 6, 12))
    printed = {
        12: frozenset({c6 + 1, -(c6 + 1), c12 - 1, 1 - c12}),
        16: frozenset({c2 + 1, -(c2 + 1)}),
        20: frozenset({ctx.one, -ctx.one}),
        24: frozenset({c6, -c6, c12, -c12}),
        118: frozenset({ctx.zero}),
    }
    t = torus_spectrum(60, 2, budget)
    above8 = [f for f, c in t.counts.items() if c > 8]
    # sorted is stable: by_value's order holds within each multiplicity
    high = sorted(by_value(t, above8), key=lambda row: row[2].count)
    computed = {c: frozenset(k for _, k, _ in g) for c, g in groupby(high, lambda row: row[2].count)}
    ok = set(computed) == set(printed)
    if ok:
        for mult, keys in printed.items():
            if not keys <= computed[mult]:
                ok = False
        for mult in (12, 20, 24, 118):
            if computed[mult] != printed[mult]:
                ok = False
    extra = tuple(key for _, key, e in high if e.count == 16 and key not in printed[16])
    return Table60Report(ok, printed, computed, extra, tuple(high))


def lowerbound_pq_witness(p: int, q: int, d: int) -> tuple[int, int]:
    """Nonnegative (k1, k2) with k1*p + k2*q = 2d and max(k1, k2) >= 2.

    Requires odd primes p < q and 2d >= max((p-1)(q-2), p+q+1); under that
    floor any representation automatically has a coefficient >= 2.
    Constructed via the modular inverse: k2 is the least nonnegative
    residue of 2d / q mod p, and every representation has k2' = k2 mod p,
    so k2' >= k2 and k1' <= k1.  Hence k1 < 0 means none exists.
    """
    if not (p < q and p % 2 and q % 2 and is_prime(p) and is_prime(q)):
        raise ValueError("need odd primes p < q")
    target = 2 * d
    if target < max((p - 1) * (q - 2), p + q + 1):
        raise PreconditionViolated(
            f"2d = {target} below max({(p - 1) * (q - 2)}, {p + q + 1})"
        )
    k2 = (target * pow(q, -1, p)) % p
    k1 = (target - k2 * q) // p
    if k1 < 0:
        raise AssertionError(f"no representation of {target} over ({p}, {q})")
    if k1 * p + k2 * q != target or max(k1, k2) < 2:
        raise AssertionError("witness postcondition failed")
    return (k1, k2)


def pq_optimality_check(p: int, q: int) -> bool:
    """Whether (p-1)(q-2) - 2 misses the semigroup generated by p and q.

    True means the representation floor used above is tight.
    """
    if not (p < q and p % 2 and q % 2 and is_prime(p) and is_prime(q)):
        raise ValueError("need odd primes p < q")
    return not semigroup_member((p - 1) * (q - 2) - 2, (p, q))[0]


def product_inequality_check(
    n: int, d: int, ks, d1: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Exact check that splitting a tuple only loses multiplicity.

    The multiplicity of the whole eigenvalue is at least the product of
    the multiplicities of the prefix and suffix eigenvalues.
    """
    ks = tuple(ks)
    if not 1 <= d1 < d:
        raise ValueError("need 1 <= d1 < d")
    if len(ks) != d:
        raise ValueError(f"expected {d} indices, got {len(ks)}")
    whole = multiplicity_of_tuple(n, d, ks, budget)
    left = multiplicity_of_tuple(n, d1, ks[:d1], budget)
    right = multiplicity_of_tuple(n, d - d1, ks[d1:], budget)
    return whole >= left * right


def zero_lower_bound_family(n: int, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Exact check that m(0) in dimension k*p1 is at least (n/p1)^k.

    p1 is the least prime factor of n; the bound witnesses the optimal
    global exponent d/p1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    p1 = factorize(n).primes[0]
    d = k * p1
    m = key_multiplicity(n, d, get_context(n).zero, budget)
    return m >= (n // p1) ** k
