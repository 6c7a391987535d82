"""Exact arithmetic in Z[x]/(Phi_N(x)).

A sum of N-th roots of unity is stored as its canonical residue modulo the
N-th cyclotomic polynomial Phi_N.  Two sums are equal as complex numbers
exactly when their residues are, so a residue is the exact key of an
eigenvalue.  A CycElt is built only where its coefficients are printed or a
key crosses the API; tables and searches compare F images (ModEmbedding).

Only this module knows the storage format: the residue sum(c_i x^i), i < phi,
is the int sum(c_i 2^(64 i)) with balanced 64-bit digits (Kronecker
substitution), so residues add as ints, zero is 0 and the constant c is c.
Every CycElt digit lies in [-2^62, 2^62), tested when one is built, so
overflow raises there instead of wrapping.
Unchecked int sums rest on counts: powers of x have digits below 2^31 (tested
per context) and a torus key sums 2d < 2^31 powers (torus_spectrum rejects
d >= 2^30).  Phi_N is a dense coefficient list, constant term first, built
by Moebius inversion of x^N - 1 = prod_{d | N} Phi_d from binomials
x^k - 1 alone; phi(N) comes from the factorization (arith.totient), never
from Phi_N.

ModEmbedding maps residues to short ints modulo M by a ring map; the
spectrum tables key their rows by these images and the vanishing searches
decide on them (key_embedding says why they stay exact).
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable

from .arith import factorize, is_prime, totient
from .errors import BudgetExceeded

# CycContext holds N packed powers of phi(N) 64-bit digits: at most this many
# digits (128 MiB), which admits every N up to 4096
MAX_CONTEXT_DIGITS = 1 << 24
# key_embedding's primes lie below this: one CPython digit each
KEY_PRIMES_BELOW = 1 << 30
# fixed-point bits of approx_value: outputs print 30 significant digits (about
# 100 bits), and a sum of fewer than 2^64 roots keeps its radius below 2^-128
PREC = 192
# guard bits of _fixed_tables' fixed-point series, dropped by its rounding
_GUARD = 64


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (monic, degree totient(n), constant term first).

    Phi_n = prod (x^(n/e) - 1)^mu(e) over the squarefree divisors e of n: the
    factors with mu(e) = +1 are multiplied in, then each with mu(e) = -1 is
    divided out by the recurrence q_i = q_(i-k) - a_i, which is exact
    (AssertionError otherwise) exactly when x^k - 1 divides.
    """
    terms = [(n, 1)]  # (n / e, mu(e))
    for p in factorize(n).primes:  # raises ValueError unless n >= 1
        terms += [(k // p, -mu) for k, mu in terms]
    coeffs = [1]
    for k in (k for k, mu in terms if mu > 0):
        coeffs = [hi - lo for hi, lo in zip([0] * k + coeffs, coeffs + [0] * k)]
    for k in (k for k, mu in terms if mu < 0):
        for i in range(len(coeffs)):
            coeffs[i] = (coeffs[i - k] if i >= k else 0) - coeffs[i]
        if any(coeffs[-k:]):
            raise AssertionError(f"x^{k} - 1 does not divide the partial product of Phi_{n}")
        del coeffs[-k:]
    return tuple(coeffs)


@functools.lru_cache(maxsize=256)
def _layout(n: int) -> tuple[int, int, int, int]:
    """phi(n); offset and mask: (v + offset) & mask == 0 iff v has phi digits
    in [-2^62, 2^62); flip: (v + flip) ^ flip holds each digit in two's complement.
    """
    phi = totient(n)
    ones = int.from_bytes((1).to_bytes(8, "little") * phi, "little")
    return phi, ones << 62, ~(((1 << 63) - 1) * ones), ones << 63


class CycElt:
    """Canonical residue of a root-of-unity sum; immutable, hashable, exact.

    ``v`` is the packed residue; ``coeffs`` unpacks its phi(n) coefficients.
    Instances are equal iff modulus and residue are: distinct eigenvalues
    never collide and equal ones never split.  They have no order.
    """

    __slots__ = ("n", "v")

    def __init__(self, n: int, v: int):
        _, offset, mask, _ = _layout(n)
        if (v + offset) & mask:
            raise OverflowError("cyclotomic residue overflow: a digit left [-2^62, 2^62)")
        self.n = n
        self.v = v

    @property
    def coeffs(self) -> tuple[int, ...]:
        phi, _, _, flip = _layout(self.n)
        raw = ((self.v + flip) ^ flip).to_bytes(8 * phi, sys.byteorder)
        return tuple(array("q", raw))

    def __hash__(self) -> int:
        v = self.v
        if v.bit_length() <= 64 * 61:
            return hash(v)
        # int hashes repeat every 61 digits (2^64 = 2^3 modulo 2^61 - 1)
        return hash(v.to_bytes(v.bit_length() // 8 + 1, "little", signed=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.n == other.n and self.v == other.v

    def __repr__(self) -> str:
        return f"CycElt(n={self.n}, coeffs={list(self.coeffs)})"

    def is_zero(self) -> bool:
        return not self.v


class CycContext:
    """Shared immutable reduction data for one modulus N.

    Holds ``powers``, the packed residues of x^k for 0 <= k < N, turning
    root-power sums into int additions.  Raises BudgetExceeded, before any
    allocation, when N * phi(N) exceeds MAX_CONTEXT_DIGITS; since
    N * phi(N) >= N, a larger N is refused before it is factored.
    """

    __slots__ = ("n", "phi", "powers", "zero")

    def __init__(self, n: int):
        phi = totient(n) if n <= MAX_CONTEXT_DIGITS else n  # totient: ValueError unless n >= 1
        if n * phi > MAX_CONTEXT_DIGITS:
            raise BudgetExceeded(f"cyclotomic context for n={n} needs more than {MAX_CONTEXT_DIGITS} digits")
        self.n, self.phi = n, phi
        phi_packed = sum(c << (64 * i) for i, c in enumerate(cyclotomic_poly(n)))
        flip = _layout(n)[3]
        powers = []
        cur = 1
        for _ in range(n):
            CycElt(n, cur << 31)  # digits below 2^31, as the module docstring needs
            powers.append(cur)
            cur <<= 64
            cur -= ((cur + flip) >> (64 * phi)) * phi_packed  # cancel the digit of x^phi
        if cur != 1:  # x^N = 1 modulo Phi_N, i.e. Phi_N divides x^N - 1
            raise AssertionError(f"Phi_{n} does not divide x^{n}-1")
        self.powers = tuple(powers)
        self.zero = CycElt(n, 0)

    def __repr__(self) -> str:
        return f"CycContext(n={self.n}, phi={self.phi})"


@functools.lru_cache(maxsize=64)
def get_context(n: int) -> CycContext:
    return CycContext(n)


def key_of_tuple(n: int, ks: Iterable[int]) -> CycElt:
    """Eigenvalue key of an index tuple: the sum of its 2-cosine values."""
    powers = get_context(n).powers
    return CycElt(n, sum([powers[k % n] + powers[-k % n] for k in ks]))


def sum_reduce(ctx: CycContext, exponents: Iterable[int]) -> CycElt:
    """Canonical form of the sum of zeta_n^e over the exponent multiset.

    The result is the zero element exactly when the root-of-unity sum
    vanishes.
    """
    n, powers = ctx.n, ctx.powers
    return CycElt(n, sum(powers[e % n] for e in exponents))


def _pi_fixed(one: int) -> tuple[int, int]:
    """(p, e) with p within e of pi * one, for one a power of two, by Machin's
    formula pi = 16 atan(1/5) - 4 atan(1/239).

    atan(1/x) = sum_j (-1)^j / ((2j + 1) x^(2j+1)).  The power
    one // x^(2j+1) is taken by repeated floor division by x^2 and the term
    by one more by 2j + 1; nested floors by positive integers are one floor,
    so each term is within 1 of its exact value.  The sum stops at the first
    power that floors to 0; the terms left out alternate and decrease from
    one below 1, so they add less than 1.  Hence the j terms taken leave
    atan(1/x) within j + 1, and e sums these bounds times |weight|.
    """
    p = e = 0
    for x, weight in ((5, 16), (239, -4)):
        power, j = one // x, 0
        while power:
            term = power // (2 * j + 1)
            p += weight * (-term if j % 2 else term)
            power //= x * x
            j += 1
        e += abs(weight) * (j + 1)
    return p, e


@functools.lru_cache(maxsize=8)
def _fixed_tables(n: int, prec: int) -> tuple[int, ...]:
    """Integers within 1 of 2^prec cos(2 pi k / n), k < n.

    The entries for k <= n/2 (k <= n/4 for even n) are computed in fixed
    point: w = prec + _GUARD bits, one = 2^w, every error below in units of
    2^-w.  _pi_fixed gives p within e_pi of pi one.  The angle
    a = 2 k p // n is within e_pi + 1 of theta one, theta = 2 pi k / n,
    as 2k <= n; |cos x - cos y| <= |x - y| carries that to the cosine.
    The Taylor series sums (-1)^j t_j with t_0 = one and
    t_j = t_(j-1) a^2 // (one^2 (2j - 1) 2j), one floor of the exact term
    T_j = one (a / one)^(2j) / (2j)! computed from t_(j-1), so
    0 <= T_j - t_j = e_j < c_j e_(j-1) + 1 with c_j = (a / one)^2 / ((2j - 1) 2j).
    As a <= p <= pi one + e_pi, and e_pi < 2^(_GUARD - 1) <= one / 4 by the
    assertion below (prec >= 1), a / one < 3.4 and c_j < 12 / ((2j - 1) 2j):
    e_1 < 1, e_2 < 2, and e_j < 2 * 12 / 30 + 1 < 2 from then on.  The sum
    stops at the first t_m = 0, so T_m < 2, and c_j < 1 for j > m (j >= 3,
    or a^2 < 2 one^2 when m = 1): the terms left out alternate and
    decrease, adding less than T_m.  The m terms taken are off by less
    than 1 + 2(m - 1) in all, so the sum s is within
    err = (e_pi + 1) + (2m - 1) + 2 of one cos theta, asserted to be under half
    a guard unit, 2^(_GUARD - 1): (s + 2^(_GUARD - 1)) >> _GUARD, the nearest
    integer to s / 2^_GUARD, is within 1/2 + 1/2 of 2^prec cos theta.

    For even n the entry for n/4 < k <= n/2 is minus that for n/2 - k, as
    cos(2 pi k / n) = -cos(2 pi (n/2 - k) / n), and the entry for k > n/2
    is that for n - k, as cos is even.
    """
    w = prec + _GUARD
    one = 1 << w
    p, e_pi = _pi_fixed(one)
    half = []
    for k in range((n // 2 if n % 2 else n // 4) + 1):
        a2 = (2 * k * p // n) ** 2
        s = term = one
        m = 0
        while term:
            m += 1
            term = (term * a2 >> 2 * w) // ((2 * m - 1) * 2 * m)
            s += -term if m % 2 else term
        if not e_pi + 2 * m + 2 < 1 << (_GUARD - 1):
            raise AssertionError(f"cosine error bound not below half of 2^-{prec}")
        half.append((s + (1 << (_GUARD - 1))) >> _GUARD)
    if n % 2 == 0:
        half += [-half[n // 2 - k] for k in range(len(half), n // 2 + 1)]
    return tuple(half + half[(n - 1) // 2 : 0 : -1])


def approx_value(n: int, exponents: Iterable[int]) -> int:
    """Certify Re sum zeta_n^e over the exponent multiset, times 2^PREC.

    The int sum C_e, with the integers C_e within 1 of 2^PREC cos(2 pi e / n)
    (``_fixed_tables``): the value times 2^PREC within one unit per root, a
    radius of at most 2^-128 below 2^64 roots, far below the last of the 30
    digits printed.  Callers order and sum these ints exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    table = _fixed_tables(n, PREC)
    return sum([table[e % n] for e in exponents])


@dataclass(frozen=True)
class ModEmbedding:
    """The ring map F: Z[zeta_n] -> Z/M sending zeta_n to omega.

    M is a product of distinct primes p = 1 (mod n) and omega has exact
    order n modulo each, so omega is a root of Phi_n and F is well defined
    on residues.  ``powers`` holds omega^k mod M for k < n.
    """

    n: int
    primes: tuple[int, ...]
    modulus: int
    omega: int
    powers: tuple[int, ...]

    def image(self, e: CycElt) -> int:
        """F(e) in [0, M)."""
        if e.n != self.n:
            raise ValueError(f"mixed moduli {self.n} and {e.n}")
        return sum(map(operator.mul, e.coeffs, self.powers)) % self.modulus

    def cos_image(self, ks) -> int:
        """F of the sum of 2 cos(2 pi k / n) over ks, i.e. of zeta^k + zeta^-k."""
        n, w = self.n, self.powers
        return sum(w[k % n] + w[-k % n] for k in ks) % self.modulus


@functools.lru_cache(maxsize=1024)
def _split_prime(n: int, below: int) -> tuple[int, int]:
    """The largest prime p = 1 (mod n) below ``below``, and an element of
    exact order n modulo p.  Cached, as key_embedding(n, roots) takes the
    same primes for every roots; ValueError if there is no such prime."""
    p = (below - 2) // n * n + 1
    while not is_prime(p):
        p -= n
        if p < 2:
            raise ValueError(f"too few primes p = 1 (mod {n}) below {below}")
    qs = factorize(n).primes
    for g in range(2, p):
        h = pow(g, (p - 1) // n, p)
        if all(pow(h, n // q, p) != 1 for q in qs):
            return p, h


@functools.lru_cache(maxsize=256)
def key_embedding(n: int, roots: int) -> ModEmbedding:
    """F with the fewest primes that is injective on real sums of ``roots`` n-th roots.

    A torus key of T^d_n is such a sum with roots = 2d, and a key of a Cayley
    graph with a symmetric generating multiset of g elements one with
    roots = g.  The primes are the largest p = 1 (mod n) below
    KEY_PRIMES_BELOW = 2^30, in descending order, so each is one CPython
    digit and is_prime certifies it with 4 bases; they split completely in
    Q(zeta_n) (Washington, Introduction to Cyclotomic Fields, Thm 2.13), so
    Phi_n has roots modulo each.  A key is a real cyclotomic integer with
    |sigma(key)| <= roots under every embedding sigma.  If F(a) = F(b) for
    keys a != b, then a - b lies in a degree-one prime of the real subring
    above each p_i, so M divides its norm to Q.  For n >= 3 that subring is
    Z[zeta + 1/zeta] of degree phi/2 and the norm is at most
    (2 roots)^(phi/2) in absolute value; for n <= 2 it is Z itself
    (phi = 1) and |a - b| <= 2 roots.  Both are impossible once
    M^2 > (2 roots)^max(phi, 2).  The same holds with the zero element (an
    empty sum) in place of either key.

    The n powers take the place of a CycContext's and share its ceiling of
    64 * MAX_CONTEXT_DIGITS = 2^30 bits: BudgetExceeded is raised, before n
    is factored or any prime tested, when n times an upper estimate of
    bits(M) exceeds it.  M^2 is at most the bound before the last prime
    below 2^30 joins M, and phi <= n, so bits(M) <= max(n, 2) bits(2 roots)
    / 2 + 63.  That ceiling is also why the primes below 2^30 always
    suffice: it admits only (n, roots) whose M has fewer than 2^30 / n bits,
    while the primes = 1 (mod n) below 2^30 multiply to about
    2^30 / (phi(n) ln 2) >= 1.44 * 2^30 / n bits (the prime number theorem
    in progressions).  Counted exactly in the tests: n = 8179 with
    roots = 2^31 - 2 (the most a torus key has; no larger prime n is
    admitted there) takes 4462 of its 6728 primes, and n = 23143 with
    roots = 4 (T^2_n) 1176 of 2366.  A modulus that ran short would raise
    ValueError, never get a smaller M.
    """
    if n * (max(n, 2) * (2 * roots).bit_length() // 2 + 63) > 64 * MAX_CONTEXT_DIGITS:
        raise BudgetExceeded(
            f"powers of F for n={n}, roots={roots} may need more than {64 * MAX_CONTEXT_DIGITS} bits"
        )
    bound = (2 * roots) ** max(totient(n), 2)
    primes, modulus, omega = [], 1, 0
    while modulus * modulus <= bound:
        p, h = _split_prime(n, primes[-1] if primes else KEY_PRIMES_BELOW)
        omega += modulus * ((h - omega) * pow(modulus, -1, p) % p)  # CRT
        modulus *= p
        primes.append(p)
    if not modulus * modulus > bound:  # the proof above; never weaken it
        raise AssertionError(f"M^2 <= (2 roots)^max(phi, 2) for n={n}, roots={roots}")
    powers, w = [], 1
    for _ in range(n):
        powers.append(w)
        w = w * omega % modulus
    return ModEmbedding(n, tuple(primes), modulus, omega, tuple(powers))
