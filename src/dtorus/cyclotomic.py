"""Exact arithmetic in Z[x]/(Phi_N(x)).

A sum of N-th roots of unity is stored as its canonical residue modulo the
N-th cyclotomic polynomial Phi_N.  Two sums are equal as complex numbers
exactly when their residues are, so a residue doubles as a hashable
dictionary key when eigenvalues get grouped into multiplicity tables.

Only this module knows the storage format: the residue sum(c_i x^i), i < phi,
is the int sum(c_i 2^(64 i)) with balanced 64-bit digits (Kronecker
substitution), so residues add as ints, zero is 0 and the constant c is c.
Every CycElt digit lies in [-2^62, 2^62), tested wherever one is formed: the
sum of two stays one-to-one, and overflow raises instead of wrapping.
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

import mpmath
from mpmath import libmp

from .arith import factorize, is_prime, totient
from .errors import BudgetExceeded

# CycContext holds N packed powers of phi(N) 64-bit digits: at most this many
# digits (128 MiB), which admits every N up to 4096
MAX_CONTEXT_DIGITS = 1 << 24
# fixed-point bits of approx_value: outputs print 30 significant digits (about
# 100 bits), and a sum of fewer than 2^64 roots keeps its radius below 2^-128
PREC = 192


@functools.lru_cache(maxsize=1024)
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

    ``v`` is the packed residue; ``coeffs`` unpacks its phi(n) coefficients,
    which also order instances.  Instances are equal iff modulus and residue
    are: distinct eigenvalues never collide and equal ones never split.
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

    def __lt__(self, other: "CycElt") -> bool:
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.coeffs < other.coeffs

    def __repr__(self) -> str:
        return f"CycElt(n={self.n}, coeffs={list(self.coeffs)})"

    def is_zero(self) -> bool:
        return not self.v

    def _coerce(self, other: "CycElt | int") -> int:
        if isinstance(other, int):
            return CycElt(1, other).v  # a constant is a residue modulo Phi_1: one digit
        if not isinstance(other, CycElt):
            raise TypeError(f"cannot combine CycElt with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"mixed moduli {self.n} and {other.n}")
        return other.v

    def __add__(self, other: "CycElt | int") -> "CycElt":
        return CycElt(self.n, self.v + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "CycElt | int") -> "CycElt":
        return CycElt(self.n, self.v - self._coerce(other))

    def __rsub__(self, other: int) -> "CycElt":
        return CycElt(self.n, self._coerce(other) - self.v)

    def __neg__(self) -> "CycElt":
        return CycElt(self.n, -self.v)


class CycContext:
    """Shared immutable reduction data for one modulus N.

    Holds ``powers``, the packed residues of x^k for 0 <= k < N, turning
    root-power sums into int additions.  Raises BudgetExceeded, before any
    allocation, when N * phi(N) exceeds MAX_CONTEXT_DIGITS; since
    N * phi(N) >= N, a larger N is refused before it is factored.
    """

    __slots__ = ("n", "phi", "powers", "zero", "one")

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
        self.one = CycElt(n, 1)

    def const(self, c: int) -> CycElt:
        return self.zero + c

    def __repr__(self) -> str:
        return f"CycContext(n={self.n}, phi={self.phi})"


@functools.lru_cache(maxsize=64)
def get_context(n: int) -> CycContext:
    return CycContext(n)


def key_of_tuple(n: int, ks: Iterable[int]) -> CycElt:
    """Eigenvalue key of an index tuple: the sum of its 2-cosine values."""
    powers = get_context(n).powers
    return CycElt(n, sum(powers[k % n] + powers[-k % n] for k in ks))


def sum_reduce(ctx: CycContext, exponents: Iterable[int]) -> CycElt:
    """Canonical form of the sum of zeta_n^e over the exponent multiset.

    The result is the zero element exactly when the root-of-unity sum
    vanishes.
    """
    n, powers = ctx.n, ctx.powers
    return CycElt(n, sum(powers[e % n] for e in exponents))


@dataclass(frozen=True)
class ApproxReal:
    """Certified enclosure of a real root-of-unity sum (approx_value).

    ``real`` is a fixed-point midpoint and ``radius`` a rigorous bound on its
    error: one unit of the last fixed-point bit per root, 2d for a key of
    T^d_n; the zero row of a table is exactly 0, radius 0.
    """

    real: mpmath.mpf
    radius: mpmath.mpf

    def __float__(self) -> float:
        return float(self.real)


@functools.lru_cache(maxsize=8)
def _fixed_tables(n: int, prec: int) -> tuple[int, ...]:
    """Integers within 1 of 2^prec cos(2 pi k / n), k < n.

    Each entry is the integer nearest the midpoint of one interval
    enclosure at prec + 32 bits, whose width is asserted to be at most 1.
    """
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec + 32
        cosines = [iv.cos(2 * iv.pi * k / n) for k in range(n)]
    finally:
        iv.prec = old

    def nearest(x) -> int:
        lo, hi = (mpmath.mp.make_mpf(end) for end in x._mpi_)
        if not mpmath.ldexp(mpmath.fsub(hi, lo, exact=True), prec) <= 1:
            raise AssertionError(f"cosine enclosure wider than 2^-{prec}")
        mid = mpmath.ldexp(mpmath.fadd(lo, hi, exact=True), prec - 1)
        return int(mpmath.nint(mid))

    # the sum and the shifts are exact; nint rounds to the working precision,
    # which must hold the (prec + 1)-bit result (the ambient 53 bits would not)
    with mpmath.workprec(prec + 96):
        return tuple(map(nearest, cosines))


def approx_value(n: int, exponents: Iterable[int]) -> ApproxReal:
    """Certify Re sum zeta_n^e over the exponent multiset, with a rigorous radius.

    Fixed point at PREC bits: with the integers C_e within 1 of
    2^PREC cos(2 pi e / n) (``_fixed_tables``), the value is sum C_e / 2^PREC
    with radius (number of roots) / 2^PREC, at most 2^-128 below 2^64 roots,
    far below the last of the 30 digits printed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    table = _fixed_tables(n, PREC)
    exponents = list(exponents)

    def fixed(m: int) -> mpmath.mpf:
        # exact: mpf((m, -PREC)) would round m to the ambient 53 bits
        return mpmath.mp.make_mpf(libmp.from_man_exp(m, -PREC))

    return ApproxReal(real=fixed(sum(table[e % n] for e in exponents)), radius=fixed(len(exponents)))


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
    same primes for every roots."""
    p = (below - 2) // n * n + 1
    while not is_prime(p):
        p -= n
        if p < 2:
            raise ValueError(f"too few primes p = 1 (mod {n}) below 2^62")
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
    roots = g.  The primes are the largest p = 1 (mod n) below 2^62, in
    descending order; they split completely in Q(zeta_n) (Washington,
    Introduction to Cyclotomic Fields, Thm 2.13), so Phi_n has roots modulo
    each.  A key is a real cyclotomic integer with |sigma(key)| <= roots
    under every embedding sigma.  If F(a) = F(b) for keys a != b, then a - b
    lies in a degree-one prime of the real subring above each p_i, so M
    divides its norm to Q.  For n >= 3 that subring is Z[zeta + 1/zeta] of
    degree phi/2 and the norm is at most (2 roots)^(phi/2) in absolute value;
    for n <= 2 it is Z itself (phi = 1) and |a - b| <= 2 roots.  Both are
    impossible once M^2 > (2 roots)^max(phi, 2).  The same holds with the
    zero element (an empty sum) in place of either key.

    The n powers take the place of a CycContext's and share its ceiling of
    64 * MAX_CONTEXT_DIGITS bits: BudgetExceeded is raised, before n is
    factored or any prime tested, when n times an upper estimate of bits(M)
    exceeds it.  M^2 is at most the bound before the last prime below 2^62
    joins M, and phi <= n, so bits(M) <= max(n, 2) bits(2 roots) / 2 + 63.
    """
    if n * (max(n, 2) * (2 * roots).bit_length() // 2 + 63) > 64 * MAX_CONTEXT_DIGITS:
        raise BudgetExceeded(
            f"powers of F for n={n}, roots={roots} may need more than {64 * MAX_CONTEXT_DIGITS} bits"
        )
    bound = (2 * roots) ** max(totient(n), 2)
    primes, modulus, omega = [], 1, 0
    while modulus * modulus <= bound:
        p, h = _split_prime(n, primes[-1] if primes else 1 << 62)
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
