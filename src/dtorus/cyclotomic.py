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
per context), a torus key sums 2d < 2^31 powers (torus_spectrum rejects
d >= 2^30) and the vanishing searches add one power per root.  Polynomials
such as Phi_N are dense coefficient lists, constant term first.

ModEmbedding maps residues to short ints modulo M by a ring map; the torus
tables key their rows by these images (key_embedding says why they stay
exact).
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
from mpmath import libmp

from .arith import factorize, is_prime


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials; ``den`` must be monic."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    work = list(num)
    dn = len(den) - 1
    if len(work) - 1 < dn:
        return [0], work
    quot = [0] * (len(work) - dn)
    for i in range(len(work) - 1, dn - 1, -1):
        c = work[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                work[i - dn + j] -= c * den[j]
    rem = work[:dn]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


@functools.lru_cache(maxsize=1024)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (monic, degree totient(n), constant term first).

    Built by exact division of x^n - 1 by Phi_d over the proper divisors d
    of n, so every intermediate stays an integer polynomial.
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs: list[int] = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            coeffs, rem = _divmod_monic(coeffs, cyclotomic_poly(d))
            if any(rem):
                raise AssertionError(f"Phi_{d} does not divide x^{n}-1")
    return tuple(coeffs)


@functools.lru_cache(maxsize=256)
def _layout(n: int) -> tuple[int, int, int, int]:
    """phi(n); offset and mask: (v + offset) & mask == 0 iff v has phi digits
    in [-2^62, 2^62); flip: (v + flip) ^ flip holds each digit in two's complement.
    """
    phi = len(cyclotomic_poly(n)) - 1
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

    Holds Phi_N and ``powers``, the packed residues of x^k for 0 <= k < N,
    turning root-power sums into int additions.
    """

    __slots__ = ("n", "phi", "phi_coeffs", "powers", "zero", "one")

    def __init__(self, n: int):
        self.n = n
        self.phi_coeffs = cyclotomic_poly(n)  # raises ValueError unless n >= 1
        self.phi = phi = len(self.phi_coeffs) - 1
        phi_packed = sum(c << (64 * i) for i, c in enumerate(self.phi_coeffs))
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


def root_power(ctx: CycContext, k: int) -> CycElt:
    """Canonical form of zeta_n^k (k taken modulo n)."""
    return CycElt(ctx.n, ctx.powers[k % ctx.n])


def cos_key(ctx: CycContext, k: int) -> CycElt:
    """Canonical form of zeta^k + zeta^{-k}, i.e. the value 2 cos(2 pi k / n).

    For k = 0 this is the constant 2 (both exponents coincide), and
    cos_key(n, k) == cos_key(n, n - k) holds by construction.
    """
    n = ctx.n
    return CycElt(n, ctx.powers[k % n] + ctx.powers[-k % n])


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
    """Certified enclosure of the complex embedding of a residue.

    ``real`` is a fixed-point midpoint for the real part and ``radius`` a
    rigorous bound on its error: the sum of the coefficients' absolute
    values, in units of the last fixed-point bit.  ``imag_bound`` bounds the
    absolute value of the imaginary part; for eigenvalue keys
    (conjugation-symmetric sums) it is of the same size as ``radius``.
    """

    real: mpmath.mpf
    radius: mpmath.mpf
    imag_bound: mpmath.mpf

    def __float__(self) -> float:
        return float(self.real)


@functools.lru_cache(maxsize=8)
def _fixed_tables(n: int, prec: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integers within 1 of 2^prec cos(2 pi k / n) and 2^prec sin(2 pi k / n), k < n.

    Each entry is the integer nearest the midpoint of one interval
    enclosure at prec + 32 bits, whose width is asserted to be at most 1.
    """
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec + 32
        angles = [2 * iv.pi * k / n for k in range(n)]
        cosines, sines = [iv.cos(a) for a in angles], [iv.sin(a) for a in angles]
    finally:
        iv.prec = old

    def nearest(x) -> int:
        lo, hi = (mpmath.mp.make_mpf(end) for end in x._mpi_)
        if not mpmath.ldexp(mpmath.fsub(hi, lo, exact=True), prec) <= 1:
            raise AssertionError(f"cos/sin enclosure wider than 2^-{prec}")
        mid = mpmath.ldexp(mpmath.fadd(lo, hi, exact=True), prec - 1)
        return int(mpmath.nint(mid))

    # the sum and the shifts are exact; nint rounds to the working precision,
    # which must hold the (prec + 1)-bit result (the ambient 53 bits would not)
    with mpmath.workprec(prec + 96):
        return tuple(map(nearest, cosines)), tuple(map(nearest, sines))


def approx_value(ctx: CycContext, e: CycElt, bits: int = 128) -> ApproxReal:
    """Evaluate the residue at e^{2 pi i / n} with a rigorous error radius.

    Fixed point at prec = bits + 64 bits: with integers C_j, S_j within 1 of
    2^prec cos(2 pi j / n), 2^prec sin(2 pi j / n) (``_fixed_tables``) and
    w = sum |a_j|, the real part is sum a_j C_j / 2^prec with radius
    w / 2^prec, and |imag| <= (|sum a_j S_j| + w) / 2^prec.  prec doubles
    while w > 2^(prec - bits), so the radius is at most 2^-bits.
    """
    if bits < 64:
        raise ValueError("need at least 64 bits")
    if e.n != ctx.n:
        raise ValueError("element does not belong to this context")
    coeffs = e.coeffs
    w = sum(map(abs, coeffs))
    prec = bits + 64
    while w > 1 << (prec - bits):
        prec *= 2
    cos_t, sin_t = _fixed_tables(ctx.n, prec)
    re = sum(map(operator.mul, coeffs, cos_t))
    im = sum(map(operator.mul, coeffs, sin_t))

    def fixed(m: int) -> mpmath.mpf:
        # exact: mpf((m, -prec)) would round m to the ambient 53 bits
        return mpmath.mp.make_mpf(libmp.from_man_exp(m, -prec))

    return ApproxReal(real=fixed(re), radius=fixed(w), imag_bound=fixed(abs(im) + w))


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


@functools.lru_cache(maxsize=256)
def key_embedding(n: int, d: int) -> ModEmbedding:
    """F with the fewest primes that is injective on the eigenvalue keys of T^d_n.

    The primes are the largest p = 1 (mod n) below 2^62, in descending
    order; they split completely in Q(zeta_n) (Washington, Introduction to
    Cyclotomic Fields, Thm 2.13), so Phi_n has roots modulo each.  A key is
    a sum of 2d values 2 cos(2 pi k / n): a real cyclotomic integer with
    |sigma(key)| <= 2d under every embedding sigma.  If F(a) = F(b) for keys
    a != b, then a - b lies in a degree-one prime of Z[zeta + 1/zeta] above
    each p_i, so M divides its norm to Q, which is at most (4d)^(phi/2) in
    absolute value: impossible once M^2 > (4d)^phi.  The same holds with the
    zero element (an empty sum) in place of either key.
    """
    bound = (4 * d) ** (len(cyclotomic_poly(n)) - 1)
    qs = factorize(n).primes
    primes, modulus, omega = [], 1, 0
    p = ((1 << 62) - 2) // n * n + 1
    while modulus * modulus <= bound:
        while not is_prime(p):
            p -= n
            if p < 2:
                raise ValueError(f"too few primes p = 1 (mod {n}) below 2^62")
        for g in range(2, p):  # an element of exact order n mod p
            h = pow(g, (p - 1) // n, p)
            if all(pow(h, n // q, p) != 1 for q in qs):
                break
        omega += modulus * ((h - omega) * pow(modulus, -1, p) % p)  # CRT
        modulus *= p
        primes.append(p)
        p -= n
    if not modulus * modulus > bound:  # the proof above; never weaken it
        raise AssertionError(f"M^2 <= (4d)^phi for n={n}, d={d}")
    powers, w = [], 1
    for _ in range(n):
        powers.append(w)
        w = w * omega % modulus
    return ModEmbedding(n, tuple(primes), modulus, omega, tuple(powers))
