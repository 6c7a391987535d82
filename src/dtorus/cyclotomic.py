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
d >= 2^30), the vanishing searches add one power per root, and convolve adds
two checked keys and checks each sum.  Polynomials such as Phi_N are dense
coefficient lists, constant term first.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath


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


@functools.lru_cache(maxsize=None)
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

    ``real`` is the midpoint of a rigorous enclosure of the real part and
    ``radius`` its half-width.  ``imag_bound`` bounds the absolute value of
    the imaginary part; for eigenvalue keys (conjugation-symmetric sums) it
    is of the same size as ``radius``.
    """

    real: mpmath.mpf
    radius: mpmath.mpf
    imag_bound: mpmath.mpf

    def __float__(self) -> float:
        return float(self.real)


@functools.lru_cache(maxsize=8)
def _trig_tables(n: int, prec: int):
    """Interval enclosures of cos/sin(2 pi k / n) for 0 <= k < n."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        two_pi = 2 * iv.pi
        cos_t = []
        sin_t = []
        for k in range(n):
            ang = two_pi * k / n
            cos_t.append(iv.cos(ang))
            sin_t.append(iv.sin(ang))
    finally:
        iv.prec = old
    return tuple(cos_t), tuple(sin_t)


def _interval_parts(e: CycElt, prec: int):
    iv = mpmath.iv
    cos_t, sin_t = _trig_tables(e.n, prec)
    old = iv.prec
    try:
        iv.prec = prec
        re = iv.mpf(0)
        im = iv.mpf(0)
        for j, a in enumerate(e.coeffs):
            if a:
                re += a * cos_t[j]
                im += a * sin_t[j]
    finally:
        iv.prec = old
    return re, im


def _endpoints(x) -> tuple[mpmath.mpf, mpmath.mpf]:
    # make_mpf wraps the raw endpoint data without rounding it to the
    # ambient precision; a plain mpf() call here could collapse the
    # interval and report a zero radius.
    a, b = x._mpi_
    return mpmath.mp.make_mpf(a), mpmath.mp.make_mpf(b)


def approx_value(ctx: CycContext, e: CycElt, bits: int = 128) -> ApproxReal:
    """Evaluate the residue at e^{2 pi i / n} with a rigorous error radius.

    Interval arithmetic gives the enclosure; the working precision starts
    at 128 bits (or above the request) and doubles until the radius drops
    below 2^-bits.
    """
    if bits < 64:
        raise ValueError("need at least 64 bits")
    if e.n != ctx.n:
        raise ValueError("element does not belong to this context")
    target = mpmath.mpf(2) ** (-bits)
    prec = max(128, bits + 32)
    while True:
        re, im = _interval_parts(e, prec)
        lo, hi = _endpoints(re)
        with mpmath.workprec(prec + 64):
            # endpoints are prec-bit dyadics, so these combinations are exact
            radius = (hi - lo) / 2
            mid = (lo + hi) / 2
        if radius <= target:
            break
        if prec > 1 << 22:  # pragma: no cover - would need absurd inputs
            raise RuntimeError("interval evaluation failed to converge")
        prec *= 2
    ilo, ihi = _endpoints(im)
    return ApproxReal(
        real=mid,
        radius=radius,
        imag_bound=max(abs(ilo), abs(ihi)),
    )
