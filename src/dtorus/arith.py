"""Factorization, numerical-semigroup and binary-to-decimal helpers (desk scale)."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import BudgetExceeded

# fixed caps, not knobs: factorize divides by trial only by p below this, and
# semigroup_member's table holds at most this many entries (p_1 p_k reduced)
TRIAL_DIVISION_LIMIT = 1 << 20
MAX_SEMIGROUP_TABLE = 1 << 24
# libmp.to_digits_exp's bits per decimal digit, the same float
_LOG2_10 = math.log(10, 2)
# libmp.to_digits_exp first divides by a power of ten when the binary
# exponent of the leading bit is beyond this in absolute value
_SCALED_DIGITS_FROM = 3500


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def value(self) -> int:
        out = 1
        for p, a in self.pairs:
            out *= p**a
        return out


def factorize(n: int) -> Factorization:
    """Exact factorization by trial division by p < TRIAL_DIVISION_LIMIT.

    A cofactor m left with p^2 <= m is kept only when is_prime certifies it
    (so every n < 2^40 factors); otherwise BudgetExceeded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    m = n
    p = 2
    while p * p <= m and p < TRIAL_DIVISION_LIMIT:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            pairs.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        if p * p <= m and not (m < _MR_LIMIT and is_prime(m)):
            raise BudgetExceeded(
                f"cannot factor {n}: cofactor {m} has no prime factor below {TRIAL_DIVISION_LIMIT} and is not certified prime"
            )
        pairs.append((m, 1))
    return Factorization(tuple(pairs))


def totient(n: int) -> int:
    """Euler's phi(n), from the factorization."""
    out = n
    for p in factorize(n).primes:
        out -= out // p
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to each of the first k bases above
# (OEIS A014233; Jaeschke, Math. Comp. 61 (1993), and Sorenson and Webster,
# Math. Comp. 86 (2017)): below psi_k those k bases decide primality
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_LIMIT = _MR_PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3 * 10^24, ValueError above.

    n is tested to the first k bases, k the least index with n < psi_k:
    4 bases for every n < 2^30, all 13 only from 3.2 * 10^23 on.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not certified above {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    odd = (n - 1) >> s
    for a in _MR_BASES[: bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def semigroup_member(length: int, primes) -> tuple[bool, tuple[int, ...] | None]:
    """Membership of ``length`` in the semigroup generated by ``primes``.

    ``primes`` are distinct primes p_1 < ... < p_k; the witness coefficients
    b satisfy sum(b[i] * primes[i]) == length when membership holds.  At a
    length L >= p_1 p_k, L - p_1 is a member exactly when L is (for k >= 2
    it exceeds the Frobenius number p_1 p_k - p_1 - p_k of <p_1, p_k>, for
    k = 1 it is L's residue class), so the dynamic program's parent pointer
    at L is p_1.  L is therefore first brought below p_1 p_k by steps of p_1,
    which come back as b[0]: time and memory are O(p_1 p_k), not O(L), and
    the answer and witness are those of the plain dynamic program, which
    refuses (BudgetExceeded) a reduced length above MAX_SEMIGROUP_TABLE.
    """
    primes = tuple(primes)
    if length < 0:
        raise ValueError("length must be nonnegative")
    if list(primes) != sorted(set(primes)):
        raise ValueError("primes must be distinct and increasing")
    steps = 0
    if primes and length >= primes[0] * primes[-1]:
        steps = (length - primes[0] * primes[-1]) // primes[0] + 1
        length -= steps * primes[0]
    if length > MAX_SEMIGROUP_TABLE:
        raise BudgetExceeded(f"semigroup table needs {length + 1} entries, cap {MAX_SEMIGROUP_TABLE}")
    ok, coeffs = _semigroup_dp(length, primes)
    if ok and steps:
        coeffs = (coeffs[0] + steps,) + coeffs[1:]
    return ok, coeffs


def _semigroup_dp(length: int, primes: tuple[int, ...]) -> tuple[bool, tuple[int, ...] | None]:
    """semigroup_member by dynamic programming with parent pointers, O(length)."""
    if length == 0:
        return True, (0,) * len(primes)
    if not primes:
        return False, None
    parent: list[int | None] = [None] * (length + 1)
    parent[0] = -1
    for x in range(1, length + 1):
        for i, p in enumerate(primes):
            if p <= x and parent[x - p] is not None:
                parent[x] = i
                break
    if parent[length] is None:
        return False, None
    coeffs = [0] * len(primes)
    x = length
    while x:
        i = parent[x]
        coeffs[i] += 1
        x -= primes[i]
    return True, tuple(coeffs)


def decimal(man: int, exp: int, digits: int) -> str:
    """man * 2^exp to ``digits`` >= 1 significant digits, byte for byte as
    mpmath.libmp.to_str writes libmp.from_man_exp(man, exp).

    Written with ints alone, by to_str's steps (it calls
    libmp.to_digits_exp with digits + 3): |man| 2^exp is floored to fixprec
    binary places, and that to fixdps decimal places, as fixprec and fixdps
    are computed there; the first ``digits`` digits of the result are
    rounded up when the next is 5 or more, carrying through nines; an
    exponent strictly between min(-(digits // 3), -5) and ``digits`` is
    written in fixed notation, others as e+N or e-N; trailing zeros go.
    Where the leading bit lies beyond 2^(+-_SCALED_DIGITS_FROM),
    to_digits_exp first divides by a power of ten in floating point; that
    branch calls to_str itself.
    """
    if not man:
        return "0.0"
    a = abs(man)
    top = a.bit_length() + exp  # to_digits_exp's exp_from_1
    if abs(top) > _SCALED_DIGITS_FROM:
        from mpmath import libmp

        return libmp.to_str(libmp.from_man_exp(man, exp), digits)
    bitprec = int((digits + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - top, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = fixprec + exp
    fixed = a << shift if shift >= 0 else a >> -shift
    text = str(fixed * 10**fixdps >> fixprec)  # more than digits + 3 digits
    exponent = len(text) - fixdps - 1
    head = int(text[:digits])
    if text[digits] in "56789":
        head += 1
        if head == 10**digits:  # the carry ran through every digit
            head //= 10
            exponent += 1
    text = str(head)
    split = 1
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            text = "0" * -exponent + text
        else:
            split = exponent + 1
        exponent = 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    sign = "-" if man < 0 else ""
    if exponent == 0:
        return sign + text
    return sign + text + ("e+" if exponent > 0 else "e") + str(exponent)
