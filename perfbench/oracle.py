"""Answer checks that share no code with the dtorus package.

Everything here is plain integer arithmetic written for the benchmark: its
own cyclotomic polynomials (Moebius product, not the package's recursive
division), its own residues of x^k, its own semigroup test and a brute-force
N^2 enumeration of T^2_N.  The benchmark compares the package's answers
against these outside its timed regions.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add


def prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    out = n
    for p in prime_divisors(n):
        out -= out // p
    return out


def in_semigroup(total: int, gens) -> bool:
    """Whether total is a nonnegative integer combination of gens."""
    if total < 0:
        return False
    reach = [True] + [False] * total
    for m in range(1, total + 1):
        reach[m] = any(g <= m and reach[m - g] for g in gens)
    return reach[total]


def zero_is_eigenvalue(n: int, d: int) -> bool:
    """The four-case zero-eigenvalue criterion for T^d_n."""
    primes = prime_divisors(n)
    if n % 2:
        return in_semigroup(2 * d, primes)
    if d % 2 == 0:
        return True
    odd = [p for p in primes if p != 2]
    return bool(odd and odd[0] <= d) or n % 4 == 0


def _mobius(n: int) -> int:
    primes = prime_divisors(n)
    m = n
    for p in primes:
        m //= p
        if m % p == 0:
            return 0
    return -1 if len(primes) % 2 else 1


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, y in enumerate(den):
            num[i + j] -= c * y
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first, as prod over d | n of (x^d - 1)^mu(n/d)."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            if mu:
                factor = [-1] + [0] * (d - 1) + [1]
                if mu > 0:
                    num = _mul(num, factor)
                else:
                    den = _mul(den, factor)
    return tuple(_exact_div(num, den))


@lru_cache(maxsize=16)
def powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Residues of x^k modulo Phi_n for 0 <= k < n, dense, constant first."""
    phi = cyclotomic(n)
    deg = len(phi) - 1
    out = []
    for k in range(n):
        poly = [0] * (k + 1)
        poly[k] = 1
        for i in range(k, deg - 1, -1):
            c = poly[i]
            if c:
                for j, y in enumerate(phi):
                    poly[i - deg + j] -= c * y
        out.append(tuple((poly + [0] * deg)[:deg]))
    return tuple(out)


def residue(n: int, exponents) -> tuple[int, ...]:
    """Residue of sum zeta_n^e over the exponent multiset."""
    pw = powers(n)
    acc = [0] * len(pw[0])
    for e in exponents:
        for i, c in enumerate(pw[e % n]):
            acc[i] += c
    return tuple(acc)


def vanishes(n: int, exponents) -> bool:
    return not any(residue(n, exponents))


@lru_cache(maxsize=8)
def torus2_counts(n: int) -> dict[tuple[int, ...], int]:
    """Key coefficients -> count over all n^2 index pairs of T^2_n."""
    pw = powers(n)
    cos = [tuple(map(add, pw[k], pw[-k % n])) for k in range(n)]
    return dict(Counter(tuple(map(add, a, b)) for a in cos for b in cos))
