"""Vanishing sums of roots of unity and of cosines.

Covers exact vanishing tests, the length set of vanishing sums (a numerical
semigroup over the prime divisors), brute-force enumeration of minimal sums
at desk scale, the classical classification of vanishing four-term cosine
sums, admissibility, and the bound calculators used by the growth results.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime, semigroup_member
from .cyclotomic import cos_key, get_context
from .errors import BudgetExceeded, NotApplicable, ZeroEigenvalue
from .spectrum import DEFAULT_BUDGET


@dataclass(frozen=True)
class RootMultiset:
    """Multiset of exponents k standing for the formal sum of zeta_n^k."""

    n: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents:
            raise ValueError("exponent multiset must be nonempty")
        object.__setattr__(
            self, "exponents", tuple(sorted(e % self.n for e in self.exponents))
        )


def is_vanishing(m: RootMultiset) -> bool:
    """Whether the root-of-unity sum is exactly zero."""
    return _roots_sum_is_zero(m.n, Counter(m.exponents))


def w_membership(n: int, length: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some vanishing sum over the n-th roots has this length.

    The attainable lengths form the numerical semigroup generated by the
    prime divisors of n; the witness lists one coefficient per prime.
    """
    return semigroup_member(length, factorize(n).primes)


def evertse_bound(k: int) -> int:
    """Count bound (k+1)^(3(k+1)^2) on non-degenerate unit equations."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (k + 1) ** (3 * (k + 1) ** 2)


def fmvs_bound(length: int) -> int:
    """Bound l^(3l^2) on minimal vanishing sums of length l through a fixed root."""
    if length < 1:
        raise ValueError("length must be positive")
    return length ** (3 * length**2)


# ---------------------------------------------------------------------------
# Four-term cosine sums


_SPORADIC_QUADRUPLES: tuple[tuple[str, tuple[tuple[Fraction, ...], ...]], ...] = tuple(
    (
        fam,
        tuple(
            tuple(sorted(Fraction(a, b) for a, b in quad))
            for quad in quads
        ),
    )
    for fam, quads in [
        ("III", [[(2, 5), (4, 5), (1, 2), (1, 3)], [(3, 5), (1, 5), (1, 2), (2, 3)]]),
        ("IV", [[(1, 5), (3, 5), (1, 3), (1, 1)], [(4, 5), (2, 5), (2, 3), (0, 1)]]),
        ("V", [[(2, 5), (7, 15), (13, 15), (1, 3)], [(3, 5), (8, 15), (2, 15), (2, 3)]]),
        ("VI", [[(1, 15), (11, 15), (4, 5), (1, 3)], [(14, 15), (4, 15), (1, 5), (2, 3)]]),
        ("VII", [[(2, 7), (4, 7), (6, 7), (1, 3)], [(5, 7), (3, 7), (1, 7), (2, 3)]]),
    ]
)


@dataclass(frozen=True)
class Cos4Classification:
    """Family label for a vanishing four-term cosine sum.

    ``family`` is one of I..VII or "NotVanishing".  For family I the
    parameters are the two base angles, for family II the offset delta;
    sporadic families carry no parameters.  ``quadruple`` reconstructs the
    matched quadruple (None when not vanishing) and ``overlaps`` lists any
    other families the same quadruple belongs to (boundary cases).
    """

    family: str
    parameters: tuple[Fraction, ...] = ()
    quadruple: tuple[Fraction, ...] | None = None
    overlaps: tuple[str, ...] = ()


def _roots_sum_is_zero(n: int, terms: Counter) -> bool:
    """Exact vanishing of sum(c * zeta_n^e) over the items e -> c of terms.

    Peels off one prime power q = p^a exactly dividing n at a time.  With
    m = n / q, zeta_q has minimal polynomial Phi_p(x^(q/p)) over Q(zeta_m), so
    the sum vanishes iff, for each residue s mod q/p, the p partial sums over
    the exponents s + t*q/p (t < p) of zeta_q are equal in Q(zeta_m).  The
    work grows with the number of terms and of primes, not with n, unlike a
    full CycContext of order n.
    """
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return True
    if n == 1:
        return False
    p = factorize(n).pairs[0][0]
    q = p
    while n % (q * p) == 0:
        q *= p
    m, step = n // q, q // p
    # zeta_n^e -> zeta_q^e * zeta_m^e is the automorphism zeta_n -> zeta_n^(m+q)
    # (m + q is prime to n), so it keeps the sum's vanishing
    groups: dict[int, list[Counter]] = {}
    for e, c in terms.items():
        u = e % q
        parts = groups.setdefault(u % step, [Counter() for _ in range(p)])
        parts[u // step][e % m] += c
    for parts in groups.values():
        # all p sums equal; an empty one forces each of them to vanish
        base = parts[0] if all(parts) else Counter()
        for part in parts:
            diff = Counter(part)
            diff.subtract(base)
            if not _roots_sum_is_zero(m, diff):
                return False
    return True


def _cos_sum_is_zero(angles) -> bool:
    """Exact vanishing of sum(cos(a*pi)) for rational a, via root lifting."""
    angles = [Fraction(a) for a in angles]
    n = 2 * math.lcm(*(a.denominator for a in angles))
    exps = Counter()
    for a in angles:
        e = a.numerator * (n // (2 * a.denominator))
        exps[e % n] += 1
        exps[-e % n] += 1
    # each cosine appears as (zeta^e + zeta^-e) / 2; the factor 2 is global
    return _roots_sum_is_zero(n, exps)


def classify_cos4(angles) -> Cos4Classification:
    """Classify a vanishing sum of four cosines of rational multiples of pi.

    Angles are given in units of pi and must lie in [0, 1].  Matching is up
    to permutation; when a quadruple belongs to several families (boundary
    parameter values) the lowest-numbered family is reported and the others
    are listed in ``overlaps``.
    """
    quad = tuple(Fraction(a) for a in angles)
    if len(quad) != 4:
        raise ValueError("need exactly four angles")
    for a in quad:
        if not 0 <= a <= 1:
            raise ValueError(f"angle {a} outside [0, 1] (units of pi)")
    if not _cos_sum_is_zero(quad):
        return Cos4Classification("NotVanishing")

    matches: list[tuple[str, tuple[Fraction, ...], tuple[Fraction, ...]]] = []

    # Family I: two complementary pairs {a, 1-a}, {b, 1-b}.
    for i, j in ((0, 1), (0, 2), (0, 3)):
        k, l = (x for x in range(4) if x not in (i, j))
        if quad[i] + quad[j] == 1 and quad[k] + quad[l] == 1:
            params = tuple(sorted((min(quad[i], quad[j]), min(quad[k], quad[l]))))
            recon = (params[0], 1 - params[0], params[1], 1 - params[1])
            matches.append(("I", params, recon))
            break

    # Family II: {delta, 2/3 - delta, 2/3 + delta, 1/2} with 0 <= delta <= 1/3.
    half = Fraction(1, 2)
    if half in quad:
        rest = list(quad)
        rest.remove(half)
        rest.sort()
        delta = rest[0]
        if (
            delta <= Fraction(1, 3)
            and rest[1] == Fraction(2, 3) - delta
            and rest[2] == Fraction(2, 3) + delta
        ):
            recon = (delta, Fraction(2, 3) - delta, Fraction(2, 3) + delta, half)
            matches.append(("II", (delta,), recon))

    sorted_quad = tuple(sorted(quad))
    for fam, listed in _SPORADIC_QUADRUPLES:
        for candidate in listed:
            if sorted_quad == candidate:
                matches.append((fam, (), candidate))
                break

    if not matches:
        # Impossible for rational angles by the length-4 classification.
        raise AssertionError(f"vanishing quadruple outside known families: {quad}")

    family, params, recon = matches[0]
    if sorted(recon) != sorted(quad) or not _cos_sum_is_zero(recon):
        raise AssertionError("reconstruction failed to reproduce the quadruple")
    return Cos4Classification(
        family, params, recon, overlaps=tuple(f for f, _, _ in matches[1:])
    )


def find_cos4_partners(n: int, k1: int, k2: int) -> list[tuple[int, int]]:
    """All disjoint index pairs (k3, k4) with the same eigenvalue as (k1, k2).

    Indices live in [0, n//2]; lookup is by exact key over the n//2 + 1
    candidate cosines.  The defining eigenvalue must be nonzero.
    """
    half = n // 2
    if not (0 <= k1 <= half and 0 <= k2 <= half):
        raise ValueError("indices must lie in [0, n//2]")
    ctx = get_context(n)
    target = cos_key(ctx, k1) + cos_key(ctx, k2)
    if target.is_zero():
        raise ZeroEigenvalue(f"eigenvalue of ({k1}, {k2}) over Z/{n}Z is zero")
    by_key = {cos_key(ctx, k): k for k in range(half + 1)}
    banned = {k1, k2}
    out = []
    for k3 in range(half + 1):
        if k3 in banned:
            continue
        k4 = by_key.get(target - cos_key(ctx, k3))
        if k4 is None or k4 in banned or k4 < k3:
            continue
        out.append((k3, k4))
    return out


# ---------------------------------------------------------------------------
# Brute-force searches


@dataclass(frozen=True)
class FoundSum:
    """A vanishing multiset found by enumeration, tagged for minimality."""

    multiset: RootMultiset
    minimal: bool


def _is_minimal(n: int, exponents: tuple[int, ...]) -> bool:
    """No proper nonempty sub-multiset vanishes."""
    powers = get_context(n).powers
    counts = sorted(Counter(exponents).items())
    for picks in itertools.product(*(range(c + 1) for _, c in counts)):
        sub = sum(k * powers[e] for (e, _), k in zip(counts, picks))
        if not sub and 0 < sum(picks) < len(exponents):
            return False
    return True


def _walk_tables(n: int):
    """Packed power residues and float cos/sin of the n-th roots."""
    cos_f = [math.cos(2 * math.pi * k / n) for k in range(n)]
    sin_f = [math.sin(2 * math.pi * k / n) for k in range(n)]
    return get_context(n).powers, cos_f, sin_f


def minimal_vanishing_sums(
    n: int, max_len: int, budget: int = DEFAULT_BUDGET
) -> list[FoundSum]:
    """All vanishing multisets over the n-th roots with size <= max_len.

    Depth-first over canonically sorted multisets; each result is tagged
    minimal when no proper nonempty sub-multiset vanishes.  The budget
    counts visited partial-sum states.
    """
    if max_len > 12:
        raise ValueError("enumeration is desk-scale only (max_len <= 12)")
    powers, cos_f, sin_f = _walk_tables(n)
    path: list[int] = []
    results: list[FoundSum] = []
    visited = 0

    def walk(start: int, acc: int, re: float, im: float):
        nonlocal visited
        depth = len(path)
        for e in range(start, n):
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"more than {budget} partial-sum states")
            acc2 = acc + powers[e]
            path.append(e)
            re2, im2 = re + cos_f[e], im + sin_f[e]
            if not acc2:
                exps = tuple(path)
                results.append(
                    FoundSum(RootMultiset(n, exps), _is_minimal(n, exps))
                )
            remaining = max_len - depth - 1
            # a sum of `remaining` unit vectors moves the value by at most that much
            if remaining > 0 and re2 * re2 + im2 * im2 <= (remaining + 1e-9) ** 2:
                walk(e, acc2, re2, im2)
            path.pop()

    walk(0, 0, 0.0, 0.0)
    return results


def find_vanishing_multiset(
    n: int, length: int, budget: int = DEFAULT_BUDGET
) -> RootMultiset | None:
    """Some vanishing multiset of exactly the given size, or None.

    Rotation invariance pins the smallest exponent to 0; failed states are
    memoized on (partial value, last exponent, remaining length) and the
    search prunes whenever the partial value is too far from zero to be
    cancelled by the remaining roots.
    """
    if length < 1:
        raise ValueError("length must be positive")
    powers, cos_f, sin_f = _walk_tables(n)
    failed: set = set()
    path = [0]

    def walk(acc: int, re: float, im: float, last: int, remaining: int) -> bool:
        if remaining == 0:
            return not acc
        if re * re + im * im > (remaining + 1e-9) ** 2:
            return False
        state = (acc, last, remaining)
        if state in failed:
            return False
        for e in range(last, n):
            path.append(e)
            if walk(acc + powers[e], re + cos_f[e], im + sin_f[e], e, remaining - 1):
                return True
            path.pop()
        if len(failed) >= budget:
            raise BudgetExceeded(f"more than {budget} memoized states")
        failed.add(state)
        return False

    if walk(powers[0], 1.0, 0.0, 0, length - 1):
        return RootMultiset(n, tuple(path))
    return None


def is_symmetric_rotation(m: RootMultiset) -> tuple[int, int] | None:
    """Recognize a rotated full prime sum {a, a + n/p, ..., a + (p-1)n/p}.

    Returns (p, a) with a the smallest exponent, or None when the multiset
    is not of that shape.  Raises NotApplicable when its size is not a
    prime dividing n, since no candidate p exists at all.
    """
    p = len(m.exponents)
    if not is_prime(p) or m.n % p:
        raise NotApplicable(f"size {p} is not a prime divisor of {m.n}")
    step = m.n // p
    if len(set(m.exponents)) != p:
        return None
    a = m.exponents[0]
    if all((e - a) % step == 0 for e in m.exponents):
        return (p, a)
    return None


def is_admissible(m: RootMultiset) -> bool:
    """Whether the multiset pairs into complex-conjugate couples {e, n-e}.

    Self-conjugate exponents (0 and n/2) must occur an even number of
    times; an admissible multiset of size k realizes a sum of k/2 cosines.
    """
    if len(m.exponents) % 2:
        return False
    counts = Counter(m.exponents)
    for e, c in counts.items():
        mate = (m.n - e) % m.n
        if mate == e:
            if c % 2:
                return False
        elif counts[mate] != c:
            return False
    return True


def cp_delta(p: int, delta) -> list[Fraction]:
    """The rotated-prime-sum family of p vanishing cosines, angles in pi units.

    Rotating the full sum over the p-th roots by e^{i delta pi} and taking
    real parts yields cos(delta) + sum over j of cos(2j/p +- delta); angles
    are normalized into [0, 1] by cosine symmetry and duplicates are kept
    since multiplicity matters when building eigenvalue representations.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1] (units of pi)")

    def norm(t: Fraction) -> Fraction:
        t %= 2
        return 2 - t if t > 1 else t

    angles = [norm(delta)]
    for j in range(1, (p - 1) // 2 + 1):
        base = Fraction(2 * j, p)
        angles.append(norm(base + delta))
        angles.append(norm(base - delta))
    angles.sort()
    if not _cos_sum_is_zero(angles):
        raise AssertionError("rotated prime sum must vanish")  # unreachable
    return angles
