"""Vanishing sums of roots of unity and of cosines.

Covers exact vanishing tests, the length set of vanishing sums (a numerical
semigroup over the prime divisors), brute-force enumeration of minimal sums
at desk scale, and the classical classification of vanishing four-term
cosine sums.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime, semigroup_member
from .cyclotomic import key_embedding
from .errors import BudgetExceeded, NotApplicable, ZeroEigenvalue
from .spectrum import DEFAULT_BUDGET

# the most pairs, n(n+1)/2 (so n <= 723), or triples, n(n+1)(n+2)/6
# (n <= 115), that _vanishing_tuples adds to its tail table for modulus n.
# Measured with tracemalloc on the whole table: 100-180 bytes an entry while
# M has at most 570 bits (n <= 700), 230-250 at n = 723 (M of 990-1140 bits,
# 60-66 MB); with the triples, 100-135 bytes up to n = 114 (29.6 MB there),
# 130 at n = 115 (M of 240-270 bits, 34-35 MB)
MAX_TAIL_TABLE = 1 << 18


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
    return _roots_sum_is_zero(m.n, Counter(m.exponents), factorize(m.n).primes)


def w_membership(n: int, length: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some vanishing sum over the n-th roots has this length.

    The attainable lengths form the numerical semigroup generated by the
    prime divisors of n; the witness lists one coefficient per prime.
    """
    return semigroup_member(length, factorize(n).primes)


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


def _roots_sum_is_zero(n: int, terms: Counter, primes: tuple[int, ...]) -> bool:
    """Exact vanishing of sum(c * zeta_n^e) over the items e -> c of terms.

    ``primes`` are the distinct prime factors of n, ascending
    (factorize(n).primes), so n is factored once per test, not per level.
    Peels off the power q = p^a of the smallest prime exactly dividing n.
    With m = n / q, zeta_q has minimal polynomial Phi_p(x^(q/p)) over
    Q(zeta_m), so the sum vanishes iff, for each residue s mod q/p, the p
    partial sums over the exponents s + t*q/p (t < p) of zeta_q are equal
    in Q(zeta_m).  The work grows with the number of terms and of primes,
    not with n, unlike a full CycContext of order n.
    """
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return True
    if n == 1:
        return False
    p = primes[0]
    q = p
    while n % (q * p) == 0:
        q *= p
    m, step = n // q, q // p
    # zeta_n^e -> zeta_q^e * zeta_m^e is the automorphism zeta_n -> zeta_n^(m+q)
    # (m + q is prime to n), so it keeps the sum's vanishing
    groups: dict[int, dict[int, Counter]] = {}  # s -> t -> partial sum; p may be huge
    for e, c in terms.items():
        u = e % q
        groups.setdefault(u % step, {}).setdefault(u // step, Counter())[e % m] += c
    for parts in groups.values():
        # all p sums equal; an empty (absent) one forces each of them to vanish
        base = parts[0] if len(parts) == p else Counter()
        for part in parts.values():
            diff = Counter(part)
            diff.subtract(base)
            if not _roots_sum_is_zero(m, diff, primes[1:]):
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
    return _roots_sum_is_zero(n, exps, factorize(n).primes)


def _index_cos_sum_is_zero(n: int, ks) -> bool:
    """Exact vanishing of sum(cos(2 pi k / n)) over the indices ks.

    Floats only prune, as in _vanishing_tuples: each float cosine errs by
    less than 22u (u = 2^-53) and the sum of d of them by less than
    (22d + d^2) u < d^2 2^-47, so a float sum above twice that is nonzero.
    The exact test on the 2d roots zeta^(+-k) decides the rest.
    """
    d = len(ks)
    if abs(sum(math.cos(2 * math.pi * (k % n) / n) for k in ks)) > d * d * 2.0**-46:
        return False
    return _roots_sum_is_zero(n, Counter(e % n for k in ks for e in (k, -k)), factorize(n).primes)


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

    Indices live in [0, n//2].  Each candidate k3 looks F(target) - F(k3) up
    among the F images of the n//2 + 1 cosines, under key_embedding(n, 4),
    which is injective on sums of two cosines and zero: an image hit is an
    equal eigenvalue, and image 0 a zero one.  The defining eigenvalue must
    be nonzero.
    """
    half = n // 2
    if not (0 <= k1 <= half and 0 <= k2 <= half):
        raise ValueError("indices must lie in [0, n//2]")
    emb = key_embedding(n, 4)
    images = [emb.cos_image((k,)) for k in range(half + 1)]
    target = (images[k1] + images[k2]) % emb.modulus
    if not target:
        raise ZeroEigenvalue(f"eigenvalue of ({k1}, {k2}) over Z/{n}Z is zero")
    by_image = dict(zip(images, range(half + 1)))
    banned = {k1, k2}
    out = []
    for k3 in range(half + 1):
        if k3 in banned:
            continue
        k4 = by_image.get((target - images[k3]) % emb.modulus)
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


def _add_tails(tails: dict[int, int | tuple[int, ...]], powers: tuple[int, ...], modulus: int, k: int) -> None:
    """List in ``tails``, under its F image, each nondecreasing tail of
    k <= 3 roots, given the n powers omega^e mod M of F (see
    _vanishing_tuples).

    A tail (a_1, ..., a_k) is coded by the digits a_i + 1 in base n + 1,
    right-padded with zeros to 3 digits, so codes order as the tuples do.
    An image holds one code, or the ascending tuple of the codes of every
    tail listed under it.
    """
    n = len(powers)
    base = n + 1
    scale = base ** (3 - k)
    heads = [(0, 0, 0)]  # the image, code and last root of each head of k - 1 roots
    for _ in range(k - 1):
        heads = [(shift + powers[a], code * base + a + 1, a) for shift, code, last in heads for a in range(last, n)]
    shared = set()
    for shift, code, last in heads:
        images = [(shift + w) % modulus for w in powers[last:]]
        codes = range((code * base + last + 1) * scale, (code + 1) * base * scale, scale)
        # setdefault keeps the codes listed under an image and hashes each
        # image once, which an isdisjoint test before update would do twice
        listed = len(tails)
        olds = [*map(tails.setdefault, images, codes)]
        if len(tails) - listed == len(images):
            continue
        for image, c, old in zip(images, codes, olds):
            if old != c:
                tails[image] = (*old, c) if type(old) is tuple else (old, c)
                shared.add(image)
    # codes come in ascending order, but one listed before this call can
    # sort after a new one
    for image in shared:
        tails[image] = tuple(sorted(tails[image]))


def _vanishing_tuples(n: int, max_len: int, budget: int, first: int | None = None):
    """Every vanishing nondecreasing exponent tuple of length <= max_len.

    Yields in depth-first, hence lexicographic, order; ``first`` pins the
    smallest exponent.  The budget counts visited partial-sum states, one
    per exponent tried, and each pair and triple added to the tail table
    below.  Memory is O(n log M) for the powers of omega below,
    O(n * phi(n)) floats for the conjugate tables, O(max_len * phi(n)) for
    the stack and at most n + 2 * MAX_TAIL_TABLE entries for the tail
    table.

    Vanishing is decided exactly on F images, under one embedding
    F: zeta -> omega mod M per call, key_embedding(n, ceil(max_len^2 / 2)),
    whose M^2 > (max_len^2)^phi(n).  If a sum S of at most max_len roots
    has F(S) = 0, S lies in a degree-one prime above each prime of M, so
    M divides its norm to Q, which is at most max_len^phi(n) in absolute
    value; hence S = 0.  The stack holds minus each prefix's image mod M: a
    prefix vanishes when that is 0.

    ``tails`` maps F images to every nondecreasing tail of at most
    ``closes`` roots with that image (see _add_tails): the single roots
    from the start, then the pairs and the triples.  A prefix with
    left <= closes roots to go is closed by one lookup of minus its image.
    A listed tail of at most ``left`` roots whose first root is at least
    the prefix's last closes it exactly, since the two make a sum of at
    most max_len roots, which F sends to 0 only when it is 0; and every
    tail that closes it has minus its image, so is listed.  The codes of
    an image ascend as the tails do, so they are yielded in the order depth
    first would give, and the search descends no further.

    The k-root tails, C(n + k - 1, k) entries counted as states, are added
    only for k = 2 and 3, only for max_len >= 2k (at length 5 the triples
    cost about as much as the scans they replace), only up to
    MAX_TAIL_TABLE entries, and only when the search takes up prefixes
    with k roots to go once the count, entries of earlier tails included,
    has reached their number.  So an early exit never pays for them,
    adding them at most doubles the count so far, and no search counts
    more than four times the states it visits, which are no more than
    scanning alone visits.

    Floats only prune.  A partial sum S of `depth` roots that `left` more
    roots bring to zero has |sigma_a(S)| <= left for every unit a mod n,
    since sigma_a: zeta -> zeta^a permutes the roots.  A child is tested at
    a = 1 first; if it passes, and only where depth > left (elsewhere
    |sigma_a(S)| <= depth passes anyway), at the units 2 <= a <= n/2 too,
    as sigma_-a(S) is the complex conjugate of sigma_a(S).  Each level keeps
    its conjugate sums, so a child costs O(phi(n)) at any depth.

    Rounding, with u = 2^-53: 2*pi*k/n carries a relative error below 3u,
    so each part of a float root errs by less than 22u (libm's cos and sin
    round within 1 ulp).  The k - 1 additions of a k-term partial sum add
    at most k^2 u per part, so |S| and each |sigma_a(S)| err by less than
    sqrt(2) (22k + k^2) u < k^2 2^-47, for every k <= max_len.  The slack
    max_len^2 2^-46 is twice that bound and also covers the rounding of abs
    and of left + slack, so no prefix of a vanishing tuple is ever pruned.
    """
    emb = key_embedding(n, -(-max_len * max_len // 2))
    powers, modulus = emb.powers, emb.modulus
    base = n + 1
    bb = base * base
    tails: dict[int, int | tuple[int, ...]] = {}
    _add_tails(tails, powers, modulus, 1)
    closes = 1
    size = n * (n + 1) // 2  # the tails of closes + 1 roots
    build_at = size if max_len >= 4 and size <= MAX_TAIL_TABLE else math.inf
    root = [complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    # a conjugate is tested only where depth > left >= 2, so from max_len 5 on
    units = [a for a in range(2, n // 2 + 1) if math.gcd(a, n) == 1] if max_len >= 5 else []
    conjugates = [[root[a * e % n] for a in units] for e in range(n)]
    slack = max_len * max_len * 2.0**-46
    path: list[int] = []
    # minus the F image, the float sum and the conjugate sums of each prefix
    sums = [(0, 0j, [0j] * len(units))]
    levels = [iter(range(n) if first is None else (first,))]
    visited = 0
    while levels:
        neg, z, conj = sums[-1]
        depth = len(path) + 1
        left = max_len - depth
        lim = left + slack
        shallow = depth <= left or not units
        if left == closes + 1 and visited >= build_at:
            visited += size
            if visited > budget:
                raise BudgetExceeded(f"more than {budget} partial-sum states")
            _add_tails(tails, powers, modulus, left)
            closes, size = left, size * (n + left) // (left + 1)
            build_at = size if left == 2 and max_len >= 6 and size <= MAX_TAIL_TABLE else math.inf
        unit = base ** max(3 - left, 0)  # divides the code of every tail of <= left roots
        closing = left <= closes
        for e in levels[-1]:
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"more than {budget} partial-sum states")
            neg2 = (neg - powers[e]) % modulus
            if not neg2:
                yield (*path, e)
            if closing:
                hit = tails.get(neg2)
                if hit is not None:
                    lo = (e + 1) * bb
                    for c in (hit,) if type(hit) is int else hit:
                        if c >= lo and not c % unit:
                            yield (*path, e, *(d - 1 for d in (c // bb, c // base % base, c % base) if d))
            else:
                z2 = z + root[e]
                if abs(z2) > lim:
                    continue
                conj2 = list(map(operator.add, conj, conjugates[e]))
                if shallow or max(map(abs, conj2)) <= lim:
                    path.append(e)
                    sums.append((neg2, z2, conj2))
                    levels.append(iter(range(e, n)))
                    break
        else:
            levels.pop()
            sums.pop()
            if path:
                path.pop()


def minimal_vanishing_sums(
    n: int, max_len: int, budget: int = DEFAULT_BUDGET
) -> list[FoundSum]:
    """All vanishing multisets over the n-th roots with size <= max_len.

    Depth-first over canonically sorted multisets; each result is tagged
    minimal when no proper nonempty sub-multiset vanishes.  The budget
    counts visited partial-sum states.

    Minimality is read off the answer set.  A vanishing tuple T that is not
    minimal splits into two vanishing parts, and the smaller has at most
    len(T) / 2 <= max_len roots, so the complete search yields it too; the
    sub-multisets of a sorted tuple are its combinations, sorted tuples as
    the search yields them.  So T is minimal iff none of its combinations
    of 1 to len(T) // 2 roots is an answer.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    if max_len > 12:
        raise ValueError("enumeration is desk-scale only (max_len <= 12)")
    found = list(_vanishing_tuples(n, max_len, budget))
    answers = set(found)
    out = []
    for exps in found:
        parts = (part for k in range(1, len(exps) // 2 + 1) for part in itertools.combinations(exps, k))
        out.append(FoundSum(RootMultiset(n, exps), answers.isdisjoint(parts)))
    return out


def find_vanishing_multiset(
    n: int, length: int, budget: int = DEFAULT_BUDGET
) -> RootMultiset | None:
    """Some vanishing multiset of exactly the given size, or None.

    Rotation invariance pins the smallest exponent to 0, and the answer is
    the lexicographically least such multiset.  The budget counts visited
    partial-sum states.
    """
    if length < 1:
        raise ValueError("length must be positive")
    for exps in _vanishing_tuples(n, length, budget, first=0):
        if len(exps) == length:
            return RootMultiset(n, exps)
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
