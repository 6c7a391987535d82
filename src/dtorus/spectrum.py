"""Exact spectrum tables for discrete tori and abelian Cayley graphs.

A table maps eigenvalues to exact multiplicities.  Torus tables are built
by convolving distinct-value tables - roughly N/2 keys for a cycle graph -
rather than enumerating N^d index tuples, which keeps things like the
4-dimensional torus over Z/105Z comfortably cheap.
Cayley tables enumerate the n^d characters.

Every table keys its rows by F(key) = key(omega) mod M, the image under a
ring map Z[zeta_n] -> Z/M that is injective on the table's keys
(cyclotomic.key_embedding): sums of 2d roots for the largest d a torus
table serves, sums of g roots for a Cayley table with g generators.  A
row is two ints: its count in ``counts`` and its representative, packed
base n, in ``reps``, so a table build allocates no object per key.  Keys
then add as ints mod M and lookups probe the rows at F(key).  A CycElt key
is rebuilt from a representative (key_of) only where its coefficients are
printed or a lookup confirms a hit exactly, and no table keeps one: a
cached table holds its two row dicts and its sorted images, nothing else
per key.  Values are certified from the representatives too: a torus row
sums 2d fixed-point cosines whatever phi(n) (by_value).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .cyclotomic import PREC, CycElt, ModEmbedding, approx_value, get_context, key_embedding
from .cyclotomic import key_of_tuple, sum_reduce
from .errors import AsymmetricGeneratingSet, BudgetExceeded

DEFAULT_BUDGET = 10**7


class Entry(NamedTuple):
    """One eigenvalue as a lookup returns it: exact count and a witness tuple.

    ``representative`` is the lexicographically smallest index tuple (or
    character) attaining the key, so table contents are deterministic.
    Tables store no Entry: SpectrumTable.entry builds one on access, and
    SpectrumTable.entries a dict of them, which the caller owns.
    """

    count: int
    representative: tuple[int, ...]


def _unpack(packed: int, n: int, d: int) -> tuple[int, ...]:
    """The d base-n digits of ``packed``, most significant first."""
    out = [0] * d
    for i in range(d - 1, -1, -1):
        packed, out[i] = divmod(packed, n)
    return tuple(out)


@dataclass
class SpectrumTable:
    """Eigenvalue rows for one graph on n^d vertices.

    ``counts`` maps F(key) under ``embedding`` to the key's multiplicity
    and ``reps`` maps it to the key's representative packed as
    sum k_i n^(d-1-i), both in ascending representative order; treat them
    as immutable.  At a fixed width d numeric order of packed ints is
    lexicographic order of the tuples.  ``generators`` is None for a torus
    table, whose representatives are index tuples, and the normalized
    generator multiset of a Cayley table, whose representatives are
    characters.  ``entry(f)`` is the Entry view of one row; ``entries`` maps
    the CycElt keys, rebuilt from the representatives (key_of), to those
    views, in a new dict on each access that the table does not keep (a
    key holds phi(n) digits, far more than its row), so the caller owns its
    memory.  ``sorted_images`` lists the rows' F images in ascending order,
    built on first access for the meet-in-the-middle walk (_mitm_matches),
    which walks it in slices and reads a row's count only where its probe
    hits; it costs one pointer per row and stays with the table.
    """

    n: int
    d: int
    total: int
    counts: dict[int, int]
    reps: dict[int, int]
    embedding: ModEmbedding
    generators: tuple[tuple[int, ...], ...] | None = None

    @property
    def entries(self) -> dict[CycElt, Entry]:
        return {self.key_of(e.representative): e for e in map(self.entry, self.counts)}

    @functools.cached_property
    def sorted_images(self) -> list[int]:
        return sorted(self.counts)

    def entry(self, f: int) -> Entry:
        """The row at image f, unpacked; KeyError if f is no image of a key."""
        return Entry(self.counts[f], _unpack(self.reps[f], self.n, self.d))

    def exponents(self, rep: tuple[int, ...]) -> list[int]:
        """The exponents e whose roots zeta_n^e sum to the key of ``rep``."""
        if self.generators is None:
            return [e for k in rep for e in (k, -k)]
        return [sum(map(operator.mul, rep, g)) for g in self.generators]

    def key_of(self, rep: tuple[int, ...]) -> CycElt:
        """The key a representative stands for under this table's kind."""
        if self.generators is None:
            return key_of_tuple(self.n, rep)
        return sum_reduce(get_context(self.n), self.exponents(rep))

    def count_of(self, key: CycElt) -> int:
        """The count of ``key``, 0 if it is no key of this table; ValueError
        for a key of another modulus.  A nonzero ``key`` need not be a key,
        so the row at F(key) is confirmed exactly; zero needs no check, as F
        is injective on the keys and zero."""
        f = self.embedding.image(key)
        count = self.counts.get(f, 0)
        if not count or key.is_zero():
            return count
        return count if self.key_of(self.entry(f).representative) == key else 0


def by_value(table: SpectrumTable, images) -> Iterator[tuple[int, int, Entry]]:
    """(mid, f, entry) for the rows of ``table`` at the F images ``images``,
    value descending, as an iterator.

    ``mid`` is the row's value times 2^PREC (approx_value), within one unit
    per root: every representative has as many exponents as the zero tuple,
    2d in a torus table and g in a Cayley table.  The row at f = 0 is exactly
    0, radius 0, as F is injective on the keys and zero.  Each other row is
    unpacked and evaluated once, from the exponents of its representative,
    and held beside its sort key and image as three ints: mid, its count and
    its packed representative.  Rows sort on the float mid / 2^PREC, which
    int division rounds to nearest.  Distinct values whose floats coincide
    stay distinct rows, in ascending order of their F images, so no key is
    built to order rows.  The rows are evaluated and sorted by the call;
    each row's entry is built, and the row let go, as the iterator reaches it.
    """
    n, d, counts, reps, exponents = table.n, table.d, table.counts, table.reps, table.exponents
    one = 1 << PREC
    rows = []
    for f in images:
        packed = reps[f]
        mid = approx_value(n, exponents(_unpack(packed, n, d))) if f else 0
        rows.append((-(mid / one), f, mid, counts[f], packed))
    rows.sort(reverse=True)  # taken from the end: ascending (-value, f)

    def taken():
        while rows:
            _, f, mid, count, packed = rows.pop()
            yield mid, f, Entry(count, _unpack(packed, n, d))

    return taken()


def check_cycle_keys(n: int, budget: int) -> None:
    """Refuse the cycle table of n, n//2 + 1 keys, above the budget.

    Every torus table and every probe of T^d_n, d >= 1, starts from it, so
    they call this before the embedding or any context is built.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n // 2 + 1 > budget:
        raise BudgetExceeded(f"cycle table needs {n // 2 + 1} keys, budget {budget}")


def cn_spectrum(
    n: int, budget: int = DEFAULT_BUDGET, embedding: ModEmbedding | None = None
) -> SpectrumTable:
    """Adjacency spectrum of the cycle graph on Z/nZ with generators +-1.

    Keys are key_of_tuple(n, (k,)) for 0 <= k <= n//2, with multiplicity 2
    except at the endpoints k = 0 (value 2) and, for even n, k = n/2 (value
    -2).
    Rows are keyed under ``embedding``, by default key_embedding(n, 2).
    """
    check_cycle_keys(n, budget)
    half = n // 2
    emb = embedding or key_embedding(n, 2)
    counts: dict[int, int] = {}
    reps: dict[int, int] = {}
    for k in range(half + 1):
        f = emb.cos_image((k,))
        counts[f] = 1 if k == 0 or (n % 2 == 0 and k == half) else 2
        reps[f] = k
    if len(counts) != half + 1:
        raise AssertionError("cycle eigenvalues must be pairwise distinct")
    return SpectrumTable(n, 1, n, counts, reps, emb)


def convolve(a: SpectrumTable, b: SpectrumTable, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum of the product graph: keys add, counts multiply-accumulate.

    Both inputs need to be torus tables under one embedding with at least
    as many primes as key_embedding(n, 2 (a.d + b.d)), as torus_spectrum
    builds them (more primes give a multiple of that M, which serves a.d +
    b.d too); anything else, Cayley tables included, raises ValueError.  F
    images add mod M and a pair's packed representative is rx n^(b.d) + ry,
    the packing of the concatenated tuple.  Rows are visited in ascending
    representative order, so the first pair that reaches a key holds its
    smallest representative.

    Raises BudgetExceeded as soon as the accumulator would hold more than
    ``budget`` distinct keys.  Conservation (sum of counts equals the
    product of totals) is checked before returning.
    """
    if a.n != b.n:
        raise ValueError(f"mixed moduli {a.n} and {b.n}")
    n, d = a.n, a.d + b.d
    emb = a.embedding
    cayley = a.generators is not None or b.generators is not None
    if cayley or emb != b.embedding or len(emb.primes) < len(key_embedding(n, 2 * d).primes):
        raise ValueError(f"convolve needs torus tables under one embedding serving d={d}; use torus_spectrum")
    modulus, shift = emb.modulus, n**b.d
    counts: dict[int, int] = {}
    reps: dict[int, int] = {}
    ys = [(f, c, b.reps[f]) for f, c in b.counts.items()]
    if a is b:
        # unordered pairs i <= j; the smaller representative comes first
        for i, y in enumerate(ys):
            f, c, r = y
            rx = r * shift
            _accumulate(counts, reps, f, c, rx, (y,), modulus, budget)
            _accumulate(counts, reps, f, 2 * c, rx, itertools.islice(ys, i + 1, None), modulus, budget)
    else:
        for f, c in a.counts.items():
            _accumulate(counts, reps, f, c, a.reps[f] * shift, ys, modulus, budget)

    total = a.total * b.total
    if sum(counts.values()) != total:
        raise AssertionError("convolution lost mass")  # unreachable
    return SpectrumTable(n, d, total, counts, reps, emb)


def _accumulate(counts, reps, fx, cx, rx, ys, modulus, budget) -> None:
    """Add the pairs (x, y), y in ys: key fx + fy mod modulus, count cx * cy,
    packed representative rx + ry (rx comes shifted)."""
    get = counts.get
    for fy, cy, ry in ys:
        s = fx + fy
        if s >= modulus:
            s -= modulus
        c = get(s)
        if c is None:
            if len(counts) >= budget:
                raise BudgetExceeded(f"more than {budget} distinct keys in convolution")
            counts[s] = cx * cy
            reps[s] = rx + ry
        else:
            counts[s] = c + cx * cy


_TORUS_CACHE: OrderedDict[tuple[int, int, int], SpectrumTable] = OrderedDict()
_TORUS_CACHE_SIZE = 8


def torus_spectrum(n: int, d: int, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum of the d-dimensional discrete torus over Z/nZ.

    The d-fold convolution power of cn_spectrum(n); the sum of counts is
    n^d.  Rows are keyed under key_embedding(n, 2d).  Tables are cached per
    (n, d, number of primes in M) since they are immutable.
    """
    if not 1 <= d < 1 << 30:
        raise ValueError("need 1 <= d < 2^30")
    check_cycle_keys(n, budget)  # and n >= 3
    return _torus(n, d, key_embedding(n, 2 * d), budget)


def _torus(n: int, d: int, emb: ModEmbedding, budget: int) -> SpectrumTable:
    """T^d_n with rows under emb; the budget also applies to cached tables."""
    if d == 0:
        return SpectrumTable(n, 0, 1, {0: 1}, {0: 0}, emb)  # the empty sum, not cached
    key = (n, d, len(emb.primes))
    t = _TORUS_CACHE.pop(key, None)  # re-inserted below as the most recent
    if t is None:
        if d == 1:
            t = cn_spectrum(n, budget, emb)
        else:
            lo = d // 2
            t = convolve(_torus(n, d - lo, emb, budget), _torus(n, lo, emb, budget), budget)
    _TORUS_CACHE[key] = t
    while len(_TORUS_CACHE) > _TORUS_CACHE_SIZE:
        _TORUS_CACHE.popitem(last=False)
    if len(t.counts) > budget:
        raise BudgetExceeded(f"table for (n={n}, d={d}) has {len(t.counts)} keys, budget {budget}")
    return t


def multiplicity_of_tuple(n: int, d: int, ks, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of d-tuples over Z/nZ sharing this tuple's eigenvalue."""
    if d < 1:
        raise ValueError("need d >= 1")
    ks = tuple(ks)
    if len(ks) != d:
        raise ValueError(f"expected {d} indices, got {len(ks)}")
    t = torus_spectrum(n, d, budget)
    count = t.counts.get(t.embedding.cos_image(ks))
    if count is None:
        raise AssertionError("every index tuple has a key in the table")
    return count


def _mitm_matches(n: int, d: int, emb: ModEmbedding, goal: int, target: CycElt | None, budget: int):
    """Yield counts whose sum is that of count_a * count_b over the splits
    goal = F(key_a) + F(key_b) mod M, each yielded value nonzero.

    The keys come from T^ceil(d/2)_n and T^floor(d/2)_n under ``emb``; the
    smaller table is walked in slices of its ``sorted_images`` and the larger
    one probed at the partner image, which needs no reduction mod M: since
    0 <= goal, x < M, the partner of x is goal - x for x <= goal and
    goal + M - x for x > goal.  When both halves are one table (even d >= 2,
    as _torus caches T^(d/2)_n), x -> goal - x mod M is an involution on
    each of those two ranges, so the splits come in pairs {x, y} and only
    one side of each range is walked, the one with fewer rows; each hit
    there stands for (x, y) and (y, x) and yields 2 c_x c_y.  M is a
    product of primes p = 1 (mod n), n >= 3, so it is odd and 2 is a unit:
    the one fixed point x0 = goal / 2 mod M (goal // 2 or (goal + M) // 2,
    whichever is an integer) lies between the two sides of its range and
    yields c_x0^2.  The walk is then a reindexing of the same finite sum,
    and a self-split probes at most half the table's rows plus one.

    F never drops a true split.  No hit needs a check when ``target`` is
    None (F is injective on the goal and every split) or zero (F is
    injective on the keys and zero).  A nonzero target, with goal = F(target)
    under key_embedding(n, 2d), need not be a key, so hits are checked
    exactly on the concatenated representatives until one holds (the key
    of the concatenation is the same whichever side x is on); then target
    is a key of T^d_n, every later hit differs from a true split by at most
    4d in every embedding, and F is injective there.
    """
    top = goal + emb.modulus
    a = (d + 1) // 2
    ta, tb = _torus(n, a, emb, budget), _torus(n, d - a, emb, budget)
    small, big = (ta, tb) if len(ta.counts) <= len(tb.counts) else (tb, ta)
    xs = small.sorted_images
    split = bisect.bisect_right(xs, goal)
    if small is big:
        walks = []
        for lo, hi, partner in ((0, split, goal), (split, len(xs), top)):
            below = bisect.bisect_left(xs, (partner + 1) // 2, lo, hi)  # 2x < partner
            above = bisect.bisect_right(xs, partner // 2, lo, hi)  # 2x > partner
            side = (lo, below) if below - lo <= hi - above else (above, hi)
            walks += [(*side, partner, 2), (below, above, partner, 1)]  # the second is x0 or empty
    else:
        walks = [(0, split, goal, 1), (split, len(xs), top, 1)]
    probe = big.counts.get
    exact = target is None or target.is_zero()
    for lo, hi, partner, weight in walks:
        for x in xs[lo:hi]:
            other = probe(partner - x)
            if other is None:
                continue
            if not exact:
                rep = small.entry(x).representative + big.entry(partner - x).representative
                if not rep or key_of_tuple(n, rep) != target:  # the empty sum is zero, target is not
                    continue
                exact = True
            yield weight * small.counts[x] * other


def key_multiplicity(n: int, d: int, target: CycElt, budget: int = DEFAULT_BUDGET) -> int:
    """Exact multiplicity of one key in T^d_n without the full d-table.

    Meet-in-the-middle over two half-dimension tables; agrees with
    torus_spectrum entry-by-entry (property-tested) but stays cheap for
    single-key questions in high dimension.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if d:
        check_cycle_keys(n, budget)
    emb = key_embedding(n, 2 * d)
    return sum(_mitm_matches(n, d, emb, emb.image(target), target, budget))


def membership(n: int, dprime: int, target: CycElt, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether ``target`` is an eigenvalue of T^dprime_n.

    dprime = 0 accepts only the zero element (the empty sum of cosines).
    Stops at the first split found.
    """
    if dprime < 0:
        raise ValueError("dimension must be nonnegative")
    if dprime:
        check_cycle_keys(n, budget)
    emb = key_embedding(n, 2 * dprime)
    return any(_mitm_matches(n, dprime, emb, emb.image(target), target, budget))


@dataclass(frozen=True)
class CayleySpec:
    """Cayley graph of (Z/nZ)^d with a symmetric generating multiset."""

    n: int
    d: int
    generators: tuple[tuple[int, ...], ...]

    def normalized(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(x % self.n for x in g) for g in self.generators)


def cayley_spectrum(spec: CayleySpec, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum via characters: each t in (Z/nZ)^d contributes the key
    sum of zeta^{<t, g>} over the generators g.

    Rows are keyed under key_embedding(n, g) for g generators, each F image
    summed from the embedding's powers of omega.  Representatives are
    character index vectors, smallest first in lexicographic order; the
    packed representative of t is its index in that order.
    """
    n, d = spec.n, spec.d
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 0:
        raise ValueError("need d >= 0")
    gens = spec.normalized()
    for g in gens:
        if len(g) != d:
            raise ValueError("generator rank mismatch")
    neg = Counter(tuple((-x) % n for x in g) for g in gens)
    if Counter(gens) != neg:
        raise AsymmetricGeneratingSet("generating multiset is not closed under negation")
    if n**d > budget:
        raise BudgetExceeded(f"{n}^{d} characters to enumerate, budget {budget}")
    emb = key_embedding(n, len(gens))
    w, modulus = emb.powers, emb.modulus
    counts: dict[int, int] = {}
    reps: dict[int, int] = {}
    for i, t in enumerate(itertools.product(range(n), repeat=d)):
        f = sum(w[sum(ti * gi for ti, gi in zip(t, g)) % n] for g in gens) % modulus
        c = counts.get(f)
        if c is None:
            if len(counts) >= budget:
                raise BudgetExceeded(f"more than {budget} distinct keys in Cayley table")
            counts[f] = 1
            reps[f] = i
        else:
            counts[f] = c + 1
    return SpectrumTable(n, d, n**d, counts, reps, emb, gens)

