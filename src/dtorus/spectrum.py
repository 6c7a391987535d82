"""Exact spectrum tables for discrete tori and abelian Cayley graphs.

A table maps canonical eigenvalue keys (CycElt) to exact multiplicities.
Torus tables are built by convolving distinct-value tables - roughly N/2
keys for a cycle graph - rather than enumerating N^d index tuples, which
keeps things like the 4-dimensional torus over Z/105Z comfortably cheap.
Cayley tables enumerate the n^d characters.

Every table keys its rows by F(key) = key(omega) mod M, the image under a
ring map Z[zeta_n] -> Z/M that is injective on the table's keys
(cyclotomic.key_embedding): sums of 2d roots for the largest d a torus
table serves, sums of g roots for a Cayley table with g generators.  A
row is two ints: its count in ``counts`` and its representative, packed
base n, in ``reps``, so a table build allocates no object per key.  Keys
then add as ints mod M, lookups probe the rows at F(key) and confirm the
hit exactly, and the CycElt keys are rebuilt from the representatives only
when ``entries`` is first read.  Values are certified from them too: a
torus row sums 2d fixed-point cosines whatever phi(n) (SpectrumTable.value).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .cyclotomic import ApproxReal, CycElt, ModEmbedding, approx_value, get_context, key_embedding
from .cyclotomic import key_of_tuple, sum_reduce
from .errors import AsymmetricGeneratingSet, BudgetExceeded

DEFAULT_BUDGET = 10**7


class Entry(NamedTuple):
    """One eigenvalue as a lookup returns it: exact count and a witness tuple.

    ``representative`` is the lexicographically smallest index tuple (or
    character) attaining the key, so table contents are deterministic.
    Tables do not store entries; SpectrumTable.entry builds one on access.
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
    characters.  ``entry(f)`` is the Entry view of one row and ``value(f)``
    its certified value; ``entries`` maps the CycElt keys, rebuilt from the
    representatives (key_of), to those views on first access.
    """

    n: int
    d: int
    total: int
    counts: dict[int, int]
    reps: dict[int, int]
    embedding: ModEmbedding
    generators: tuple[tuple[int, ...], ...] | None = None

    @functools.cached_property
    def entries(self) -> dict[CycElt, Entry]:
        return {self.key_of(e.representative): e for e in map(self.entry, self.counts)}

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

    def value(self, f: int) -> ApproxReal:
        """Certified value of the row at image f, from its representative."""
        return self._value_of(f, _unpack(self.reps[f], self.n, self.d))

    def _value_of(self, f: int, rep: tuple[int, ...]) -> ApproxReal:
        # F is injective on the keys and zero, so f = 0 is exactly 0
        return approx_value(self.n, self.exponents(rep) if f else ())

    def count_of(self, key: CycElt) -> int:
        """The count of ``key``, 0 if it is no key of this table: the row at
        F(key) is confirmed exactly, since ``key`` need not be a key."""
        if key.n != self.n:
            return 0
        f = self.embedding.image(key)
        count = self.counts.get(f, 0)
        return count if count and self.key_of(self.entry(f).representative) == key else 0

    def sorted_entries(self) -> list[tuple[ApproxReal, CycElt, Entry]]:
        """(value, key, entry) for every row, by value descending (by_value)."""
        return by_value(self, self.counts)


def by_value(table: SpectrumTable, images) -> list[tuple[ApproxReal, CycElt, Entry]]:
    """(value, key, entry) for the rows of ``table`` at the F images ``images``,
    value descending.

    Each row is unpacked and evaluated once (as SpectrumTable.value) and
    sorts on the float of its certified midpoint; distinct values whose
    floats coincide stay distinct rows (in_float_order).
    """
    rows = {}
    for f in images:
        e = table.entry(f)
        rows[f] = (table._value_of(f, e.representative), e)
    out = []
    for _, f in in_float_order(table, [(-float(v), f) for f, (v, _) in rows.items()]):
        v, e = rows[f]
        out.append((v, table.key_of(e.representative), e))
    return out


def in_float_order(table: SpectrumTable, rows: list[tuple]) -> list[tuple]:
    """``rows`` (x, f, ...) of ``table`` sorted on the float x, ascending; rows
    whose x coincide in the coefficient order of their keys, built for them alone."""
    first = operator.itemgetter(0)
    out = []
    for _, run in itertools.groupby(sorted(rows, key=first), first):
        run = list(run)
        if run[1:]:
            run.sort(key=lambda row: table.key_of(table.entry(row[1]).representative))
        out += run
    return out


def cn_spectrum(
    n: int, budget: int = DEFAULT_BUDGET, embedding: ModEmbedding | None = None
) -> SpectrumTable:
    """Adjacency spectrum of the cycle graph on Z/nZ with generators +-1.

    Keys are key_of_tuple(n, (k,)) for 0 <= k <= n//2, with multiplicity 2
    except at the endpoints k = 0 (value 2) and, for even n, k = n/2 (value
    -2).
    Rows are keyed under ``embedding``, by default key_embedding(n, 2).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    half = n // 2
    if half + 1 > budget:
        raise BudgetExceeded(f"cycle table needs {half + 1} keys, budget {budget}")
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
    if n < 3:
        raise ValueError("need n >= 3")
    if not 1 <= d < 1 << 30:
        raise ValueError("need 1 <= d < 2^30")
    return _torus(n, d, key_embedding(n, 2 * d), budget)


def _torus(n: int, d: int, emb: ModEmbedding, budget: int) -> SpectrumTable:
    """T^d_n with rows under emb; the budget also applies to cached tables."""
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


def _mitm_matches(n: int, d: int, target: CycElt, budget: int):
    """Yield count_a * count_b for each split target = key_a + key_b.

    The keys come from the two half-dimension tables of T^d_n (one table
    when d = 1; for d = 0 only the empty sum, which is zero), with rows
    under key_embedding(n, 2d).  The smaller table is walked and the larger
    one probed at F(target) - F(key_a) mod M.  F never drops a true split.
    ``target`` need not be a key, so hits are checked exactly until one
    holds; then target is a key of T^d_n, every later hit differs from a
    true split by at most 4d in every embedding, and F is injective there.
    """
    if d == 0:
        if target.is_zero():
            yield 1
        return
    emb = key_embedding(n, 2 * d)
    goal, modulus = emb.image(target), emb.modulus
    a = (d + 1) // 2
    ta = _torus(n, a, emb, budget)
    if a == d:
        count = ta.count_of(target)
        if count:
            yield count
        return
    tb = _torus(n, d - a, emb, budget)
    small, big = (ta, tb) if len(ta.counts) <= len(tb.counts) else (tb, ta)
    probe = big.counts.get
    exact = False
    for f, c in small.counts.items():
        g = (goal - f) % modulus
        other = probe(g)
        if other is None:
            continue
        if not exact:
            split = key_of_tuple(n, small.entry(f).representative + big.entry(g).representative)
            if split != target:
                continue
            exact = True
        yield c * other


def key_multiplicity(n: int, d: int, target: CycElt, budget: int = DEFAULT_BUDGET) -> int:
    """Exact multiplicity of one key in T^d_n without the full d-table.

    Meet-in-the-middle over two half-dimension tables; agrees with
    torus_spectrum entry-by-entry (property-tested) but stays cheap for
    single-key questions in high dimension.
    """
    return sum(_mitm_matches(n, d, target, budget))


def membership(n: int, dprime: int, target: CycElt, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether ``target`` is an eigenvalue of T^dprime_n.

    dprime = 0 accepts only the zero element (the empty sum of cosines).
    Stops at the first split found.
    """
    if dprime < 0:
        raise ValueError("dimension must be nonnegative")
    return any(_mitm_matches(n, dprime, target, budget))


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
    get_context(n)  # key_of needs it: an oversized modulus is refused before any work
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

