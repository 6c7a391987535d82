"""Exact spectrum tables for discrete tori and abelian Cayley graphs.

A table maps canonical eigenvalue keys (CycElt) to exact multiplicities.
Torus tables are built by convolving distinct-value tables - roughly N/2
keys for a cycle graph - rather than enumerating N^d index tuples, which
keeps things like the 4-dimensional torus over Z/105Z comfortably cheap.

A torus table keys its rows by F(key) = key(omega) mod M, the image under a
ring map Z[zeta_n] -> Z/M that is injective on the keys of T^d_n for the
largest d the table serves (cyclotomic.key_embedding).  Keys then add as
ints mod M, lookups probe the rows at F(key) and confirm the hit exactly,
and the CycElt keys are rebuilt from the representatives only when
``entries`` is first read.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .cyclotomic import CycElt, ModEmbedding, get_context, key_embedding, key_of_tuple, sum_reduce
from .errors import AsymmetricGeneratingSet, BudgetExceeded

DEFAULT_BUDGET = 10**7


class Entry(NamedTuple):
    """One eigenvalue: exact count, a witness index tuple, display float.

    ``representative`` is the lexicographically smallest index tuple
    attaining the key, so table contents are deterministic.  ``approx`` is
    for display and ordering only; grouping never touches it.
    """

    count: int
    representative: tuple[int, ...]
    approx: float


@dataclass
class SpectrumTable:
    """Eigenvalue key -> Entry for one graph on n^d vertices.

    ``entries`` maps CycElt keys to entries; treat both as immutable.  A
    torus table also holds ``rows``, F(key) -> Entry under ``embedding`` in
    ascending representative order, and builds ``entries`` from the
    representatives on first access.  Tables given ``entries`` directly
    (by hand and Cayley tables) have no rows.
    """

    n: int
    d: int
    _entries: dict | None
    total: int
    rows: dict[int, Entry] | None = None
    embedding: ModEmbedding | None = None

    @property
    def entries(self) -> dict:
        if self._entries is None:
            n = self.n
            self._entries = {key_of_tuple(n, e.representative): e for e in self.rows.values()}
        return self._entries

    def count_of(self, key: CycElt) -> int:
        if self.rows is None:
            e = self._entries.get(key)
        else:  # a key of another modulus is no key of this table
            e = _exact_row(self, key) if key.n == self.n else None
        return e.count if e is not None else 0

    def sorted_entries(self) -> list[tuple[CycElt, Entry]]:
        """Entries by approx value descending; key order breaks float ties.

        Distinct algebraic values whose floats coincide stay distinct rows,
        ordered by their exact coefficients.
        """
        return sorted(self.entries.items(), key=lambda kv: (-kv[1].approx, kv[0]))


def cn_spectrum(
    n: int, budget: int = DEFAULT_BUDGET, embedding: ModEmbedding | None = None
) -> SpectrumTable:
    """Adjacency spectrum of the cycle graph on Z/nZ with generators +-1.

    Keys are cos_key(n, k) for 0 <= k <= n//2 with multiplicity 2 except at
    the endpoints k = 0 (value 2) and, for even n, k = n/2 (value -2).
    Rows are keyed under ``embedding``, by default key_embedding(n, 1).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    half = n // 2
    if half + 1 > budget:
        raise BudgetExceeded(f"cycle table needs {half + 1} keys, budget {budget}")
    emb = embedding or key_embedding(n, 1)
    rows: dict[int, Entry] = {}
    for k in range(half + 1):
        mult = 1 if k == 0 or (n % 2 == 0 and k == half) else 2
        rows[emb.cos_image((k,))] = Entry(mult, (k,), 2 * math.cos(2 * math.pi * k / n))
    if len(rows) != half + 1:
        raise AssertionError("cycle eigenvalues must be pairwise distinct")
    return SpectrumTable(n, 1, None, n, rows, emb)


def convolve(a: SpectrumTable, b: SpectrumTable, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum of the product graph: keys add, counts multiply-accumulate.

    Both inputs need rows under one embedding with at least as many primes
    as key_embedding(n, a.d + b.d), as torus_spectrum builds them (more
    primes give a multiple of that M, which serves a.d + b.d too); anything
    else raises ValueError.  F images add mod M.  Rows are visited in
    ascending representative order, so the first pair that reaches a key
    holds its smallest representative.

    Raises BudgetExceeded as soon as the accumulator would hold more than
    ``budget`` distinct keys.  Conservation (sum of counts equals the
    product of totals) is checked before returning.
    """
    if a.n != b.n:
        raise ValueError(f"mixed moduli {a.n} and {b.n}")
    n, d = a.n, a.d + b.d
    emb = a.embedding  # None exactly when a has no rows
    if emb is None or emb != b.embedding or len(emb.primes) < len(key_embedding(n, d).primes):
        raise ValueError(f"convolve needs rows under one embedding serving d={d}; use torus_spectrum")
    modulus = emb.modulus
    acc: dict[int, Entry] = {}  # F image -> Entry
    xs = [(f, *e) for f, e in a.rows.items()]
    if a is b:
        # unordered pairs i <= j; the smaller representative comes first
        for i, x in enumerate(xs):
            f, c, r, approx = x
            _accumulate(acc, f, c, r, approx, (x,), modulus, budget)
            _accumulate(acc, f, 2 * c, r, approx, itertools.islice(xs, i + 1, None), modulus, budget)
    else:
        ys = [(f, *e) for f, e in b.rows.items()]
        for x in xs:
            _accumulate(acc, *x, ys, modulus, budget)

    total = a.total * b.total
    got = sum(e.count for e in acc.values())
    if got != total:
        raise AssertionError("convolution lost mass")  # unreachable
    return SpectrumTable(n, d, None, total, acc, emb)


def _accumulate(acc, fx, cx, rx, ax, ys, modulus, budget) -> None:
    """Add the pairs (x, y), y in ys: key fx + fy mod modulus, count cx * cy."""
    get = acc.get
    for fy, cy, ry, ay in ys:
        s = fx + fy
        if s >= modulus:
            s -= modulus
        slot = get(s)
        if slot is None:
            if len(acc) >= budget:
                raise BudgetExceeded(f"more than {budget} distinct keys in convolution")
            acc[s] = Entry(cx * cy, rx + ry, ax + ay)
        else:
            acc[s] = Entry(slot.count + cx * cy, slot.representative, slot.approx)


def _exact_row(t: SpectrumTable, key: CycElt) -> Entry | None:
    """The row of torus table t whose key is ``key``, or None.

    The row at F(key) is confirmed exactly: F is injective on the keys of
    t, but ``key`` need not be one.
    """
    e = t.rows.get(t.embedding.image(key))
    if e is not None and key_of_tuple(t.n, e.representative) == key:
        return e
    return None


_TORUS_CACHE: OrderedDict[tuple[int, int, int], SpectrumTable] = OrderedDict()
_TORUS_CACHE_SIZE = 8


def torus_spectrum(n: int, d: int, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum of the d-dimensional discrete torus over Z/nZ.

    The d-fold convolution power of cn_spectrum(n); the sum of counts is
    n^d.  Rows are keyed under key_embedding(n, d).  Tables are cached per
    (n, d, number of primes in M) since they are immutable.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 1 <= d < 1 << 30:
        raise ValueError("need 1 <= d < 2^30")
    return _torus(n, d, key_embedding(n, d), budget)


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
    if len(t.rows) > budget:
        raise BudgetExceeded(f"table for (n={n}, d={d}) has {len(t.rows)} keys, budget {budget}")
    return t


def multiplicity_of_tuple(n: int, d: int, ks, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of d-tuples over Z/nZ sharing this tuple's eigenvalue."""
    ks = tuple(ks)
    if len(ks) != d:
        raise ValueError(f"expected {d} indices, got {len(ks)}")
    t = torus_spectrum(n, d, budget)
    e = t.rows.get(t.embedding.cos_image(ks))
    if e is None:
        raise AssertionError("every index tuple has a key in the table")
    return e.count


def _mitm_matches(n: int, d: int, target: CycElt, budget: int):
    """Yield count_a * count_b for each split target = key_a + key_b.

    The keys come from the two half-dimension tables of T^d_n (one table
    when d = 1; for d = 0 only the empty sum, which is zero), with rows
    under key_embedding(n, d).  The smaller table is walked and the larger
    one probed at F(target) - F(key_a) mod M.  F never drops a true split.
    ``target`` need not be a key, so hits are checked exactly until one
    holds; then target is a key of T^d_n, every later hit differs from a
    true split by at most 4d in every embedding, and F is injective there.
    """
    if d == 0:
        if target.is_zero():
            yield 1
        return
    emb = key_embedding(n, d)
    goal, modulus = emb.image(target), emb.modulus
    a = (d + 1) // 2
    ta = _torus(n, a, emb, budget)
    if a == d:
        e = _exact_row(ta, target)
        if e is not None:
            yield e.count
        return
    tb = _torus(n, d - a, emb, budget)
    small, big = (ta, tb) if len(ta.rows) <= len(tb.rows) else (tb, ta)
    probe = big.rows.get
    exact = False
    for f, e in small.rows.items():
        other = probe((goal - f) % modulus)
        if other is None:
            continue
        if not exact:
            split = key_of_tuple(n, e.representative + other.representative)
            if split != target:
                continue
            exact = True
        yield e.count * other.count


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

    Representatives are character index vectors, smallest first in
    lexicographic order.
    """
    n, d = spec.n, spec.d
    gens = spec.normalized()
    for g in gens:
        if len(g) != d:
            raise ValueError("generator rank mismatch")
    neg = Counter(tuple((-x) % n for x in g) for g in gens)
    if Counter(gens) != neg:
        raise AsymmetricGeneratingSet("generating multiset is not closed under negation")
    if n**d > budget:
        raise BudgetExceeded(f"{n}^{d} characters to enumerate, budget {budget}")
    ctx = get_context(n)
    cos_f = [math.cos(2 * math.pi * k / n) for k in range(n)]
    entries: dict[CycElt, Entry] = {}
    for t in itertools.product(range(n), repeat=d):
        exps = [sum(ti * gi for ti, gi in zip(t, g)) % n for g in gens]
        key = sum_reduce(ctx, exps)
        e = entries.get(key)
        if e is None:
            if len(entries) >= budget:
                raise BudgetExceeded(f"more than {budget} distinct keys in Cayley table")
            entries[key] = Entry(1, t, sum(cos_f[x] for x in exps))
        else:
            entries[key] = Entry(e.count + 1, e.representative, e.approx)
    return SpectrumTable(n, d, entries, n**d)

