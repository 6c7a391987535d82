"""Exact spectrum tables for discrete tori and abelian Cayley graphs.

A table maps canonical eigenvalue keys (CycElt) to exact multiplicities.
Torus tables are built by convolving distinct-value tables - roughly N/2
keys for a cycle graph - rather than enumerating N^d index tuples, which
keeps things like the 4-dimensional torus over Z/105Z comfortably cheap.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass

from .cyclotomic import CycElt, cos_key, get_context, sum_reduce
from .errors import AsymmetricGeneratingSet, BudgetExceeded

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class Entry:
    """One eigenvalue: exact count, a witness index tuple, display float.

    ``representative`` is the lexicographically smallest index tuple
    attaining the key, so table contents are deterministic.  ``approx`` is
    for display and ordering only; grouping never touches it.
    """

    count: int
    representative: tuple[int, ...]
    approx: float


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue key -> Entry for one graph on n^d vertices."""

    n: int
    d: int
    entries: dict  # CycElt -> Entry; treat as immutable
    total: int

    def count_of(self, key: CycElt) -> int:
        e = self.entries.get(key)
        return e.count if e is not None else 0

    def sorted_entries(self) -> list[tuple[CycElt, Entry]]:
        """Entries by approx value descending; key order breaks float ties.

        Distinct algebraic values whose floats coincide stay distinct rows,
        ordered by their exact coefficients.
        """
        return sorted(self.entries.items(), key=lambda kv: (-kv[1].approx, kv[0]))


def cn_spectrum(n: int, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Adjacency spectrum of the cycle graph on Z/nZ with generators +-1.

    Keys are cos_key(n, k) for 0 <= k <= n//2 with multiplicity 2 except at
    the endpoints k = 0 (value 2) and, for even n, k = n/2 (value -2).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    half = n // 2
    if half + 1 > budget:
        raise BudgetExceeded(f"cycle table needs {half + 1} keys, budget {budget}")
    ctx = get_context(n)
    entries: dict[CycElt, Entry] = {}
    for k in range(half + 1):
        mult = 1 if k == 0 or (n % 2 == 0 and k == half) else 2
        entries[cos_key(ctx, k)] = Entry(mult, (k,), 2 * math.cos(2 * math.pi * k / n))
    if len(entries) != half + 1:
        raise AssertionError("cycle eigenvalues must be pairwise distinct")
    return SpectrumTable(n, 1, entries, n)


def convolve(a: SpectrumTable, b: SpectrumTable, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum of the product graph: keys add, counts multiply-accumulate.

    Raises BudgetExceeded as soon as the accumulator would hold more than
    ``budget`` distinct keys.  Conservation (sum of counts equals the
    product of totals) is checked before returning.
    """
    if a.n != b.n:
        raise ValueError(f"mixed moduli {a.n} and {b.n}")
    n = a.n
    acc: dict[int, list] = {}  # packed key -> [count, representative, approx]

    def bump(v, cnt, rep, approx):
        slot = acc.get(v)
        if slot is None:
            if len(acc) >= budget:
                raise BudgetExceeded(f"more than {budget} distinct keys in convolution")
            acc[v] = [cnt, rep, approx]
        else:
            slot[0] += cnt
            if rep < slot[1]:
                slot[1] = rep

    bi = [(k.v, e.count, e.representative, e.approx) for k, e in b.entries.items()]
    if a is b:
        # Unordered pairs; both concatenation orders attain the key, and the
        # smaller prefix wins lexicographically.
        for i, (vx, ci, ri, fi) in enumerate(bi):
            bump(vx + vx, ci * ci, ri + ri, fi + fi)
            for j in range(i + 1, len(bi)):
                vy, cj, rj, fj = bi[j]
                rep = ri + rj if ri <= rj else rj + ri
                bump(vx + vy, 2 * ci * cj, rep, fi + fj)
    else:
        ai = [(k.v, e.count, e.representative, e.approx) for k, e in a.entries.items()]
        for vx, ci, ri, fi in ai:
            for vy, cj, rj, fj in bi:
                bump(vx + vy, ci * cj, ri + rj, fi + fj)

    total = a.total * b.total
    got = sum(slot[0] for slot in acc.values())
    if got != total:
        raise AssertionError("convolution lost mass")  # unreachable
    entries = {CycElt(n, v): Entry(cnt, rep, approx) for v, (cnt, rep, approx) in acc.items()}
    return SpectrumTable(n, a.d + b.d, entries, total)


_TORUS_CACHE: OrderedDict[tuple[int, int], SpectrumTable] = OrderedDict()
_TORUS_CACHE_SIZE = 8


def torus_spectrum(n: int, d: int, budget: int = DEFAULT_BUDGET) -> SpectrumTable:
    """Spectrum of the d-dimensional discrete torus over Z/nZ.

    The d-fold convolution power of cn_spectrum(n); the sum of counts is
    n^d.  Tables are cached per (n, d) since they are immutable.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 1 <= d < 1 << 30:
        raise ValueError("need 1 <= d < 2^30")
    t = _torus(n, d, budget)
    if len(t.entries) > budget:
        raise BudgetExceeded(f"table for (n={n}, d={d}) has {len(t.entries)} keys, budget {budget}")
    return t


def _torus(n: int, d: int, budget: int) -> SpectrumTable:
    key = (n, d)
    hit = _TORUS_CACHE.get(key)
    if hit is not None:
        _TORUS_CACHE.move_to_end(key)
        return hit
    if d == 1:
        t = cn_spectrum(n, budget)
    else:
        lo = d // 2
        t = convolve(_torus(n, d - lo, budget), _torus(n, lo, budget), budget)
    _TORUS_CACHE[key] = t
    while len(_TORUS_CACHE) > _TORUS_CACHE_SIZE:
        _TORUS_CACHE.popitem(last=False)
    return t


def key_of_tuple(n: int, ks) -> CycElt:
    """Eigenvalue key of an index tuple: the sum of its 2-cosine values."""
    ctx = get_context(n)
    return sum_reduce(ctx, (e for k in ks for e in (k % n, (n - k) % n)))


def multiplicity_of_tuple(n: int, d: int, ks, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of d-tuples over Z/nZ sharing this tuple's eigenvalue."""
    ks = tuple(ks)
    if len(ks) != d:
        raise ValueError(f"expected {d} indices, got {len(ks)}")
    t = torus_spectrum(n, d, budget)
    e = t.entries.get(key_of_tuple(n, ks))
    if e is None:
        raise AssertionError("every index tuple has a key in the table")
    return e.count


def _mitm_matches(n: int, d: int, target: CycElt, budget: int):
    """Yield count_a * count_b for each split target = key_a + key_b.

    The keys come from the two half-dimension tables of T^d_n (one table
    when d = 1; for d = 0 only the empty sum, which is zero).  The smaller
    table is walked and the larger one probed.
    """
    if d == 0:
        if target.is_zero():
            yield 1
        return
    a = (d + 1) // 2
    ta = torus_spectrum(n, a, budget)
    if a == d:
        e = ta.entries.get(target)
        if e is not None:
            yield e.count
        return
    tb = torus_spectrum(n, d - a, budget)
    small, big = (ta, tb) if len(ta.entries) <= len(tb.entries) else (tb, ta)
    for k, e in small.entries.items():
        other = big.entries.get(target - k)
        if other is not None:
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


def laplacian_view(t: SpectrumTable, degree: int) -> SpectrumTable:
    """Map adjacency keys mu to Laplacian keys degree - mu, counts kept.

    Only meaningful when the table came from a ``degree``-regular graph.
    """
    entries = {
        degree - key: Entry(e.count, e.representative, degree - e.approx)
        for key, e in t.entries.items()
    }
    if len(entries) != len(t.entries):
        raise AssertionError("affine key map cannot merge entries")
    return SpectrumTable(t.n, t.d, entries, t.total)
