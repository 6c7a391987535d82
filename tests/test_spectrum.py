import gc
import math
import random
import tracemalloc
from collections import OrderedDict

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtorus import spectrum
from dtorus.criteria import d2_closed_form, verify_bound24
from dtorus.cyclotomic import (
    PREC,
    CycElt,
    ModEmbedding,
    approx_value,
    get_context,
    key_embedding,
    sum_reduce,
)
from dtorus.errors import AsymmetricGeneratingSet, BudgetExceeded
from dtorus.spectrum import (
    CayleySpec,
    SpectrumTable,
    cayley_spectrum,
    cn_spectrum,
    convolve,
    key_multiplicity,
    key_of_tuple,
    membership,
    multiplicity_of_tuple,
    torus_spectrum,
)
from helpers import (
    brute_cayley_spectrum,
    enumerate_spectrum,
    fixed,
    plain_by_value,
    plain_mitm_count,
    residue_approx,
    walk_traces,
)


def counts_by_key(table):
    return {k: e.count for k, e in table.entries.items()}


def assert_table_oracles(t):
    # sum count * lambda^k is trace(A^k), the closed walks of length k, an
    # integer; F is a ring map, so the rows' F images give it modulo M.  And
    # every row's representative maps to the row's own image
    m = t.embedding.modulus
    powers = {f: 1 for f in t.counts}
    for k, trace in enumerate(walk_traces(t.n, t.d, 6)):
        assert sum(c * powers[f] for f, c in t.counts.items()) % m == trace % m, k
        powers = {f: p * f % m for f, p in powers.items()}
    assert all(t.embedding.cos_image(t.entry(f).representative) == f for f in t.counts)


def test_cn_spectrum_charts():
    t3 = cn_spectrum(3)
    assert counts_by_key(t3) == {CycElt(3, 2): 1, CycElt(3, -1): 2}
    t4 = cn_spectrum(4)
    assert counts_by_key(t4) == {CycElt(4, 2): 1, get_context(4).zero: 2, CycElt(4, -2): 1}
    t5 = cn_spectrum(5)
    assert t5.count_of(CycElt(5, 2)) == 1
    assert t5.count_of(key_of_tuple(5, (1,))) == 2
    assert t5.count_of(key_of_tuple(5, (2,))) == 2
    assert t5.total == 5


def test_convolve_examples():
    t4 = cn_spectrum(4)
    sq = convolve(t4, t4)
    assert sq.count_of(get_context(4).zero) == 6

    t3 = cn_spectrum(3)
    sq3 = convolve(t3, t3)
    assert counts_by_key(sq3) == {
        CycElt(3, 4): 1,
        CycElt(3, 1): 4,
        CycElt(3, -2): 4,
    }


def test_convolve_point_mass_identity():
    t = cn_spectrum(7)
    point = SpectrumTable(7, 0, 1, {0: 1}, {0: 0}, t.embedding)  # T^0: the empty sum
    out = convolve(t, point)
    assert {k: e.count for k, e in out.entries.items()} == counts_by_key(t)


def test_convolve_needs_rows_serving_the_product():
    t = cn_spectrum(7)
    # Cayley tables are refused, even one keyed under the cycle's embedding
    same_emb = cayley_spectrum(CayleySpec(7, 1, ((2,), (-2,))))
    other = cayley_spectrum(CayleySpec(7, 1, ((1,), (-1,), (0,))))
    assert same_emb.embedding == t.embedding
    for c in (same_emb, other):
        for a, b in ((t, c), (c, t), (c, c)):
            with pytest.raises(ValueError, match="torus_spectrum"):
                convolve(a, b)
    # T^1_419 is keyed under 14 primes; T^2_419 needs 21
    t419 = cn_spectrum(419)
    wide = cn_spectrum(419, embedding=key_embedding(419, 4))
    assert len(t419.embedding.primes) == 14 and len(wide.embedding.primes) == 21
    for a, b in ((t419, t419), (t419, wide), (wide, t419)):
        with pytest.raises(ValueError, match="torus_spectrum"):
            convolve(a, b)
    assert convolve(wide, wide).total == 419**2


def test_convolve_budget():
    t = cn_spectrum(12)
    with pytest.raises(BudgetExceeded):
        convolve(t, t, budget=5)


def test_torus_budget_applies_to_cached_tables(monkeypatch):
    # the cycle table's 7 keys fit the budget, so the refusal is the cached
    # table's, not check_cycle_keys' or a convolution's
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    torus_spectrum(12, 2)  # populate the cache
    with pytest.raises(BudgetExceeded, match=r"^table for \(n=12, d=2\) has 21 keys, budget 10$"):
        torus_spectrum(12, 2, budget=10)


def test_torus_examples():
    assert torus_spectrum(12, 2).count_of(CycElt(12, 1)) == 12
    assert torus_spectrum(60, 2).count_of(get_context(60).zero) == 118
    t = torus_spectrum(9, 1)
    assert counts_by_key(t) == counts_by_key(cn_spectrum(9))


@given(st.integers(min_value=3, max_value=13), st.integers(min_value=1, max_value=3))
def test_torus_matches_enumeration(n, d):
    table = torus_spectrum(n, d)
    assert_table_oracles(table)
    oracle = enumerate_spectrum(n, d)
    entries = table.entries
    assert len(entries) == len(oracle)
    for key, e in entries.items():
        count, rep = oracle[key.coeffs]
        assert e.count == count
        assert e.representative == rep


@pytest.mark.parametrize("n,d", [(24, 2), (40, 2), (15, 3), (21, 3), (30, 3), (40, 3)])
def test_torus_matches_enumeration_larger(n, d):
    table = torus_spectrum(n, d)
    oracle = enumerate_spectrum(n, d)
    entries = table.entries
    assert {k.coeffs: e.count for k, e in entries.items()} == {k: c for k, (c, _) in oracle.items()}
    for key, e in entries.items():
        assert e.representative == oracle[key.coeffs][1]


def packed(rep, n):
    out = 0
    for k in rep:
        out = out * n + k
    return out


# d = 4 convolves two 2-tables and d = 5 a 3-table with a 2-table, so the
# packed representative rx n^(b.d) + ry is checked where the widths differ
@pytest.mark.parametrize("n,d", [(n, 4) for n in range(3, 8)] + [(n, 5) for n in range(3, 6)])
def test_packed_representatives_across_widths(n, d):
    table = torus_spectrum(n, d)
    oracle = enumerate_spectrum(n, d)
    entries = table.entries
    assert {k.coeffs: tuple(e) for k, e in entries.items()} == oracle
    want = {k: packed(rep, n) for k, (_, rep) in oracle.items()}
    assert {k.coeffs: table.reps[table.embedding.image(k)] for k in entries} == want
    assert list(table.reps.values()) == sorted(table.reps.values())  # ascending representatives
    assert list(table.counts) == list(table.reps)


@pytest.mark.parametrize("n", range(3, 8))
def test_key_multiplicity_matches_table_d4(n):
    table = torus_spectrum(n, 4)
    for key, e in table.entries.items():
        assert key_multiplicity(n, 4, key) == e.count


# d = 5 walks T^2 against T^3 and d = 6 splits into T^3 twice, walking one
# image of each pair {x, goal - x}
@pytest.mark.parametrize("n,d", [(n, d) for d in (5, 6) for n in range(3, 9)])
def test_key_multiplicity_matches_table_d5_d6(n, d):
    table = torus_spectrum(n, d)
    for key, e in table.entries.items():
        assert key_multiplicity(n, d, key) == e.count
        assert membership(n, d, key)


@given(
    st.integers(min_value=3, max_value=64),
    st.sampled_from([2, 4, 5, 6]),
    st.lists(st.integers(min_value=0, max_value=63), min_size=6, max_size=6),
    st.sampled_from(["key", "shifted", "zero", "root"]),
)
def test_key_multiplicity_matches_plain_walk(n, d, ks, kind):
    key = key_of_tuple(n, ks[:d])
    ctx = get_context(n)
    target = {"key": key, "shifted": CycElt(n, key.v + 1), "zero": ctx.zero, "root": sum_reduce(ctx, ks[:1])}[kind]
    want = plain_mitm_count(n, d, target)
    assert key_multiplicity(n, d, target) == want
    assert membership(n, d, target) == (want > 0)
    assert want or kind != "key"
    for t in (torus_spectrum(n, (d + 1) // 2), torus_spectrum(n, d // 2)):
        assert_table_oracles(t)


def test_key_multiplicity_edge_goals():
    # 2 cos(2 pi 3 / 12) = 0, so (3, 3, 3) is a zero of T^3_12
    n = 12
    ctx = get_context(n)
    emb = key_embedding(n, 12)
    cases = [(ctx.zero, d) for d in (2, 4, 6)]  # x0 = 0 is a row
    for ks in ((1, 2, 5), (0, 0, 0), (6, 6, 4)):
        cases.append((key_of_tuple(n, ks + ks), 6))  # x0 = F(key of ks) is a row
        target = key_of_tuple(n, ks + (3, 3, 3))  # goal is the image of a row, which pairs with 0
        assert emb.image(target) == emb.cos_image(ks)
        cases += [(target, 6), (key_of_tuple(n, ks[:2] + (3, 3, 3)), 5)]
    for target, d in cases:
        want = torus_spectrum(n, d).count_of(target)
        assert want
        assert key_multiplicity(n, d, target) == want == plain_mitm_count(n, d, target), (target, d)
    # nonzero targets that are no key: two non-real sums, and a constant above the top eigenvalue
    for target in (sum_reduce(ctx, (1,)), sum_reduce(ctx, (0, 1)), CycElt(n, 13)):
        for d in (5, 6):
            assert key_multiplicity(n, d, target) == 0 == plain_mitm_count(n, d, target)
            assert not membership(n, d, target)


class CountingDict(dict):
    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_self_split_probes_half_the_rows(monkeypatch):
    # even d probes one image of each pair {x, goal - x} and the fixed point
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    rng = random.Random(6)
    for n in (12, 25, 31, 40):
        half = spectrum._torus(n, 3, key_embedding(n, 12), spectrum.DEFAULT_BUDGET)
        half.counts = counts = CountingDict(half.counts)
        ctx = get_context(n)
        tuples = [tuple(rng.randrange(n) for _ in range(6)) for _ in range(20)]
        targets = [key_of_tuple(n, ks) for ks in tuples] + [ctx.zero, key_of_tuple(n, tuples[0][:3] * 2)]
        for target in targets:
            counts.probes = 0
            got = key_multiplicity(n, 6, target)
            assert counts.probes <= -(-len(counts) // 2) + 1
            assert got == plain_mitm_count(n, 6, target)


def test_table_build_allocates_no_object_per_key(monkeypatch):
    # 13861 keys from as many pairs: an object kept per pair or per key
    # would trigger dozens of young-generation collections
    n = 331
    key_embedding(n, 4)
    get_context(n)
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    torus_spectrum(n, 2)
    assert gc.get_stats()[0]["collections"] - before <= 2
    rep = verify_bound24(n)
    assert rep.max_multiplicity == 8
    assert "attained" not in vars(rep)  # no key per attaining row up front
    assert len(rep.images) == 13530
    assert all(rep.table.entry(f).count == 8 for f in rep.images)


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=3))
def test_conservation_and_representatives(n, d):
    table = torus_spectrum(n, d)
    assert_table_oracles(table)
    entries = table.entries
    assert sum(e.count for e in entries.values()) == n**d == table.total
    for key, e in entries.items():
        assert key_of_tuple(n, e.representative) == key


def test_keys_hash_apart_beyond_61_digits():
    # phi(127) = 126: a hash of the packed int alone gives far fewer values
    keys = torus_spectrum(127, 2).entries
    assert len({hash(k) for k in keys}) == len(keys) == 64 * 65 // 2


@given(st.integers(min_value=2, max_value=20))
def test_even_antisymmetry(half):
    n = 2 * half
    table = torus_spectrum(n, 2)
    assert_table_oracles(table)
    for key, e in table.entries.items():
        assert table.count_of(CycElt(n, -key.v)) == e.count


@given(
    st.integers(min_value=3, max_value=20),
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=3),
    st.randoms(use_true_random=False),
)
def test_multiplicity_invariances(n, ks, rng):
    d = len(ks)
    ks = [k % n for k in ks]
    base = multiplicity_of_tuple(n, d, ks)
    shuffled = ks[:]
    rng.shuffle(shuffled)
    assert multiplicity_of_tuple(n, d, shuffled) == base
    flipped = [(n - k) % n if rng.random() < 0.5 else k for k in ks]
    assert multiplicity_of_tuple(n, d, flipped) == base
    assert_table_oracles(torus_spectrum(n, d))


def test_multiplicity_examples():
    assert multiplicity_of_tuple(60, 2, (24, 10)) == 24
    assert multiplicity_of_tuple(12, 2, (0, 6)) == 22
    assert multiplicity_of_tuple(5, 2, (0, 0)) == 1


@given(st.integers(min_value=3, max_value=16), st.integers(min_value=1, max_value=3))
def test_key_multiplicity_matches_table(n, d):
    table = torus_spectrum(n, d)
    assert_table_oracles(table)
    for key, e in table.entries.items():
        assert key_multiplicity(n, d, key) == e.count
    # anything above the top eigenvalue 2d is never attained
    assert key_multiplicity(n, d, CycElt(n, 2 * d + 1)) == 0


def test_membership_examples():
    assert not membership(10, 1, get_context(10).zero)
    assert membership(12, 1, get_context(12).zero)
    assert membership(6, 1, CycElt(6, 1))
    # dimension 0 accepts only the zero element
    assert membership(9, 0, get_context(9).zero)
    assert not membership(9, 0, CycElt(9, 1))


def test_negative_dimension_is_refused():
    for probe in (membership, key_multiplicity):
        with pytest.raises(ValueError, match="dimension must be nonnegative"):
            probe(7, -1, CycElt(7, 0))


@given(st.integers(min_value=3, max_value=14), st.integers(min_value=1, max_value=4))
def test_membership_matches_table_keys(n, d):
    table = torus_spectrum(n, d)
    assert_table_oracles(table)
    some_keys = list(table.entries)[:5]
    for key in some_keys:
        assert membership(n, d, key)
    assert not membership(n, d, CycElt(n, 2 * d + 1))


def element(ctx, coeffs):
    """sum of c_i zeta^i, from the packed residues of the powers."""
    return CycElt(ctx.n, sum(c * sum_reduce(ctx, (i,)).v for i, c in enumerate(coeffs)))


@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=11),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=12, max_size=12),
)
def test_probes_of_non_keys_match_enumeration(n, d, k, coeffs):
    oracle = enumerate_spectrum(n, d)
    ctx = get_context(n)
    targets = [
        CycElt(n, 2 * d + 1),
        sum_reduce(ctx, (k,)),
        element(ctx, coeffs[: ctx.phi]),
        CycElt(n, key_of_tuple(n, [k] * d).v + 1),
    ]
    for target in targets:
        want = oracle.get(target.coeffs, (0, None))[0]
        assert key_multiplicity(n, d, target) == want
        assert membership(n, d, target) == (want > 0)


def test_probe_checks_hits_exactly(monkeypatch):
    # 11 = 1 (mod 5) and 3 has order 5 mod 11: a valid ring map, but far too
    # small to separate keys, so F-hits happen for targets that are no key
    weak = ModEmbedding(5, (11,), 11, 3, tuple(pow(3, k, 11) for k in range(5)))
    monkeypatch.setattr(spectrum, "key_embedding", lambda n, d: weak)
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    ctx = get_context(5)
    zeta, three = sum_reduce(ctx, (1,)), CycElt(5, 3)
    table = spectrum.torus_spectrum(5, 1)
    cycle = table.counts
    assert weak.image(three) in cycle  # F(3) = F(2 cos(4 pi / 5))
    assert any((weak.image(zeta) - f) % 11 in cycle for f in cycle)
    for target, d in ((three, 1), (zeta, 2), (zeta, 1)):
        assert key_multiplicity(5, d, target) == 0
        assert not membership(5, d, target)
    assert key_multiplicity(5, 2, CycElt(5, 4)) == 1
    assert weak.image(zeta) in cycle  # F(zeta) = F(2 cos(4 pi / 5)) too
    for non_key in (three, zeta):
        assert table.count_of(non_key) == 0
    assert table.count_of(key_of_tuple(5, (2,))) == 2


def test_count_of_probes_rows(monkeypatch):
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    n = 419
    t = torus_spectrum(n, 2)
    ctx = get_context(n)
    built = []

    def counting_key_of_tuple(n, ks):
        built.append(ks)
        return key_of_tuple(n, ks)

    def count_of(key):
        # at most one exact key, the hit's, is built per call
        before = len(built)
        count = t.count_of(key)
        assert len(built) - before <= 1
        return count

    monkeypatch.setattr(spectrum, "key_of_tuple", counting_key_of_tuple)
    assert count_of(ctx.zero) == 0  # odd n: zero is no eigenvalue
    assert count_of(CycElt(n, 4)) == 1
    for ks in ((3, 17), (0, 5), (7, 7), (0, 209)):
        assert count_of(key_of_tuple(n, ks)) == d2_closed_form(n, *ks)
    assert count_of(CycElt(n, 5)) == 0  # above the top eigenvalue 4
    with pytest.raises(ValueError, match="mixed moduli"):
        count_of(get_context(7).zero)  # a key of another modulus, refused as key_multiplicity refuses it
    assert len(built) == 5  # one for each hit on a nonzero key


def test_entries_are_built_on_each_access():
    t = torus_spectrum(12, 2)
    assert t.entries is not t.entries
    assert t.entries == t.entries
    assert "entries" not in vars(t)


def test_cached_tables_keep_no_entries(monkeypatch):
    # one more table than the cache holds, each read and dropped at once:
    # whatever a read leaves behind would stay with the cached table
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    moduli = [200, 204, 210, 216, 222, 228, 234, 240, 252]
    assert len(moduli) == spectrum._TORUS_CACHE_SIZE + 1
    views, left = [], 0
    for n in moduli:
        t = torus_spectrum(n, 2)
        get_context(n)  # the context a read builds is get_context's to keep
        tracemalloc.start()
        try:
            view = t.entries
            views.append(tracemalloc.get_traced_memory()[0])
            del view
            left += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert left < min(views), (left, views)


# no enumeration oracle reaches these tables
LARGE_TABLES = [(419, 2), (105, 3), (60, 4), (3, 1000)]


@pytest.mark.parametrize("n, d", LARGE_TABLES)
def test_power_sums_match_walk_traces(n, d):
    assert_table_oracles(torus_spectrum(n, d))


@pytest.mark.parametrize("n, d", LARGE_TABLES[:3])
def test_counts_are_galois_invariant(n, d):
    # sigma_j: zeta -> zeta^j, j a unit mod n, permutes the eigenvalues with
    # their multiplicities, and sends the key of a tuple to that of j * tuple
    t = torus_spectrum(n, d)
    units = [j for j in range(2, n) if math.gcd(j, n) == 1][:8]
    assert len(units) == 8
    for f, c in t.counts.items():
        rep = t.entry(f).representative
        for j in units:
            assert t.counts[t.embedding.cos_image([j * k for k in rep])] == c, (rep, j)


@pytest.mark.parametrize("n, d", LARGE_TABLES)
def test_representatives_map_to_their_rows(n, d):
    t = torus_spectrum(n, d)
    assert all(t.embedding.cos_image(t.entry(f).representative) == f for f in t.counts)


def test_torus_1009_matches_closed_form():
    n = 1009  # 127765 keys with phi(n) = 1008: rows only, never ``entries``
    t = torus_spectrum(n, 2)
    assert len(t.counts) == 505 * 506 // 2
    assert sum(t.counts.values()) == n * n
    assert all(e.count == d2_closed_form(n, *e.representative) for e in map(t.entry, t.counts))
    assert verify_bound24(n).max_multiplicity == 8


def test_cayley_budget_checked_before_enumeration():
    gens = ((0, 0, 0, 1), (0, 0, 0, -1))
    with pytest.raises(BudgetExceeded):
        cayley_spectrum(CayleySpec(1000, 4, gens))  # 10^12 characters
    spec = CayleySpec(5, 2, ((0, 1), (0, -1)))
    assert cayley_spectrum(spec, budget=25).total == 25
    with pytest.raises(BudgetExceeded):
        cayley_spectrum(spec, budget=24)


def test_cayley_rows_need_no_context():
    # 5003 * 5002 digits lie above the context cap: the rows are F images,
    # and only the key of a row needs the context
    get_context.cache_clear()
    table = cayley_spectrum(CayleySpec(5003, 1, ((1,), (-1,))))
    assert get_context.cache_info().currsize == 0
    assert table.counts == torus_spectrum(5003, 1).counts
    with pytest.raises(BudgetExceeded, match="cyclotomic context"):
        table.key_of((7,))


def test_cayley_matches_cycle_graph():
    spec = CayleySpec(5, 1, ((1,), (-1,)))
    assert counts_by_key(cayley_spectrum(spec)) == counts_by_key(cn_spectrum(5))


def test_cayley_zero_multiplicity_example():
    spec = CayleySpec(6, 1, ((1,), (-1,), (4,), (-4,)))
    table = cayley_spectrum(spec)
    assert table.count_of(get_context(6).zero) == 3
    assert table.total == 6


@pytest.mark.parametrize("n", range(3, 21))
def test_cayley_standard_generators_match_torus(n):
    spec = CayleySpec(n, 2, ((0, 1), (0, -1), (1, 0), (-1, 0)))
    assert counts_by_key(cayley_spectrum(spec)) == counts_by_key(torus_spectrum(n, 2))
    spec1 = CayleySpec(n, 1, ((1,), (-1,)))
    assert counts_by_key(cayley_spectrum(spec1)) == counts_by_key(cn_spectrum(n))


CAYLEY_CASES = [
    (1, 1, ((0,), (0,))),  # n = 1: one character
    (5, 1, ()),  # no generators: every key is zero
    (5, 1, ((1,), (-1,), (1,), (-1,))),  # repeated generators
    (6, 1, ((3,), (3,), (2,), (-2,))),  # self-inverse generators
    (7, 0, ((), ())),  # d = 0: one character, the constant 2
    (6, 2, ((1, 1), (-1, -1), (1, 0), (-1, 0))),  # not the torus generators
    (7, 3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))),
]


def cayley_by_coeffs(table):
    return {k.coeffs: (e.count, e.representative) for k, e in table.entries.items()}


@pytest.mark.parametrize("n,d,gens", CAYLEY_CASES)
def test_cayley_matches_brute_force(n, d, gens):
    table = cayley_spectrum(CayleySpec(n, d, gens))
    assert cayley_by_coeffs(table) == brute_cayley_spectrum(n, d, gens)
    assert table.total == n**d


@pytest.mark.parametrize("d", range(7))
def test_cayley_hypercube(d):
    # (Z/2Z)^d with generators e_i: the eigenvalue d - 2k has count C(d, k)
    gens = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    table = cayley_spectrum(CayleySpec(2, d, gens))
    got = cayley_by_coeffs(table)
    assert got == brute_cayley_spectrum(2, d, gens)
    assert {k[0]: c for k, (c, _) in got.items()} == {d - 2 * k: math.comb(d, k) for k in range(d + 1)}


def test_cayley_rejects_bad_modulus_and_rank():
    with pytest.raises(ValueError, match="n >= 1"):
        cayley_spectrum(CayleySpec(0, 1, ((1,), (-1,))))
    with pytest.raises(ValueError, match="d >= 0"):
        cayley_spectrum(CayleySpec(5, -1, ()))


def test_cayley_rejects_asymmetric_set():
    with pytest.raises(AsymmetricGeneratingSet):
        cayley_spectrum(CayleySpec(5, 1, ((1,), (2,))))


def test_sorted_entries_descending():
    t = torus_spectrum(12, 2)
    values = [float(fixed(mid)) for mid, _, _ in spectrum.by_value(t, t.counts)]
    assert values == sorted(values, reverse=True)


def test_float_ties_break_on_f_images(monkeypatch):
    # force equal values, so only the tie-break can decide; it reads the F
    # image each row carries, and no key or context is built to order rows
    t = torus_spectrum(13, 2)  # n odd: no row is zero, so every row is evaluated
    images = list(reversed(t.counts))  # descending representative order
    assert sorted(images) not in (images, list(t.counts))
    evaluated = []

    def half(n, exponents):
        evaluated.append(n)
        return 1 << (PREC - 1)

    monkeypatch.setattr(spectrum, "approx_value", half)

    def unreachable(*args, **kwargs):
        raise RuntimeError("a key was built to order rows")

    monkeypatch.setattr(spectrum.SpectrumTable, "key_of", unreachable)
    monkeypatch.setattr(spectrum, "get_context", unreachable)
    assert [f for _, f, _ in spectrum.by_value(t, images)] == sorted(images)
    assert len(evaluated) == len(images)


@pytest.mark.parametrize("n", [12, 60, 97])  # phi(97) = 96 digits
def test_sorted_entries_order_matches_reference(n):
    # independent reference: mpmath's 2cos(2 pi k / n), summed over each row's
    # representative at 200 bits; distinct keys have distinct values
    t = torus_spectrum(n, 2)
    rows = list(spectrum.by_value(t, t.counts))  # read twice below
    with mpmath.workprec(200):
        two_cos = [2 * mpmath.cos(2 * mpmath.pi * k / n) for k in range(n)]
        refs = [sum(two_cos[k] for k in e.representative) for _, _, e in rows]
        assert all(a > b for a, b in zip(refs, refs[1:]))
        # one unit per root: 2d = 4 units at d = 2, 0 at f = 0
        for (mid, f, _), ref in zip(rows, refs):
            assert abs(fixed(mid) - ref) <= fixed(4 if f else 0) + mpmath.mpf(2) ** -190


def assert_values_match_residue_oracle(table):
    # each row's value, from its representative, against the evaluation of
    # its exact key from the phi(n) residue coefficients; one unit per root,
    # as many roots as the zero tuple has exponents, and 0 at f = 0
    roots = len(table.exponents((0,) * table.d))
    for mid, f, e in spectrum.by_value(table, table.counts):
        old, old_radius = residue_approx(table.key_of(e.representative))
        with mpmath.workprec(400):
            assert abs(fixed(mid) - old) <= fixed(roots if f else 0) + old_radius
        if not f:
            assert mid == old == 0


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=1, max_value=3))
def test_values_match_residue_oracle_torus(n, d):
    table = torus_spectrum(n, d)
    assert_table_oracles(table)
    assert_values_match_residue_oracle(table)


def cayley_draw(seed):
    """A Cayley table of at most 2000 characters on 1 to 4 random generator pairs."""
    rng = random.Random(seed)
    n, d = rng.randint(2, 16), rng.randint(1, 3)
    while n**d > 2000:
        d -= 1
    half = [tuple(rng.randrange(n) for _ in range(d)) for _ in range(rng.randint(1, 4))]
    gens = tuple(half + [tuple(-x for x in g) for g in half])
    return cayley_spectrum(CayleySpec(n, d, gens))


@pytest.mark.parametrize("seed", range(20))
def test_values_match_residue_oracle_cayley(seed):
    assert_values_match_residue_oracle(cayley_draw(seed))


@pytest.mark.parametrize(
    "table",
    [("torus", n, d) for n, d in [(240, 2), (180, 2), (97, 2), (60, 3), (12, 4)]]
    + [("cayley", seed) for seed in range(20)],
    ids=lambda args: "-".join(map(str, args)),
)
def test_by_value_matches_plain_oracle(table):
    # by_value holds each row as three ints and sorts on mid / 2^PREC; the
    # parent's way, an approx_value per row sorted on (-float, f), gives the
    # same values, images and entries in the same order, for all rows and
    # for a subset given in another order
    t = torus_spectrum(*table[1:]) if table[0] == "torus" else cayley_draw(*table[1:])
    images = list(t.counts)
    for some in (images, images[::-2]):
        assert list(spectrum.by_value(t, some)) == plain_by_value(t, some)
    # int true division rounds to nearest, as float() of the exact mpf does
    for f in images:
        mid = approx_value(t.n, t.exponents(t.entry(f).representative) if f else ())
        assert mid / 2**PREC == float(fixed(mid))
