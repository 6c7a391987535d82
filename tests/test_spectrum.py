import gc
import math
import random
from collections import OrderedDict

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtorus import spectrum
from dtorus.criteria import d2_closed_form, verify_bound24
from dtorus.cyclotomic import ModEmbedding, get_context, key_embedding, sum_reduce
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
from helpers import brute_cayley_spectrum, enumerate_spectrum, residue_approx


def counts_by_key(table):
    return {k: e.count for k, e in table.entries.items()}


def test_cn_spectrum_charts():
    t3 = cn_spectrum(3)
    ctx3 = get_context(3)
    assert counts_by_key(t3) == {ctx3.const(2): 1, ctx3.const(-1): 2}
    t4 = cn_spectrum(4)
    ctx4 = get_context(4)
    assert counts_by_key(t4) == {ctx4.const(2): 1, ctx4.zero: 2, ctx4.const(-2): 1}
    t5 = cn_spectrum(5)
    ctx5 = get_context(5)
    assert t5.count_of(ctx5.const(2)) == 1
    assert t5.count_of(key_of_tuple(5, (1,))) == 2
    assert t5.count_of(key_of_tuple(5, (2,))) == 2
    assert t5.total == 5


def test_convolve_examples():
    t4 = cn_spectrum(4)
    sq = convolve(t4, t4)
    assert sq.count_of(get_context(4).zero) == 6

    t3 = cn_spectrum(3)
    sq3 = convolve(t3, t3)
    ctx3 = get_context(3)
    assert counts_by_key(sq3) == {
        ctx3.const(4): 1,
        ctx3.const(1): 4,
        ctx3.const(-2): 4,
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
    # T^1_419 is keyed under 7 primes; T^2_419 needs 11
    t419 = cn_spectrum(419)
    wide = cn_spectrum(419, embedding=key_embedding(419, 4))
    assert len(t419.embedding.primes) == 7 and len(wide.embedding.primes) == 11
    for a, b in ((t419, t419), (t419, wide), (wide, t419)):
        with pytest.raises(ValueError, match="torus_spectrum"):
            convolve(a, b)
    assert convolve(wide, wide).total == 419**2


def test_convolve_budget():
    t = cn_spectrum(12)
    with pytest.raises(BudgetExceeded):
        convolve(t, t, budget=5)


def test_torus_budget_applies_to_cached_tables():
    torus_spectrum(14, 2)  # populate the cache
    with pytest.raises(BudgetExceeded):
        torus_spectrum(14, 2, budget=5)


def test_torus_examples():
    assert torus_spectrum(12, 2).count_of(get_context(12).one) == 12
    assert torus_spectrum(60, 2).count_of(get_context(60).zero) == 118
    t = torus_spectrum(9, 1)
    assert counts_by_key(t) == counts_by_key(cn_spectrum(9))


@given(st.integers(min_value=3, max_value=13), st.integers(min_value=1, max_value=3))
def test_torus_matches_enumeration(n, d):
    table = torus_spectrum(n, d)
    oracle = enumerate_spectrum(n, d)
    assert len(table.entries) == len(oracle)
    for key, e in table.entries.items():
        count, rep = oracle[key.coeffs]
        assert e.count == count
        assert e.representative == rep


@pytest.mark.parametrize("n,d", [(24, 2), (40, 2), (15, 3), (21, 3), (30, 3), (40, 3)])
def test_torus_matches_enumeration_larger(n, d):
    table = torus_spectrum(n, d)
    oracle = enumerate_spectrum(n, d)
    assert {k.coeffs: e.count for k, e in table.entries.items()} == {
        k: c for k, (c, _) in oracle.items()
    }
    for key, e in table.entries.items():
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
    assert {k.coeffs: tuple(e) for k, e in table.entries.items()} == oracle
    want = {k: packed(rep, n) for k, (_, rep) in oracle.items()}
    assert {k.coeffs: table.reps[table.embedding.image(k)] for k in table.entries} == want
    assert list(table.reps.values()) == sorted(table.reps.values())  # ascending representatives
    assert list(table.counts) == list(table.reps)


@pytest.mark.parametrize("n", range(3, 8))
def test_key_multiplicity_matches_table_d4(n):
    table = torus_spectrum(n, 4)
    for key, e in table.entries.items():
        assert key_multiplicity(n, 4, key) == e.count


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
    assert sum(e.count for e in table.entries.values()) == n**d == table.total
    for key, e in table.entries.items():
        assert key_of_tuple(n, e.representative) == key


def test_keys_hash_apart_beyond_61_digits():
    # phi(127) = 126: a hash of the packed int alone gives far fewer values
    keys = torus_spectrum(127, 2).entries
    assert len({hash(k) for k in keys}) == len(keys) == 64 * 65 // 2


@given(st.integers(min_value=2, max_value=20))
def test_even_antisymmetry(half):
    n = 2 * half
    table = torus_spectrum(n, 2)
    for key, e in table.entries.items():
        assert table.count_of(-key) == e.count


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


def test_multiplicity_examples():
    assert multiplicity_of_tuple(60, 2, (24, 10)) == 24
    assert multiplicity_of_tuple(12, 2, (0, 6)) == 22
    assert multiplicity_of_tuple(5, 2, (0, 0)) == 1


@given(st.integers(min_value=3, max_value=16), st.integers(min_value=1, max_value=3))
def test_key_multiplicity_matches_table(n, d):
    table = torus_spectrum(n, d)
    for key, e in table.entries.items():
        assert key_multiplicity(n, d, key) == e.count
    # anything above the top eigenvalue 2d is never attained
    assert key_multiplicity(n, d, get_context(n).const(2 * d + 1)) == 0


def test_membership_examples():
    assert not membership(10, 1, get_context(10).zero)
    assert membership(12, 1, get_context(12).zero)
    assert membership(6, 1, get_context(6).one)
    # dimension 0 accepts only the zero element
    assert membership(9, 0, get_context(9).zero)
    assert not membership(9, 0, get_context(9).one)


@given(st.integers(min_value=3, max_value=14), st.integers(min_value=1, max_value=4))
def test_membership_matches_table_keys(n, d):
    table = torus_spectrum(n, d)
    some_keys = list(table.entries)[:5]
    for key in some_keys:
        assert membership(n, d, key)
    assert not membership(n, d, get_context(n).const(2 * d + 1))


def element(ctx, coeffs):
    """sum of c_i zeta^i, by repeated addition."""
    out = ctx.zero
    for i, c in enumerate(coeffs):
        for _ in range(abs(c)):
            out = out + sum_reduce(ctx, (i,)) if c > 0 else out - sum_reduce(ctx, (i,))
    return out


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
        ctx.const(2 * d + 1),
        sum_reduce(ctx, (k,)),
        element(ctx, coeffs[: ctx.phi]),
        key_of_tuple(n, [k] * d) + 1,
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
    zeta, three = sum_reduce(ctx, (1,)), ctx.const(3)
    table = spectrum.torus_spectrum(5, 1)
    cycle = table.counts
    assert weak.image(three) in cycle  # F(3) = F(2 cos(4 pi / 5))
    assert any((weak.image(zeta) - f) % 11 in cycle for f in cycle)
    for target, d in ((three, 1), (zeta, 2), (zeta, 1)):
        assert key_multiplicity(5, d, target) == 0
        assert not membership(5, d, target)
    assert key_multiplicity(5, 2, ctx.const(4)) == 1
    assert weak.image(zeta) in cycle  # F(zeta) = F(2 cos(4 pi / 5)) too
    for non_key in (three, zeta):
        assert table.count_of(non_key) == 0
    assert table.count_of(key_of_tuple(5, (2,))) == 2


def test_count_of_probes_rows(monkeypatch):
    monkeypatch.setattr(spectrum, "_TORUS_CACHE", OrderedDict())
    n = 419
    t = torus_spectrum(n, 2)
    ctx = get_context(n)
    assert t.count_of(ctx.zero) == 0  # odd n: zero is no eigenvalue
    assert t.count_of(ctx.const(4)) == 1
    for ks in ((3, 17), (0, 5), (7, 7), (0, 209)):
        assert t.count_of(key_of_tuple(n, ks)) == d2_closed_form(n, *ks)
    assert t.count_of(ctx.const(5)) == 0  # above the top eigenvalue 4
    assert t.count_of(get_context(7).zero) == 0  # a key of another modulus
    assert "entries" not in vars(t)  # no exact key was built


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
    with pytest.raises(BudgetExceeded, match="cyclotomic context"):
        cayley_spectrum(CayleySpec(8000, 1, ((1,), (-1,))))  # above the context cap
    spec = CayleySpec(5, 2, ((0, 1), (0, -1)))
    assert cayley_spectrum(spec, budget=25).total == 25
    with pytest.raises(BudgetExceeded):
        cayley_spectrum(spec, budget=24)


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
    values = [float(value) for value, _, _ in t.sorted_entries()]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("n", [12, 60, 97])  # phi(97) = 96 digits
def test_sorted_entries_order_matches_reference(n):
    # independent reference: mpmath's 2cos(2 pi k / n), summed over each row's
    # representative at 200 bits; distinct keys have distinct values
    rows = torus_spectrum(n, 2).sorted_entries()
    with mpmath.workprec(200):
        two_cos = [2 * mpmath.cos(2 * mpmath.pi * k / n) for k in range(n)]
        refs = [sum(two_cos[k] for k in e.representative) for _, _, e in rows]
        assert all(a > b for a, b in zip(refs, refs[1:]))
        for (value, _, _), ref in zip(rows, refs):
            assert abs(value.real - ref) <= value.radius + mpmath.mpf(2) ** -190


def assert_values_match_residue_oracle(table):
    # each row's value, from its representative, against the evaluation of
    # its exact key from the phi(n) residue coefficients
    for f in table.counts:
        new = table.value(f)
        old = residue_approx(table.key_of(table.entry(f).representative))
        with mpmath.workprec(400):
            assert abs(new.real - old.real) <= new.radius + old.radius
        if not f:
            assert new.real == new.radius == old.real == 0


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=1, max_value=3))
def test_values_match_residue_oracle_torus(n, d):
    assert_values_match_residue_oracle(torus_spectrum(n, d))


@pytest.mark.parametrize("seed", range(20))
def test_values_match_residue_oracle_cayley(seed):
    rng = random.Random(seed)
    n, d = rng.randint(2, 16), rng.randint(1, 3)
    while n**d > 2000:
        d -= 1
    half = [tuple(rng.randrange(n) for _ in range(d)) for _ in range(rng.randint(1, 4))]
    gens = tuple(half + [tuple(-x for x in g) for g in half])
    assert_values_match_residue_oracle(cayley_spectrum(CayleySpec(n, d, gens)))
