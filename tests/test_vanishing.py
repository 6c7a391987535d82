import json
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtorus import cyclotomic, vanishing
from dtorus.arith import factorize
from dtorus.cli import main
from dtorus.cyclotomic import get_context, key_embedding, sum_reduce
from dtorus.errors import BudgetExceeded, NotApplicable, ZeroEigenvalue
from dtorus.vanishing import (
    RootMultiset,
    classify_cos4,
    find_cos4_partners,
    find_vanishing_multiset,
    is_symmetric_rotation,
    is_vanishing,
    minimal_vanishing_sums,
    w_membership,
    _cos_sum_is_zero,
    _roots_sum_is_zero,
    _vanishing_tuples,
)
from dtorus.spectrum import DEFAULT_BUDGET

from helpers import brute_vanishing_sums, polygon_unions, scan_vanishing_tuples

moduli = st.integers(min_value=2, max_value=40)
exponent_lists = st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8)


def test_is_vanishing_examples():
    assert is_vanishing(RootMultiset(5, (0, 1, 2, 3, 4)))
    assert not is_vanishing(RootMultiset(6, (0, 1)))
    assert is_vanishing(RootMultiset(12, (1, 7)))
    # n = 2 * 11 * 13 * 17 * 19: a CycContext of this order would hold
    # n * phi(n), about 3e9, coefficients
    n = 92378
    assert is_vanishing(RootMultiset(n, tuple(range(5, n, n // 11))))
    assert is_vanishing(RootMultiset(n, (0, 1, n // 2, n // 2 + 1)))
    assert not is_vanishing(RootMultiset(n, (0, n // 11, n // 13)))
    assert not is_vanishing(RootMultiset(n, tuple(range(0, n, n // 11))[:-1]))


@given(moduli, exponent_lists, st.integers(min_value=-50, max_value=50))
def test_rotation_invariance(n, exps, shift):
    a = RootMultiset(n, tuple(exps))
    b = RootMultiset(n, tuple(e + shift for e in exps))
    assert is_vanishing(a) == is_vanishing(b)


@given(moduli, exponent_lists, st.integers(min_value=1, max_value=200))
def test_galois_invariance(n, exps, r):
    if gcd(r, n) != 1:
        r = 1 + n  # coprime fallback keeps the example useful
    a = RootMultiset(n, tuple(exps))
    b = RootMultiset(n, tuple(r * e for e in exps))
    assert is_vanishing(a) == is_vanishing(b)


def test_w_membership_examples():
    assert w_membership(15, 8) == (True, (1, 1))
    assert w_membership(15, 7) == (False, None)
    assert w_membership(8, 5)[0] is False
    ok, witness = w_membership(8, 4)
    assert ok and witness == (2,)
    assert w_membership(30, 0) == (True, (0, 0, 0))


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6))
def test_w_membership_matches_search(n, length):
    found = find_vanishing_multiset(n, length)
    member, witness = w_membership(n, length)
    assert (found is not None) == member
    if found is not None:
        assert is_vanishing(found)
        assert len(found.exponents) == length
    if member:
        primes = factorize(n).primes
        assert sum(b * p for b, p in zip(witness, primes)) == length


def test_classify_cos4_families():
    f = Fraction
    c = classify_cos4([f(2, 5), f(4, 5), f(1, 2), f(1, 3)])
    assert c.family == "III"
    c = classify_cos4([f(1, 7), f(6, 7), f(1, 5), f(4, 5)])
    assert c.family == "I" and c.parameters == (f(1, 7), f(1, 5))
    c = classify_cos4([f(3, 10), f(2, 3) - f(3, 10), f(2, 3) + f(3, 10), f(1, 2)])
    assert c.family == "II" and c.parameters == (f(3, 10),)
    c = classify_cos4([0, 0, 0, 0])
    assert c.family == "NotVanishing" and c.quadruple is None
    # all sporadic families, both mirror quadruples
    for quad, fam in [
        (((3, 5), (1, 5), (1, 2), (2, 3)), "III"),
        (((1, 5), (3, 5), (1, 3), (1, 1)), "IV"),
        (((4, 5), (2, 5), (2, 3), (0, 1)), "IV"),
        (((2, 5), (7, 15), (13, 15), (1, 3)), "V"),
        (((3, 5), (8, 15), (2, 15), (2, 3)), "V"),
        (((1, 15), (11, 15), (4, 5), (1, 3)), "VI"),
        (((14, 15), (4, 15), (1, 5), (2, 3)), "VI"),
        (((2, 7), (4, 7), (6, 7), (1, 3)), "VII"),
        (((5, 7), (3, 7), (1, 7), (2, 3)), "VII"),
    ]:
        got = classify_cos4([f(a, b) for a, b in quad])
        assert got.family == fam, (quad, got)


def test_classify_cos4_overlap_reports_lowest_family():
    # delta = 1/6 lies in family II but also pairs up as family I
    f = Fraction
    c = classify_cos4([f(1, 6), f(1, 2), f(5, 6), f(1, 2)])
    assert c.family == "I"
    assert "II" in c.overlaps


def test_classify_cos4_reconstruction_matches_input():
    f = Fraction
    for quad in [
        (f(1, 7), f(6, 7), f(1, 5), f(4, 5)),
        (f(3, 10), f(11, 30), f(29, 30), f(1, 2)),
        (f(2, 5), f(4, 5), f(1, 2), f(1, 3)),
    ]:
        c = classify_cos4(quad)
        assert c.family != "NotVanishing"
        assert sorted(c.quadruple) == sorted(quad)
        assert _cos_sum_is_zero(c.quadruple)


@given(
    st.tuples(
        st.fractions(min_value=0, max_value=1, max_denominator=20),
        st.fractions(min_value=0, max_value=1, max_denominator=20),
        st.fractions(min_value=0, max_value=1, max_denominator=20),
        st.fractions(min_value=0, max_value=1, max_denominator=20),
    )
)
def test_classify_cos4_agrees_with_exact_sum(quad):
    c = classify_cos4(quad)
    assert (c.family == "NotVanishing") == (not _cos_sum_is_zero(quad))


@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=6), min_size=1, max_size=6
    )
)
def test_cos_sum_is_zero_matches_context_reduction(angles):
    n = 2 * lcm(*(a.denominator for a in angles))
    exps = [s * a.numerator * (n // (2 * a.denominator)) for a in angles for s in (1, -1)]
    assert _cos_sum_is_zero(angles) == sum_reduce(get_context(n), exps).is_zero()


def test_cos_sum_is_zero_large_denominators():
    # 2 * lcm(11, 13, 17, 19) = 92378: far beyond a CycContext of that order
    f = Fraction
    quad = (f(1, 11), f(1, 13), f(1, 17), f(1, 19))
    assert classify_cos4(quad).family == "NotVanishing"
    assert _cos_sum_is_zero(quad + tuple(1 - a for a in quad))
    # a prime denominator of 10^18 + 3: the work grows with the terms, not with p
    big = f(1, 10**18 + 3)
    assert classify_cos4((big, f(1, 2), f(1, 3), f(1, 5))).family == "NotVanishing"
    assert classify_cos4((big, 1 - big, f(1, 3), f(2, 3))).family == "I"


def test_vanishing_tests_factor_once(monkeypatch):
    # the recursion peels one prime per level and passes the rest down
    calls = {"factorize": 0, "cos": 0}
    real_factorize, real_cos = vanishing.factorize, vanishing._cos_sum_is_zero

    def counting_factorize(n):
        calls["factorize"] += 1
        return real_factorize(n)

    def counting_cos(angles):
        calls["cos"] += 1
        return real_cos(angles)

    monkeypatch.setattr(vanishing, "factorize", counting_factorize)
    monkeypatch.setattr(vanishing, "_cos_sum_is_zero", counting_cos)
    f = Fraction
    big = f(1, 10**18 + 3)
    cases = [
        ((big, f(1, 2), f(1, 3), f(1, 5)), "NotVanishing"),
        ((big, 1 - big, f(1, 3), f(2, 3)), "I"),
        ((f(1, 9), f(5, 9), f(7, 9), f(1, 2)), "II"),
        ((f(2, 5), f(4, 5), f(1, 2), f(1, 3)), "III"),
        ((f(2, 5), f(7, 15), f(13, 15), f(1, 3)), "V"),
        ((f(2, 7), f(4, 7), f(6, 7), f(1, 3)), "VII"),
    ]
    for quad, family in cases:
        before = dict(calls)
        assert classify_cos4(quad).family == family
        assert calls["factorize"] - before["factorize"] <= calls["cos"] - before["cos"]
    # 2 * 3 * 5 * 7: the sum over all roots vanishes through every level
    before = calls["factorize"]
    assert is_vanishing(RootMultiset(210, tuple(range(210))))
    assert not is_vanishing(RootMultiset(210, tuple(range(209))))
    assert calls["factorize"] - before == 2


def test_find_cos4_partners_example_60():
    # equal-eigenvalue partners of mu(24, 10); the complements 30 - k of the
    # vanishing-sum indices (12, 15) and (2, 22)
    assert set(find_cos4_partners(60, 24, 10)) == {(8, 28), (15, 18)}


def test_find_cos4_partners_small():
    assert find_cos4_partners(5, 1, 2) == []
    assert find_cos4_partners(12, 0, 4) == [(2, 3)]
    with pytest.raises(ZeroEigenvalue):
        find_cos4_partners(12, 0, 6)


@given(st.integers(min_value=3, max_value=30))
def test_partner_count_never_exceeds_two(n):
    half = n // 2
    for k1 in range(half + 1):
        for k2 in range(k1, half + 1):
            try:
                partners = find_cos4_partners(n, k1, k2)
            except ZeroEigenvalue:
                continue
            assert len(partners) <= 2


def test_minimal_vanishing_sums_n5():
    found = minimal_vanishing_sums(5, 5)
    assert [(s.multiset.exponents, s.minimal) for s in found] == [
        ((0, 1, 2, 3, 4), True)
    ]


def test_minimal_vanishing_sums_n6():
    found = minimal_vanishing_sums(6, 3)
    got = {s.multiset.exponents for s in found}
    assert got == {(0, 3), (1, 4), (2, 5), (0, 2, 4), (1, 3, 5)}
    assert all(s.minimal for s in found)


def test_minimal_vanishing_sums_tags_decomposable():
    found = minimal_vanishing_sums(6, 4)
    by_exps = {s.multiset.exponents: s.minimal for s in found}
    assert by_exps[(0, 1, 3, 4)] is False  # two antipodal pairs
    assert by_exps[(0, 3)] is True


@pytest.mark.parametrize("n", range(1, 13))
def test_searches_match_brute_force(n):
    # lengths 6 and 7 build the triple table; at n = 1 and 2 every lookup
    # tail shares its image with others
    top = 7 if n <= 8 else 5
    oracle = brute_vanishing_sums(n, top)
    for max_len in range(1, top + 1):
        found = minimal_vanishing_sums(n, max_len)
        want = [row for row in oracle if len(row[0]) <= max_len]
        assert [(s.multiset.exponents, s.minimal) for s in found] == want
        # the lexicographically least vanishing tuple of this length through 0
        least = next((exps for exps, _ in oracle if len(exps) == max_len and exps[0] == 0), None)
        got = find_vanishing_multiset(n, max_len)
        assert (None if got is None else got.exponents) == least


def test_enumeration_matches_scan_oracle():
    # the same tuples in the same order as the full scan
    for n in range(1, 49):
        max_len = 6 if n <= 30 else 5
        want = list(scan_vanishing_tuples(n, max_len, DEFAULT_BUDGET))
        assert list(_vanishing_tuples(n, max_len, DEFAULT_BUDGET)) == want, n


# dtorus verify semigroup searches these up to --lmax, 8 by default; the
# perfbench query workload searches the others up to length 7 (at length 8
# the full scan alone takes about 8 s on 36 and 42)
SEMIGROUP_MODULI = (5, 6, 10, 15, 21, 30)
QUERY_MODULI = (7, 8, 9, 12, 14, 16, 18, 20, 22, 24, 27, 28, 36, 42)


def test_pinned_searches_match_scan_oracle():
    for n in SEMIGROUP_MODULI + QUERY_MODULI:
        top = 8 if n in SEMIGROUP_MODULI else 7
        want = list(scan_vanishing_tuples(n, top, DEFAULT_BUDGET, first=0))
        for length in range(1, top + 1):
            got = list(_vanishing_tuples(n, length, DEFAULT_BUDGET, first=0))
            assert got == [t for t in want if len(t) <= length], (n, length)


def test_pair_table_built_partway_matches_scan_oracle():
    # n(n+1)/2 last-level states pass before the pair table is built, so
    # these searches close their first prefixes by scanning, the rest by lookup
    for n, first in ((60, None), (60, 0), (84, 0)):
        want = list(scan_vanishing_tuples(n, 5, DEFAULT_BUDGET, first=first))
        assert list(_vanishing_tuples(n, 5, DEFAULT_BUDGET, first=first)) == want, (n, first)


def test_pair_lookup_shrinks_the_search():
    # 95,478 states when only the last root is looked up; 47,059 with the
    # pairs too; 15,062 with the triples as well, added once 4960 states
    # are counted, their 4960 entries counting as states like the pairs' 465
    assert len(minimal_vanishing_sums(30, 6, budget=15_062)) == 1061
    with pytest.raises(BudgetExceeded):
        minimal_vanishing_sums(30, 6, budget=15_061)


@pytest.fixture
def tail_builds(monkeypatch):
    """(n, k) for each call of vanishing._add_tails."""
    builds = []
    real = vanishing._add_tails

    def counting(tails, powers, modulus, k):
        builds.append((len(powers), k))
        return real(tails, powers, modulus, k)

    monkeypatch.setattr(vanishing, "_add_tails", counting)
    return builds


def test_triple_table_built_partway_matches_scan_oracle(tail_builds):
    # prefixes with three roots to go are scanned until the count reaches
    # the number of triples, then closed by one lookup each
    for n, max_len, first in ((30, 6, None), (27, 7, 0), (42, 7, 0)):
        want = list(scan_vanishing_tuples(n, max_len, DEFAULT_BUDGET, first=first))
        assert list(_vanishing_tuples(n, max_len, DEFAULT_BUDGET, first=first)) == want, (n, max_len)
    assert tail_builds == [(n, k) for n in (30, 27, 42) for k in (1, 2, 3)]


def test_budget_refuses_the_pair_tails(tail_builds):
    # at n = 30, L = 5 the 465 pairs are due once 473 states are counted:
    # 937 admits those states but not the pairs, 938 the pairs too
    with pytest.raises(BudgetExceeded, match="more than 937 partial-sum states"):
        list(_vanishing_tuples(30, 5, 937))
    assert tail_builds == [(30, 1)]
    with pytest.raises(BudgetExceeded, match="more than 938 partial-sum states"):
        list(_vanishing_tuples(30, 5, 938))
    assert tail_builds == [(30, 1), (30, 1), (30, 2)]


def test_search_with_pairs_but_no_triples_matches_scan_oracle(monkeypatch, tail_builds):
    # 465 pair entries fit under this cap, 4960 triple entries do not
    monkeypatch.setattr(vanishing, "MAX_TAIL_TABLE", 1000)
    for n, max_len, first in ((30, 6, None), (27, 7, 0)):
        want = list(scan_vanishing_tuples(n, max_len, DEFAULT_BUDGET, first=first))
        assert list(_vanishing_tuples(n, max_len, DEFAULT_BUDGET, first=first)) == want, (n, max_len)
    assert tail_builds == [(30, 1), (30, 2), (27, 1), (27, 2)]
    assert len(minimal_vanishing_sums(30, 6, budget=47_059)) == 1061
    with pytest.raises(BudgetExceeded):
        minimal_vanishing_sums(30, 6, budget=47_058)


def test_triple_table_lists_every_triple_of_an_image():
    # every tail of at most 3 roots once, under its image: the n/2 triples
    # (a, a + n/2, c) share the image of zeta^c, and the 3-gons image 0
    n = 12
    emb = key_embedding(n, 18)
    tails = {}
    for k in (1, 2, 3):
        vanishing._add_tails(tails, emb.powers, emb.modulus, k)
    base = n + 1
    decode = lambda code: tuple(d - 1 for d in (code // base**2, code // base % base, code % base) if d)
    listed = [decode(code) for codes in tails.values() for code in ((codes,) if type(codes) is int else codes)]
    assert sorted(listed) == sorted(t for k in (1, 2, 3) for t in combinations_with_replacement(range(n), k))
    for image, codes in tails.items():
        codes = (codes,) if type(codes) is int else codes
        assert list(codes) == sorted(set(codes))
        for code in codes:
            assert sum(emb.powers[e] for e in decode(code)) % emb.modulus == image
    shared = [decode(code) for code in tails[emb.powers[5]]]
    assert set(shared) >= {tuple(sorted((a, a + 6, 5))) for a in range(6)}
    assert [t for t in map(decode, tails[0]) if len(t) == 3] == [(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)]


def test_triple_table_is_never_paid_up_front():
    # 77 * 78 * 79 / 6 = 79,079 triples; the first 7-gon comes after 40,487
    # states, with the 3003 pairs added and counted
    assert find_vanishing_multiset(77, 7, budget=40_487).exponents == tuple(range(0, 77, 11))
    with pytest.raises(BudgetExceeded):
        find_vanishing_multiset(77, 7, budget=40_486)


def test_search_without_pair_table_matches_scan_oracle(monkeypatch):
    monkeypatch.setattr(vanishing, "MAX_TAIL_TABLE", 0)
    for n, max_len in ((24, 6), (36, 5)):
        want = list(scan_vanishing_tuples(n, max_len, DEFAULT_BUDGET))
        assert list(_vanishing_tuples(n, max_len, DEFAULT_BUDGET)) == want, n
    with pytest.raises(BudgetExceeded):
        minimal_vanishing_sums(30, 6, budget=60_000)


# two-prime moduli above the scan oracle's reach, with the triples added
POLYGON_CASES = [(n, 6) for n in (54, 63, 75, 80, 91, 98, 100)] + [(50, 7), (56, 7)]


def test_searches_match_polygon_unions(tail_builds):
    for n, max_len in POLYGON_CASES:
        want = polygon_unions(n, max_len)
        tail_builds.clear()
        found = minimal_vanishing_sums(n, max_len)
        assert [(s.multiset.exponents, s.minimal) for s in found] == want, (n, max_len)
        assert (n, 3) in tail_builds, n
        least = next((exps for exps, _ in want if len(exps) == max_len and exps[0] == 0), None)
        got = find_vanishing_multiset(n, max_len)
        assert (None if got is None else got.exponents) == least, (n, max_len)


def test_pair_table_is_never_paid_up_front():
    # the first hit comes after 353 states, long before 700 * 701 / 2
    assert find_vanishing_multiset(700, 4, budget=353).exponents == (0, 0, 350, 350)
    # 1000 * 1001 / 2 pairs lie above the cap: the first hit comes after
    # 503 states, and a fruitless search scans all of its 500,500
    assert find_vanishing_multiset(1000, 4, budget=503).exponents == (0, 0, 500, 500)
    assert find_vanishing_multiset(999, 4, budget=500_500) is None


def test_search_reach():
    # the full scan visits 217,081 states on (27, 7) and more than the
    # default budget on (35, 9); neither length lies in the semigroup
    assert find_vanishing_multiset(27, 7, budget=50_000) is None
    assert find_vanishing_multiset(35, 9) is None


@st.composite
def short_sums(draw):
    """(n, max_len, exponents): at most max_len roots, often a union of
    rotated full prime sums, sometimes with a few roots more."""
    n = draw(st.integers(min_value=1, max_value=60))
    max_len = draw(st.integers(min_value=1, max_value=8))
    exps = []
    for p in draw(st.lists(st.sampled_from(factorize(n).primes or (1,)), max_size=4)):
        if len(exps) + p <= max_len:
            a = draw(st.integers(min_value=0, max_value=n - 1))
            exps += [(a + j * (n // p)) % n for j in range(p)]
    extra = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=not exps, max_size=max_len - len(exps))
    return n, max_len, exps + draw(extra)


@given(short_sums())
def test_zero_lemma_is_exact(case):
    # M > max_len^phi(n) divides the norm of a sum of at most max_len roots
    # that F sends to 0, so F(S) = 0 exactly when S = 0
    n, max_len, exps = case
    emb = key_embedding(n, -(-max_len * max_len // 2))
    image = sum(emb.powers[e] for e in exps) % emb.modulus
    assert (image == 0) == _roots_sum_is_zero(n, Counter(exps), factorize(n).primes)


def test_searches_build_no_context(monkeypatch, capsys):
    # 5794 * phi(5794) = 5794 * 2896 digits lie above the context cap
    def unreachable(n):
        raise AssertionError("a cyclotomic context was built")

    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", unreachable)
    assert find_vanishing_multiset(5794, 2) == RootMultiset(5794, (0, 2897))
    assert main(["vanishing", "--n", "5794", "--max-len", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["sums"]) == 2897


def test_key_embedding_ceiling_comes_first(monkeypatch, capsys):
    # 10^6 powers of about 10^6 bits each: refused before n is factored
    def unreachable(*args):
        raise AssertionError("n was factored or a prime tested")

    monkeypatch.setattr(cyclotomic, "is_prime", unreachable)
    monkeypatch.setattr(cyclotomic, "factorize", unreachable)
    with pytest.raises(BudgetExceeded):
        key_embedding(1000003, 2)
    assert main(["vanishing", "--n", "1000003", "--max-len", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded: ") and err.count("\n") == 1


def test_search_has_no_recursion_limit():
    m = find_vanishing_multiset(6, 1100)
    assert len(m.exponents) == 1100 and is_vanishing(m)


def test_search_lengths_must_be_positive():
    with pytest.raises(ValueError):
        minimal_vanishing_sums(6, 0)
    with pytest.raises(ValueError):
        find_vanishing_multiset(6, 0)


def test_symmetric_rotation():
    assert is_symmetric_rotation(RootMultiset(6, (0, 2, 4))) == (3, 0)
    assert is_symmetric_rotation(RootMultiset(12, (1, 7))) == (2, 1)
    assert is_symmetric_rotation(RootMultiset(30, (0, 1, 2))) is None
    with pytest.raises(NotApplicable):
        is_symmetric_rotation(RootMultiset(30, (0, 1, 2, 3)))  # size 4 not prime
    with pytest.raises(NotApplicable):
        is_symmetric_rotation(RootMultiset(25, (0, 1)))  # 2 does not divide 25


def test_searches_stop_at_their_budget():
    with pytest.raises(BudgetExceeded):
        minimal_vanishing_sums(30, 6, budget=100)
    with pytest.raises(BudgetExceeded):
        find_vanishing_multiset(27, 7, budget=100)
