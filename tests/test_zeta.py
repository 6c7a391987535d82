import math
import random

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import mpf_add, round_nearest

from dtorus import cli, zeta
from dtorus.errors import BudgetExceeded
from dtorus.zeta import cjk_table, r2_upto, zeta_continuum_partial, zeta_discrete
from helpers import brute_r2, libmp_continuum_partial, libmp_shell_terms


def test_r2_examples():
    counts = r2_upto(25)
    assert counts[0] == 1  # convention; excluded from both zetas
    assert counts[1] == 4
    assert counts[3] == 0
    assert counts[25] == 12
    assert r2_upto(0) == [1]


def test_r2_matches_brute_force():
    counts = r2_upto(3000)
    assert counts == [brute_r2(m) for m in range(3001)]


def test_zeta_discrete_hand_values():
    z3 = zeta_discrete(3, 2, 1)
    assert abs(z3.value - 2) <= z3.error
    z4 = zeta_discrete(4, 2, 1)
    with mpmath.workprec(300):
        assert abs(z4.value - mpmath.mpf(103) / 24) <= z4.error
    assert z4.error < 1e-30


@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.25, max_value=3.0),
)
def test_zeta_discrete_matches_enumeration(n, d, s):
    z = zeta_discrete(n, d, s)
    assert z.value > 0
    brute = 0.0
    for t in __import__("itertools").product(range(n), repeat=d):
        if all(k == 0 for k in t):
            continue
        lam = 2 * d - sum(2 * math.cos(2 * math.pi * k / n) for k in t)
        brute += lam ** (-s)
    assert abs(float(z.value) - brute) < 1e-8 * max(1.0, brute)


@pytest.mark.parametrize("s", [2, 2.5])
@pytest.mark.parametrize("n", range(3, 13))
def test_zeta_discrete_error_bound_holds(n, s):
    z = zeta_discrete(n, 2, s)
    with mpmath.workprec(512):
        cos = [2 * mpmath.cos(2 * mpmath.pi * k / n) for k in range(n)]
        lams = [4 - cos[a] - cos[b] for a in range(n) for b in range(n) if a or b]
        reference = mpmath.fsum(lam ** -mpmath.mpf(s) for lam in lams)
        assert abs(z.value - reference) <= z.error


@pytest.mark.parametrize("s", [1.5, 2, 3])
@pytest.mark.parametrize("n", range(3, 17))
def test_zeta_discrete_printed_digits_hold(n, s):
    # the 30 digits the CLI prints agree with a brute-force sum at 512 bits
    printed = cli._decimal(zeta_discrete(n, 2, s).value)
    with mpmath.workprec(512):
        cos = [2 * mpmath.cos(2 * mpmath.pi * k / n) for k in range(n)]
        lams = [4 - cos[a] - cos[b] for a in range(n) for b in range(n) if a or b]
        reference = mpmath.fsum(lam ** -mpmath.mpf(s) for lam in lams)
        assert printed == mpmath.nstr(reference, 30)


def test_zeta_discrete_matches_enumeration_n24():
    z = zeta_discrete(24, 2, 2)
    brute = 0.0
    for k1 in range(24):
        for k2 in range(24):
            if k1 == k2 == 0:
                continue
            lam = 4 - 2 * math.cos(2 * math.pi * k1 / 24) - 2 * math.cos(2 * math.pi * k2 / 24)
            brute += lam**-2
    assert abs(float(z.value) - brute) < 1e-8 * brute


def test_zeta_continuum_single_term():
    val = zeta_continuum_partial(2, 1)
    with mpmath.workprec(300):
        assert abs(val - 1 / (4 * mpmath.pi**4)) < 1e-25
    assert zeta_continuum_partial(2, 0) == 0


def test_zeta_continuum_monotone_in_cutoff():
    vals = [zeta_continuum_partial(2, c) for c in (0, 1, 10, 100, 1000)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a


# zeta_continuum_partial(s, cutoff)._mpf_ recorded from the loop written with
# mpf operators (total += rm / (c*m)**s); (2, 10**6), the benchmark's emit
# input, and (11, 10**4) recorded from the libmp loop (helpers); the integer
# loop must match every bit.
CONTINUUM_PINNED = {
    (2, 10**6): (0, 78430953784530813436117770083, -104, 96),
    (11, 10**4): (0, 62932408901980599530507650487, -152, 96),
    (1.5, 10**4): (0, 22922432229257034327925650083, -99, 95),
    (1.5, 10**5): (0, 11516106081242210027379912119, -98, 94),
    (2, 10**4): (0, 78426906432685286948649494047, -104, 96),
    (2, 10**5): (0, 39215292940513216001248079153, -103, 95),
    (2.5, 10**4): (0, 5271447043443687622374035913, -103, 93),
    (2.5, 10**5): (0, 10542898287422418177699879487, -104, 94),
    (3, 10**4): (0, 49144505977708320385105077177, -109, 96),
    (3, 10**5): (0, 49144506141736724325031234205, -109, 96),
}


@pytest.mark.parametrize("s, cutoff", sorted(CONTINUUM_PINNED))
def test_zeta_continuum_bit_identical(s, cutoff):
    assert zeta_continuum_partial(s, cutoff)._mpf_ == CONTINUUM_PINNED[s, cutoff]


# s >= 11 reaches mpf_pow_int's directed rounding, non-integer s mpf_pow
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 5, 25, 1000])
@pytest.mark.parametrize("s", [1.5, 2, 2.5, 3, 4, 7.25, 10, 11, 12, 13])
def test_zeta_continuum_matches_libmp(s, cutoff):
    assert zeta_continuum_partial(s, cutoff)._mpf_ == libmp_continuum_partial(s, cutoff)


# shells m where mpf_pow_int's directed rounding at s >= 11 gives another
# base^s than the exact power rounded once (found by search over m)
DIRECTED_POW_SHELLS = {11: 164011, 12: 117833, 13: 130961}


@pytest.mark.parametrize("s", [1.5, 2, 2.5, 3, 4, 7.25, 10, 11, 12, 13])
def test_shell_terms_match_libmp(s):
    # every m up to 3000 with counts 1..7, so that rounding ties occur
    shells = [(m, 1 + m % 7) for m in range(1, 3001)]
    shells += [(m, 1) for m in DIRECTED_POW_SHELLS.values()]
    terms = [zeta._mpf(man, exp) for man, exp in zeta._shell_terms(s, shells)]
    assert terms == list(libmp_shell_terms(s, shells))


def test_add_matches_mpf_add():
    # short mantissas (1, 3) make the ulp small next to the leading bit, so
    # a shift up to 2 * PREC still matters; shifts near 0 give exact ties
    rng = random.Random(7)
    shifts = [*range(-4, 5), *range(90, 100), *range(185, 200), 300, 1000]
    for shift in shifts:
        for _ in range(40):
            am, bm = (
                rng.choice([1, 3, 2**95 + 1, 2**96 - 1, rng.getrandbits(rng.randint(1, 96)) | 1])
                for _ in range(2)
            )
            ae = rng.randint(-300, 100)
            got = zeta._add(am, ae, bm, ae - shift)
            want = mpf_add(zeta._mpf(am, ae), zeta._mpf(bm, ae - shift), zeta.PREC, round_nearest)
            assert zeta._mpf(*got) == want, (am, ae, bm, shift)


@pytest.mark.parametrize("s", [30.5, 40])
def test_zeta_continuum_negligible_terms_match_libmp(s):
    # the terms of the larger shells lie more than 2 * PREC + 1 exponent bits
    # under the total (from m = 32 at s = 40, m = 85 at s = 30.5): _add skips them
    assert zeta_continuum_partial(s, 1000)._mpf_ == libmp_continuum_partial(s, 1000)


def test_zeta_continuum_cutoff_over_budget_refused_before_work(monkeypatch):
    def unreachable(limit):
        raise RuntimeError("r2_upto ran before the cutoff was checked")

    monkeypatch.setattr(zeta, "r2_upto", unreachable)
    with pytest.raises(BudgetExceeded, match="cutoff 10000001"):
        zeta_continuum_partial(2, 10**7 + 1)
    with pytest.raises(BudgetExceeded, match="cutoff 101"):
        zeta_continuum_partial(2, 101, budget=100)
    with pytest.raises(BudgetExceeded):
        cjk_table(2, [8], 101, budget=100)


def test_cjk_table_checks_n_list_before_work(monkeypatch):
    def unreachable(*args, **kwargs):
        raise RuntimeError("the continuum reference was computed before n_list was checked")

    monkeypatch.setattr(zeta, "zeta_continuum_partial", unreachable)
    with pytest.raises(ValueError, match="n >= 3"):
        cjk_table(2, [8, 2], 10**6)


def test_zeta_continuum_requires_s_above_one():
    with pytest.raises(ValueError):
        zeta_continuum_partial(1.0, 10)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, mpmath.inf])
def test_zeta_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match="finite"):
        zeta_discrete(4, 2, s)
    with pytest.raises(ValueError, match="finite"):
        zeta_continuum_partial(s, 10)
    with pytest.raises(ValueError, match="finite"):
        cjk_table(s, [4], 10)


def test_zeta_continuum_cauchy_tail():
    # The tail between cutoffs X and 2X shrinks like pi/(2X (4 pi^2)^2),
    # about 1e-7 at X = 1e4; the measured value must sit near it.
    a = zeta_continuum_partial(2, 10**4)
    b = zeta_continuum_partial(2, 2 * 10**4)
    assert 0 < b - a < 1e-6


def test_zeta_continuum_cauchy_tail_at_million():
    # At X = 1e6 the same estimate gives ~1e-9 (measured 1.008e-9); a
    # tighter bound like 1e-12 is not attainable for this series.  The sum
    # at 1e6 is pinned, and test_zeta_continuum_bit_identical checks it.
    a = mpmath.mp.make_mpf(CONTINUUM_PINNED[2, 10**6])
    b = zeta_continuum_partial(2, 2 * 10**6)
    assert 0 < b - a < 1e-8


def test_cjk_table_shapes():
    rows, ref = cjk_table(2, [8], 10**4)
    assert len(rows) == 1 and rows[0].n == 8 and rows[0].value > 0
    rows, ref = cjk_table(2, [], 100)
    assert rows == [] and ref > 0


def test_cjk_gap_shrinks_modestly():
    rows, ref = cjk_table(2, [8, 16, 32], 10**5)
    gaps = [abs(r.value - ref) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
