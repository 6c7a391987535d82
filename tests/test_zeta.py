import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_sub, round_nearest

from dtorus import cli, zeta
from dtorus.errors import BudgetExceeded, PreconditionViolated
from dtorus.zeta import cjk_table, r2_upto, zeta_continuum_partial, zeta_discrete
from helpers import (
    as_mpf,
    brute_r2,
    closed_form_continuum,
    libmp_cjk_rows,
    libmp_continuum_partial,
    libmp_shell_terms,
    libmp_zeta_discrete,
    traced_peak,
)


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


def test_r2_upto_allocates_one_list():
    # one list of 10^6 + 1 slots is 8 MB; building it from two lists (say
    # [1] + [0] * limit) holds 16 MB at once
    assert traced_peak(r2_upto, 10**6) < 1.25 * 8 * (10**6 + 1)


def test_continuum_keeps_each_reused_term_in_one_int():
    # at cutoff 10^5 the r2 list is 0.8 MB, and about 10^4 nonzero shells up
    # to half the cutoff keep their terms for reuse: a (mantissa, exponent)
    # tuple each peaks at about 2.1 MB in all, one packed int at about 1.35 MB
    assert traced_peak(zeta_continuum_partial, 2, 10**5) < 1.5 * 10**6


def test_zeta_discrete_hand_values():
    z3 = zeta_discrete(3, 2, 1)
    assert abs(as_mpf(z3.value) - 2) <= as_mpf(z3.error)
    z4 = zeta_discrete(4, 2, 1)
    with mpmath.workprec(300):
        assert abs(as_mpf(z4.value) - mpmath.mpf(103) / 24) <= as_mpf(z4.error)
    assert as_mpf(z4.error) < 1e-30


@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.25, max_value=3.0),
)
def test_zeta_discrete_matches_enumeration(n, d, s):
    z = zeta_discrete(n, d, s)
    assert z.value[0] > 0
    brute = 0.0
    for t in __import__("itertools").product(range(n), repeat=d):
        if all(k == 0 for k in t):
            continue
        lam = 2 * d - sum(2 * math.cos(2 * math.pi * k / n) for k in t)
        brute += lam ** (-s)
    assert abs(float(z) - brute) < 1e-8 * max(1.0, brute)


@pytest.mark.parametrize("s", [2, 2.5])
@pytest.mark.parametrize("n", range(3, 13))
def test_zeta_discrete_error_bound_holds(n, s):
    z = zeta_discrete(n, 2, s)
    with mpmath.workprec(512):
        cos = [2 * mpmath.cos(2 * mpmath.pi * k / n) for k in range(n)]
        lams = [4 - cos[a] - cos[b] for a in range(n) for b in range(n) if a or b]
        reference = mpmath.fsum(lam ** -mpmath.mpf(s) for lam in lams)
        assert abs(as_mpf(z.value) - reference) <= as_mpf(z.error)


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


# integer s below, at and past where libmp leaves its exact powers: a
# lambda of up to 196 bits powers exactly while bc * k < 1000, so k = 5
# (the term at s = 5, the error term's power at s = 4) is exact and k = 6
# (the error term at s = 5) is not; half-integer, quarter-integer and huge
# s take libmp's mpf_pow on the same tuple
ORACLE_S = [1, 2, 3, 4, 5, 6, 1.5, 2.5, 7.25, 1e20]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(min_value=3, max_value=40), st.sampled_from([1, 2, 3]))
def test_zeta_discrete_matches_libmp_oracle(n, d):
    # value and error, bit for bit, against the mpf code they replace
    for s in ORACLE_S:
        z = zeta_discrete(n, d, s)
        assert (from_man_exp(*z.value), from_man_exp(*z.error)) == libmp_zeta_discrete(n, d, s), s


@pytest.mark.parametrize("s, n, d", [(1e40, 16, 2), (1e308, 3, 1), (1e308, 4, 3)])
def test_zeta_discrete_refuses_as_libmp_oracle(capsys, s, n, d):
    with pytest.raises(PreconditionViolated) as want:
        libmp_zeta_discrete(n, d, s)
    with pytest.raises(PreconditionViolated) as got:
        zeta_discrete(n, d, s)
    assert str(got.value) == str(want.value)
    assert cli.main(["zeta", "--n", str(n), "--d", str(d), "--s", str(s)]) == 64
    assert capsys.readouterr().err == f"error: {want.value}\n"


@pytest.mark.parametrize("s", [0.1, 1.7, 2.0**170 + 2**100])
def test_zeta_discrete_exponents_match_libmp_oracle(s):
    # mpmath forms -s - 1 at DISCRETE_PREC bits: exactly for a float s
    # whose s + 1 needs 54 bits (0.1, 1.7), rounded for an s of 171 bits
    # (refused there; at N = 4 a lambda of 2 powers exactly, and its
    # error term moves the printed bound by a factor 2 per unit of -s - 1)
    def outcome(zeta_of):
        try:
            return zeta_of(4, 2, s)
        except PreconditionViolated as exc:
            return str(exc)

    z = outcome(zeta_discrete)
    if isinstance(z, zeta.ZetaValue):
        z = from_man_exp(*z.value), from_man_exp(*z.error)
    assert z == outcome(libmp_zeta_discrete)


def test_zeta_value_float_past_the_float_range():
    # float(mpf) gives inf there, and ldexp would raise
    assert float(zeta_discrete(16, 2, 1000)) == math.inf


@pytest.mark.parametrize("s", [s for s in ORACLE_S if s > 1])
def test_cjk_rows_match_libmp_oracle(s):
    # the rows N^(-2s) zeta, and the gaps and the final ratio verify cjk
    # takes at mpmath's default 53 bits, bit for bit
    n_list = [3, 7, 16, 32]
    rows, ref = cjk_table(s, n_list, 10)
    assert [from_man_exp(*row.value) for row in rows] == libmp_cjk_rows(s, n_list)
    gaps = [zeta.cjk_gap(row.value, ref) for row in rows]
    with mpmath.workprec(53):
        want = [abs(as_mpf(row.value) - as_mpf(ref)) for row in rows]
        assert [from_man_exp(*gap) for gap in gaps] == [gap._mpf_ for gap in want]
        assert from_man_exp(*zeta.cjk_ratio(gaps[-1], ref)) == (want[-1] / as_mpf(ref))._mpf_


def test_cjk_gap_matches_mpf_sub():
    # mantissas of 1 to 160 bits, exponents near and far apart: libmp's
    # mpf_sub perturbs a far smaller operand instead of shifting it, and a
    # mantissa over 53 bits has its own bits under the rounding point
    rng = random.Random(34)
    for _ in range(3000):
        pair = []
        for _ in range(2):
            bits = rng.choice([1, 2, 53, 54, 55, 96, 160, rng.randint(1, 160)])
            pair.append((rng.getrandbits(bits) | 1 << (bits - 1), rng.randint(-400, 400)))
        a, b = pair
        want = mpf_sub(from_man_exp(*a), from_man_exp(*b), 53, round_nearest)  # mpmath's default precision
        assert from_man_exp(*zeta.cjk_gap(a, b)) == (0, *want[1:]), (a, b)


def test_exceeds_matches_fractions():
    # zero on either side, equal values written with other exponents, the
    # same leading bit with different exponents, and exponents thousands of
    # bits apart, against the exact comparison
    values = [(0, 0), (0, 9), (1, 0), (2**95, -95), (3, 5), (6, 4), (7, 4), (13, 3)]
    values += [(1, -3000), (2**160 - 1, 2000), (3, 2157), (2**96 - 1, -4096)]
    for a in values:
        for b in values:
            want = Fraction(a[0]) * Fraction(2) ** a[1] > Fraction(b[0]) * Fraction(2) ** b[1]
            assert zeta.exceeds(a, b) == want, (a, b)


def test_zeta_discrete_matches_enumeration_n24():
    z = zeta_discrete(24, 2, 2)
    brute = 0.0
    for k1 in range(24):
        for k2 in range(24):
            if k1 == k2 == 0:
                continue
            lam = 4 - 2 * math.cos(2 * math.pi * k1 / 24) - 2 * math.cos(2 * math.pi * k2 / 24)
            brute += lam**-2
    assert abs(float(z) - brute) < 1e-8 * brute


def test_zeta_continuum_single_term():
    val = as_mpf(zeta_continuum_partial(2, 1))
    with mpmath.workprec(300):
        assert abs(val - 1 / (4 * mpmath.pi**4)) < 1e-25
    assert as_mpf(zeta_continuum_partial(2, 0)) == 0


def test_zeta_continuum_monotone_in_cutoff():
    vals = [as_mpf(zeta_continuum_partial(2, c)) for c in (0, 1, 10, 100, 1000)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a


# zeta_continuum_partial(s, cutoff) recorded, as its libmp tuple, from the loop written with
# mpf operators (total += rm / (c*m)**s); (2, 10**6), the benchmark's emit
# input, and (11, 10**4) recorded from the libmp loop (helpers); the shell
# loop must match every bit, at integer and non-integer s alike.
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
    assert from_man_exp(*zeta_continuum_partial(s, cutoff)) == CONTINUUM_PINNED[s, cutoff]


# s >= 11 reaches mpf_pow_int's directed rounding, non-integer s mpf_pow
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 5, 25, 1000])
@pytest.mark.parametrize("s", [1.5, 2, 2.5, 3, 4, 7.25, 10, 11, 12, 13])
def test_zeta_continuum_matches_libmp(s, cutoff):
    assert from_man_exp(*zeta_continuum_partial(s, cutoff)) == libmp_continuum_partial(s, cutoff)


# shells m where mpf_pow_int's directed rounding at s >= 11 gives another
# base^s than the exact power rounded once (found by search over m)
DIRECTED_POW_SHELLS = {11: 164011, 12: 117833, 13: 130961}


@pytest.mark.parametrize("s", [1.5, 2, 2.5, 3, 4, 7.25, 10, 11, 12, 13])
def test_shell_terms_match_libmp(s):
    # every m up to 3000 with counts 1..7, so that rounding ties occur
    shells = [(m, 1 + m % 7) for m in range(1, 3001)]
    shells += [(m, 1) for m in DIRECTED_POW_SHELLS.values()]
    term = zeta._term_of(s)
    terms = [from_man_exp(*term(m, rm)) for m, rm in shells]
    assert terms == list(libmp_shell_terms(s, shells))


def grid_step_cases():
    """(am, ae, bm, shift) for the grid step of zeta_continuum_partial: totals
    at both ends of the PREC-bit range (and 2^96, which _round returns on a
    carry), exact ties under the total's ulp, and terms whose high bits carry
    the total into the next binade."""
    cases = []
    for shift in range(1, 2 * zeta.PREC + 2):
        half = 1 << (shift - 1)
        for am in (2**95, 2**95 + 1, 2**96 - 2, 2**96 - 1, 2**96):
            for bm in (half, half - 1, half + 1, 3 * half, (1 << min(shift, 96)) - 1, 2**96):
                cases.append((am, -50, bm, shift))
                cases.append((am, -50, bm | 1 << (shift + 1), shift))  # 2 over am's ulp: a carry
    return cases


def test_add_matches_mpf_add():
    # short mantissas (1, 3) make the ulp small next to the leading bit, so
    # a shift up to 2 * PREC still matters; shifts near 0 give exact ties
    rng = random.Random(7)
    shifts = [*range(-4, 5), *range(90, 100), *range(185, 200), 300, 1000]
    cases = []
    for shift in shifts:
        for _ in range(40):
            am, bm = (
                rng.choice([1, 3, 2**95 + 1, 2**96 - 1, rng.getrandbits(rng.randint(1, 96)) | 1])
                for _ in range(2)
            )
            cases.append((am, rng.randint(-300, 100), bm, shift))
    cases += grid_step_cases()
    for am, ae, bm, shift in cases:
        got = zeta._add(am, ae, bm, ae - shift)
        want = mpf_add(from_man_exp(am, ae), from_man_exp(bm, ae - shift), zeta.PREC, round_nearest)
        assert from_man_exp(*got) == want, (am, ae, bm, shift)


def test_grid_step_matches_mpf_add(monkeypatch):
    # the grid step lives in the shell loop alone: each case is a sum over
    # shells 1 and 2 at s = 1.5 (no term reuse, and no early stop under a
    # total at 2^-50), whose terms are the case's two numbers; a total of
    # 2^96 leaves the grid step for _add, so its cases stay with the test above
    terms = {}
    monkeypatch.setattr(zeta, "r2_upto", lambda limit: [1, 1, 1])
    monkeypatch.setattr(zeta, "_term_of", lambda s: lambda m, rm: terms[m])
    cases = [case for case in grid_step_cases() if case[0] < 2**96]
    assert len(cases) == 4 * 193 * 12
    for am, ae, bm, shift in cases:
        terms[1], terms[2] = (am, ae), (bm, ae - shift)
        got = from_man_exp(*zeta_continuum_partial(1.5, 2))
        want = mpf_add(from_man_exp(am, ae), from_man_exp(bm, ae - shift), zeta.PREC, round_nearest)
        assert got == want, (am, ae, bm, shift)


@pytest.mark.parametrize("s", [2, 3, 10, 11, 12, 13])
def test_shell_terms_scale_with_powers_of_two(s):
    # r2(2m) = r2(m), so at an integer s the loop's even shells reuse the term
    # of their half: it must be the same mantissa, exponent lowered by s
    pairs = [(m, k) for m in range(1, 3001) for k in (1, 2)]
    pairs += [(m, k) for m in DIRECTED_POW_SHELLS.values() for k in (1, 2)]
    term = zeta._term_of(s)
    for m, k in pairs:
        om, oe = term(m, 1 + m % 7)
        assert term(m << k, 1 + m % 7) == (om, oe - k * s), (m, k)


@pytest.mark.parametrize("s", [40, 40.5, 10**6])
def test_zeta_continuum_stops_early_bit_identical(s):
    # past the first shells every term lies far under the total's ulp, and
    # the loop stops, at non-integer s too; the libmp loop adds (and drops)
    # every one of them
    assert from_man_exp(*zeta_continuum_partial(s, 10**4)) == libmp_continuum_partial(s, 10**4)


def test_zeta_continuum_large_s_computes_few_terms(monkeypatch):
    # at s = 10^6 only shell 1 counts; the loop stops within the first binades
    # of shells instead of powering each of the 10^6, at non-integer s too
    calls = []
    term_of = zeta._term_of

    def counting_term_of(s):
        term = term_of(s)
        return lambda m, rm: calls.append(m) or term(m, rm)

    monkeypatch.setattr(zeta, "_term_of", counting_term_of)
    for s in (10**6, 10**6 + 0.5):
        calls.clear()
        value = zeta_continuum_partial(s, 10**6)
        assert value == zeta_continuum_partial(s, 1) and value[0] > 0
        assert calls and max(calls) < 8, s


@pytest.mark.parametrize("s", [30.5, 40])
def test_zeta_continuum_negligible_terms_match_libmp(s):
    # the terms of the larger shells lie more than 2 * PREC + 1 exponent bits
    # under the total (from m = 32 at s = 40, m = 85 at s = 30.5): _add skips them
    assert from_man_exp(*zeta_continuum_partial(s, 1000)) == libmp_continuum_partial(s, 1000)


def test_negative_cutoff_refused_before_any_sum(monkeypatch):
    # cjk_table refuses the cutoff before the discrete rows, as it does one
    # over the budget, with zeta_continuum_partial's message
    calls = []
    discrete = zeta.zeta_discrete
    monkeypatch.setattr(zeta, "zeta_discrete", lambda *args: calls.append(args) or discrete(*args))
    with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
        cjk_table(2, [16, 32, 64], -1)
    assert calls == []
    with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
        zeta_continuum_partial(2, -1)


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


def lattice_tail_bound(s, cutoff):
    """An upper bound on the sum of (4 pi^2 |v|^2)^-s over |v|^2 > cutoff.

    Each such v owns the unit square centred on it, whose points w satisfy
    |v| >= |w| - sqrt(2)/2 > sqrt(cutoff) - sqrt(2), and t^-2s decreases,
    so the sum is at most the integral of (4 pi^2)^-s (|w| - sqrt(2)/2)^-2s
    over |w| > sqrt(cutoff) - sqrt(2)/2: with t = |w| - sqrt(2)/2 and
    U = sqrt(cutoff) - sqrt(2), 2 pi times the integral of
    t^-2s (t + sqrt(2)/2) over t > U.
    """
    u = mpmath.sqrt(cutoff) - mpmath.sqrt(2)
    return (4 * mpmath.pi**2) ** -s * 2 * mpmath.pi * (
        u ** (2 - 2 * s) / (2 * s - 2) + mpmath.sqrt(2) / 2 * u ** (1 - 2 * s) / (2 * s - 1)
    )


@pytest.mark.parametrize("s", [1.5, 2, 2.5, 3])
def test_continuum_partial_falls_short_of_the_closed_form_by_its_tail(s):
    # the partial sum adds one rounded 96-bit term per nonzero shell and
    # rounds each sum, so it errs by at most 4 * shells * 2^-96 * value
    with mpmath.workprec(256):
        closed = closed_form_continuum(s, prec=256)
        counts = r2_upto(10**4)
        for cutoff in (10**2, 10**3, 10**4):
            shells = sum(1 for m in range(1, cutoff + 1) if counts[m])
            eps = 4 * shells * mpmath.mpf(2) ** -96 * closed
            gap = closed - as_mpf(zeta_continuum_partial(s, cutoff))
            assert -eps <= gap <= lattice_tail_bound(mpmath.mpf(s), cutoff) + eps, (s, cutoff)


@pytest.mark.parametrize("s", [1.5, 2, 2.5, 3])
def test_closed_form_continuum_holds_its_printed_digits(s):
    assert mpmath.nstr(closed_form_continuum(s, 128), 30) == mpmath.nstr(closed_form_continuum(s, 256), 30)


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
    a = as_mpf(zeta_continuum_partial(2, 10**4))
    b = as_mpf(zeta_continuum_partial(2, 2 * 10**4))
    assert 0 < b - a < 1e-6


def test_zeta_continuum_cauchy_tail_at_million():
    # At X = 1e6 the same estimate gives ~1e-9 (measured 1.008e-9); a
    # tighter bound like 1e-12 is not attainable for this series.  The sum
    # at 1e6 is pinned, and test_zeta_continuum_bit_identical checks it.
    a = mpmath.mp.make_mpf(CONTINUUM_PINNED[2, 10**6])
    b = as_mpf(zeta_continuum_partial(2, 2 * 10**6))
    assert 0 < b - a < 1e-8


def test_cjk_table_shapes():
    rows, ref = cjk_table(2, [8], 10**4)
    assert len(rows) == 1 and rows[0].n == 8 and rows[0].value[0] > 0
    rows, ref = cjk_table(2, [], 100)
    assert rows == [] and ref[0] > 0


def test_cjk_gap_shrinks_modestly():
    rows, ref = cjk_table(2, [8, 16, 32], 10**5)
    gaps = [abs(as_mpf(r.value) - as_mpf(ref)) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
