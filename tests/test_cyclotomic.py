import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtorus.cyclotomic import (
    CycElt,
    approx_value,
    cos_key,
    cyclotomic_poly,
    get_context,
    root_power,
    sum_reduce,
)
from dtorus.spectrum import Entry, SpectrumTable
from helpers import phi_brute, reduce_mod_phi

moduli = st.integers(min_value=1, max_value=60)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    # derived by dividing x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@given(moduli)
def test_cyclotomic_poly_degree_and_monic(n):
    coeffs = cyclotomic_poly(n)
    assert coeffs[-1] == 1
    assert len(coeffs) - 1 == phi_brute(n)


def test_root_power_examples():
    assert root_power(get_context(4), 3).coeffs == (0, -1)  # zeta_4^3 = -i
    assert root_power(get_context(6), 2).coeffs == (-1, 1)  # x^2 mod x^2-x+1
    for n in (1, 2, 5, 12):
        assert root_power(get_context(n), 0) == get_context(n).one


@given(moduli, st.integers(min_value=-100, max_value=100))
def test_root_power_periodic(n, k):
    ctx = get_context(n)
    assert root_power(ctx, k) == root_power(ctx, k + n)


def test_cos_key_examples():
    assert cos_key(get_context(12), 3).is_zero()  # 2cos(pi/2)
    assert cos_key(get_context(6), 1) == get_context(6).one  # 2cos(pi/3) = 1
    ctx = get_context(5)
    assert cos_key(ctx, 0) == ctx.const(2)


@given(moduli, st.integers(min_value=0, max_value=200))
def test_cos_key_symmetry(n, k):
    ctx = get_context(n)
    assert cos_key(ctx, k) == cos_key(ctx, n - k)


def test_sum_reduce_vanishing_examples():
    assert sum_reduce(get_context(5), [0, 1, 2, 3, 4]).is_zero()
    assert sum_reduce(get_context(6), [0, 2, 4]).is_zero()
    assert sum_reduce(get_context(12), [1, 7]).is_zero()
    assert not sum_reduce(get_context(6), [0, 1]).is_zero()


@given(moduli.filter(lambda n: n > 1))
def test_full_sum_vanishes(n):
    assert sum_reduce(get_context(n), range(n)).is_zero()


@given(
    moduli,
    st.lists(st.integers(min_value=0, max_value=400), max_size=8),
    st.lists(st.integers(min_value=0, max_value=400), max_size=8),
)
def test_sum_reduce_additive(n, a, b):
    ctx = get_context(n)
    lhs = sum_reduce(ctx, a + b)
    rhs_coeffs = tuple(
        x + y for x, y in zip(sum_reduce(ctx, a).coeffs, sum_reduce(ctx, b).coeffs)
    )
    assert lhs.coeffs == rhs_coeffs


def pack(coeffs):
    """The packed format written out: sum of c_i * 2^(64 i)."""
    return sum(c << (64 * i) for i, c in enumerate(coeffs))


TOP = 2**62  # CycElt digits lie in [-TOP, TOP)


@pytest.mark.parametrize(
    "coeffs",
    [
        (0, 0, 0, 0),
        (-1, 1, 0, 0),  # the low digit borrows from the next one
        (1, -1, 0, 0),
        (0, 0, 0, -1),  # the packed int is negative
        (-1, -1, -1, -1),
        (TOP - 1, -(TOP - 1), TOP - 1, -(TOP - 1)),
        (-TOP, TOP - 1, -TOP, TOP - 1),
    ],
)
def test_pack_round_trip(coeffs):
    e = CycElt(5, pack(coeffs))
    assert e.coeffs == coeffs
    assert (e + 0).coeffs == coeffs and (e - e).is_zero()


@given(moduli, st.lists(st.integers(min_value=-TOP, max_value=TOP - 1), max_size=20))
def test_pack_round_trip_random(n, digits):
    phi = get_context(n).phi
    coeffs = tuple(digits[:phi]) + (0,) * max(0, phi - len(digits))
    assert CycElt(n, pack(coeffs)).coeffs == coeffs


@given(moduli, st.integers(min_value=0, max_value=400))
def test_root_power_matches_division(n, k):
    poly = [0] * k + [1]
    assert root_power(get_context(n), k).coeffs == reduce_mod_phi(poly, n)


def test_digit_guard():
    ctx = get_context(5)
    x = root_power(ctx, 1)
    assert x.v == 2**64
    for make in (
        lambda: ctx.const(2**64),
        lambda: ctx.one + 2**64,
        lambda: 2**64 - ctx.one,
        lambda: CycElt(5, pack((TOP,))),
        lambda: CycElt(5, pack((0, 0, 0, -TOP - 1))),
        lambda: CycElt(5, pack((0, 0, 0, 0, 1))),  # a fifth digit: not reduced
        lambda: -CycElt(5, pack((-TOP,))),
    ):
        with pytest.raises(OverflowError):
            make()
    e = ctx.const(2**30)
    doublings = 0
    with pytest.raises(OverflowError):
        for doublings in range(40):
            e = e + e
            assert e != x
    assert doublings == 31 and e.coeffs == (2**61, 0, 0, 0)


def test_sorted_entries_breaks_ties_in_coefficient_order():
    # coefficient order puts b first; ordering by the packed int or by the
    # top digit first would put a first
    a = CycElt(5, pack((1, -1, 0, 0)))
    b = CycElt(5, pack((0, 1, 0, 0)))
    assert b < a and not a < b
    table = SpectrumTable(5, 1, {a: Entry(1, (0,), 0.5), b: Entry(1, (1,), 0.5)}, 2)
    assert [k for k, _ in table.sorted_entries()] == [b, a]


def test_elt_arithmetic_int_promotion():
    ctx = get_context(12)
    e = cos_key(ctx, 2)
    assert (e + 1) - 1 == e
    assert -(-e) == e
    assert (2 - e) == -(e - 2)
    with pytest.raises(ValueError):
        e + get_context(10).one


def test_approx_examples():
    ctx5 = get_context(5)
    av = approx_value(ctx5, cos_key(ctx5, 1))
    with mpmath.workprec(300):
        assert abs(av.real - (mpmath.sqrt(5) - 1) / 2) <= av.radius
    assert av.radius < mpmath.mpf(2) ** -128
    assert av.imag_bound < mpmath.mpf(2) ** -100

    ctx12 = get_context(12)
    one = approx_value(ctx12, get_context(12).one)
    assert abs(one.real - 1) <= one.radius
    two_cos_60 = approx_value(ctx12, cos_key(ctx12, 2))
    assert abs(two_cos_60.real - 1) <= two_cos_60.radius


def test_approx_general_element_reports_imag():
    ctx = get_context(5)
    av = approx_value(ctx, root_power(ctx, 1))
    assert abs(float(av.real) - math.cos(2 * math.pi / 5)) < 1e-12
    assert abs(float(av.imag_bound) - math.sin(2 * math.pi / 5)) < 1e-12


@given(moduli, st.integers(min_value=0, max_value=400))
def test_approx_matches_float_cosine(n, k):
    ctx = get_context(n)
    av = approx_value(ctx, cos_key(ctx, k))
    assert abs(float(av.real) - 2 * math.cos(2 * math.pi * k / n)) < 1e-9


@given(
    moduli,
    st.lists(st.integers(min_value=0, max_value=100), max_size=6),
    st.lists(st.integers(min_value=0, max_value=100), max_size=6),
)
def test_approx_is_additive_within_radii(n, a, b):
    ctx = get_context(n)
    va = approx_value(ctx, sum_reduce(ctx, a))
    vb = approx_value(ctx, sum_reduce(ctx, b))
    vab = approx_value(ctx, sum_reduce(ctx, a + b))
    with mpmath.workprec(300):
        assert abs(vab.real - va.real - vb.real) <= va.radius + vb.radius + vab.radius


def test_approx_rejects_low_bits():
    ctx = get_context(5)
    with pytest.raises(ValueError):
        approx_value(ctx, ctx.one, bits=32)


def test_phi_divides_x_n_minus_1():
    # spot-check the context invariant survives odd, even and prime-power n
    for n in (7, 16, 30, 105):
        ctx = get_context(n)
        assert len(ctx.phi_coeffs) - 1 == ctx.phi == phi_brute(n)
